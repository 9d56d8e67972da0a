"""Pinned report bodies.

The first covers the structural claims that read the hub, the middle
segments, the natural partition and the path graph; the second the clique
minor claims, whose records carry each witness's order and route; the third
the rest of the structural body: the counting and multiplicity
observations, the hub corollaries, the colouring corollaries and the digraph
isomorphism.  A change to how those claims are computed must leave every
record of these runs byte-identical once the timings are stripped.
"""

from __future__ import annotations

import hashlib
import json

from linkgraphs.harness import default_corpus, verify_suite


def _body(claims):
    report = json.loads(verify_suite(default_corpus(), claims=claims).to_json())
    for rec in report["records"]:
        del rec["ms"]
    body = json.dumps(report, indent=2, sort_keys=True)
    return report["counts"], hashlib.sha256(body.encode("utf-8")).hexdigest()


def test_structural_report_body_is_pinned():
    counts, digest = _body(["Lem3.5", "Lem4.1", "PathGirth", "Thm1"])
    assert counts == {"fail": 0, "pass": 954, "skip": 100}
    assert digest == "7ed3f9486a6282145885da1f8743bed5384bb7ec999250c2b9a4c3f680e686a7"


def test_minor_report_body_is_pinned():
    counts, digest = _body(["Thm2", "Thm3"])
    assert counts == {"fail": 0, "pass": 426, "skip": 98}
    assert digest == "37ccc5068109652871214312a587f4d28f363aff9c30acf58828f4c0a6af9af8"


def test_remaining_structural_report_body_is_pinned():
    counts, digest = _body(["Obs3", "Cor3.6", "Lem3.7", "Cor3.8", "ArcChrom", "Cor1.2",
                            "Cor4.4", "DigraphIso"])
    assert counts == {"fail": 0, "pass": 1515, "skip": 246}
    assert digest == "168049ebc423633c5eb5a6fc9f24ac86a5d67e47dc0225380c1214e4eb412027"
