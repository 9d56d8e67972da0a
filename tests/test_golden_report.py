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
    assert counts == {"fail": 0, "pass": 861, "skip": 193}
    assert digest == "881585d41b087ab11da22faf2e86b36d769ef6cf19f5012d56b63aba1b630402"


def test_minor_report_body_is_pinned():
    counts, digest = _body(["Thm2", "Thm3"])
    assert counts == {"fail": 0, "pass": 426, "skip": 98}
    assert digest == "37ccc5068109652871214312a587f4d28f363aff9c30acf58828f4c0a6af9af8"


def test_remaining_structural_report_body_is_pinned():
    counts, digest = _body(["Obs3", "Cor3.6", "Lem3.7", "Cor3.8", "ArcChrom", "Cor1.2",
                            "Cor4.4", "DigraphIso"])
    assert counts == {"fail": 0, "pass": 1479, "skip": 282}
    assert digest == "63b88ee7ba0fe2a54806b8726d6e4bdd3d4e7138b16a713993ff7e2851c5fcff"
