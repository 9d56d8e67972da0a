"""Pinned report body of the structural claims that read the hub, the middle
segments, the natural partition and the path graph.

A change to how those claims are computed must leave every record of this
run byte-identical once the timings are stripped.
"""

from __future__ import annotations

import hashlib
import json

from linkgraphs.harness import default_corpus, verify_suite

CLAIMS = ["Lem3.5", "Lem4.1", "PathGirth", "Thm1"]
BODY_SHA256 = "881585d41b087ab11da22faf2e86b36d769ef6cf19f5012d56b63aba1b630402"


def test_structural_report_body_is_pinned():
    report = json.loads(verify_suite(default_corpus(), claims=CLAIMS).to_json())
    for rec in report["records"]:
        del rec["ms"]
    assert report["counts"] == {"fail": 0, "pass": 861, "skip": 193}
    body = json.dumps(report, indent=2, sort_keys=True)
    assert hashlib.sha256(body.encode("utf-8")).hexdigest() == BODY_SHA256
