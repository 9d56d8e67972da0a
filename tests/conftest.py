from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from linkgraphs.multigraph import Multigraph


@pytest.fixture(scope="session")
def star3():
    return Multigraph(
        ["c", "a", "b", "d"],
        [("e1", "c", "a"), ("e2", "c", "b"), ("e3", "c", "d")],
    )


def make_multigraph(n, pairs):
    """Small helper used by hypothesis-driven tests."""
    verts = [f"v{i}" for i in range(n)]
    edges = [(f"e{k}", f"v{u}", f"v{v}") for k, (u, v) in enumerate(pairs, start=1)]
    return Multigraph(verts, edges)


def run_optimized(script):
    """Run ``script`` under ``python -O`` against this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env, timeout=120)
