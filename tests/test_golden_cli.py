"""Pinned CLI output.

The stdout of ``build --kind link``, ``stats``, ``color --method recursive``
and ``minor`` on three small graphs.  These commands print every link and
label through ``to_json``, so a change to how link graphs are built or
stored must leave each of them byte-identical.
"""

from __future__ import annotations

import hashlib

import pytest

from linkgraphs import cli
from linkgraphs import multigraph as mg

GRAPHS = {"wheel(5)": (mg.wheel(5), 1), "K4": (mg.complete(4), 2), "petersen": (mg.petersen(), 3)}

COMMANDS = {
    "build": ["build", "--kind", "link"],
    "stats": ["stats"],
    "color": ["color", "--method", "recursive"],
    "minor": ["minor"],
}

DIGESTS = {
    ("build", "wheel(5)"): "5382ca04a0a02c3968f09ccf9376c6c24423b854e95f074f46566414d70d99e4",
    ("build", "K4"): "3665ccb4fcf8673eb77c9993c9c4297af43f97a67c70122bd6fb0e3f2199ff90",
    ("build", "petersen"): "b18c3b39a1ef108419a00b40484a34e2a434cb9f3db92eaf1be349fe20e90f15",
    ("stats", "wheel(5)"): "b554f481e02497c57f2e0304166def4dc98b432fd3f1c90b7772740256a87461",
    ("stats", "K4"): "cce8486f9c7e33e00e52a76c4261756a9c1457f2c4d564fb28f53fbb45dd2d94",
    ("stats", "petersen"): "e43671009cca3356cd1f6bc8798e6a9d5b08015b13b72fe04d19c05bbcfb31d3",
    ("color", "wheel(5)"): "af4f156b5ef2bd1fc55780fd4b4ca23a7d36ad03bc5f160137145f51a0b3a2b4",
    ("color", "K4"): "ac2a40930c109dabebefddb66ed225cdc3bb84a0a4d48993eea431a5dbfde144",
    ("color", "petersen"): "a615c5b3efc13f1833e22121456b2bbb86e4091d87266a89d3bf8568f1c87d1d",
    ("minor", "wheel(5)"): "61698ad7eecabcda71df3d09dafeaacf65602b2396a623fae8be9b70f5f0bd90",
    ("minor", "K4"): "304bf92a50a453cc17fa25d916c4821bb86308c1031112ad96446cbcc98b5eae",
    ("minor", "petersen"): "523bd24e8ef7cbb8fc2da46d1a01e2f00f2eb09689fb70c0dd8ed059cf7cd06d",
}


@pytest.mark.parametrize("command, name", list(DIGESTS), ids=[f"{c}-{n}" for c, n in DIGESTS])
def test_cli_output_is_pinned(command, name, tmp_path, capsys):
    G, ell = GRAPHS[name]
    path = tmp_path / "graph.txt"
    path.write_text(G.serialize(), encoding="utf-8")
    assert cli.main([*COMMANDS[command], "--ell", str(ell), str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DIGESTS[(command, name)]
