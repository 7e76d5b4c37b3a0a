"""The public surface: what ``edgepool`` exports and what README documents."""

import re
from pathlib import Path

import edgepool

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_surface_names():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library surface", 1)[1]
    block = re.search(r"from edgepool import \((.*?)\)", section, re.S).group(1)
    names = []
    for line in block.splitlines():
        names += [n.strip() for n in line.split("#", 1)[0].split(",") if n.strip()]
    return names


def test_every_exported_name_resolves():
    missing = [name for name in edgepool.__all__ if not hasattr(edgepool, name)]
    assert missing == []
    assert len(set(edgepool.__all__)) == len(edgepool.__all__)


def test_readme_surface_is_exported():
    names = readme_surface_names()
    assert "edgepool_forward" in names and "edge_pool" in names
    assert [n for n in names if n not in edgepool.__all__] == []


def test_one_merge_rule():
    assert "WeightedCombine" not in edgepool.__all__
    assert not hasattr(edgepool, "WeightedCombine")
    assert not hasattr(edgepool.pool, "WeightedCombine")
