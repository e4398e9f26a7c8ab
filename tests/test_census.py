"""The census of small presentations as a standing check: every
presentation up to a small size, where random draws test only what the
generator tends to draw."""

import subprocess
import sys
from pathlib import Path

import pytest

from propcore import census

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "random_search.py"


def test_census_sizes():
    parts = (("xy", 2, 3, 3), ("xy", 2, 4, 2), ("xy", 2, 4, 3),
             ("xyz", 2, 3, 3), ("xy", 2, 5, 2))
    assert [len(census(list(letters), low, high, k))
            for letters, low, high, k in parts] == [166, 321, 1951, 5833, 1506]


def test_census_lists_antichains_on_a_prefix_of_the_alphabet():
    listed = [p.relations for p in census(["x", "y"], 2, 3, 3)]
    assert listed[:3] == [(("x", "x"),), (("x", "y"),), (("y", "x"),)]
    assert (("y", "y"),) not in listed          # y without x
    assert (("x", "x"), ("x", "x", "y")) not in listed   # xx is a factor
    assert len(set(listed)) == len(listed)


@pytest.mark.parametrize("hunt", ["fg-check", "series-check"])
@pytest.mark.parametrize("part, count", [("x,y:2-3:3", 166),
                                         ("x,y:2-4:2", 321)])
def test_census_hunts_find_nothing(part, count, hunt):
    run = subprocess.run([sys.executable, str(SCRIPT), "--census", part,
                          "--hunt", hunt], capture_output=True, text=True)
    assert (run.returncode, run.stdout, run.stderr) == (
        0, "", f"# {count} samples, 0 over the cap\n# 0 specimens\n")
