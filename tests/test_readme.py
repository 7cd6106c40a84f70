"""The README states the package's hard caps; its numbers are the constants."""

import re
from pathlib import Path

from matroidkit.core import GROUND_SET_CAP, TABLE_CAP
from matroidkit.minors import MINOR_SIZE_CAP

README = Path(__file__).resolve().parent.parent / "README.md"

HARD_CAPS = re.compile(
    r"Hard caps: (\d+) elements per matroid, (\d+) for anything that sweeps "
    r"all `2\^n` subsets \([^)]*\), (\d+) for minor search\.")


def test_readme_hard_caps_are_the_constants():
    text = " ".join(README.read_text().split())
    found = HARD_CAPS.search(text)
    assert found, "README lost its 'Hard caps:' sentence"
    assert tuple(map(int, found.groups())) == (
        GROUND_SET_CAP, TABLE_CAP, MINOR_SIZE_CAP)
