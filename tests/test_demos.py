"""Each demo prints exactly the bytes frozen in ``golden_demos.json``.

The file maps a demo's file name to the stdout it printed when the file
was frozen.  It is data, not a generator: it is never rewritten by the
tests.
"""

import json
from pathlib import Path

import pytest

from conftest import run_python

DEMOS = Path(__file__).resolve().parent.parent / "demos"
GOLDEN = json.loads(
    Path(__file__).with_name("golden_demos.json").read_text(encoding="utf-8")
)


def test_every_demo_is_frozen():
    assert sorted(GOLDEN) == sorted(p.name for p in DEMOS.glob("*.py"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_demo_prints_the_frozen_output(name):
    proc = run_python(str(DEMOS / name))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == GOLDEN[name]
