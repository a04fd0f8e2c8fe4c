"""Shared fixtures and frozen reference tables for the test suite.

The frozen H-tables below are the published reference values for the
two-component unlink, the positive and negative Hopf links, the
Whitehead link, and the L(14,3) link; every entry was transcribed once
and is compared exactly against the Gorsky-Nemethi evaluation.

``invoke`` runs the ``lsat`` command line in this process and
``run_python`` runs a fresh interpreter.
"""

import contextlib
import io
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import pytest

import lsat
from lsat import LinkAlexData, PatternProfile
from lsat.cli import main
from lsat.halfgrid_poly import LaurentPoly1, LaurentPoly2, half
from lsat.patterns import MAX_TWOBRIDGE_R


@dataclass(frozen=True)
class CliResult:
    stdout: str
    stderr: str
    output: str  # stdout and stderr interleaved in the order written
    exit_code: int
    exception: Optional[SystemExit]


class _Stream(io.StringIO):
    """A captured stream that also copies every write to ``shared``."""

    def __init__(self, shared: io.StringIO):
        super().__init__()
        self.shared = shared

    def write(self, s: str) -> int:
        self.shared.write(s)
        return super().write(s)


def invoke(argv: List[str]) -> CliResult:
    """Run ``lsat.cli.main(argv)``; exceptions other than SystemExit propagate."""
    output = io.StringIO()
    out, err = _Stream(output), _Stream(output)
    exception = None
    exit_code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(argv)
        except SystemExit as exc:
            exception = exc
            code = exc.code
            exit_code = code if isinstance(code, int) else int(code is not None)
    return CliResult(
        out.getvalue(), err.getvalue(), output.getvalue(), exit_code, exception
    )


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run ``python ARGS`` with this ``lsat`` on the path, 30 s at most."""
    # No bytecode: a child must not leave __pycache__ in the source tree.
    env = {
        "PYTHONPATH": str(Path(lsat.__file__).parents[1]),
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=30,
        env=env,
    )


def two_bridge_pairs(max_r: int):
    """Two-bridge (r, q) with odd 1 <= q <= r <= max_r, except (1, 1)."""
    return [(r, q) for r in range(3, max_r + 1, 2) for q in range(1, r + 1, 2)]


# Every pair the two-bridge family accepts (560 at MAX_TWOBRIDGE_R = 65).
TWOBRIDGE_PAIRS = two_bridge_pairs(MAX_TWOBRIDGE_R)


def grid(doubled_lo: int, doubled_hi: int):
    """Doubled lattice coordinates from doubled_lo to doubled_hi in whole steps."""
    return list(range(doubled_lo, doubled_hi + 1, 2))


# Rows r descending, columns t ascending, exactly as in the reference
# figures.  Coordinates are given as doubled integers.

UNLINK_TABLE = {
    "t": grid(-4, 4),
    "r": grid(-4, 2)[::-1],  # r = 1, 0, -1, -2
    "h": [
        [2, 1, 0, 0, 0],  # r = 1
        [2, 1, 0, 0, 0],  # r = 0
        [3, 2, 1, 1, 1],  # r = -1
        [4, 3, 2, 2, 2],  # r = -2
    ],
}

HOPF_PLUS_TABLE = {
    "t": grid(-3, 5),
    "r": grid(-3, 3)[::-1],  # r = 3/2, 1/2, -1/2, -3/2
    "h": [
        [2, 1, 0, 0, 0],
        [2, 1, 0, 0, 0],
        [2, 1, 1, 1, 1],
        [3, 2, 2, 2, 2],
    ],
}

HOPF_MINUS_TABLE = {
    "t": grid(-5, 3),
    "r": grid(-5, 1)[::-1],  # r = 1/2, -1/2, -3/2, -5/2
    "h": [
        [2, 1, 0, 0, 0],
        [3, 2, 1, 0, 0],
        [4, 3, 2, 1, 1],
        [5, 4, 3, 2, 2],
    ],
}

WHITEHEAD_TABLE = {
    "t": grid(-4, 4),
    "r": grid(-4, 4)[::-1],  # r = 2 .. -2
    "h": [
        [2, 1, 0, 0, 0],
        [2, 1, 0, 0, 0],
        [2, 1, 1, 0, 0],
        [3, 2, 1, 1, 1],
        [4, 3, 2, 2, 2],
    ],
}

MAZUR_TABLE = {
    "t": grid(-5, 5),
    "r": grid(-5, 5)[::-1],  # r = 5/2 .. -5/2
    "h": [
        [3, 2, 1, 0, 0, 0],
        [3, 2, 1, 0, 0, 0],
        [3, 2, 1, 1, 0, 0],
        [3, 2, 2, 1, 1, 1],
        [4, 3, 2, 2, 2, 2],
        [5, 4, 3, 3, 3, 3],
    ],
}


def negative_hopf_data() -> LinkAlexData:
    from lsat import resolve_sign

    return resolve_sign(
        LinkAlexData(
            linking=-1,
            delta_tilde=LaurentPoly2.from_terms({(1, 1): -1}),
            delta1=LaurentPoly1.one(),
            delta2=LaurentPoly1.one(),
        )
    )


# Hand-made profiles, R values and widths doubled and on l/2 + Z: cond_tau
# fails on the first two and holds on the other three, of which cond_eps
# holds on the third only.
HAND_MADE = [
    PatternProfile(l=2, g3=1, n_width=4, r_minus=0, r_center=4, r_plus=2),
    PatternProfile(l=3, g3=2, n_width=5, r_minus=3, r_center=9, r_plus=5),
    PatternProfile(l=1, g3=0, n_width=3, r_minus=1, r_center=3, r_plus=1),
    PatternProfile(l=2, g3=0, n_width=4, r_minus=0, r_center=4, r_plus=2),
    PatternProfile(l=0, g3=0, n_width=2, r_minus=-2, r_center=0, r_plus=-2),
]


@pytest.fixture(scope="session")
def whitehead_h():
    from lsat import HFunction, twobridge_data

    return HFunction(twobridge_data(3, 3))


@pytest.fixture(scope="session")
def mazur_h():
    from lsat import HFunction, twobridge_data

    return HFunction(twobridge_data(5, 3))


def assert_table_matches(h, table) -> None:
    for row, r in zip(table["h"], table["r"]):
        for value, t in zip(row, table["t"]):
            assert h(t, r) == value, (
                f"H({half(t)},{half(r)}) = {h(t, r)} != {value}"
            )


def twobridge_alexander_closed(r: int, q: int) -> LaurentPoly2:
    """Closed-form sum for the two-bridge polynomial (p = rq - 1).

    A second formula for ``lsat.twobridge_alexander``, which builds the
    same polynomial from the lattice walk; kept here as its reference.
    """
    from lsat import twobridge_eta

    p = r * q - 1
    eta = [0] + [twobridge_eta(p, q, i) for i in range(1, p)]
    terms: dict = {}
    for i in range(1, p // 2 + 1):
        coeff = eta[2 * i - 1]
        e1 = sum(eta[2 * j] for j in range(1, i))
        e2 = (eta[2 * i - 1] - 1) // 2 + sum(
            eta[2 * k - 1] for k in range(1, i)
        )
        key = (2 * e1, 2 * e2)
        terms[key] = terms.get(key, 0) + coeff
    return LaurentPoly2.from_terms(terms)

