"""The path contraction agrees with a plain reference reduction.

``reference_tower`` is the straightforward graded Smith reduction of a
two-step complex, read from a path's ``generators`` and ``arrows``: at
every pivot it rescans the live entries for the least (exponent, row,
column).  It is quadratic, so it lives here only, as the check on
``zcomplex.tower_alexander``.
"""

from typing import Dict, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsat import Companion, ZComplex, tower_alexander, twobridge_profile
from lsat.errors import UnsupportedRegimeError, VerificationError
from lsat.zcomplex import build_summand


def reference_tower(c: ZComplex) -> int:
    """The doubled Alexander grading gr_w - gr_z of the free generator."""
    outgoing = {s for s, _, _ in c.arrows}
    indices = range(len(c.generators))  # arrows address generators by index
    cols = [g for g in indices if g in outgoing]
    rows = [g for g in indices if g not in outgoing]
    col_ix = {g: j for j, g in enumerate(cols)}
    row_ix = {g: i for i, g in enumerate(rows)}
    entries: Dict[Tuple[int, int], int] = {}
    for s, t, k in c.arrows:
        entries[(row_ix[t], col_ix[s])] = k

    active_rows = set(range(len(rows)))
    active_cols = set(range(len(cols)))
    while True:
        live = [
            (k, i, j)
            for (i, j), k in entries.items()
            if i in active_rows and j in active_cols
        ]
        if not live:
            break
        _, i0, j0 = min(live)
        k0 = entries[(i0, j0)]
        for i in list(active_rows):
            if i == i0 or (i, j0) not in entries:
                continue
            d = entries[(i, j0)] - k0
            for j in active_cols:
                piv = entries.get((i0, j))
                if piv is None:
                    continue
                key = (i, j)
                new = piv + d
                if key in entries:
                    if entries[key] != new:
                        raise VerificationError(
                            "non-homogeneous entry collision in reduction"
                        )
                    del entries[key]
                else:
                    entries[key] = new
        for j in list(active_cols):
            if j != j0 and (i0, j) in entries:
                del entries[(i0, j)]
        active_rows.discard(i0)
        active_cols.discard(j0)

    alexander = [w - z for w, z in c.generators]
    free_grades = [alexander[cols[j]] for j in sorted(active_cols)]
    free_grades += [alexander[rows[i]] for i in sorted(active_rows)
                    if all((i, j) not in entries for j in range(len(cols)))]
    if len(free_grades) != 1:
        raise VerificationError(
            f"free homology rank {len(free_grades)} != 1 in {c.case_tag!r}"
        )
    return free_grades[0]


def _outcome(reduce, c: ZComplex):
    try:
        return reduce(c)
    except VerificationError as exc:
        return type(exc), str(exc)


COMPANIONS = [Companion(tau=0, eps=0)] + [
    Companion(tau=tau, eps=eps) for eps in (-1, 1) for tau in range(-3, 4)
]


@pytest.mark.parametrize("r, q", [
    (r, q) for r in (3, 5, 7, 9, 11) for q in range(1, r + 1, 2)
])
def test_every_small_summand_reduces_like_the_reference(r, q):
    prof = twobridge_profile(r, q)
    reduced = 0
    for K in COMPANIONS:
        for n in range(-12, 13):
            try:
                c = build_summand(prof, K, n)
            except UnsupportedRegimeError:
                continue
            assert tower_alexander(c) == reference_tower(c), (K, n)
            reduced += 1
    assert reduced > 0


@st.composite
def zigzag_paths(draw):
    """Any path of up to 12 arrows: odd lengths have free rank 0."""
    weights = draw(st.lists(st.integers(0, 6), max_size=12))
    return ZComplex(weights, draw(st.booleans()),
                    2 * draw(st.integers(-5, 5)), "random")


@settings(max_examples=400, deadline=None, derandomize=True)
@given(zigzag_paths())
def test_random_paths_reduce_like_the_reference(c):
    got = _outcome(tower_alexander, c)
    assert got == _outcome(reference_tower, c)
    if len(c.weights) % 2:
        assert got == (VerificationError, "free homology rank 0 != 1 in 'random'")
    else:
        assert isinstance(got, int)


def test_each_outcome_matches_on_a_hand_made_complex():
    # d(g2) = Z g0 + g1 as the path g0 <- g2 -> g1, and one arrow alone.
    grading = ZComplex((1, 0), True, 0)
    rank = ZComplex((1,), True, 0)
    assert _outcome(tower_alexander, grading) == 0
    assert _outcome(tower_alexander, rank) == (
        VerificationError, "free homology rank 0 != 1 in ''"
    )
    for c in (grading, rank):
        assert _outcome(tower_alexander, c) == _outcome(reference_tower, c)
