"""The heap-driven tower reduction agrees with a plain reference reduction.

``reference_tower`` is the straightforward graded Smith reduction: at every
pivot it rescans the live entries for the least (exponent, row, column).
It is quadratic, so it lives here only, as the check on
``zcomplex.tower_alexander``.
"""

import re
from typing import Dict, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsat import Companion, ZComplex, tower_alexander, twobridge_profile
from lsat.errors import InvalidInputError, UnsupportedRegimeError, VerificationError
from lsat.zcomplex import build_summand


def reference_tower(c: ZComplex) -> int:
    """The doubled Alexander grading gr_w - gr_z of the free generator."""
    outgoing = {s for s, _, _ in c.arrows}
    incoming = {t for _, t, _ in c.arrows}
    both = outgoing & incoming
    if both:
        raise InvalidInputError(
            f"not a two-step complex: generator {min(both)} has arrows "
            "both ways"
        )
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
    except (InvalidInputError, VerificationError) as exc:
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
def two_step_complexes(draw):
    """Sources over sinks, monomial arrows, possibly non-homogeneous."""
    sinks = draw(st.integers(1, 5))
    sources = draw(st.integers(max(0, sinks - 2), sinks))
    grades = st.integers(-3, 3)
    gens = [(0, -2 * draw(grades)) for _ in range(sinks)]
    gens += [(1, 1 - 2 * draw(grades)) for _ in range(sources)]
    homogeneous = draw(st.booleans())
    arrows = []
    for i in range(sources):
        for b in draw(st.sets(st.integers(0, sinks - 1), max_size=sinks)):
            if homogeneous:
                # k = A(source) - A(sink), kept only when it is a Z-power.
                k = (gens[sinks + i][0] - gens[sinks + i][1] + gens[b][1]) // 2
                if k < 0:
                    continue
            else:
                k = draw(st.integers(0, 3))
            arrows.append((sinks + i, b, k))
    # Shuffle the generators and point each arrow at its ends' new index.
    order = draw(st.permutations(range(len(gens))))
    moved = {old: new for new, old in enumerate(order)}
    return (tuple(gens[i] for i in order),
            tuple((moved[s], moved[t], k) for s, t, k in arrows))


def _first_inhomogeneous(gens, arrows):
    """check's message for the first arrow, in sorted order, whose Z-power
    is not A(source) - A(target); None when every arrow is homogeneous."""
    grade = [w - z for w, z in gens]  # doubled A
    for s, t, k in sorted(arrows):
        if grade[s] - grade[t] != 2 * k:
            return f"arrow {s}->{t}: gr_z shift inconsistent with Z^{k}"
    return None


@settings(max_examples=400, deadline=None, derandomize=True)
@given(two_step_complexes())
def test_random_two_step_complexes_reduce_like_the_reference(drawn):
    # A non-homogeneous draw is refused when it is built; every complex
    # that is built reduces like the reference.
    gens, arrows = drawn
    fault = _first_inhomogeneous(gens, arrows)
    if fault is not None:
        with pytest.raises(VerificationError, match=f"^{re.escape(fault)}$"):
            ZComplex(gens, arrows, "random")
        return
    c = ZComplex(gens, arrows, "random")
    assert _outcome(tower_alexander, c) == _outcome(reference_tower, c)


def test_each_outcome_matches_on_a_hand_made_complex():
    gens = ((0, 0), (0, -2), (1, -1), (1, 1))
    grading = ZComplex(gens[:3], ((2, 0, 1), (2, 1, 0)))
    rank = ZComplex(gens[:2], ())
    assert _outcome(tower_alexander, grading) == 0
    assert _outcome(tower_alexander, rank) == (
        VerificationError, "free homology rank 2 != 1 in ''"
    )
    for c in (grading, rank):
        assert _outcome(tower_alexander, c) == _outcome(reference_tower, c)
    # Arrows that would collide in the reduction are not homogeneous, so
    # the complex is refused when it is built.
    with pytest.raises(VerificationError, match="^arrow 2->0: gr_z shift"):
        ZComplex(gens, ((2, 0, 0), (2, 1, 0), (3, 0, 0), (3, 1, 1)))
