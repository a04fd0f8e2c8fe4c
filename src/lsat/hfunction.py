"""H-function of a 2-component L-space link from its Alexander data.

The central evaluator implements the inclusion-exclusion formula: start from
the stabilized value given by the two component knots, then subtract the
full-link Euler characteristic over the quadrant strictly above the query
point, read from a suffix-sum table built once per :class:`HFunction`.
Component contributions use the closed-form tail of the chi expansion so
every sum is finite.  Window scans read :meth:`HFunction.grid`, which
evaluates a whole lattice square in doubled integers.

Also provided: the overall-sign resolution rule (the unique sign making the
H-function nonnegative with bounded gaps), the derived quantities R_t and
the width N, the reference H-function of the torus link T(2,2l), a
property validator and the TSV table export used by the CLI.

Every coordinate, window, R value and width taken or returned here is a
doubled int: 2t for the half-integer t.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from .errors import InvalidInputError, NotLSpaceLinkError
from .halfgrid_poly import (
    LaurentPoly1,
    LaurentPoly2,
    Record,
    half,
    json_int,
    knot_chi_expansion,
    setslot,
)


def _t22l(l: int, t: int, r: int) -> int:
    """H of T(2, 2l) at the lattice point with doubled coordinates (t, r).

    max(H_unknot(t - l/2), -(t + r) + H_unknot(-t - l/2)); t - l/2, t + r
    and t + l/2 are integers on the lattice.
    """
    return max(max((l - t) // 2, 0), -(t + r) // 2 + max((t + l) // 2, 0))


def _point(t: int, r: int) -> str:
    """``(t,r)`` for doubled coordinates, half-integers printed as p/2."""
    return f"({half(t)},{half(r)})"


class _KnotH:
    """Closed-form evaluator for the H-function of a knot component."""

    def __init__(self, delta: LaurentPoly1):
        chi = dict(knot_chi_expansion(delta).terms)
        self.top = delta.degree() // 2
        self.bottom = delta.valuation() // 2
        # table[s] = H(s) for bottom-1 <= s <= top; H is 0 above top and
        # grows with slope 1 (chi tail = 1) below bottom.
        table = {self.top: 0}
        for s in range(self.top, self.bottom - 2, -1):
            table[s - 1] = table[s] + chi.get(2 * s, 0)
        self._table = table

    def __call__(self, s: int) -> int:
        """H at the integer s."""
        if s >= self.top:
            return 0
        if s >= self.bottom - 1:
            return self._table[s]
        return self._table[self.bottom - 1] + (self.bottom - 1 - s)


class LinkAlexData(Record):
    """Normalized Alexander data of a 2-component L-space link."""

    _fields = ("linking", "delta_tilde", "delta1", "delta2")
    __slots__ = _fields + ("_h",)

    def __init__(self, linking: int, delta_tilde: LaurentPoly2, delta1: LaurentPoly1,
                 delta2: LaurentPoly1):
        coset = delta_tilde.coset()
        want = linking % 2
        if coset is not None and coset != (want, want):
            raise InvalidInputError(
                f"delta_tilde support is off the (l/2 + Z)^2 lattice "
                f"for l = {linking}"
            )
        for name, d in (("delta1", delta1), ("delta2", delta2)):
            if d.eval_at_one() not in (1, -1):
                raise InvalidInputError(f"{name}(1) must be +-1")
            if not d.is_symmetric():
                raise InvalidInputError(f"{name} is not symmetric")
        setslot(self, "linking", linking)
        setslot(self, "delta_tilde", delta_tilde)
        setslot(self, "delta1", delta1)
        setslot(self, "delta2", delta2)
        setslot(self, "_h", None)

    @property
    def g3(self) -> int:
        """Genus of the pattern knot P(U), an L-space knot: delta2's top degree."""
        return self.delta2.degree() // 2

    def on_lattice(self, t: int, r: int) -> bool:
        """Whether doubled (t, r) lies on (l/2 + Z)^2."""
        return (t - self.linking) % 2 == 0 and (r - self.linking) % 2 == 0

    def support_extent(self) -> int:
        """Largest |doubled exponent| appearing in delta_tilde (0 when empty)."""
        return max(
            (max(abs(e1), abs(e2)) for (e1, e2), _ in self.delta_tilde.terms),
            default=0,
        )

    def hfunction(self) -> "HFunction":
        """The one HFunction of this data, evaluated with its sign as given.

        Built on first use and kept in a slot outside the fields, so every
        caller shares its table and equality and hashing do not see it.
        """
        if self._h is None:
            setslot(self, "_h", HFunction(self))
        return self._h

    def to_json_obj(self) -> dict:
        return {
            "linking": self.linking,
            "delta_tilde": self.delta_tilde.to_json_obj(),
            "delta1": self.delta1.to_json_obj(),
            "delta2": self.delta2.to_json_obj(),
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "LinkAlexData":
        if not isinstance(obj, dict):
            raise InvalidInputError("link data must be a JSON object")
        try:
            return LinkAlexData(
                linking=json_int(obj["linking"], "linking"),
                delta_tilde=LaurentPoly2.from_json_obj(obj["delta_tilde"]),
                delta1=LaurentPoly1.from_json_obj(obj["delta1"]),
                delta2=LaurentPoly1.from_json_obj(obj["delta2"]),
            )
        except KeyError as exc:
            raise InvalidInputError(f"missing link-data field {exc}") from exc


def resolve_sign(data: LinkAlexData) -> LinkAlexData:
    """Fix the overall sign of delta_tilde by nonnegativity of H.

    The one place a sign is chosen, and only ``json:`` input needs it: the
    tests prove the two-bridge walk's sign, and the unlink's delta_tilde = 0
    is its own negation.  The signs are probed on a window past the support,
    the input sign first; the first giving a nonnegative H-function with
    one-step gaps wins, so the input sign is kept when both pass
    (delta_tilde = 0).  The winner keeps the HFunction its probe built.
    """
    window = data.support_extent() + 4
    for cand in (data, data.replace(delta_tilde=data.delta_tilde.neg())):
        if next(_gap_failures(*cand.hfunction().grid(window)), None) is None:
            return cand
    raise NotLSpaceLinkError(
        "neither sign of delta_tilde yields a valid H-function"
    )


def _gap_failures(ds: List[int], rows: List[List[int]]) -> Iterator[str]:
    """Nonnegativity and unit-gap failures of a grid from HFunction.grid.

    H must be nonnegative and drop by 0 or 1 at each step up in t or r.
    """
    n = len(ds)
    for i, (t, row) in enumerate(zip(ds, rows)):
        next_t = rows[i + 1] if i + 1 < n else None
        for j, (r, v) in enumerate(zip(ds, row)):
            if v < 0:
                yield f"negative value H{_point(t, r)} = {v}"
            if next_t is not None and v - next_t[j] not in (0, 1):
                yield (
                    f"monotonicity/gap fails between {_point(t, r)} "
                    f"and {_point(t + 2, r)}: step {v - next_t[j]}"
                )
            if j + 1 < n and v - row[j + 1] not in (0, 1):
                yield (
                    f"monotonicity/gap fails between {_point(t, r)} "
                    f"and {_point(t, r + 2)}: step {v - row[j + 1]}"
                )


def _snap_up(x: int, linking: int) -> int:
    """Smallest point of the lattice coset l/2 + Z that is >= x (doubled)."""
    return x + (x - linking) % 2


def _lattice_range(linking: int, window: int) -> List[int]:
    """Doubled lattice coordinates of (l/2 + Z) within [-window, window]."""
    return list(range(_snap_up(-window, linking), window + 1, 2))


def _above(d: int, lo: int, n: int) -> int:
    """Suffix-table index of the exponents > d on a box axis from lo, n long.

    d shares the coset of the terms, so the exponents > d start at lattice
    index (d - lo)/2 + 1, clamped to the box.
    """
    return min(max((d - lo) // 2 + 1, 0), n)


class HFunction:
    """H-function evaluator for link data, with its sign as given.

    Construction precomputes a dense suffix-sum table of delta_tilde over
    its support box, in doubled integers: O(box) time and memory, where the
    box side is bounded by ``MAX_DOUBLED_EXPONENT`` on JSON input.  A point
    query then costs O(1): two knot lookups and one table entry.
    :meth:`grid` evaluates a whole lattice square [-window, window]^2 as
    O(window^2) ints, built once per scan; every window scan (sign probe,
    ``validate``, the classifier, the table export) reads one grid, on
    :func:`default_window` unless a caller names its own.
    """

    def __init__(self, data: LinkAlexData):
        self.data = data
        self.linking = data.linking
        self.h1 = _KnotH(data.delta1)
        self.h2 = _KnotH(data.delta2)
        terms = data.delta_tilde.terms
        # The zero polynomial gets a one-cell box holding 0.
        js = [j for (j, _), _ in terms] or [0]
        ks = [k for (_, k), _ in terms] or [0]
        self._j_min, self._k_min = min(js), min(ks)
        self._nj = (max(js) - self._j_min) // 2 + 1
        self._nk = (max(ks) - self._k_min) // 2 + 1
        # Entry [a][b] is the sum of the coefficients at box indices >= (a, b);
        # the last row and column stay zero.
        suffix = [[0] * (self._nk + 1) for _ in range(self._nj + 1)]
        for j, k, (_, c) in zip(js, ks, terms):
            suffix[(j - self._j_min) // 2][(k - self._k_min) // 2] = c
        for a in range(self._nj - 1, -1, -1):
            row, below = suffix[a], suffix[a + 1]
            for b in range(self._nk - 1, -1, -1):
                row[b] += row[b + 1] + below[b] - below[b + 1]
        self._suffix = suffix
        # At and past the flat edge delta_tilde has no term and H2 is 0, so
        # H is constant along every column there.
        self._h2_top = h2_top = data.linking + 2 * self.h2.top
        self._edge = _snap_up(max(data.support_extent(), h2_top), data.linking)

    def _at(self, t: int, r: int) -> int:
        """H at the lattice point with doubled coordinates (t, r), unchecked.

        H1(t - l/2) + H2(r - l/2) minus delta_tilde summed over j > t, k > r.
        """
        l = self.linking
        a = _above(t, self._j_min, self._nj)
        b = _above(r, self._k_min, self._nk)
        quadrant = self._suffix[a][b]
        return self.h1((t - l) // 2) + self.h2((r - l) // 2) - quadrant

    def __call__(self, t: int, r: int) -> int:
        """H at the lattice point with doubled coordinates (t, r)."""
        if not self.data.on_lattice(t, r):
            raise InvalidInputError(f"{_point(t, r)} is not on the lattice")
        return self._at(t, r)

    def grid(self, window: int) -> Tuple[List[int], List[List[int]]]:
        """H on the lattice square [-window, window]^2, in doubled ints.

        Returns (ds, rows): ds are the doubled lattice coordinates in
        ascending order (symmetric about 0) and rows[i][j] = H(t, r) at
        t = ds[i], r = ds[j], one outer sum per row of the knot terms and
        the suffix-table row.
        """
        l = self.linking
        ds = _lattice_range(l, window)
        h2s = [self.h2((r - l) // 2) for r in ds]
        cols = [_above(r, self._k_min, self._nk) for r in ds]
        rows = []
        for t in ds:
            base = self.h1((t - l) // 2)
            quadrants = self._suffix[_above(t, self._j_min, self._nj)]
            rows.append([base + h2 - quadrants[b] for h2, b in zip(h2s, cols)])
        return ds, rows

    def r_of_t(self, t: int) -> int:
        """Largest r where the column at t is flat above and steps below.

        Walks down from the flat edge and jumps the flat stretch between
        delta_tilde's support and l + 2 g2, so the support and g2 bound it.
        """
        r = self._edge
        if not self.data.on_lattice(t, r):
            raise InvalidInputError(f"{_point(t, r)} is not on the lattice")
        # The walk goes on only while the column is flat, so H stays here.
        here = self._at(t, r)
        while True:
            if self._h2_top < r < self._k_min:
                r = self._h2_top
            below = self._at(t, r - 2)
            if below == here + 1:
                return r
            if below != here:
                raise NotLSpaceLinkError(
                    f"bounded gap violated in column t={half(t)} at r={half(r)}"
                )
            r -= 2


def width(data: LinkAlexData) -> int:
    """Width N: the top x1-power of delta_tilde (0 for the unlink).

    Columns stabilize beyond N.  This reading needs an unknotted first
    component, as every profile does; a knotted one (delta1 not +-1)
    raises InvalidInputError.
    """
    if data.delta1.terms not in (((0, 1),), ((0, -1),)):
        raise InvalidInputError("first component must be an unknot")
    if data.delta_tilde.is_zero:
        return 0
    return data.delta_tilde.max_exp1()


def default_window(h: HFunction) -> int:
    """Window of validate, the classifier and hfunc (doubled): the largest of
    N + 3, N + g2 + 1 and two lattice steps past delta_tilde's support."""
    return max(width(h.data) + max(6, 2 * h.h2.top + 2), h.data.support_extent() + 4)


def validate(h: HFunction) -> List[str]:
    """Check the defining properties of an L-space-link H-function.

    On the doubled lattice square of :func:`default_window`, read once by
    :meth:`HFunction.grid`: nonnegativity, monotonicity and bounded gap both
    ways, the symmetry H(t,r) + t + r = H(-t,-r), and -N <= l/2 <= N with
    N = :func:`width`.  Returns the failure messages, empty when all pass; a
    knotted first component raises InvalidInputError.

    When |l/2| <= N the square holds delta_tilde's support and the steps of
    H1 and H2 with a margin.  Past it each row and column is a translate of
    one inside, so the checks hold on the whole plane and imply these:
    - H >= H of T(2,2l): H(t,r) >= H(t, flat edge) = H1(t - l/2) by
      monotonicity; symmetry gives the other term, for every l.
    - :meth:`HFunction.r_of_t` raises only on a column step not 0 or 1: never.
    - R_t is nondecreasing up to l/2: columns t and t+1 differ by 1 above
      both R values, so R_t > R_{t+1} makes them differ by 2 just below R_t.
      After l/2 they agree there, and the mirror argument keeps R_t from rising.
    - R_t is constant outside [-N, N]: for t >= N the quadrant sum is empty,
      and for t <= -N symmetry maps column t onto H2 plus a constant.
    """
    n_width, l = width(h.data), h.linking
    ds, rows = h.grid(default_window(h))
    failures = list(_gap_failures(ds, rows))

    # ds is symmetric about 0, so (-t, -r) sits at the mirrored indices; t
    # and r share the coset l/2 + Z, so t + r is an integer.
    for t, row, mirror in zip(ds, rows, reversed(rows)):
        for r, v, v_mirror in zip(ds, row, reversed(mirror)):
            if v + (t + r) // 2 != v_mirror:
                failures.append(f"symmetry fails at {_point(t, r)}")

    if not -n_width <= l <= n_width:
        failures.append(f"width bound fails: N={half(n_width)}, l/2={half(l)}")
    return failures


def hf_table(h: HFunction, window: int):
    """Grid of H values: doubled columns t ascending, rows r descending."""
    ds, rows = h.grid(window)
    return ds, [(r, list(col)) for r, col in zip(ds, zip(*rows))][::-1]


def hf_table_tsv(h: HFunction, window: int) -> str:
    """TSV rendering of the H-table with an R_t marker column."""
    coords, rows = hf_table(h, window)
    marks: dict = {}
    for t in coords:
        marks.setdefault(h.r_of_t(t), []).append(half(t))
    lines = ["r\\t\t" + "\t".join(half(t) for t in coords) + "\tR_t_at"]
    for r, vals in rows:
        lines.append(
            half(r) + "\t" + "\t".join(str(v) for v in vals) + "\t"
            + ",".join(marks.get(r, ()))
        )
    return "\n".join(lines) + "\n"
