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
property-report validator and the TSV table export used by the CLI.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from .errors import InvalidInputError, NotLSpaceLinkError
from .halfgrid_poly import (
    HalfInt,
    HalfIntLike,
    LaurentPoly1,
    LaurentPoly2,
    MutableRecord,
    Record,
    json_int,
    knot_chi_expansion,
    setslot,
)


def h_t22l(l: int, s1: HalfIntLike, s2: HalfIntLike) -> int:
    """H-function of the torus link T(2, 2l) at (s1, s2)."""
    s1, s2 = HalfInt.of(s1), HalfInt.of(s2)
    if (s1.doubled - l) % 2 or (s2.doubled - l) % 2:
        raise InvalidInputError(f"({s1},{s2}) not on the lattice for l={l}")
    return _t22l(l, s1.doubled, s2.doubled)


def _t22l(l: int, t: int, r: int) -> int:
    """H of T(2, 2l) at the lattice point with doubled coordinates (t, r).

    max(H_unknot(t - l/2), -(t + r) + H_unknot(-t - l/2)); t - l/2, t + r
    and t + l/2 are integers on the lattice.
    """
    return max(max((l - t) // 2, 0), -(t + r) // 2 + max((t + l) // 2, 0))


def _point(t: int, r: int) -> str:
    """``(t,r)`` for doubled coordinates, half-integers printed as p/2."""
    return f"({HalfInt(t)},{HalfInt(r)})"


class _KnotH:
    """Closed-form evaluator for the H-function of a knot component."""

    def __init__(self, delta: LaurentPoly1):
        chi = knot_chi_expansion(delta, min(HalfInt(0), delta.valuation() - 1))
        self.top = delta.degree().as_int()
        self.bottom = delta.valuation().as_int()
        # table[s] = H(s) for bottom-1 <= s <= top; H is 0 above top and
        # grows with slope 1 (chi tail = 1) below bottom.
        table = {self.top: 0}
        for s in range(self.top, self.bottom - 2, -1):
            table[s - 1] = table[s] + chi.coeff(HalfInt.whole(s))
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

    _fields = ("linking", "delta_tilde", "delta1", "delta2", "sign_resolved")
    __slots__ = _fields + ("_extent", "_h")

    def __init__(self, linking: int, delta_tilde: LaurentPoly2, delta1: LaurentPoly1,
                 delta2: LaurentPoly1, sign_resolved: bool = False):
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
        setslot(self, "sign_resolved", sign_resolved)
        setslot(self, "_extent", None)
        setslot(self, "_h", None)

    @property
    def first_component_unknot(self) -> bool:
        """Whether delta1 is +-1, i.e. the first component is an unknot."""
        return self.delta1.terms in (
            LaurentPoly1.one().terms,
            LaurentPoly1.one().neg().terms,
        )

    def on_lattice(self, t: HalfIntLike, r: HalfIntLike) -> bool:
        want = self.linking % 2
        return (
            HalfInt.of(t).doubled % 2 == want
            and HalfInt.of(r).doubled % 2 == want
        )

    def support_extent(self) -> HalfInt:
        """Largest |exponent| appearing in delta_tilde (0 when empty).

        Scanned once and kept in a slot outside the fields, like
        :meth:`hfunction`.
        """
        if self._extent is None:
            setslot(self, "_extent", HalfInt(max(
                (max(abs(e1.doubled), abs(e2.doubled))
                 for (e1, e2), _ in self.delta_tilde.terms),
                default=0,
            )))
        return self._extent

    def hfunction(self) -> "HFunction":
        """The one HFunction of this data, so every caller shares its table.

        Built on first use and kept in a slot outside the fields, so
        equality and hashing do not see it.  Unresolved data hands out the
        HFunction its sign probe built for the resolved data.
        """
        if self._h is None:
            if self.sign_resolved:
                h = HFunction(self)
            else:
                h = resolve_sign(self).hfunction()
            setslot(self, "_h", h)
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

    The signs are probed on a window past the support, the input sign
    first; the first giving a nonnegative H-function with one-step gaps
    wins, so the input sign is kept when both pass (delta_tilde = 0).
    The winner keeps the HFunction the probe built (see
    :meth:`LinkAlexData.hfunction`).
    """
    window = data.support_extent() + 2
    for delta_tilde in (data.delta_tilde, data.delta_tilde.neg()):
        cand = data.replace(delta_tilde=delta_tilde, sign_resolved=True)
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


def _snap_up(x: HalfInt, linking: int) -> HalfInt:
    """Smallest point of the lattice coset l/2 + Z that is >= x."""
    return x + HalfInt((x.doubled - linking) % 2)


def _lattice_range(linking: int, window: HalfIntLike) -> List[HalfInt]:
    """Lattice coordinates of (l/2 + Z) within [-window, window]."""
    window = HalfInt.of(window)
    start = _snap_up(-window, linking).doubled
    return [HalfInt(d) for d in range(start, window.doubled + 1, 2)]


def _above(d: int, lo: int, n: int) -> int:
    """Suffix-table index of the exponents > d on a box axis from lo, n long.

    d shares the coset of the terms, so the exponents > d start at lattice
    index (d - lo)/2 + 1, clamped to the box.
    """
    return min(max((d - lo) // 2 + 1, 0), n)


class HFunction:
    """H-function evaluator for resolved link data.

    Construction precomputes a dense suffix-sum table of delta_tilde over
    its support box, in doubled integers: O(box) time and memory, where the
    box side is bounded by ``MAX_DOUBLED_EXPONENT`` on JSON input.  A point
    query then costs O(1): two knot lookups and one table entry.
    :meth:`grid` evaluates a whole lattice square [-window, window]^2 as
    O(window^2) ints, built once per scan with no HalfInt per point; every
    window scan (sign probe, ``validate``, the classifier, the table
    export) reads one grid.
    """

    def __init__(self, data: LinkAlexData):
        if not data.sign_resolved:
            data = resolve_sign(data)
        self.data = data
        self.linking = data.linking
        self.h1 = _KnotH(data.delta1)
        self.h2 = _KnotH(data.delta2)
        terms = data.delta_tilde.terms
        # The zero polynomial gets a one-cell box holding 0.
        js = [j.doubled for (j, _), _ in terms] or [0]
        ks = [k.doubled for (_, k), _ in terms] or [0]
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

    def _at(self, t: int, r: int) -> int:
        """H at the lattice point with doubled coordinates (t, r), unchecked.

        H1(t - l/2) + H2(r - l/2) minus delta_tilde summed over j > t, k > r.
        """
        l = self.linking
        a = _above(t, self._j_min, self._nj)
        b = _above(r, self._k_min, self._nk)
        quadrant = self._suffix[a][b]
        return self.h1((t - l) // 2) + self.h2((r - l) // 2) - quadrant

    def __call__(self, t: HalfIntLike, r: HalfIntLike) -> int:
        t, r = HalfInt.of(t), HalfInt.of(r)
        if not self.data.on_lattice(t, r):
            raise InvalidInputError(f"({t},{r}) is not on the lattice")
        return self._at(t.doubled, r.doubled)

    def grid(self, window: HalfIntLike) -> Tuple[List[int], List[List[int]]]:
        """H on the lattice square [-window, window]^2, in doubled ints.

        Returns (ds, rows): ds are the doubled lattice coordinates in
        ascending order (symmetric about 0) and rows[i][j] = H(t, r) at
        t = ds[i], r = ds[j], one outer sum per row of the knot terms and
        the suffix-table row.
        """
        l = self.linking
        ds = [c.doubled for c in _lattice_range(l, window)]
        h2s = [self.h2((r - l) // 2) for r in ds]
        cols = [_above(r, self._k_min, self._nk) for r in ds]
        rows = []
        for t in ds:
            base = self.h1((t - l) // 2)
            quadrants = self._suffix[_above(t, self._j_min, self._nj)]
            rows.append([base + h2 - quadrants[b] for h2, b in zip(h2s, cols)])
        return ds, rows

    def stabilization_r(self) -> HalfInt:
        """An r beyond which every column has stabilized."""
        return self.data.support_extent() + 1

    def r_of_t(self, t: HalfIntLike) -> HalfInt:
        """Largest r where the column at t is flat above and steps below."""
        t = HalfInt.of(t)
        r = _snap_up(self.stabilization_r(), self.linking)
        if not self.data.on_lattice(t, r):
            raise InvalidInputError(f"({t},{r}) is not on the lattice")
        td, rd = t.doubled, r.doubled
        limit = 4 * (rd + abs(td) + 16)
        # The walk goes on only while the column is flat, so H stays here.
        here = self._at(td, rd)
        for _ in range(limit):
            below = self._at(td, rd - 2)
            if below == here + 1:
                return HalfInt(rd)
            if below != here:
                raise NotLSpaceLinkError(
                    f"bounded gap violated in column t={t} at r={HalfInt(rd)}"
                )
            rd -= 2
        raise NotLSpaceLinkError(f"column t={t} never steps; not L-space data")


def width(data: LinkAlexData) -> HalfInt:
    """Width N: the t beyond which columns stabilize.

    When the first component is an unknot this is the top x1-power of
    delta_tilde (0 for the unlink); otherwise fall back to scanning the
    H-function columns with an explicit bound.
    """
    if data.first_component_unknot:
        if data.delta_tilde.is_zero:
            return HalfInt(0)
        return data.delta_tilde.max_exp1()
    return _width_from_h(data)


def _width_from_h(data: LinkAlexData) -> HalfInt:
    bound = _snap_up(data.support_extent() + 2, data.linking).doubled
    ds, rows = data.hfunction().grid(HalfInt(bound) + 2)
    column = dict(zip(ds, rows))  # doubled t -> H(t, r) for r in ds
    t = bound
    # Walk down while column t-1 equals column t (upper stabilization) and,
    # mirrored, H still grows by exactly 1 from column -(t-1) to column -t.
    while t > 0:
        upper_ok = column[t - 2] == column[t]
        lower_ok = [v + 1 for v in column[2 - t]] == column[-t]
        if not (upper_ok and lower_ok):
            return HalfInt(t)
        t -= 2
    return HalfInt(t)


class ValidationReport(MutableRecord):
    """Outcome of the H-function property checks on a window."""

    _fields = __slots__ = ("ok", "failures", "checks_run")

    def __init__(self, ok: bool, failures: Optional[List[str]] = None,
                 checks_run: Optional[List[str]] = None):
        self.ok = ok
        self.failures = [] if failures is None else failures
        self.checks_run = [] if checks_run is None else checks_run


def validate(h: HFunction, window: Optional[HalfIntLike] = None) -> ValidationReport:
    """Check the defining properties of an L-space-link H-function.

    Runs on the lattice square [-window, window]^2: nonnegativity, both
    monotonicity and bounded-gap directions, the symmetry
    H(t,r) + t + r = H(-t,-r), stabilization to the component H-functions,
    -N <= l/2 <= N, the pointwise lower bound by H of T(2,2l) (first
    component unknot, l >= 0), and the unimodal-with-flat-ends shape of R_t.
    The square is evaluated once, by :meth:`HFunction.grid`.
    """
    report = ValidationReport(ok=True)
    n_width = width(h.data)
    if window is None:
        window = n_width + 3
    window = HalfInt.of(window)
    l = h.linking
    half_l = HalfInt(l)
    ds, rows = h.grid(window)

    def fail(msg: str) -> None:
        report.ok = False
        report.failures.append(msg)

    report.checks_run.append("nonnegativity")
    report.checks_run.append("monotonicity+gap")
    for msg in _gap_failures(ds, rows):
        fail(msg)

    # ds is symmetric about 0, so (-t, -r) sits at the mirrored indices; t
    # and r share the coset l/2 + Z, so t + r is an integer.
    report.checks_run.append("symmetry")
    for t, row, mirror in zip(ds, rows, reversed(rows)):
        for r, v, v_mirror in zip(ds, row, reversed(mirror)):
            if v + (t + r) // 2 != v_mirror:
                fail(f"symmetry fails at {_point(t, r)}")

    report.checks_run.append("stabilization")
    edge = _snap_up(h.stabilization_r() + window, l).doubled
    for s in ds:
        if h._at(s, edge) != h.h1((s - l) // 2):
            fail(f"row stabilization fails at t={HalfInt(s)}")
        if h._at(edge, s) != h.h2((s - l) // 2):
            fail(f"column stabilization fails at r={HalfInt(s)}")

    report.checks_run.append("width-bounds")
    if not (-n_width <= half_l <= n_width):
        fail(f"width bound fails: N={n_width}, l/2={half_l}")

    if h.data.first_component_unknot and l >= 0:
        report.checks_run.append("torus-link-lower-bound")
        for t, row in zip(ds, rows):
            for r, v in zip(ds, row):
                if v < _t22l(l, t, r):
                    fail(f"H < H_T(2,2l) at {_point(t, r)}")

    report.checks_run.append("r-shape")
    t_window = max(window, n_width + 1)
    ts = _lattice_range(l, t_window)
    try:
        rs = {t: h.r_of_t(t) for t in ts}
    except NotLSpaceLinkError as exc:
        fail(f"R_t undefined: {exc}")
        return report
    for a, b in zip(ts, ts[1:]):
        if b <= half_l and rs[a] > rs[b]:
            fail(f"R_t decreases before l/2: R_{a}={rs[a]} > R_{b}={rs[b]}")
        if a >= half_l and rs[a] < rs[b]:
            fail(f"R_t increases after l/2: R_{a}={rs[a]} < R_{b}={rs[b]}")
        if (b <= -n_width or a >= n_width) and rs[a] != rs[b]:
            fail(f"R_t not constant outside [-N, N] between {a} and {b}")
    return report


def hf_table(h: HFunction, window: HalfIntLike):
    """Grid of H values: columns t ascending, rows r descending."""
    ds, rows = h.grid(window)
    coords = [HalfInt(d) for d in ds]
    return coords, [(r, list(col)) for r, col in zip(coords, zip(*rows))][::-1]


def hf_table_tsv(h: HFunction, window: HalfIntLike) -> str:
    """TSV rendering of the H-table with an R_t marker column."""
    coords, rows = hf_table(h, window)
    marks: dict = {}
    for t in coords:
        marks.setdefault(h.r_of_t(t), []).append(str(t))
    lines = ["r\\t\t" + "\t".join(str(t) for t in coords) + "\tR_t_at"]
    for r, vals in rows:
        lines.append(
            str(r) + "\t" + "\t".join(str(v) for v in vals) + "\t"
            + ",".join(marks.get(r, ()))
        )
    return "\n".join(lines) + "\n"
