"""H-function of a 2-component L-space link from its Alexander data.

The central evaluator implements the inclusion-exclusion formula: start from
the stabilized value given by the two component knots, then subtract the
full-link Euler characteristic over the quadrant strictly above the query
point, read from a suffix-sum table built once per :class:`HFunction`.
Component contributions use the closed-form tail of the chi expansion so
every sum is finite.

Also provided: the overall-sign resolution rule (the unique sign making the
H-function nonnegative with bounded gaps), the derived quantities R_t and
the width N, reference H-functions (unknot, torus link T(2,2l)), a
property-report validator and the TSV table export used by the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Tuple

from .errors import (
    InvalidInputError,
    NotLSpaceLinkError,
    UnresolvedSignError,
)
from .halfgrid_poly import (
    HalfInt,
    HalfIntLike,
    LaurentPoly1,
    LaurentPoly2,
    json_int,
    knot_chi_expansion,
)


def h_unknot(s: HalfIntLike) -> int:
    """H-function of the unknot: max(-s, 0)."""
    s = HalfInt.of(s)
    return max(-s.as_int(), 0)


def h_t22l(l: int, s1: HalfIntLike, s2: HalfIntLike) -> int:
    """H-function of the torus link T(2, 2l) at (s1, s2)."""
    s1, s2 = HalfInt.of(s1), HalfInt.of(s2)
    half_l = HalfInt(l)
    if (s1 - half_l).doubled % 2 or (s2 - half_l).doubled % 2:
        raise InvalidInputError(f"({s1},{s2}) not on the lattice for l={l}")
    a = h_unknot(s1 - half_l)
    b = (-s1 - s2).as_int() + h_unknot(-s1 - half_l)
    return max(a, b)


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

    def __call__(self, s: HalfIntLike) -> int:
        s = HalfInt.of(s).as_int()
        if s >= self.top:
            return 0
        if s >= self.bottom - 1:
            return self._table[s]
        return self._table[self.bottom - 1] + (self.bottom - 1 - s)


@dataclass(frozen=True)
class LinkAlexData:
    """Normalized Alexander data of a 2-component L-space link."""

    linking: int
    delta_tilde: LaurentPoly2
    delta1: LaurentPoly1
    delta2: LaurentPoly1
    sign_resolved: bool = False

    def __post_init__(self):
        coset = self.delta_tilde.coset()
        want = self.linking % 2
        if coset is not None and coset != (want, want):
            raise InvalidInputError(
                f"delta_tilde support is off the (l/2 + Z)^2 lattice "
                f"for l = {self.linking}"
            )
        for name, d in (("delta1", self.delta1), ("delta2", self.delta2)):
            if d.eval_at_one() not in (1, -1):
                raise InvalidInputError(f"{name}(1) must be +-1")
            if not (d.is_symmetric() or d.neg().is_symmetric()):
                raise InvalidInputError(f"{name} is not symmetric")

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
        """Largest |exponent| appearing in delta_tilde (0 when empty)."""
        m = 0
        for (e1, e2), _ in self.delta_tilde.terms:
            m = max(m, abs(e1.doubled), abs(e2.doubled))
        return HalfInt(m)

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


def gn_h(data: LinkAlexData, t: HalfIntLike, r: HalfIntLike) -> int:
    """Evaluate the H-function at (t, r) by inclusion-exclusion.

    H(t, r) = H1(t - l/2) + H2(r - l/2) minus the sum of delta_tilde
    coefficients over the open quadrant j > t, k > r.
    """
    if not data.sign_resolved:
        raise UnresolvedSignError(
            "delta_tilde sign unresolved; call resolve_sign first"
        )
    return HFunction(data)(t, r)


def resolve_sign(data: LinkAlexData) -> LinkAlexData:
    """Fix the overall sign of delta_tilde by nonnegativity of H.

    The signs are probed on a window past the support, the input sign
    first; the first giving a nonnegative H-function with one-step gaps
    wins, so the input sign is kept when both pass (delta_tilde = 0).
    """
    window = data.support_extent() + 2
    for delta_tilde in (data.delta_tilde, data.delta_tilde.neg()):
        cand = replace(data, delta_tilde=delta_tilde, sign_resolved=True)
        if next(_gap_failures(HFunction(cand), window), None) is None:
            return cand
    raise NotLSpaceLinkError(
        "neither sign of delta_tilde yields a valid H-function"
    )


def _gap_failures(h: HFunction, window: HalfIntLike) -> Iterator[str]:
    """Nonnegativity and unit-gap failures on the square [-window, window]^2.

    H must be nonnegative and drop by 0 or 1 at each step up in t or r.
    """
    coords = _lattice_range(h.linking, window)
    vals = {(t, r): h(t, r) for t in coords for r in coords}
    for (t, r), v in vals.items():
        if v < 0:
            yield f"negative value H({t},{r}) = {v}"
        for t2, r2 in ((t + 1, r), (t, r + 1)):
            v2 = vals.get((t2, r2))
            if v2 is not None and v - v2 not in (0, 1):
                yield (
                    f"monotonicity/gap fails between ({t},{r}) "
                    f"and ({t2},{r2}): step {v - v2}"
                )


def _snap_up(x: HalfInt, linking: int) -> HalfInt:
    """Smallest point of the lattice coset l/2 + Z that is >= x."""
    return x + HalfInt((x.doubled - linking) % 2)


def _lattice_range(linking: int, window: HalfIntLike) -> List[HalfInt]:
    """Lattice coordinates of (l/2 + Z) within [-window, window]."""
    window = HalfInt.of(window)
    start = _snap_up(-window, linking).doubled
    return [HalfInt(d) for d in range(start, window.doubled + 1, 2)]


class HFunction:
    """Memoized H-function evaluator for resolved link data.

    Construction precomputes a dense suffix-sum table of delta_tilde over
    its support box, in doubled integers: O(box) time and memory, where the
    box side is bounded by ``MAX_DOUBLED_EXPONENT`` on JSON input.  Each
    query then costs O(1): two knot lookups and one table entry.
    """

    def __init__(self, data: LinkAlexData):
        if not data.sign_resolved:
            data = resolve_sign(data)
        self.data = data
        self.linking = data.linking
        self.h1 = _KnotH(data.delta1)
        self.h2 = _KnotH(data.delta2)
        self._memo: Dict[Tuple[int, int], int] = {}
        self._suffix: List[List[int]] = []
        terms = data.delta_tilde.terms
        if not terms:
            return
        js = [j.doubled for (j, _), _ in terms]
        ks = [k.doubled for (_, k), _ in terms]
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

    def _quadrant_sum(self, t_doubled: int, r_doubled: int) -> int:
        """Sum of delta_tilde over the open quadrant j > t, k > r.

        The query shares the coset of the terms, so j > t is the lattice
        index (t - j_min)/2 + 1 onwards, clamped to the box.
        """
        if not self._suffix:
            return 0
        a = min(max((t_doubled - self._j_min) // 2 + 1, 0), self._nj)
        b = min(max((r_doubled - self._k_min) // 2 + 1, 0), self._nk)
        return self._suffix[a][b]

    def __call__(self, t: HalfIntLike, r: HalfIntLike) -> int:
        t, r = HalfInt.of(t), HalfInt.of(r)
        key = (t.doubled, r.doubled)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        half_l = HalfInt(self.linking)
        if not self.data.on_lattice(t, r):
            raise InvalidInputError(f"({t},{r}) is not on the lattice")
        total = (
            self.h1(t - half_l) + self.h2(r - half_l) - self._quadrant_sum(*key)
        )
        self._memo[key] = total
        return total

    def stabilization_r(self) -> HalfInt:
        """An r beyond which every column has stabilized."""
        return self.data.support_extent() + 1

    def r_of_t(self, t: HalfIntLike) -> HalfInt:
        """Largest r where the column at t is flat above and steps below."""
        t = HalfInt.of(t)
        r = _snap_up(self.stabilization_r(), self.linking)
        limit = 4 * (r.doubled + abs(t.doubled) + 16)
        for _ in range(limit):
            here = self(t, r)
            below = self(t, r - 1)
            if below == here + 1:
                return r
            if below != here:
                raise NotLSpaceLinkError(
                    f"bounded gap violated in column t={t} at r={r}"
                )
            r = r - 1
        raise NotLSpaceLinkError(f"column t={t} never steps; not L-space data")


def r_of_t(h: HFunction, t: HalfIntLike) -> HalfInt:
    return h.r_of_t(t)


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
    h = HFunction(data)
    bound = _snap_up(data.support_extent() + 2, data.linking)
    rs = _lattice_range(data.linking, bound + 2)
    t = bound
    # Walk down while column t-1 equals column t (upper stabilization) and,
    # mirrored, H still grows by exactly 1 from column -(t-1) to column -t.
    while t > HalfInt(0):
        upper_ok = all(h(t - 1, r) == h(t, r) for r in rs)
        lower_ok = all(h(-(t - 1), r) + 1 == h(-t, r) for r in rs)
        if not (upper_ok and lower_ok):
            return t
        t = t - 1
    return t


@dataclass
class ValidationReport:
    """Outcome of the H-function property checks on a window."""

    ok: bool
    failures: List[str] = field(default_factory=list)
    checks_run: List[str] = field(default_factory=list)


def validate(h: HFunction, window: Optional[HalfIntLike] = None) -> ValidationReport:
    """Check the defining properties of an L-space-link H-function.

    Runs on the lattice square [-window, window]^2: nonnegativity, both
    monotonicity and bounded-gap directions, the symmetry
    H(t,r) + t + r = H(-t,-r), stabilization to the component H-functions,
    -N <= l/2 <= N, the pointwise lower bound by H of T(2,2l) (first
    component unknot, l >= 0), and the unimodal-with-flat-ends shape of R_t.
    """
    report = ValidationReport(ok=True)
    n_width = width(h.data)
    if window is None:
        window = n_width + 3
    window = HalfInt.of(window)
    l = h.linking
    half_l = HalfInt(l)
    coords = _lattice_range(l, window)

    def fail(msg: str) -> None:
        report.ok = False
        report.failures.append(msg)

    report.checks_run.append("nonnegativity")
    report.checks_run.append("monotonicity+gap")
    for msg in _gap_failures(h, window):
        fail(msg)

    report.checks_run.append("symmetry")
    for t in coords:
        for r in coords:
            lhs = h(t, r) + (t + r).as_int() if (t + r).is_integral else None
            if lhs is None:
                fail(f"t + r not integral at ({t},{r})")
            elif lhs != h(-t, -r):
                fail(f"symmetry fails at ({t},{r})")

    report.checks_run.append("stabilization")
    edge = _snap_up(h.stabilization_r() + window, l)
    for s in coords:
        if h(s, edge) != h.h1(s - half_l):
            fail(f"row stabilization fails at t={s}")
        if h(edge, s) != h.h2(s - half_l):
            fail(f"column stabilization fails at r={s}")

    report.checks_run.append("width-bounds")
    if not (-n_width <= half_l <= n_width):
        fail(f"width bound fails: N={n_width}, l/2={half_l}")

    if h.data.first_component_unknot and l >= 0:
        report.checks_run.append("torus-link-lower-bound")
        for t in coords:
            for r in coords:
                if h(t, r) < h_t22l(l, t, r):
                    fail(f"H < H_T(2,2l) at ({t},{r})")

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
    coords = _lattice_range(h.linking, window)
    rows = []
    for r in reversed(coords):
        rows.append((r, [h(t, r) for t in coords]))
    return coords, rows


def hf_table_tsv(h: HFunction, window: HalfIntLike) -> str:
    """TSV rendering of the H-table with an R_t marker column."""
    coords, rows = hf_table(h, window)
    r_vals = {t: h.r_of_t(t) for t in coords}
    lines = ["r\\t\t" + "\t".join(str(t) for t in coords) + "\tR_t_at"]
    for r, vals in rows:
        marks = ",".join(str(t) for t in coords if r_vals[t] == r)
        lines.append(
            str(r) + "\t" + "\t".join(str(v) for v in vals) + "\t" + marks
        )
    return "\n".join(lines) + "\n"
