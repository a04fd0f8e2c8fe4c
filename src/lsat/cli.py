"""Command-line surface: compute, tabulate, validate, classify, sweep.

Subcommands mirror the library layers: ``hfunc`` renders H-function
tables, ``tau`` evaluates the satellite invariant by closed form and/or
the chain-complex oracle, ``verify`` drives the cross-validation sweeps,
``classify`` runs the homomorphism-obstruction test, and ``genus``
reports Thurston-norm and slice-genus quantities.

The parser is stdlib ``argparse``, declared by ``OPTIONS`` and ``COMMANDS``.
Exit codes: 0 success, 2 invalid input (usage errors on argv included),
3 unsupported regime, 4 verification failure.  Each error prints one JSON
object ``{"error", "message", "exit_code"}`` on stderr and nothing on
stdout, except that a failing ``verify`` keeps its report on stdout;
``--help`` exits 0.  Half-integers
print as ``p/2`` strings in human output and as doubled integers in
JSON.  Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from types import SimpleNamespace
from typing import Callable, List, Optional, Tuple

from .errors import (
    InvalidInputError,
    LsatError,
    UnsupportedRegimeError,
    VerificationError,
)
from .genus import g3rel, g4_satellite_regime
from .halfgrid_poly import json_int
from .hfunction import LinkAlexData, default_window, hf_table, hf_table_tsv, resolve_sign
from .invariants import (
    classify_operator,
    tau_bridge_braid,
    tau_cable,
    tau_closed_form,
)
from .patterns import (
    Companion,
    PatternProfile,
    TauResult,
    ascii_int,
    bridge_braid_profile,
    cable_profile,
    generic_profile,
    parse_pattern_spec,
    twobridge_profile,
)
# cmd_verify reads this dict object; bench/tracer.py and the tests replace
# its entries in place.
from .sweeps import CHECKS as _CHECKS
from .zcomplex import tau_oracle


_Loaded = Tuple[str, Tuple[int, ...], Optional[PatternProfile]]


def _load_pattern(spec: str) -> _Loaded:
    """(kind, params, profile) of a spec; profile is None for cable/braid.

    Their family tau formula holds for any coprime parameters, but their
    scalar profile (genus, classifier input) is only defined on the
    principal parameter range, so it is not built until a command needs it.
    """
    parsed = parse_pattern_spec(spec)
    kind, params = parsed[0], parsed[1:]
    if kind == "twobridge":
        return kind, params, twobridge_profile(*params)
    if kind in ("cable", "braid"):
        return kind, params, None
    # json:<path>
    path = params[0]
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers bad JSON, bytes that are not UTF-8 and integers
        # past the int-digit limit; RecursionError, arrays nested too deep.
        raise InvalidInputError(
            f"cannot read link data from {path}: {exc}"
        ) from exc
    data = LinkAlexData.from_json_obj(obj)
    g3 = obj.get("g3")
    if g3 is not None:
        json_int(g3, "g3")
    prof = generic_profile(resolve_sign(data))
    # A supplied g3 is a claim, checked against the genus read from delta2.
    if g3 is not None and g3 != prof.g3:
        raise InvalidInputError(
            f"supplied g3 = {g3} disagrees with g3 = {prof.g3}, "
            "the top degree of delta2"
        )
    return kind, (), prof


def _family_tau(
    kind: str, params: Tuple[int, ...], K: Companion, n: int
) -> TauResult:
    """tau of an n-framed cable or braid satellite by its family formula."""
    p, q = params[:2]
    if kind == "cable":
        return tau_cable(p, q + p * n, K)
    return tau_bridge_braid(p, q + p * n, params[2], K)


def _emit_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


# Largest --window: the table holds (2 * window + 1)^2 values at most.
MAX_WINDOW = 64


def cmd_hfunc(pattern: str, window: Optional[int], fmt: str) -> None:
    """Render the H-function table of PATTERN (rows r descending)."""
    if window is not None and not 1 <= window <= MAX_WINDOW:
        bound = ">= 1" if window < 1 else f"<= {MAX_WINDOW}"
        raise InvalidInputError(f"--window must be {bound}, got {window}")
    kind, _, prof = _load_pattern(pattern)
    if prof is None:
        raise UnsupportedRegimeError(
            f"{kind} patterns carry only a scalar profile; "
            "no H-function table is available"
        )
    h = prof.hfunction()
    if window is None:
        window = default_window(h) // 2  # whole units, rounded down
    window *= 2  # the table functions take the doubled window
    if fmt == "tsv":
        sys.stdout.write(hf_table_tsv(h, window))
        return
    coords, rows = hf_table(h, window)
    _emit_json(
        {
            "linking": h.linking,
            "t_doubled": coords,
            "rows": [{"r_doubled": r, "h": vals} for r, vals in rows],
            "r_of_t_doubled": [h.r_of_t(t) for t in coords],
        }
    )


def _tau_for(
    loaded: _Loaded, K: Companion, n: int, method: str
) -> List[TauResult]:
    """Evaluate tau by the requested method(s); raise on both-mismatch."""
    kind, params, prof = loaded
    if prof is None:
        if method in ("oracle", "both"):
            raise UnsupportedRegimeError(
                f"the oracle needs full Alexander data; {kind} "
                "patterns support the closed form only"
            )
        return [_family_tau(kind, params, K, n)]
    results: List[TauResult] = []
    if method in ("closed", "both"):
        results.append(tau_closed_form(prof, K, n))
    if method in ("oracle", "both"):
        results.append(tau_oracle(prof, K, n))
    if method == "both" and results[0].value != results[1].value:
        raise VerificationError(
            f"closed form {results[0].value} != oracle {results[1].value} "
            f"({results[0].case_tag} / {results[1].case_tag})"
        )
    return results


def cmd_tau(
    pattern: str, tau: int, eps: str, n: int, method: str, fmt: str
) -> None:
    """tau of the satellite of PATTERN along a companion with the given data."""
    loaded = _load_pattern(pattern)
    K = Companion(tau=tau, eps=int(eps))
    results = _tau_for(loaded, K, n, method)
    if fmt == "json":
        if len(results) == 2:
            _emit_json(
                {
                    "closed": results[0].to_json_obj(),
                    "oracle": results[1].to_json_obj(),
                    "match": True,
                }
            )
        else:
            _emit_json(results[0].to_json_obj())
        return
    for res in results:
        print(f"tau = {res.value}\tmethod = {res.method}\tcase = {res.case_tag}")
    if len(results) == 2:
        print("match")


def cmd_classify(pattern: str, n: int, fmt: str) -> None:
    """Homomorphism-obstruction verdict for the operator PATTERN."""
    kind, params, prof = _load_pattern(pattern)
    if n < 0:
        raise InvalidInputError("classifier applies to framings n >= 0")
    if prof is not None:
        verdict, failed = classify_operator(prof.hfunction())
    else:
        # Refuse the parameters tau refuses (closures that are links).  The
        # (1,q) cable is the core of the solid torus, the identity operator;
        # every other valid cable or braid has winding >= 2, which a
        # homomorphism-inducing operator cannot have.
        _family_tau(kind, params, Companion(tau=0, eps=0), n)
        p = params[0]
        verdict, failed = (
            ("identity", None) if p == 1
            else ("obstructed", f"winding {p} not in {{0, +-1}}")
        )
    if fmt == "json":
        _emit_json({"verdict": verdict, "failed_claim": failed})
        return
    print(verdict if failed is None else f"{verdict}\t{failed}")


def cmd_genus(
    pattern: str, g4_eq_tau: Optional[int], n: int, fmt: str
) -> None:
    """Relative Seifert genus and (optionally) satellite slice genus."""
    kind, params, prof = _load_pattern(pattern)
    if prof is None:
        prof = (cable_profile if kind == "cable" else bridge_braid_profile)(*params)
    g3r = g3rel(prof)
    g4: Optional[int] = None
    regime = "g3rel-only"
    if g4_eq_tau is not None:
        K = Companion(tau=g4_eq_tau, eps=1)
        g4, regime = g4_satellite_regime(prof, K, n)
    if fmt == "json":
        _emit_json({"g3rel": g3r, "g4": g4, "regime": regime})
        return
    print(f"g3rel = {g3r}")
    if g4 is not None:
        print(f"g4 = {g4}\tregime = {regime}")


def cmd_verify(check: str, fmt: str) -> None:
    """Run the cross-validation sweeps; nonzero exit on any failure."""
    names = sorted(_CHECKS) if check == "all" else [check]
    summary = {}
    all_failures: List[str] = []
    for name in names:
        points, failures = _CHECKS[name]()
        summary[name] = {"points": points, "failures": len(failures)}
        all_failures.extend(f"{name}: {msg}" for msg in failures)
    total_points = sum(s["points"] for s in summary.values())
    total_failures = len(all_failures)
    if fmt == "json":
        _emit_json(
            {
                "checks": summary,
                "total_points": total_points,
                "total_failures": total_failures,
                "failures": all_failures[:20],
            }
        )
    else:
        for name in names:
            s = summary[name]
            print(f"check {name}: {s['points']} points, {s['failures']} failures")
        print(f"total: {total_points} points, {total_failures} failures")
        for msg in all_failures[:20]:
            print(f"counterexample: {msg}")
    if total_failures:
        raise VerificationError(
            f"verify: {total_failures} failures in {total_points} points"
        )


# Every option and argument, declared once.  Each command lists the ones it
# takes; all of them take --format.
OPTIONS = {
    "pattern": {"metavar": "PATTERN",
                "help": "twobridge:r,q, cable:p,q, braid:p,q,b or json:path"},
    "--window": {"type": ascii_int, "help": f"Table half-width in t (1..{MAX_WINDOW})."},
    "--tau": {"type": ascii_int, "required": True, "help": "tau of the companion."},
    "--eps": {"choices": ("-1", "0", "1"), "required": True,
              "help": "eps of the companion."},
    "--n": {"type": ascii_int, "default": 0, "help": "Framing."},
    "--method": {"choices": ("closed", "oracle", "both"), "default": "closed"},
    "--g4-eq-tau": {"type": ascii_int,
                    "help": "Assert tau(K) = g4(K) equals this positive value."},
    "--check": {"choices": ["all"] + sorted(_CHECKS), "default": "all"},
    "--format": {"dest": "fmt", "choices": ("tsv", "json"), "default": "tsv",
                 "help": "Output format (tsv is the human-readable table/text form)."},
}


def Command(callback: Callable[..., None], options: Tuple[str, ...]):
    """A subcommand: the function that runs it and the OPTIONS it takes.

    A namespace, so ``callback`` can be reassigned; it compares by value
    and does not hash.
    """
    return SimpleNamespace(callback=callback, options=options)


COMMANDS = {
    "hfunc": Command(cmd_hfunc, ("pattern", "--window")),
    "tau": Command(cmd_tau, ("pattern", "--tau", "--eps", "--n", "--method")),
    "classify": Command(cmd_classify, ("pattern", "--n")),
    "genus": Command(cmd_genus, ("pattern", "--g4-eq-tau", "--n")),
    "verify": Command(cmd_verify, ("--check",)),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors raise InvalidInputError: exit 2 with the JSON error."""

    def error(self, message: str):
        raise InvalidInputError(f"{self.prog}: {message}")


def _parser() -> argparse.ArgumentParser:
    # No "-h" and no abbreviations: "--meth" is refused, not read as --method.
    settings = {"allow_abbrev": False, "add_help": False}
    top = _Parser(prog="lsat", description=main.__doc__, **settings)
    subs = top.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for command, cmd in COMMANDS.items():
        doc = cmd.callback.__doc__
        sub = subs.add_parser(command, help=doc, description=doc, **settings)
        for name in cmd.options + ("--format",):
            sub.add_argument(name, **OPTIONS[name])
        sub.add_argument("--help", action="help", help="Show this message and exit.")
    top.add_argument("--help", action="help", help="Show this message and exit.")
    return top


def main(argv: Optional[List[str]] = None) -> None:
    """Concordance invariants of satellite knots from L-space operators."""
    try:
        args = vars(_parser().parse_args(argv))
        COMMANDS[args.pop("command")].callback(**args)
    except LsatError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc),
                   "exit_code": exc.exit_code}
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        sys.exit(exc.exit_code)


# bench/tracer.py wraps each ``main.commands[name].callback`` and runs an op
# through ``main.main(args=argv, ...)``.
main.commands = COMMANDS  # type: ignore[attr-defined]
main.main = lambda args=None, **_: main(args)  # type: ignore[attr-defined]


if __name__ == "__main__":
    main()
