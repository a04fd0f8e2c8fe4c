"""Command-line surface: compute, tabulate, validate, classify, sweep.

Subcommands mirror the library layers: ``hfunc`` renders H-function
tables, ``tau`` evaluates the satellite invariant by closed form and/or
the chain-complex oracle, ``verify`` drives the cross-validation sweeps,
``classify`` runs the homomorphism-obstruction test, and ``genus``
reports Thurston-norm and slice-genus quantities.

The parser reads argv by the ``OPTIONS`` and ``COMMANDS`` tables with the
rules and words of CPython 3.11's argparse, without abbreviations or ``-h``.
Exit codes: 0 success, 2 invalid input (usage errors on argv included),
3 unsupported regime, 4 verification failure.  Each error prints one JSON
object ``{"error", "message", "exit_code"}`` on stderr and nothing on
stdout, except that a failing ``verify`` keeps its report on stdout;
``--help`` exits 0.  Half-integers
print as ``p/2`` strings in human output and as doubled integers in
JSON.  Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import gc
import re
import sys
from types import SimpleNamespace
from typing import Callable, List, Optional, Tuple

# Registered lazily by the package: each runs only when a command calls it.
from . import genus, hfunction, invariants, patterns, sweeps, zcomplex
from .errors import (
    MAX_INT_DIGITS,
    InvalidInputError,
    LsatError,
    UnsupportedRegimeError,
    VerificationError,
)


def ascii_int(text: str) -> int:
    """The int written as ASCII digits with an optional sign.

    ``int()`` also takes underscores, surrounding whitespace and non-ASCII
    digits; this raises ValueError on them, and InvalidInputError on more
    than MAX_INT_DIGITS digits.
    """
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid integer {text!r}")
    if len(digits) > MAX_INT_DIGITS:
        raise InvalidInputError(f"more than {MAX_INT_DIGITS} digits")
    return int(text)


def parse_pattern_spec(spec: str):
    """Parse a CLI pattern specifier into a (kind, params) tuple.

    Supported: ``twobridge:r,q`` | ``cable:p,q`` | ``braid:p,q,b`` |
    ``json:<path>``.
    """
    kind, sep, rest = spec.partition(":")
    if not sep or not rest:
        raise InvalidInputError(f"malformed pattern spec {spec!r}")
    if kind == "json":
        return ("json", rest)
    try:
        params = tuple(ascii_int(x) for x in rest.split(","))
    except ValueError as exc:
        raise InvalidInputError(f"non-integer parameters in {spec!r}") from exc
    except InvalidInputError as exc:
        raise InvalidInputError(
            f"argument PATTERN: a {kind} parameter has {exc}"
        ) from exc
    if kind not in patterns.FAMILIES:
        raise InvalidInputError(f"unknown pattern family {kind!r}")
    arity = patterns.FAMILIES[kind][0]
    if len(params) != arity:
        raise InvalidInputError(f"{kind} takes {arity} parameters, got {len(params)}")
    return (kind,) + params


def __getattr__(name: str):
    # _CHECKS is sweeps.CHECKS, the dict cmd_verify reads; bench/tracer.py
    # and the tests replace its entries in place.
    if name == "_CHECKS":
        return sweeps.CHECKS
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_Loaded = Tuple[str, Tuple[int, ...], Optional["patterns.PatternProfile"]]
# Most characters read from a json: file, ~4x the largest in-cap link at indent=8.
_JSON_BUDGET = 4 * 1024 * 1024


def _load_pattern(spec: str) -> _Loaded:
    """(kind, params, profile) of a spec; profile is None for cable/braid.

    The loader of the family's ``patterns.FAMILIES`` row checks the spec as
    typed, so every command refuses an invalid one first, with one exit-2
    message.  A scalar profile, which only ``genus`` reads, is not built here.
    """
    parsed = parse_pattern_spec(spec)
    kind, params = parsed[0], parsed[1:]
    if kind != "json":
        return kind, params, patterns.FAMILIES[kind][1](*params)
    import json

    path = params[0]
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read(_JSON_BUDGET + 1)
        if len(text) > _JSON_BUDGET:
            raise ValueError(f"more than {_JSON_BUDGET} characters")
        obj = json.loads(text)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers bad JSON, bytes that are not UTF-8, a file past the
        # budget and integers past the digit limit; RecursionError, deep nesting.
        raise InvalidInputError(
            f"cannot read link data from {path}: {exc}"
        ) from exc
    data = hfunction.LinkAlexData.from_json_obj(obj)
    return kind, (), patterns.generic_profile(hfunction.resolve_sign(data))


def _emit_json(obj) -> None:
    import json

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
        window = hfunction.default_window(h) // 2  # whole units, rounded down
    window *= 2  # the table functions take the doubled window
    if fmt == "tsv":
        sys.stdout.write(hfunction.hf_table_tsv(h, window))
        return
    coords, rows = hfunction.hf_table(h, window)
    _emit_json(
        {
            "linking": h.linking,
            "t_doubled": coords,
            "rows": [{"r_doubled": r, "h": vals} for r, vals in rows],
            "r_of_t_doubled": [h.r_of_t(t) for t in coords],
        }
    )


def _tau_for(
    loaded: _Loaded, K: patterns.Companion, n: int, method: str
) -> List[patterns.TauResult]:
    """Evaluate tau by the requested method(s); raise on both-mismatch."""
    kind, params, prof = loaded
    if prof is None:
        if method in ("oracle", "both"):
            raise UnsupportedRegimeError(
                f"the oracle needs full Alexander data; {kind} "
                "patterns support the closed form only"
            )
        return [patterns.FAMILIES[kind][3](*params, K, n)]
    results: List[patterns.TauResult] = []
    if method in ("closed", "both"):
        results.append(invariants.tau_closed_form(prof, K, n))
    if method in ("oracle", "both"):
        results.append(zcomplex.tau_oracle(prof, K, n))
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
    K = patterns.Companion(tau=tau, eps=int(eps))
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
        verdict, failed = invariants.classify_operator(prof.hfunction())
    else:
        # The (1,q) cable is the core of the solid torus, the identity; any
        # other winding is >= 2, which no homomorphism-inducing operator has.
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
        prof = patterns.FAMILIES[kind][2](*params)
    g3r = genus.g3rel(prof)
    g4: Optional[int] = None
    regime = "g3rel-only"
    if g4_eq_tau is not None:
        K = patterns.Companion(tau=g4_eq_tau, eps=1)
        g4, regime = genus.g4_satellite_regime(prof, K, n)
    if fmt == "json":
        _emit_json({"g3rel": g3r, "g4": g4, "regime": regime})
        return
    print(f"g3rel = {g3r}")
    if g4 is not None:
        print(f"g4 = {g4}\tregime = {regime}")


def cmd_verify(check: str, fmt: str) -> None:
    """Run the cross-validation sweeps; nonzero exit on any failure."""
    names = sorted(sweeps.CHECKS) if check == "all" else [check]
    summary = {}
    all_failures: List[str] = []
    for name in names:
        points, failures = sweeps.CHECKS[name]()
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
# takes; all of them take --format and --help.
OPTIONS = {
    "pattern": {"metavar": "PATTERN", "required": True,
                "help": "twobridge:r,q, cable:p,q, braid:p,q,b or json:path"},
    "--window": {"type": ascii_int, "help": f"Table half-width in t (1..{MAX_WINDOW})."},
    "--tau": {"type": ascii_int, "required": True, "help": "tau of the companion."},
    "--eps": {"choices": ("-1", "0", "1"), "required": True,
              "help": "eps of the companion."},
    "--n": {"type": ascii_int, "default": 0, "help": "Framing."},
    "--method": {"choices": ("closed", "oracle", "both"), "default": "closed"},
    "--g4-eq-tau": {"type": ascii_int,
                    "help": "Assert tau(K) = g4(K) equals this positive value."},
    # Called when verify is parsed, so that no other command runs lsat.sweeps.
    "--check": {"choices": lambda: ["all"] + sorted(sweeps.CHECKS), "default": "all"},
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

_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _option(arg: str, names) -> Optional[Tuple[str, Optional[str]]]:
    """None if argparse reads ARG as a value, else (the option among NAMES
    or "" if none, the value after '=' or None)."""
    if len(arg) < 2 or arg[0] != "-":
        return None
    name, eq, value = arg.partition("=")
    if name in names:
        return name, value if eq else None
    return None if _NEGATIVE_NUMBER.match(arg) or " " in arg else ("", None)


def _choices(name: str) -> Optional[list]:
    choices = OPTIONS[name].get("choices")
    return choices() if callable(choices) else choices


def _spell(name: str) -> str:
    """NAME as help shows it: PATTERN, --tau TAU or --eps {-1,0,1}."""
    choices = _choices(name)
    value = "{%s}" % ",".join(choices) if choices else name[2:].upper().replace("-", "_")
    return OPTIONS[name].get("metavar", f"{name} {value}")


def _help(command: Optional[str]) -> None:
    """Print the --help text of lsat, or of COMMAND, and exit 0."""
    usage, doc = "lsat [--help] COMMAND ...", main.__doc__
    rows = [(c, cmd.callback.__doc__) for c, cmd in COMMANDS.items()]
    if command is not None:
        names = COMMANDS[command].options + ("--format",)
        usage = " ".join([f"lsat {command}"] + [
            _spell(n) if OPTIONS[n].get("required") else f"[{_spell(n)}]" for n in names
        ] + ["[--help]"])
        doc = COMMANDS[command].callback.__doc__
        rows = [(_spell(n), OPTIONS[n].get("help", "")) for n in names]
    rows.append(("--help", "Show this message and exit."))
    print(f"usage: {usage}\n\n{doc}\n")
    print("\n".join(f"  {name:<20}  {text}".rstrip() for name, text in rows))
    sys.exit(0)


def _parse(argv: List[str]) -> Tuple[str, dict]:
    """(command, callback keywords) of ARGV; usage errors are argparse's."""
    command, prog, options, names = None, "lsat", (), ("--help",)
    given, extras, at, literal, j = {}, [], None, False, 0  # at: PATTERN's index

    def fail(message: str):
        raise InvalidInputError(f"{prog}: {message}")

    def check(name: str, value: str, choices) -> None:
        if choices is not None and value not in choices:
            fail(f"argument {name}: invalid choice: {value!r} "
                 f"(choose from {', '.join(map(repr, choices))})")

    while j < len(argv):
        word, j = argv[j], j + 1
        found = None if literal or word == "--" else _option(word, names)
        if command is None and found is None and (word != "--" or j < len(argv)):
            check("COMMAND", word, list(COMMANDS))  # argparse reads "--" here too
            command, prog = word, f"lsat {word}"
            options = COMMANDS[command].options + ("--format",)
            names = options + ("--help",)
        elif word == "--" and not literal:
            literal = True  # every later word is a value
            # argparse drops this "--" only right before or after PATTERN.
            if "pattern" not in options or at not in (None, j - 2):
                extras.append(word)
        elif found is None and "pattern" in options and at is None:
            given["pattern"], at = word, j - 1
        elif not (found and found[0]):  # a second value or an unknown option
            extras.append(word)
        elif found[0] == "--help":
            if found[1] is not None:
                fail(f"argument --help: ignored explicit argument {found[1]!r}")
            _help(command)
        else:
            name, value = found
            if value is None:
                if j == len(argv) or argv[j] == "--" or _option(argv[j], names):
                    fail(f"argument {name}: expected one argument")
                value, j = argv[j], j + 1
            try:
                given[name] = OPTIONS[name].get("type", str)(value)
            except ValueError:
                fail(f"argument {name}: invalid int value: {value!r}")
            except InvalidInputError as exc:
                fail(f"argument {name}: {exc}")
            check(name, value, _choices(name))
    if command is None:
        fail("the following arguments are required: COMMAND")
    missing = [OPTIONS[n].get("metavar", n) for n in options
               if OPTIONS[n].get("required") and n not in given]
    if missing:
        fail(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise InvalidInputError(f"lsat: unrecognized arguments: {' '.join(extras)}")
    return command, {OPTIONS[n].get("dest", n.lstrip("-").replace("-", "_")):
                     given.get(n, OPTIONS[n].get("default")) for n in options}


def main(argv: Optional[List[str]] = None) -> None:
    """Concordance invariants of satellite knots from L-space operators."""
    try:
        command, kwargs = _parse(sys.argv[1:] if argv is None else argv)
        COMMANDS[command].callback(**kwargs)
    except LsatError as exc:
        import json

        payload = {"error": type(exc).__name__, "message": str(exc),
                   "exit_code": exc.exit_code}
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        sys.exit(exc.exit_code)
    finally:
        # Without argv, main() is the process's command line and the process
        # is about to end: freezing every object spares the interpreter's
        # exit-time collections (~4 ms), which lsat's objects do not need,
        # as none defines a finalizer on a reference cycle.  main(argv) is
        # the in-process API and leaves the caller's collector untouched.
        if argv is None:
            gc.freeze()


# bench/tracer.py wraps each ``main.commands[name].callback`` and runs an op
# through ``main.main(args=argv, ...)``.
main.commands = COMMANDS  # type: ignore[attr-defined]
main.main = lambda args=None, **_: main(args)  # type: ignore[attr-defined]


if __name__ == "__main__":
    main()
