"""Run one lsat CLI op in this interpreter with per-layer spans.

Usage: ``PYTHONPATH=src python bench/tracer.py OUT.json ARGV...``

Wraps the public functions and methods listed in ``TARGETS`` in every
``lsat.*`` namespace that bound them, then calls ``lsat.cli.main`` with
ARGV.  Output, error text and exit status are those of the plain CLI.
Spans (id, name, start, end, parent) stay in memory and are written to
OUT.json with the per-name totals when the op ends.  Hot names are
counted and timed in aggregate only.  Self time is a call's duration
minus the time covered by its traced children.
"""

from __future__ import annotations

import json
import sys
import time

_t0 = time.perf_counter()
import lsat.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

# (module, qualified name, metric prefix, hot)
TARGETS = (
    ("halfgrid_poly", "symmetrize", "halfgrid_poly.symmetrize", False),
    ("halfgrid_poly", "knot_chi_expansion", "halfgrid_poly.knot_chi_expansion", True),
    ("halfgrid_poly", "LaurentPoly1.from_json_obj", "halfgrid_poly.from_json_obj", False),
    ("halfgrid_poly", "LaurentPoly2.from_json_obj", "halfgrid_poly.from_json_obj", False),
    ("hfunction", "resolve_sign", "hfunction.resolve_sign", False),
    ("hfunction", "HFunction.__call__", "hfunction.HFunction.__call__", True),
    ("hfunction", "validate", "hfunction.validate", False),
    ("hfunction", "HFunction.r_of_t", "hfunction.HFunction.r_of_t", False),
    ("hfunction", "width", "hfunction.width", False),
    ("hfunction", "hf_table", "hfunction.hf_table", False),
    ("patterns", "twobridge_data", "patterns.twobridge_data", False),
    ("patterns", "twobridge_profile", "patterns.twobridge_profile", False),
    ("patterns", "generic_profile", "patterns.generic_profile", False),
    ("invariants", "tau_closed_form", "invariants.tau_closed_form", True),
    ("invariants", "tau_inequality_check", "invariants.tau_inequality_check", False),
    ("invariants", "classify_operator", "invariants.classify_operator", False),
    ("zcomplex", "build_summand", "zcomplex.build_summand", False),
    ("zcomplex", "ZComplex.check", "zcomplex.ZComplex.check", False),
    ("zcomplex", "tower_alexander", "zcomplex.tower_alexander", False),
    ("zcomplex", "tau_oracle", "zcomplex.tau_oracle", False),
    ("genus", "g4_satellite_regime", "genus.g4_satellite_regime", False),
)


class Tracer:
    def __init__(self):
        self.stack = []  # [span id, child seconds]
        self.spans = []  # (id, name, start, end, parent id)
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.counters = {}
        self.next_id = 0

    def wrap(self, fn, name, hot):
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            frame = [self.next_id, 0.0]
            self.next_id += 1
            self.stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                dt = end - start
                if parent is not None:
                    parent[1] += dt
                st = self.stats.setdefault(name, [0, 0.0, 0.0])
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[1]
                if not hot:
                    self.spans.append(
                        (frame[0], name, start, end, parent[0] if parent else None)
                    )

        return traced

    def count(self, name, value, how="sum"):
        old = self.counters.get(name, 0)
        self.counters[name] = max(old, value) if how == "max" else old + value


def _lsat_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "lsat" or n.startswith("lsat."))]


def _rebind(original, replacement):
    """Point every lsat.* module attribute bound to ``original`` elsewhere."""
    for mod in _lsat_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer) -> None:
    from lsat.hfunction import _lattice_range

    for module, qualname, name, hot in TARGETS:
        owner = sys.modules[f"lsat.{module}"]
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        wrapped = tracer.wrap(fn, name, hot)
        if isinstance(owner, type):
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            setattr(owner, attr, wrapped)
        else:
            _rebind(fn, wrapped)

    # Counters read at the boundary: resolve_sign probes both signs on the
    # lattice square of side |coords| (a computed count, not an observed one).
    hfunction = sys.modules["lsat.hfunction"]
    resolve = hfunction.resolve_sign

    def resolve_sign(data):
        window = data.support_extent() + 2
        side = len(_lattice_range(data.linking, window))
        tracer.count("hfunction.resolve_sign.probe_points", 2 * side * side)
        return resolve(data)

    _rebind(resolve, resolve_sign)

    zcomplex = sys.modules["lsat.zcomplex"]
    build = zcomplex.build_summand

    def build_summand(*args, **kwargs):
        c = build(*args, **kwargs)
        tracer.count("zcomplex.summand.generators_max", len(c.generators), "max")
        tracer.count("zcomplex.summand.arrows_sum", len(c.arrows))
        return c

    _rebind(build, build_summand)

    twobridge = sys.modules["lsat.patterns"].twobridge_data
    seen = set()

    def twobridge_data(r, q):
        seen.add((r, q))
        tracer.counters["patterns.twobridge_data.distinct"] = len(seen)
        return twobridge(r, q)

    _rebind(twobridge, twobridge_data)

    cli = sys.modules["lsat.cli"]
    for cmd_name, command in cli.main.commands.items():
        command.callback = tracer.wrap(command.callback, f"cli.{cmd_name}", False)
    for check, fn in list(cli._CHECKS.items()):
        cli._CHECKS[check] = tracer.wrap(fn, f"cli.verify.{check}", False)


def main(out_path: str, argv: list) -> None:
    tracer = Tracer()
    install(tracer)
    start = time.perf_counter()
    code = 1
    try:
        lsat.cli.main.main(args=argv, prog_name="lsat", standalone_mode=True)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        raise
    finally:
        record = {
            "argv": argv,
            "exit_code": code,
            "import_s": IMPORT_S,
            "run_s": time.perf_counter() - start,
            "stats": tracer.stats,
            "counters": tracer.counters,
            "spans": tracer.spans,
        }
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2:])
