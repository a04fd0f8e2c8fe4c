"""The library names that the benchmark's tracer hooks into still exist.

``bench/tracer.py`` wraps the functions in its ``TARGETS``, the six verify
checks and the CLI commands, and reads a few helpers by name; a removal
under ``src/`` that breaks one of them fails only when a traced op runs.
This loads the tracer by path without calling its ``install`` and checks
each name it reads, then runs it on a verify op and on a tau op that
reads link data from a JSON file, and on one op of every kind the
benchmark traces, whose output must be the plain CLI's.  Nothing under
``bench/`` is changed.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from conftest import invoke, run_python
import lsat.cli
from lsat import hfunction

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACER_PATH = BENCH / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_to_a_callable(tracer):
    assert tracer.TARGETS
    for module, qualname, _, _ in tracer.TARGETS:
        owner = sys.modules[f"lsat.{module}"]
        for part in qualname.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module, qualname)


def test_verify_checks_and_cli_shim_are_in_place(tracer):
    assert set(lsat.cli._CHECKS) == {
        "tables", "oracle", "properties", "classifier", "inequality", "genus",
    }
    assert all(callable(fn) for fn in lsat.cli._CHECKS.values())
    assert set(lsat.cli.main.commands) == set(lsat.cli.COMMANDS)
    assert callable(lsat.cli.main.main)
    assert callable(hfunction._lattice_range)


def test_traced_verify_records_every_layer_and_check(tmp_path):
    out = tmp_path / "trace.json"
    proc = run_python(
        str(TRACER_PATH), str(out), "verify", "--check", "all", "--format", "json"
    )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(out.read_text())
    calls = {name: stat[0] for name, stat in trace["stats"].items()}
    assert calls["invariants.tau_closed_form"] == 1109
    assert calls["zcomplex.tau_oracle"] == 1089
    assert calls["zcomplex.build_summand"] == 473
    counters = trace["counters"]
    assert counters["zcomplex.summand.generators_max"] == 19
    assert counters["zcomplex.summand.arrows_sum"] == 4070
    checks = sorted(
        span[1] for span in trace["spans"] if span[1].startswith("cli.verify.")
    )
    assert checks == sorted(f"cli.verify.{name}" for name in lsat.cli._CHECKS)


def test_traced_json_tau_records_the_ingest_path(tmp_path):
    pool = json.loads((BENCH / "pool.json").read_text())
    link = tmp_path / "link.json"
    link.write_text(json.dumps(pool["tb-9-5"]))
    out = tmp_path / "trace.json"
    proc = run_python(
        str(TRACER_PATH), str(out), "tau", f"json:{link}", "--tau", "1",
        "--eps", "-1", "--n", "2", "--method", "both", "--format", "json",
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["match"] is True
    stats = json.loads(out.read_text())["stats"]
    for name in ("halfgrid_poly.from_json_obj", "hfunction.validate",
                 "patterns.generic_profile", "zcomplex.build_summand"):
        assert stats[name][0] >= 1, name


def _poly(arity, terms):
    return {"vars": arity, "terms": [{"e": e, "c": c} for e, c in terms]}


@pytest.fixture(scope="module")
def links(tmp_path_factory):
    """JSON link files by name: tb-9-5 with delta_tilde negated, K # T(2,3)
    and unknot + T(2,13)."""
    root = tmp_path_factory.mktemp("links")
    flipped = json.loads((BENCH / "pool.json").read_text())["tb-9-5"]
    for term in flipped["delta_tilde"]["terms"]:
        term["c"] = -term["c"]
    # P(K) = K # T(2,3): a g3 = 1 pattern, so classify reaches its g3 branch.
    trefoil_sum = {
        "linking": 1,
        "delta_tilde": _poly(2, [([1, -1], 1), ([1, 1], -1), ([1, 3], 1)]),
        "delta1": _poly(1, [([0], 1)]),
        "delta2": _poly(1, [([-2], 1), ([0], -1), ([2], 1)]),
    }
    # unknot + T(2,13): delta_tilde = 0 and g3 = 6, so every satellite is
    # T(2,13) and tau = 6; H2's steps lie above delta_tilde's support.
    g = 6
    split = {
        "linking": 0,
        "delta_tilde": _poly(2, []),
        "delta1": _poly(1, [([0], 1)]),
        "delta2": _poly(
            1, [([2 * k], (-1) ** (g - k)) for k in range(-g, g + 1)]
        ),
    }
    paths = {}
    for name, obj in (("flipped", flipped), ("trefoil-sum", trefoil_sum),
                      ("split-6", split)):
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(obj))
    return paths


_SPLIT_TAU = "tau json:{split-6} --tau 2 --eps -1 --n 3 --method both --format json"

# (runner, argv); {name} is the path of that link file.
TRACED_OPS = [
    ("tracer", "verify --check all --format json"),
    ("tracer", "tau twobridge:5,3 --tau 1 --eps -1 --n 3 --method both --format json"),
    ("tracer", "classify twobridge:9,5 --format json"),
    ("tracer", "tau twobridge:5,3 --tau 1 --eps 1 --n 2000 --method oracle --format json"),
    ("tracer", "tau twobridge:5,3 --tau 1 --eps -1 --n 2000 --method both --format json"),
    ("tracer", "tau twobridge:5,3 --tau 0 --eps 0 --n -2000 --method both --format json"),
    ("tracer", "tau twobridge:5,3 --tau 1000 --eps 1 --n 0 --method both --format json"),
    ("tracer", "hfunc twobridge:41,31 --format json"),
    ("tracer", "tau cable:3,5 --tau 1 --eps -1 --n 2 --format json"),
    ("tracer", "genus braid:4,5,2 --g4-eq-tau 1 --n 0 --format json"),
    ("tracer", "tau json:{flipped} --tau 1 --eps -1 --n 2 --method both --format json"),
    ("tracer", "classify json:{flipped} --format json"),
    ("tracer", "classify json:{trefoil-sum}"),
    ("tracer", "tau json:{trefoil-sum} --tau 1 --eps -1 --n 2 --method both --format json"),
    ("cli", _SPLIT_TAU),
    ("tracer", _SPLIT_TAU),
]


@pytest.mark.parametrize(
    "runner, op", TRACED_OPS, ids=[f"{r}:{op}" for r, op in TRACED_OPS]
)
def test_a_traced_op_prints_what_the_cli_prints(links, tmp_path, runner, op):
    argv = [arg.format_map(links) for arg in op.split()]
    if runner == "tracer":
        out = tmp_path / "trace.json"
        proc = run_python(str(TRACER_PATH), str(out), *argv)
        assert proc.returncode == 0, proc.stderr
        assert "stats" in json.loads(out.read_text())
    else:
        proc = run_python("-m", "lsat.cli", *argv)
        assert proc.returncode == 0, proc.stderr
    assert proc.stdout == invoke(argv).stdout
    if op == "classify json:{trefoil-sum}":
        assert proc.stdout == "obstructed\tg3 = 1 != 0\n"
    if op == _SPLIT_TAU:
        got = json.loads(proc.stdout)
        assert got["match"] is True
        assert got["closed"]["tau"] == got["oracle"]["tau"] == 6
