"""The library names that the benchmark's tracer hooks into still exist.

``bench/tracer.py`` wraps the functions in its ``TARGETS``, the six verify
checks and the CLI commands, and reads a few helpers by name; a removal
under ``src/`` that breaks one of them fails only when a traced op runs.
This loads the tracer by path without calling its ``install`` and checks
each name it reads, then runs it on a verify op and on a tau op that
reads link data from a JSON file.  Nothing under ``bench/`` is changed.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from conftest import run_python
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
