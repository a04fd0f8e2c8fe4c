"""Tests of the benchmark itself: generator, checker and tracer.

Run from the repository root: ``python3 -m pytest -q bench/test_bench.py``.
"""

from __future__ import annotations

import itertools
import json
import shutil

import pytest

import run
from check import failure, pinned_value
from workloads import EXTRA_WORKLOADS, Op, WORKLOADS, first_ops, rounds

TAU_ARGV = ("tau", "twobridge:5,3", "--tau", "1", "--eps", "-1", "--n", "3",
            "--method", "both", "--format", "json")


@pytest.fixture
def workdir():
    path = run.WORK / "test"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _hfunc_output(rows_by_r, ts, r_of_t):
    return json.dumps({
        "linking": 0,
        "t_doubled": ts,
        "rows": [{"r_doubled": r, "h": rows_by_r[r]} for r in sorted(rows_by_r, reverse=True)],
        "r_of_t_doubled": r_of_t,
    })


# H of the unlink on t, r in {-2, 0, 2} (doubled): H = h(t) + h(r), h(s) = max(-s, 0).
UNLINK_ROWS = {2: [1, 0, 0], 0: [1, 0, 0], -2: [2, 1, 1]}
UNLINK_R = [0, 0, 0]


def test_same_seed_same_ops_and_seed_changes_inputs():
    for workload in WORKLOADS + EXTRA_WORKLOADS:
        a = first_ops(workload, 7, 40)
        assert a == first_ops(workload, 7, 40)
        if workload != "verify-sweep":
            assert a != first_ops(workload, 8, 40)


def test_twobridge_scale_repeats_no_pattern_within_six_rounds():
    ops = first_ops("twobridge-scale", 3, 42)
    specs = [op.argv[1] for op in ops]
    assert len(specs) == len(set(specs))


def test_json_ingest_has_one_malformed_op_per_round():
    for round_ops in itertools.islice(rounds("json-ingest", 5), 20):
        assert len(round_ops) == 7
        assert sum(op.expect == "error" for op in round_ops) == 1


def test_checker_accepts_a_valid_table_and_rejects_broken_ones():
    ts = [-2, 0, 2]
    assert failure("k", "hfunc", 0, _hfunc_output(UNLINK_ROWS, ts, UNLINK_R), "", {}) is None
    negative = {**UNLINK_ROWS, 2: [-1, 0, 0]}
    assert "< 0" in failure("k", "hfunc", 0, _hfunc_output(negative, ts, UNLINK_R), "", {})
    asymmetric = {**UNLINK_ROWS, -2: [2, 1, 0]}
    assert failure("k", "hfunc", 0, _hfunc_output(asymmetric, ts, UNLINK_R), "", {})
    assert "R at" in failure("k", "hfunc", 0, _hfunc_output(UNLINK_ROWS, ts, [2, 0, 0]), "", {})


def test_checker_wants_a_json_error_for_malformed_input():
    err = json.dumps({"error": "InvalidInputError", "message": "m", "exit_code": 2})
    assert failure("k", "error", 2, "", err + "\n", {}) is None
    assert failure("k", "error", 2, "", "plain text\n", {})
    assert "traceback" in failure("k", "error", 1, "", "Traceback (most recent call last):\n", {})
    assert failure("k", "tau", None, "", "", {}) == "timeout"


def test_wrong_expected_value_and_wrong_exit_code_count_as_failed_ops(workdir):
    """Negative control: fail_rate can be nonzero."""
    good = Op(" ".join(TAU_ARGV), TAU_ARGV, "tau")
    first = run.run_op(good, workdir, {}, trace=False)
    assert first["reason"] is None
    tau = pinned_value("tau", json.loads(first["runs"][0].stdout))
    records = [
        run.run_op(good, workdir, {good.key: tau}, trace=False, twin="after"),
        run.run_op(good, workdir, {good.key: tau + 1}, trace=False, twin="before"),
        run.run_op(Op(good.key, TAU_ARGV, "error"), workdir, {}, trace=False, twin="after"),
    ]
    assert records[0]["reason"] is None
    assert "pinned" in records[1]["reason"]
    assert records[2]["reason"] == "exit 0, expected 2"
    metrics = run.end_to_end({"records": records, "setup": [0.1], "loop_s": 1.0})
    assert metrics["fail_rate"] == pytest.approx(2 / 3)
    walls = sum(rec["runs"][0].wall_s for rec in records)
    assert metrics["ops_per_s"] == pytest.approx(1 / walls)
    assert metrics["throughput_ratio"] == pytest.approx(1 / 3 / metrics["op_wall_ratio"])


def test_frozen_twin_runs_the_same_op(workdir):
    op = Op(" ".join(TAU_ARGV), TAU_ARGV, "tau")
    rec = run.run_op(op, workdir, {}, trace=False, twin="before")
    assert rec["reason"] is None
    twin = rec["twin"]
    assert failure(op.key, op.expect, twin.returncode, twin.stdout, twin.stderr, {}) is None
    metrics = run.end_to_end({"records": [rec], "setup": [0.1], "loop_s": 1.0})
    assert metrics["op_wall_ratio"] == pytest.approx(rec["runs"][0].wall_s / twin.wall_s)


def test_traced_op_matches_the_plain_op_and_records_layers(workdir):
    op = Op(" ".join(TAU_ARGV), TAU_ARGV, "tau")
    rec = run.run_op(op, workdir, {}, trace=True)
    assert rec["reason"] is None
    plain, traced = rec["runs"]
    assert json.loads(plain.stdout) == json.loads(traced.stdout)
    stats = rec["trace"]["stats"]
    for name in ("cli.tau", "patterns.twobridge_profile", "hfunction.resolve_sign",
                 "invariants.tau_closed_form", "zcomplex.build_summand",
                 "zcomplex.tower_alexander", "hfunction.HFunction.__call__"):
        calls, total, self_s = stats[name]
        assert calls >= 1 and 0 <= self_s <= total
    # cli.tau is the root span; every other span has a recorded parent.
    spans = rec["trace"]["spans"]
    roots = [s for s in spans if s[4] is None]
    assert [s[1] for s in roots] == ["cli.tau"]
    metrics = run.per_layer({"records": [rec], "loop_s": 1.0})
    assert metrics["zcomplex.tau_oracle.calls"] == 1
    assert metrics["patterns.twobridge_data.distinct_ratio"] == 1
    assert metrics["hfunction.resolve_sign.probe_points"] > 0
