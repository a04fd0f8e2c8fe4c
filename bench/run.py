"""lsat benchmark: run one workload against the CLI and check every op.

Usage (from the repository root):

    python3 bench/run.py --workload twobridge-scale --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all

Each op is one ``python -m lsat.cli ...`` process with ``PYTHONPATH=src``,
run in a closed loop by one client.  The loop takes ops round by round (see
``workloads.py``) and starts none after ``--seconds`` have passed.  Every
op's output is checked (``check.py``); an op that fails the check, exits
with the wrong code, prints a traceback or times out counts as failed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  Each op
there has a twin: the same argv run by the frozen copy of lsat in
``frozen/`` (the program as it was when the benchmark was added), right
before or after it, alternately.  The gated time metrics are ratios of the
op to its twin, so a slow spell of the shared host slows both and cancels;
the raw seconds are printed beside them.
``--trace 1`` runs every op twice, plainly and under ``tracer.py``, and
reports the per-layer metrics (per-op means over the run unless the name
says otherwise) plus ``trace.overhead_ratio``; its spans are kept in
``.bench_work/spans-<workload>-<seed>.jsonl``.  The last stdout line is
one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from check import failure
from workloads import DEFAULT_SEED, EXTRA_WORKLOADS, WORKLOADS, Op, rounds

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
FROZEN = BENCH / "frozen"  # lsat as it was when the benchmark was added
SETUP_EVERY_S = 2.0  # untraced loops probe the import between ops this often
OP_TIMEOUT_S = 60.0
HARD_CAP_S = 150.0  # ops still running then are killed, so a run ends in time


@dataclass
class Run:
    """One finished op process."""

    returncode: Optional[int]  # None: killed at the timeout
    wall_s: float
    cpu_s: float
    rss_kb: int
    stdout: str
    stderr: str


def child_env(source: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(source)
    env["PYTHONHASHSEED"] = "0"
    env.pop("LSAT_THREADS", None)
    return env


def spawn(cmd: List[str], workdir: Path, timeout: float,
          source: Path = ROOT / "src") -> Run:
    """Run ``cmd`` with lsat from ``source``; wall time, CPU and RSS from wait4."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    timed_out = False
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, cwd=ROOT, env=child_env(source))

        def on_alarm(signum, frame):
            nonlocal timed_out
            timed_out = True
            proc.kill()

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(
        returncode=None if timed_out else proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_kb=usage.ru_maxrss,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
    )


def op_argv(op: Op, workdir: Path) -> List[str]:
    """The op's CLI arguments with its input file written and substituted."""
    if op.input_name is None:
        return list(op.argv)
    path = workdir / op.input_name
    path.write_text(json.dumps(op.input_obj), encoding="utf-8")
    rel = str(path.relative_to(ROOT))
    return [a.replace("{path}", rel) for a in op.argv]


def load_pinned() -> Dict[str, object]:
    with open(BENCH / "expected.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def import_times(workdir: Path, repeats: int, source: Path = ROOT / "src") -> List[float]:
    """Wall times of fresh ``python -c "import lsat.cli"`` processes."""
    cmd = [sys.executable, "-c", "import lsat.cli"]
    times = []
    for _ in range(repeats):
        run = spawn(cmd, workdir, OP_TIMEOUT_S, source)
        if run.returncode != 0:
            raise SystemExit(f"bench: cannot import lsat.cli:\n{run.stderr}")
        times.append(run.wall_s)
    return times


def tail(values: List[float]) -> tuple:
    """Highest percentile with at least ten samples beyond it: (value, pct)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0  # no such percentile; report the maximum
    return ordered[n - 11], 100.0 * (n - 10) / n


def run_op(op: Op, workdir: Path, pinned: Dict[str, object], trace: bool,
           timeout: float = OP_TIMEOUT_S, twin: Optional[str] = None) -> dict:
    """Run one op and check every output.

    With ``trace`` the op runs again under the tracer.  ``twin`` ("before"
    or "after") also runs it on the frozen copy, whose output is not checked
    but whose timeout fails the op, since the op then has no ratio.
    """
    argv = op_argv(op, workdir)
    cli = [sys.executable, "-m", "lsat.cli", *argv]
    twin_run = spawn(cli, workdir, timeout, FROZEN) if twin == "before" else None
    runs = [spawn(cli, workdir, timeout)]
    if twin == "after":
        twin_run = spawn(cli, workdir, timeout, FROZEN)
    out = workdir / "trace.json"
    if trace:
        runs.append(spawn([sys.executable, str(BENCH / "tracer.py"), str(out), *argv],
                          workdir, timeout))
    reasons = [failure(op.key, op.expect, r.returncode, r.stdout, r.stderr, pinned)
               for r in runs]
    if twin_run is not None and twin_run.returncode is None:
        reasons.append("frozen twin timed out")
    record = {"op": op, "runs": runs, "twin": twin_run,
              "reason": next((x for x in reasons if x), None)}
    if trace:
        record["trace"] = None
        if out.exists():
            with open(out, "r", encoding="utf-8") as fh:
                record["trace"] = json.load(fh)
            out.unlink()
        elif record["reason"] is None:
            record["reason"] = "tracer wrote no trace"
    return record


def run_loop(workload: str, seed: int, seconds: float, trace: bool,
             workdir: Path, pinned: Dict[str, object]) -> dict:
    """Closed loop, one op at a time, until ``seconds`` have passed.

    Untraced ops alternate between running their frozen twin before and
    after themselves, so neither side always runs on a warmer cache.  The
    import probes behind ``setup_s`` are spread over the whole loop, so
    they see the same spells of host load as the ops.
    """
    records: List[dict] = []
    setup: List[float] = []
    plan = (op for round_ops in rounds(workload, seed) for op in round_ops)
    start = time.perf_counter()
    probed = start - SETUP_EVERY_S
    while time.perf_counter() - start < seconds:
        if not trace and time.perf_counter() - probed >= SETUP_EVERY_S:
            setup += import_times(workdir, 1)
            probed = time.perf_counter()
        twin = None if trace else ("after", "before")[len(records) % 2]
        # Two processes per op: twin or traced run, so each gets half of what is left.
        left = (HARD_CAP_S - (time.perf_counter() - start)) / 2
        records.append(run_op(next(plan), workdir, pinned, trace,
                              min(OP_TIMEOUT_S, left), twin))
    return {"records": records, "setup": setup, "loop_s": time.perf_counter() - start}


def end_to_end(loop: dict) -> dict:
    """Raw seconds, and the op-to-twin ratios that BENCHMARK.json gates."""
    records = loop["records"]
    runs = [rec["runs"][0] for rec in records]
    twins = [rec["twin"] for rec in records]
    ok = sum(1 for rec in records if rec["reason"] is None)
    walls = [r.wall_s for r in runs]
    tail_s, tail_pct = tail(walls)
    # Medians, not sums: now and then one side of a pair lands in a burst of
    # host load and reads 1.5x, which would swing a mean.
    wall_ratio = statistics.median(r.wall_s / t.wall_s for r, t in zip(runs, twins))
    return {
        "setup_s": statistics.median(loop["setup"]),
        "op_wall_ratio": wall_ratio,
        "op_cpu_ratio": statistics.median(r.cpu_s / t.cpu_s for r, t in zip(runs, twins)),
        "throughput_ratio": ok / len(runs) / wall_ratio,
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail_s,
        "op_tail_pct": tail_pct,
        "op_cpu_p50_s": statistics.median(r.cpu_s for r in runs),
        "ops_per_s": ok / sum(walls),
        "fail_rate": (len(runs) - ok) / len(runs),
        "peak_rss_mb": max(r.rss_kb for r in runs) / 1024.0,
    }


def per_layer(loop: dict) -> dict:
    traces = [rec["trace"] for rec in loop["records"] if rec["trace"]]
    n = len(traces)
    metrics: Dict[str, float] = {}
    sums: Dict[str, List[float]] = {}
    for tr in traces:
        for name, (calls, total, self_s) in tr["stats"].items():
            acc = sums.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
    for name, (calls, total, self_s) in sums.items():
        metrics[f"{name}.calls"] = calls / n
        metrics[f"{name}.total_s"] = total / n
        metrics[f"{name}.self_s"] = self_s / n

    def counter(key, how=sum):
        return how([tr["counters"].get(key, 0) for tr in traces])

    metrics["hfunction.resolve_sign.probe_points"] = counter(
        "hfunction.resolve_sign.probe_points") / n
    metrics["zcomplex.summand.generators_max"] = counter(
        "zcomplex.summand.generators_max", max)
    metrics["zcomplex.summand.arrows_sum"] = counter("zcomplex.summand.arrows_sum") / n
    tb_calls = sums.get("patterns.twobridge_data", [0])[0]
    metrics["patterns.twobridge_data.distinct_ratio"] = (
        counter("patterns.twobridge_data.distinct") / tb_calls if tb_calls else 0.0)
    metrics["cli.import_s"] = statistics.median(tr["import_s"] for tr in traces)
    metrics["trace.overhead_ratio"] = statistics.median(
        rec["runs"][1].wall_s / rec["runs"][0].wall_s for rec in loop["records"])
    return metrics


def write_spans(loop: dict, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, rec in enumerate(loop["records"]):
            for span_id, name, start, end, parent in (rec["trace"] or {}).get("spans", []):
                fh.write(json.dumps({"op": i, "id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def select(metrics: dict, spec: List[dict], default_zero: bool) -> dict:
    """The metrics named in BENCHMARK.json, with their units."""
    out = {}
    for m in spec:
        if m["name"] not in metrics and not default_zero:
            raise KeyError(f"metric {m['name']} was not measured")
        out[m["name"]] = {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    pinned = load_pinned()
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        import_times(workdir, 1)  # compiles bytecode; not timed
        import_times(workdir, 1, FROZEN)
        loop = run_loop(workload, seed, seconds, trace, workdir, pinned)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    records = loop["records"]
    failed = [rec for rec in records if rec["reason"]]
    for rec in failed[:10]:
        print(f"FAILED {rec['op'].key}: {rec['reason']}", file=sys.stderr)
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  ops {len(records)}"
          f"  failed {len(failed)}  loop {loop['loop_s']:.1f} s")
    if trace:
        spans = WORK / f"spans-{workload}-{seed}.jsonl"
        write_spans(loop, spans)
        metrics = per_layer(loop)
        chosen = select(metrics, spec["per_layer"], default_zero=True)
        for name, m in chosen.items():
            print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
        print(f"  spans written to {spans.relative_to(ROOT)}")
    else:
        metrics = end_to_end(loop)
        chosen = select(metrics, spec["end_to_end"], default_zero=False)
        for name, m in chosen.items():
            print(f"  {name:16s} {m['value']:.6g} {m['unit']}")
        print(f"  op_p50_s         {metrics['op_p50_s']:.6g} s")
        print(f"  op_cpu_p50_s     {metrics['op_cpu_p50_s']:.6g} s")
        print(f"  ops_per_s        {metrics['ops_per_s']:.6g} 1/s (correct ops per second of op time)")
        print(f"  op_tail_s        {metrics['op_tail_s']:.6g} s"
              f" (p{metrics['op_tail_pct']:.0f}, n={len(records)}; "
              f"{'max, fewer than 11 ops' if len(records) <= 10 else '10 ops beyond it'})")
        print(f"  fail_rate        {metrics['fail_rate']:.6g} ratio"
              f" ({len(failed)}/{len(records)})")
    return {"correct": not failed, "attempted": len(records), "failed": len(failed),
            "metrics": chosen}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + EXTRA_WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for source in (ROOT / "src", FROZEN):
        if not (source / "lsat" / "cli.py").is_file():
            print(f"bench: no lsat source under {source}", file=sys.stderr)
            return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
