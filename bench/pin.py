"""Regenerate the benchmark's pinned data from the current lsat.

Usage (from the repository root): ``python3 bench/pin.py``

Writes ``pool.json`` (two-bridge link data, r in 9..31, with ``"g3": 0``,
the json-ingest input pool) and ``expected.json`` (parsed tau values,
H-table digests and classifier verdicts of the first ops of every
workload under the default seed).  Run it only when the program's answers
are meant to change; the benchmark itself never runs lsat to make inputs.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from check import failure, pinned_value
from run import OP_TIMEOUT_S, ROOT, WORK, op_argv, spawn
from workloads import DEFAULT_SEED, EXTRA_WORKLOADS, POOL_PATH, WORKLOADS, first_ops

POOL_PATTERNS = ((9, 5), (9, 9), (11, 7), (13, 9), (15, 11), (17, 9), (19, 13),
                 (21, 11), (23, 15), (25, 13), (27, 19), (29, 17), (31, 21), (31, 25))
PINNED_OPS = 64


def write_pool() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from lsat.patterns import twobridge_data

    pool = {}
    for r, q in POOL_PATTERNS:
        obj = twobridge_data(r, q).to_json_obj()
        obj["g3"] = 0
        pool[f"tb-{r}-{q}"] = obj
    POOL_PATH.write_text(json.dumps(pool, sort_keys=True) + "\n", encoding="utf-8")


def write_expected() -> None:
    pinned = {}
    workdir = WORK / "pin"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for workload in WORKLOADS + EXTRA_WORKLOADS:
            for op in first_ops(workload, DEFAULT_SEED, PINNED_OPS):
                if op.expect in ("verify", "error") or op.key in pinned:
                    continue
                run = spawn([sys.executable, "-m", "lsat.cli", *op_argv(op, workdir)],
                            workdir, OP_TIMEOUT_S)
                reason = failure(op.key, op.expect, run.returncode, run.stdout,
                                 run.stderr, {})
                if reason:
                    raise SystemExit(f"pin: {op.key}: {reason}")
                pinned[op.key] = pinned_value(op.expect, json.loads(run.stdout))
                print(f"{op.key} -> {pinned[op.key]}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = Path(__file__).resolve().parent / "expected.json"
    path.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write_pool()
    write_expected()
