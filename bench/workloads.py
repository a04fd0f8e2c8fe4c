"""Seeded op lists for the lsat benchmark workloads.

An op is one ``python -m lsat.cli ...`` process.  Every workload is a
closed loop with one client: the next op starts when the previous one
has exited.  Ops come in *rounds*; a round holds one op per slot of the
workload's fixed list of size bands, so every seed loads the program with
the same mix of small and large inputs and per-run medians stay
comparable across seeds.  The seed picks which input fills each slot,
never the mix.  With an odd number of ops per round the median op falls
in the middle band, not on the edge between two bands.

Nothing here runs lsat: the program receives only the generated argv and
the input files written from the pinned pool in ``pool.json``.

Workloads (default seed 1, closed loop, 1 client):

- ``verify-sweep``: ``verify --check all``; the only workload that shares
  work inside one process (15 small profiles rebuilt by most checks).
  Size: r <= 9.  The seed does not change it.
- ``twobridge-scale``: distinct two-bridge (r, q), odd r in [21, 41],
  136-635 ``delta_tilde`` terms in five bands, the middle one three times
  a round; no (r, q) repeats within a run of the default length and
  nothing is shared.  Commands rotate over ``tau --method both``,
  ``hfunc --format json`` and ``classify``.
- ``oracle-framing`` (not in BENCHMARK.json): two-bridge r <= 9 with
  companions |tau| <= 3, all
  three eps and framings |n| in [200, 300], [900, 1100] (five times a
  round) and [1900, 2000]; the time is in the chain-complex oracle and
  grows with |n|^2.
- ``json-ingest``: user link data (pinned two-bridge pool, r in 9..31,
  ``"g3": 0``, half of them with delta_tilde negated) through ``tau json:``
  and ``classify json:`` in six size bands, plus one malformed op per
  round of seven (missing field or off-coset exponent) that must end in
  exit 2 with a JSON error.
- ``json-defects`` (not in BENCHMARK.json): the three malformed inputs
  that still end in a traceback (top-level ``[]``, ``"linking": "x"``,
  ``"e": 5``).  Every op of it fails where the benchmark was added; it
  keeps the defect measurable without making a gated workload fail.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

DEFAULT_SEED = 1
HERE = Path(__file__).resolve().parent
POOL_PATH = HERE / "pool.json"

WORKLOADS = ("verify-sweep", "twobridge-scale", "json-ingest")
EXTRA_WORKLOADS = ("oracle-framing", "json-defects")

TB_COMMANDS = ("tau", "hfunc", "classify")
TB_BANDS = 5
# Cost at one size varies by about half with (r, q) and command, so the
# middle band fills three of the seven slots of a round.
TB_SLOTS = (0, 1, 2, 2, 2, 3, 4)
# Oracle cost grows with |n|^2 and varies by about a quarter with pattern and
# companion at fixed |n|, so the middle band is drawn five times a round:
# the per-run median then rests on ~15 ops instead of ~4.
FRAMING_BANDS = ((200, 300),) + ((900, 1100),) * 5 + ((1900, 2001),)
JSON_BANDS = 6
VALID_MUTATIONS = ("missing-field", "off-coset")
DEFECT_MUTATIONS = ("top-level-list", "linking-not-int", "exponent-not-list")


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its output must satisfy.

    ``expect`` is ``verify``, ``tau``, ``hfunc``, ``classify`` or ``error``
    (exit 2 with a JSON error on stderr).  ``key`` names the op's input
    independently of file paths; pinned expected values are keyed by it.
    ``input_obj`` is the JSON written to ``input_name`` before the run.
    """

    key: str
    argv: Tuple[str, ...]
    expect: str
    input_name: Optional[str] = None
    input_obj: object = None


def twobridge_terms(r: int, q: int) -> int:
    """Number of delta_tilde terms of two-bridge (r, q): the walk length."""
    return (r * q - 1) // 2


def twobridge_scale_pool() -> List[Tuple[int, int]]:
    """(r, q) with odd r in [21, 41], odd q <= r, 136-635 terms, by size."""
    pool = [
        (r, q)
        for r in range(21, 42, 2)
        for q in range(1, r + 1, 2)
        if 136 <= twobridge_terms(r, q) <= 635
    ]
    return sorted(pool, key=lambda rq: (twobridge_terms(*rq), rq))


def small_patterns() -> List[Tuple[int, int]]:
    """Two-bridge (r, q) with r <= 9; all satisfy the R_{l/2-1} condition."""
    return [(r, q) for r in (3, 5, 7, 9) for q in range(1, r + 1, 2)]


def load_pool() -> Dict[str, dict]:
    with open(POOL_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _bands(items: list, n: int) -> List[list]:
    """Split a size-sorted list into n contiguous bands of near-equal size."""
    return [items[len(items) * i // n: len(items) * (i + 1) // n] for i in range(n)]


def _companion(rng: random.Random) -> Tuple[int, int]:
    eps = rng.choice((-1, 0, 1))
    return (0 if eps == 0 else rng.randint(-3, 3)), eps


def _tau_argv(spec: str, tau: int, eps: int, n: int) -> Tuple[str, ...]:
    return ("tau", spec, "--tau", str(tau), "--eps", str(eps), "--n", str(n),
            "--method", "both", "--format", "json")


def _draw(rng: random.Random, band: list, used: list) -> object:
    """Next item of a band without repeats until the band is exhausted."""
    if not used:
        used.extend(band)
        rng.shuffle(used)
    return used.pop()


def _verify_rounds(rng: random.Random) -> Iterator[List[Op]]:
    argv = ("verify", "--check", "all", "--format", "json")
    while True:
        yield [Op(" ".join(argv), argv, "verify")]


def _twobridge_rounds(rng: random.Random) -> Iterator[List[Op]]:
    bands = _bands(twobridge_scale_pool(), TB_BANDS)
    left: List[list] = [[] for _ in bands]
    offset = rng.randrange(len(TB_COMMANDS))
    k = 0
    while True:
        round_ops = []
        for slot, b in enumerate(TB_SLOTS):
            r, q = _draw(rng, bands[b], left[b])
            spec = f"twobridge:{r},{q}"
            cmd = TB_COMMANDS[(offset + k + slot) % len(TB_COMMANDS)]
            if cmd == "tau":
                tau, eps = _companion(rng)
                argv = _tau_argv(spec, tau, eps, rng.randint(-4, 4))
            elif cmd == "hfunc":
                argv = ("hfunc", spec, "--format", "json")
            else:
                argv = ("classify", spec, "--format", "json")
            round_ops.append(Op(" ".join(argv), argv, cmd))
        k += 1
        yield round_ops


def _oracle_rounds(rng: random.Random) -> Iterator[List[Op]]:
    patterns = small_patterns()
    while True:
        round_ops = []
        for lo, hi in FRAMING_BANDS:
            r, q = rng.choice(patterns)
            tau, eps = _companion(rng)
            n = rng.randrange(lo, hi) * rng.choice((-1, 1))
            argv = _tau_argv(f"twobridge:{r},{q}", tau, eps, n)
            round_ops.append(Op(" ".join(argv), argv, "tau"))
        yield round_ops


def mutate(obj: dict, kind: str, rng: random.Random) -> object:
    """Malformed copy of pool link data; ``kind`` names the defect."""
    obj = copy.deepcopy(obj)
    if kind == "missing-field":
        del obj[rng.choice(("linking", "delta_tilde", "delta1", "delta2"))]
    elif kind == "off-coset":
        term = rng.choice(obj["delta_tilde"]["terms"])
        term["e"][rng.randrange(2)] += 1
    elif kind == "top-level-list":
        return []
    elif kind == "linking-not-int":
        obj["linking"] = "x"
    elif kind == "exponent-not-list":
        rng.choice(obj["delta_tilde"]["terms"])["e"] = 5
    else:
        raise ValueError(f"unknown mutation {kind!r}")
    return obj


def _negated(obj: dict) -> dict:
    """Same link data with the overall sign of delta_tilde flipped."""
    obj = copy.deepcopy(obj)
    for term in obj["delta_tilde"]["terms"]:
        term["c"] = -term["c"]
    return obj


def _json_op(cmd: str, key_input: str, obj: object, expect: str,
             serial: int, rng: random.Random) -> Op:
    if cmd == "tau":
        tau, eps = _companion(rng)
        argv = _tau_argv("json:{path}", tau, eps, rng.randint(-4, 4))
    else:
        argv = ("classify", "json:{path}", "--format", "json")
    key = " ".join(argv).replace("{path}", key_input)
    return Op(key, argv, expect, f"in{serial:05d}.json", obj)


def _json_rounds(rng: random.Random) -> Iterator[List[Op]]:
    pool = load_pool()
    names = sorted(pool, key=lambda n: (len(pool[n]["delta_tilde"]["terms"]), n))
    bands = _bands(names, JSON_BANDS)
    left: List[list] = [[] for _ in bands]
    serial = 0
    k = 0
    while True:
        round_ops = []
        for b, band in enumerate(bands):
            name = _draw(rng, band, left[b])
            cmd = ("tau", "classify")[(k + b) % 2]
            flip = rng.random() < 0.5
            round_ops.append(_json_op(cmd, name + ("~neg" if flip else ""),
                                      _negated(pool[name]) if flip else pool[name],
                                      cmd, serial, rng))
            serial += 1
        name, kind = rng.choice(names), rng.choice(VALID_MUTATIONS)
        bad = _json_op(rng.choice(("tau", "classify")), f"{name}~{kind}",
                       mutate(pool[name], kind, rng), "error", serial, rng)
        serial += 1
        round_ops.insert(rng.randrange(len(round_ops) + 1), bad)
        k += 1
        yield round_ops


def _defect_rounds(rng: random.Random) -> Iterator[List[Op]]:
    pool = load_pool()
    names = sorted(pool)
    serial = 0
    while True:
        round_ops = []
        for kind in DEFECT_MUTATIONS:
            name = rng.choice(names)
            round_ops.append(_json_op("classify", f"{name}~{kind}",
                                      mutate(pool[name], kind, rng), "error",
                                      serial, rng))
            serial += 1
        yield round_ops


def rounds(workload: str, seed: int) -> Iterator[List[Op]]:
    """Endless rounds of ops for ``workload``; equal seeds give equal ops."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "verify-sweep":
        return _verify_rounds(rng)
    if workload == "twobridge-scale":
        return _twobridge_rounds(rng)
    if workload == "oracle-framing":
        return _oracle_rounds(rng)
    if workload == "json-ingest":
        return _json_rounds(rng)
    if workload == "json-defects":
        return _defect_rounds(rng)
    raise ValueError(f"unknown workload {workload!r}")


def first_ops(workload: str, seed: int, count: int) -> List[Op]:
    """The first ``count`` ops (whole rounds) of a workload's plan."""
    ops: List[Op] = []
    for round_ops in rounds(workload, seed):
        if len(ops) >= count:
            return ops
        ops.extend(round_ops)
    return ops
