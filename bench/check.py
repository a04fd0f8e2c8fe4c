"""Output checker: decides whether one finished op is correct.

Values are parsed and compared, never bytes, so an added JSON field is not
a failure.  ``failure`` returns None for a correct op and a short reason
otherwise; every reason counts the op as failed.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Optional

# Points per verify check at the seed commit.
VERIFY_POINTS = {
    "tables": 90,
    "oracle": 1089,
    "properties": 15,
    "classifier": 15,
    "inequality": 1089,
    "genus": 38,
}
VERDICTS = ("trivial", "identity", "orientation_reversing", "obstructed")


def _hfunc_failure(obj: dict) -> Optional[str]:
    """H >= 0, unit gaps, H(t,r)+t+r = H(-t,-r), R_t row matches the table."""
    ts = obj["t_doubled"]
    rows = obj["rows"]
    rs = [row["r_doubled"] for row in rows]
    if rs != sorted(ts, reverse=True):
        return "hfunc: row and column coordinates differ"
    h = {}
    for row in rows:
        if len(row["h"]) != len(ts):
            return "hfunc: ragged table"
        for t, v in zip(ts, row["h"]):
            h[t, row["r_doubled"]] = v
    for (t, r), v in h.items():
        if v < 0:
            return f"hfunc: H({t}/2,{r}/2) < 0"
        for nb in ((t + 2, r), (t, r + 2)):
            if nb in h and v - h[nb] not in (0, 1):
                return f"hfunc: gap between {(t, r)} and {nb}"
        if (t + r) % 2:
            return "hfunc: t + r not integral"
        if (-t, -r) in h and v + (t + r) // 2 != h[-t, -r]:
            return f"hfunc: symmetry fails at {(t, r)}"
    r_of_t = obj["r_of_t_doubled"]
    if len(r_of_t) != len(ts):
        return "hfunc: r_of_t row has the wrong length"
    for t, big_r in zip(ts, r_of_t):
        steps = [r for r in rs[:-1] if h[t, r - 2] == h[t, r] + 1]
        if steps and steps[0] != big_r:
            return f"hfunc: R at t={t}/2 is {big_r}/2, table steps at {steps[0]}/2"
        if not steps and rs[-1] < big_r <= rs[0]:
            return f"hfunc: R at t={t}/2 inside the window but no step"
    return None


def pinned_value(expect: str, obj: dict) -> object:
    """The parsed value pinned for an op: tau, H-table digest or verdict."""
    if expect == "tau":
        return obj["closed"]["tau"]
    if expect == "hfunc":
        core = [obj["linking"], obj["t_doubled"],
                [[row["r_doubled"], row["h"]] for row in obj["rows"]],
                obj["r_of_t_doubled"]]
        return hashlib.sha256(json.dumps(core).encode()).hexdigest()[:16]
    if expect == "classify":
        return [obj["verdict"], obj["failed_claim"]]
    return None


def _value_failure(expect: str, obj: dict) -> Optional[str]:
    if expect == "tau":
        closed, oracle = obj["closed"]["tau"], obj["oracle"]["tau"]
        if obj.get("match") is not True or closed != oracle:
            return f"tau: closed {closed} vs oracle {oracle}, match={obj.get('match')}"
        return None
    if expect == "hfunc":
        return _hfunc_failure(obj)
    if expect == "classify":
        if obj["verdict"] not in VERDICTS:
            return f"classify: unknown verdict {obj['verdict']!r}"
        if (obj["verdict"] == "obstructed") != isinstance(obj["failed_claim"], str):
            return "classify: failed_claim inconsistent with verdict"
        return None
    if expect == "verify":
        if obj["total_failures"] != 0:
            return f"verify: {obj['total_failures']} failures"
        points = {name: c["points"] for name, c in obj["checks"].items()}
        if points != VERIFY_POINTS:
            return f"verify: points {points}"
        if any(c["failures"] for c in obj["checks"].values()):
            return "verify: a check reports failures"
        return None
    raise ValueError(f"unknown expectation {expect!r}")


def _error_failure(stderr: str) -> Optional[str]:
    lines = [ln for ln in stderr.splitlines() if ln.strip()]
    try:
        err = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return "error: no JSON error object on stderr"
    if not isinstance(err, dict) or not {"error", "message", "exit_code"} <= set(err):
        return "error: JSON error lacks error/message/exit_code"
    if err["exit_code"] != 2:
        return f"error: JSON exit_code {err['exit_code']}"
    return None


def failure(
    key: str,
    expect: str,
    returncode: Optional[int],
    stdout: str,
    stderr: str,
    pinned: Dict[str, object],
) -> Optional[str]:
    """Reason the op failed, or None; ``returncode`` None means timed out."""
    if returncode is None:
        return "timeout"
    if "Traceback (most recent call last)" in stderr:
        return f"traceback (exit {returncode})"
    if expect == "error":
        if returncode != 2:
            return f"exit {returncode}, expected 2"
        return _error_failure(stderr)
    if returncode != 0:
        return f"exit {returncode}, expected 0"
    try:
        obj = json.loads(stdout)
        reason = _value_failure(expect, obj)
        if reason is None and key in pinned:
            got = pinned_value(expect, obj)
            if got != pinned[key]:
                reason = f"{expect}: got {got!r}, pinned {pinned[key]!r}"
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        return f"{expect}: unparseable output ({type(exc).__name__}: {exc})"
    return reason
