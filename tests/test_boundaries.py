"""Input-boundary contracts: malformed JSON link data exits 2."""

import copy
import json

import pytest

from conftest import invoke
from lsat import twobridge_data

VALID = twobridge_data(5, 3).to_json_obj()


def _with(path, value):
    obj = copy.deepcopy(VALID)
    *parents, key = path
    node = obj
    for p in parents:
        node = node[p]
    node[key] = value
    return obj


MALFORMED = {
    "top-level-list": [],
    "top-level-int": 5,
    "linking-string": _with(("linking",), "x"),
    "exponent-not-list": _with(("delta_tilde", "terms", 0, "e"), 5),
    "terms-string": _with(("delta_tilde", "terms"), "zz"),
    "delta1-int": _with(("delta1",), 7),
    "g3-string": _with(("g3",), "a"),
    "g3-bool": _with(("g3",), True),
}


@pytest.mark.parametrize("command", ["tau", "classify"])
@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_json_exits_2(tmp_path, name, command):
    path = tmp_path / "link.json"
    path.write_text(json.dumps(MALFORMED[name]), encoding="utf-8")
    argv = [command, f"json:{path}"]
    if command == "tau":
        argv += ["--tau", "1", "--eps", "1"]
    result = invoke(argv)
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    payload = json.loads(result.stderr)
    assert payload["error"] == "InvalidInputError"
    assert payload["exit_code"] == 2
    assert payload["message"]

