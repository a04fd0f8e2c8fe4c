"""Fuzz the JSON link-data boundary through the CLI.

Any JSON value, and link data that is close to valid, must end in the
exit-code contract: 0, or 2/3/4 with a one-line JSON error on stderr, and
never an uncaught exception.
"""

import copy
import json

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from lsat import twobridge_data, unlink_data
from lsat.cli import main

COMMANDS = {
    "tau": ["--tau", "1", "--eps", "1"],
    "classify": [],
    "genus": [],
    "hfunc": ["--window", "2"],
}

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-5, 5)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


exponents = st.lists(st.integers(-8, 8), min_size=2, max_size=2)

knot_polys = st.sampled_from(
    [
        {"vars": 1, "terms": [{"e": [0], "c": 1}]},
        {"vars": 1, "terms": [{"e": [0], "c": -1}]},
        # Trefoil: x - 1 + x^-1.
        {"vars": 1, "terms": [{"e": [-2], "c": 1}, {"e": [0], "c": -1},
                              {"e": [2], "c": 1}]},
        {"vars": 1, "terms": [{"e": [2], "c": 1}]},
    ]
)

SMALL_LINKS = [unlink_data().to_json_obj()] + [
    twobridge_data(r, q).to_json_obj()
    for r, q in ((3, 1), (3, 3), (5, 1), (5, 3), (7, 3), (7, 5))
]


@st.composite
def near_valid(draw):
    """Small valid link data, maybe a g3, and at most one random edit."""
    obj = copy.deepcopy(draw(st.sampled_from(SMALL_LINKS)))
    g3 = draw(st.none() | st.integers(-1, 3))
    if g3 is not None:
        obj["g3"] = g3
    terms = obj["delta_tilde"]["terms"]
    edit = draw(st.sampled_from(["none", "coeff", "term", "linking",
                                 "component", "field"]))
    if edit == "coeff" and terms:
        draw(st.sampled_from(terms))["c"] += draw(st.integers(-2, 2))
    elif edit == "term":
        terms.append({"e": draw(exponents), "c": draw(st.integers(-2, 2))})
    elif edit == "linking":
        obj["linking"] += draw(st.integers(-2, 2))
    elif edit == "component":
        obj[draw(st.sampled_from(["delta1", "delta2"]))] = draw(knot_polys)
    elif edit == "field":
        obj[draw(st.sampled_from(sorted(obj)))] = draw(json_values)
    return obj


@pytest.fixture(scope="module")
def link_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "link.json"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(obj=near_valid() | json_values, command=st.sampled_from(sorted(COMMANDS)))
def test_json_input_keeps_exit_contract(link_path, obj, command):
    link_path.write_text(json.dumps(obj), encoding="utf-8")
    argv = [command, f"json:{link_path}"] + COMMANDS[command]
    result = CliRunner().invoke(main, argv)
    assert result.exception is None or isinstance(
        result.exception, SystemExit
    ), repr(result.exception)
    assert result.exit_code in (0, 2, 3, 4)
    if result.exit_code:
        payload = json.loads(result.stderr.strip().splitlines()[-1])
        assert sorted(payload) == ["error", "exit_code", "message"]
        assert payload["exit_code"] == result.exit_code
