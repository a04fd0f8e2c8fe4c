"""Fuzz the CLI boundaries: JSON link data and argv.

Any JSON value, link data that is close to valid (integers of up to 4300
digits included), and any argument list must end in the exit-code
contract: 0, or 2/3/4 with a one-line JSON error on stderr, and never an
uncaught exception.
"""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import invoke
from lsat import twobridge_data, unlink_data

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

# Integers at and past the digit bound, up to CPython's 4300-digit limit,
# the largest json.load reads.
huge_ints = st.sampled_from(
    [10**1000 - 1, 10**1000, 10**4300 - 1]
).flatmap(lambda v: st.sampled_from([v, -v]))

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
                                 "component", "field", "huge"]))
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
    elif edit == "huge":
        where = draw(st.sampled_from(["coeff", "exponent", "linking", "g3"]))
        if where in ("linking", "g3"):
            obj[where] = draw(huge_ints)
        elif terms:
            term = draw(st.sampled_from(terms))
            if where == "coeff":
                term["c"] = draw(huge_ints)
            else:
                term["e"][draw(st.integers(0, 1))] = draw(huge_ints)
    return obj


@pytest.fixture(scope="module")
def link_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "link.json"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(obj=near_valid() | json_values, command=st.sampled_from(sorted(COMMANDS)))
def test_json_input_keeps_exit_contract(link_path, obj, command):
    link_path.write_text(json.dumps(obj), encoding="utf-8")
    argv = [command, f"json:{link_path}"] + COMMANDS[command]
    _assert_exit_contract(invoke(argv))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(content=st.binary(max_size=64), command=st.sampled_from(sorted(COMMANDS)))
def test_arbitrary_bytes_keep_exit_contract(link_path, content, command):
    link_path.write_bytes(content)
    argv = [command, f"json:{link_path}"] + COMMANDS[command]
    _assert_exit_contract(invoke(argv))


def _assert_exit_contract(result):
    assert result.exception is None or isinstance(
        result.exception, SystemExit
    ), repr(result.exception)
    assert result.exit_code in (0, 2, 3, 4)
    if result.exit_code:
        payload = json.loads(result.stderr.strip().splitlines()[-1])
        assert sorted(payload) == ["error", "exit_code", "message"]
        assert payload["exit_code"] == result.exit_code


COMMAND_OPTIONS = {
    "hfunc": ["--window", "--format"],
    "tau": ["--tau", "--eps", "--n", "--method", "--format"],
    "classify": ["--n", "--format"],
    "genus": ["--g4-eq-tau", "--n", "--format"],
    "verify": ["--format"],  # plus --check, always given a cheap value
    "frobnicate": ["--n"],
}
OPTION_VALUES = {
    "--tau": ["-1", "0", "1", "2"],
    "--eps": ["-1", "0", "1"],
    "--n": ["-3", "0", "2", "5"],
    "--method": ["closed", "oracle", "both"],
    "--format": ["tsv", "json"],
    "--window": ["0", "3"],
    "--g4-eq-tau": ["1", "2"],
    "--check": ["tables", "genus"],
}
HOSTILE = ["x", "-1", str(10**9), "xml", "json:{link}"]
PATTERNS = ["twobridge:3,3", "twobridge:5,3", "cable:2,3", "braid:4,5,2",
            "json:{link}", "x"]


@st.composite
def argv_lists(draw):
    """A command, its pattern and some of its options, each with a valid or
    a hostile value, then maybe one word from anywhere: any option name, a
    hostile value or arbitrary text."""
    command = draw(st.sampled_from(sorted(COMMAND_OPTIONS)))
    options = draw(st.lists(st.sampled_from(COMMAND_OPTIONS[command]), unique=True))
    if command == "verify":
        argv = [command]
        options.insert(0, "--check")
    else:
        argv = [command, draw(st.sampled_from(PATTERNS))]
    for opt in options:
        value = st.sampled_from(OPTION_VALUES[opt]) | st.sampled_from(HOSTILE)
        argv += [opt, draw(value)]
    loose = st.sampled_from(sorted(OPTION_VALUES) + ["--help"] + HOSTILE)
    return argv + draw(st.lists(loose | st.text(max_size=6), max_size=1))


@pytest.fixture(scope="module")
def valid_link_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("argv") / "link.json"
    path.write_text(json.dumps(dict(twobridge_data(5, 3).to_json_obj(), g3=0)))
    return path


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=argv_lists())
def test_argv_keeps_exit_contract(valid_link_path, argv):
    link = str(valid_link_path)
    _assert_exit_contract(invoke([w.replace("{link}", link) for w in argv]))
