"""CLI argument limits: negative framings and windows, JSON exponent cap,
the oracle's summand cap, the braid strand cap, integers written only as
ASCII digits and of at most MAX_INT_DIGITS digits, in argv and in JSON."""

import json
import time

import pytest

import lsat
from conftest import invoke, run_python
from lsat import twobridge_data
from lsat.halfgrid_poly import MAX_DOUBLED_EXPONENT
from lsat.zcomplex import MAX_SUMMAND_SOURCES


def _error(result, code=2):
    assert result.exit_code == code, result.output
    assert result.stdout == ""
    payload = json.loads(result.stderr.strip().splitlines()[-1])
    assert payload["exit_code"] == code
    return payload


@pytest.mark.parametrize(
    "spec", ["twobridge:3,1", "cable:3,2", "braid:4,5,2", "json:"]
)
def test_classify_rejects_negative_framing(tmp_path, spec):
    # The classifier takes no framing, so the CLI is the one place that
    # refuses a negative one, whatever the pattern's kind.
    if spec == "json:":
        spec += str(_link_json(tmp_path, twobridge_data(3, 1).to_json_obj()))
    result = invoke(["classify", spec, "--n", "-1"])
    payload = _error(result)
    assert payload["message"] == "classifier applies to framings n >= 0"


def test_hfunc_rejects_negative_window():
    result = invoke(["hfunc", "twobridge:3,3", "--window", "-1"])
    assert _error(result)["error"] == "InvalidInputError"


@pytest.mark.parametrize("spec", ["twobridge:3,1", "twobridge:3,3"])
def test_hfunc_rejects_window_zero(spec):
    # Odd linking has no lattice point in [-0, 0], even linking just one.
    result = invoke(["hfunc", spec, "--window", "0"])
    assert _error(result)["message"] == "--window must be >= 1, got 0"


def _link_json(tmp_path, obj):
    path = tmp_path / "link.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def test_huge_exponent_exits_2_quickly(tmp_path):
    obj = twobridge_data(3, 1).to_json_obj()
    obj["delta_tilde"]["terms"].append({"e": [10**9 + 1, 1], "c": 1})
    path = _link_json(tmp_path, obj)
    proc = run_python(
        "-m", "lsat.cli", "tau", f"json:{path}", "--tau", "1", "--eps", "1"
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    payload = json.loads(proc.stderr)
    assert payload["error"] == "InvalidInputError"
    assert str(MAX_DOUBLED_EXPONENT) in payload["message"]


@pytest.mark.parametrize("poly", ["delta_tilde", "delta1", "delta2"])
def test_exponent_cap_applies_to_every_polynomial(tmp_path, poly):
    obj = twobridge_data(3, 3).to_json_obj()
    arity = 2 if poly == "delta_tilde" else 1
    obj[poly]["terms"].append(
        {"e": [MAX_DOUBLED_EXPONENT + 2] * arity, "c": 1}
    )
    path = _link_json(tmp_path, obj)
    result = invoke(["classify", f"json:{path}"])
    assert "exceeds the limit" in _error(result)["message"]


@pytest.mark.parametrize("content", [
    b"\xff\xfe{}",  # not UTF-8
    b"[" * 100_000 + b"]" * 100_000,  # nested deeper than the recursion limit
    b'{"linking": ' + b"1" * 5000 + b"}",  # past the int-digit limit
], ids=["not-utf8", "deep-array", "long-int"])
def test_unreadable_json_exits_2(tmp_path, content):
    path = tmp_path / "link.json"
    path.write_bytes(content)
    result = invoke(["tau", f"json:{path}", "--tau", "1", "--eps", "1"])
    payload = _error(result)
    assert payload["error"] == "InvalidInputError"
    assert payload["message"].startswith(f"cannot read link data from {path}: ")
    assert len(result.stderr.strip().splitlines()) == 1


def test_large_two_bridge_json_still_computes(tmp_path):
    obj = dict(twobridge_data(21, 13).to_json_obj(), g3=0)
    path = _link_json(tmp_path, obj)
    argv = ["--tau", "2", "--eps", "1", "--n", "1"]
    from_json = invoke(["tau", f"json:{path}"] + argv)
    direct = invoke(["tau", "twobridge:21,13"] + argv)
    assert from_json.exit_code == 0, from_json.output
    assert from_json.stdout == direct.stdout


# braid:3,6,2 has b = p - 1, so it stops at the range refusal before the
# closure is looked at; braid:3,4,1 and braid:5,7,2 are in range and close
# to links.
REFUSALS = {
    "cable:4,2": "cable needs p > 0 and gcd(p,q)=1, got (4,2)",
    "braid:3,6,2": "1-bridge braid needs p >= 2, 0 < b < p-1",
    "braid:3,4,1": "closure of B(3,4,1) is a link",
    "braid:5,7,2": "closure of B(5,7,2) is a link",
    "braid:1000000,1000001,2":
        "1-bridge braid p = 1000000 exceeds the limit p <= 65536",
}


@pytest.mark.parametrize("spec", list(REFUSALS))
@pytest.mark.parametrize("n", ["0", "2"])
def test_classify_rejects_what_tau_rejects(spec, n):
    classify = invoke(["classify", spec, "--n", n])
    tau = invoke(["tau", spec, "--tau", "1", "--eps", "1", "--n", n])
    assert _error(classify) == _error(tau)
    assert classify.stderr == tau.stderr
    assert _error(tau)["message"] == REFUSALS[spec]


def test_classify_json_reuses_the_profile_hfunction(tmp_path, monkeypatch):
    builds = []
    built_by_profile = []
    init = lsat.HFunction.__init__
    profile = lsat.generic_profile

    def counting_init(self, data):
        builds.append(data)
        init(self, data)

    def marking_profile(*args, **kwargs):
        prof = profile(*args, **kwargs)
        built_by_profile.append(len(builds))
        return prof

    monkeypatch.setattr(lsat.HFunction, "__init__", counting_init)
    monkeypatch.setattr(lsat.patterns, "generic_profile", marking_profile)
    obj = dict(twobridge_data(21, 13).to_json_obj(), g3=0)
    path = _link_json(tmp_path, obj)
    result = invoke(["classify", f"json:{path}"])
    assert result.exit_code == 0, result.output
    assert len(built_by_profile) == 1
    assert len(builds) == built_by_profile[0]


@pytest.mark.parametrize("argv, message", [
    (["tau", "twobridge:5,3", "--tau", "1_0", "--eps", "1"],
     "lsat tau: argument --tau: invalid int value: '1_0'"),
    (["tau", "twobridge:1_1,3", "--tau", "1", "--eps", "1"],
     "non-integer parameters in 'twobridge:1_1,3'"),
    (["hfunc", "twobridge:3,1", "--window", "\u0663"],  # Arabic-Indic 3
     "lsat hfunc: argument --window: invalid int value: '\u0663'"),
    (["genus", "twobridge:5,3", "--g4-eq-tau", " 2"],
     "lsat genus: argument --g4-eq-tau: invalid int value: ' 2'"),
    (["classify", "braid:4,5,+-2"], "non-integer parameters in 'braid:4,5,+-2'"),
], ids=["underscore", "underscore-param", "arabic-indic-digit", "space",
        "two-signs"])
def test_integers_are_ascii_digits_with_an_optional_sign(argv, message):
    assert _error(invoke(argv))["message"] == message


def test_signed_integers_still_parse():
    signed = invoke(["tau", "cable:+3,2", "--tau", "+1", "--eps", "1", "--n", "-2"])
    plain = invoke(["tau", "cable:3,2", "--tau", "1", "--eps", "1", "--n", "-2"])
    assert signed.exit_code == 0, signed.output
    assert signed.stdout == plain.stdout


# Each command with integers of MAX_INT_DIGITS digits in every place it reads
# them ("{x}"), and the exit code it gives there.  Cables reach the largest
# printed value, p (q + p n), about 3 * MAX_INT_DIGITS digits.
AT_THE_DIGIT_BOUND = [
    (["hfunc", "twobridge:3,1", "--window", "{x}"], 2),
    (["hfunc", "twobridge:{x},1"], 2),
    (["tau", "twobridge:41,1", "--tau", "0", "--eps", "1", "--n", "{x}"], 0),
    (["tau", "twobridge:9,5", "--tau", "{x}", "--eps", "1", "--n", "-{x}"], 0),
    (["tau", "cable:{x},1", "--tau", "-{x}", "--eps", "-1", "--n", "{x}"], 0),
    (["tau", "cable:2,{x}", "--tau", "{x}", "--eps", "1", "--n", "-{x}"], 0),
    (["tau", "braid:6,{x},2", "--tau", "{x}", "--eps", "1", "--n", "{x}"], 0),
    (["genus", "twobridge:9,5", "--g4-eq-tau", "{x}"], 0),
    (["genus", "twobridge:9,5", "--g4-eq-tau", "{x}", "--n", "-{x}"], 3),
    (["genus", "cable:{x},1", "--g4-eq-tau", "{x}", "--n", "{x}"], 0),
    (["classify", "cable:{x},1", "--n", "{x}"], 0),
    (["classify", "braid:6,{x},2", "--n", "{x}"], 0),
]


@pytest.mark.parametrize("argv, code", AT_THE_DIGIT_BOUND,
                         ids=[" ".join(argv) for argv, _ in AT_THE_DIGIT_BOUND])
def test_integers_answer_up_to_the_digit_bound(argv, code):
    # Past CPython's 4300-digit limit, parsing or printing an int raises
    # ValueError; invoke lets it through, so no case may reach it.
    from lsat.cli import MAX_INT_DIGITS

    at = invoke([a.replace("{x}", "9" * MAX_INT_DIGITS) for a in argv])
    assert at.exit_code == code, at.output
    if code:
        assert "digits" not in _error(at, code)["message"]
    past = invoke([a.replace("{x}", "9" * (MAX_INT_DIGITS + 1)) for a in argv])
    # Options are read before the command loads its pattern.
    options = [argv[i - 1] for i, a in enumerate(argv) if "{x}" in a and i > 1]
    where = (f"lsat {argv[0]}: argument {options[0]}:" if options else
             f"argument PATTERN: a {argv[1].partition(':')[0]} parameter has")
    assert _error(past)["message"] == f"{where} more than {MAX_INT_DIGITS} digits"


def _coefficient_link(coefficient):
    """Linking 1, delta1 = delta2 = 1, and delta_tilde with two terms, at
    doubled (1, 1) and (1, 3), each of the given coefficient."""
    one = {"vars": 1, "terms": [{"e": [0], "c": 1}]}
    terms = [{"e": [1, 1], "c": coefficient}, {"e": [1, 3], "c": coefficient}]
    return {"linking": 1, "delta1": one, "delta2": one,
            "delta_tilde": {"vars": 2, "terms": terms}}


@pytest.mark.parametrize("argv", [
    ["tau", "--tau", "1", "--eps", "1"], ["classify"], ["hfunc"],
], ids=["tau", "classify", "hfunc"])
def test_json_integers_past_the_digit_bound_exit_2(tmp_path, argv):
    # json.load reads integers up to CPython's 4300-digit limit, and
    # printing a value past it raises ValueError; the reader refuses every
    # integer past MAX_INT_DIGITS, so none reaches the H-function.
    from lsat.cli import MAX_INT_DIGITS

    past = f"coefficient has more than {MAX_INT_DIGITS} digits"
    for coefficient, message in (
        (10**4300 - 1, past),
        (10**MAX_INT_DIGITS, past),
        (-(10**MAX_INT_DIGITS), past),
        (10**MAX_INT_DIGITS - 1,
         "neither sign of delta_tilde yields a valid H-function"),
    ):
        path = _link_json(tmp_path, _coefficient_link(coefficient))
        result = invoke(argv[:1] + [f"json:{path}"] + argv[1:])
        assert _error(result)["message"] == message


@pytest.mark.parametrize("field", ["linking", "exponent", "g3"])
def test_each_json_integer_is_bounded(tmp_path, field):
    from lsat.cli import MAX_INT_DIGITS

    obj = twobridge_data(3, 1).to_json_obj()
    huge = -(10**MAX_INT_DIGITS)
    if field == "exponent":
        obj["delta_tilde"]["terms"].append({"e": [1, huge], "c": 1})
    else:
        obj[field] = huge
    path = _link_json(tmp_path, obj)
    result = invoke(["tau", f"json:{path}", "--tau", "1", "--eps", "1"])
    assert _error(result)["message"] == (
        f"{field} has more than {MAX_INT_DIGITS} digits"
    )


def test_hfunc_window_limit():
    result = invoke(["hfunc", "twobridge:3,1", "--window", "65"])
    assert _error(result)["message"] == "--window must be <= 64, got 65"
    largest = invoke(["hfunc", "twobridge:3,1", "--window", "64", "--format", "json"])
    assert largest.exit_code == 0, largest.output
    assert len(json.loads(largest.stdout)["t_doubled"]) == 128


@pytest.mark.parametrize("spec", ["twobridge:67,1", "twobridge:1,67"])
def test_two_bridge_r_limit(spec):
    result = invoke(["classify", spec])
    payload = _error(result)
    assert payload["message"] == "two-bridge r = 67 exceeds the limit r <= 65"


def test_largest_two_bridge_r_stays_within_the_exponent_cap():
    data = twobridge_data(65, 63)
    assert data.support_extent() <= MAX_DOUBLED_EXPONENT
    result = invoke(["classify", "twobridge:65,1"])
    assert result.exit_code == 0, result.output


def test_oracle_runs_at_the_summand_cap():
    # One summand of exactly the cap in each case: eps1, eps0_pos,
    # eps0_neg and epsm1.
    for tau, eps, n, case in (
        (1, 1, 2 - MAX_SUMMAND_SOURCES, "eps=1,n<2tau"),
        (0, 0, MAX_SUMMAND_SOURCES, "eps=0,n>=0"),
        (0, 0, -MAX_SUMMAND_SOURCES, "eps=0,n<0"),
        (-1, -1, -2 + MAX_SUMMAND_SOURCES, "eps=-1,n>2tau+1"),
    ):
        result = invoke([
            "tau", "twobridge:3,3", "--tau", str(tau), "--eps", str(eps),
            "--n", str(n), "--method", "both",
        ])
        assert result.exit_code == 0, (case, result.output)
        assert f"method = oracle\tcase = {case}\n" in result.stdout, case
        assert result.stdout.endswith("match\n"), case


@pytest.mark.parametrize("tau, eps, n", [
    ("0", "0", MAX_SUMMAND_SOURCES + 1),
    ("0", "0", -MAX_SUMMAND_SOURCES - 1),
    ("2", "1", 4 + MAX_SUMMAND_SOURCES + 1),
    ("-3", "-1", -6 - MAX_SUMMAND_SOURCES - 1),
])
@pytest.mark.parametrize("method", ["oracle", "both"])
def test_oracle_refuses_a_summand_above_the_cap(tau, eps, n, method):
    argv = ["tau", "twobridge:5,3", "--tau", tau, "--eps", eps, "--n", str(n)]
    payload = _error(invoke(argv + ["--method", method]))
    assert payload["message"] == (
        f"oracle summand of {MAX_SUMMAND_SOURCES + 1} sources exceeds "
        f"the limit {MAX_SUMMAND_SOURCES}"
    )
    assert invoke(argv).exit_code == 0  # the closed form has no cap


@pytest.mark.parametrize("argv", [
    ["--tau", "0", "--eps", "0", "--n", str(10**9)],
    ["--tau", str(10**9), "--eps", "1"],
])
def test_oracle_summand_of_10_to_the_9_exits_2_quickly(argv):
    argv = ["tau", "twobridge:3,3", *argv, "--method", "oracle"]
    proc = run_python("-m", "lsat.cli", *argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "exceeds the limit" in json.loads(proc.stderr)["message"]


@pytest.mark.parametrize("argv", [
    ["tau", "braid:5,7,2", "--tau", "1", "--eps", "1"],
    ["genus", "braid:5,7,2"],
    ["classify", "braid:5,7,2"],
])
def test_braid_closing_to_a_link_exits_2(argv):
    # B(5,7,2) passes a residue and a parity test, yet closes to a
    # 3-component link.
    payload = _error(invoke(argv + ["--format", "json"]))
    assert payload["error"] == "InvalidInputError"
    assert payload["message"] == "closure of B(5,7,2) is a link"


BRAIDED_RUNS = [["hfunc"], ["genus"]] + [
    ["tau", "--tau", "1", "--eps", "1", "--method", method, "--n", n]
    for method in ("closed", "oracle", "both") for n in ("-3", "0", "3")
] + [["classify", "--n", n] for n in ("-1", "0", "2")]


@pytest.mark.parametrize("spec", list(REFUSALS))
def test_invalid_braided_spec_is_refused_as_typed_by_every_command(spec):
    # The loader checks the spec before hfunc's and the oracle's exit-3
    # refusals and classify's framing test, and names it unframed.
    for argv in BRAIDED_RUNS:
        result = invoke([argv[0], spec] + argv[1:])
        payload = _error(result)
        assert payload == {"error": "InvalidInputError", "exit_code": 2,
                           "message": REFUSALS[spec]}, argv
        assert result.stderr == json.dumps(payload, sort_keys=True) + "\n"


@pytest.mark.parametrize("argv", [
    ["tau", "braid:65536,65537,2", "--tau", "1", "--eps", "1"],
    ["genus", "braid:65536,65537,2", "--g4-eq-tau", "1"],
    ["classify", "braid:65536,65537,2"],
], ids=["tau", "genus", "classify"])
def test_a_braid_op_walks_the_strand_orbit_once(argv):
    # The loader checks the spec and tau_bridge_braid or
    # bridge_braid_profile checks it again: the second check is a hit.
    from lsat.patterns import bridge_braid_knot_check

    bridge_braid_knot_check.cache_clear()
    result = invoke(argv)
    assert result.exit_code == 0, result.output
    assert bridge_braid_knot_check.cache_info().misses == 1


def test_huge_braid_exits_2_quickly():
    from lsat.patterns import MAX_BRAID_STRANDS

    start = time.perf_counter()
    proc = run_python(
        "-m", "lsat.cli", "tau", f"braid:{10**9},{10**9 + 1},2",
        "--tau", "1", "--eps", "1",
    )
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 2
    assert proc.stdout == ""
    payload = json.loads(proc.stderr)
    assert payload["error"] == "InvalidInputError"
    assert payload["message"] == (
        f"1-bridge braid p = {10**9} exceeds the limit p <= {MAX_BRAID_STRANDS}"
    )
