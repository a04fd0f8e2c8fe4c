"""End-to-end tests of the command-line interface."""

import gc
import json
from pathlib import Path

import pytest

import lsat
from conftest import invoke, run_python
from lsat import twobridge_data, unlink_data


@pytest.fixture()
def unlink_json(tmp_path):
    path = tmp_path / "unlink.json"
    path.write_text(json.dumps(unlink_data().to_json_obj()))
    return str(path)


class TestHfunc:
    def test_whitehead_table(self):
        result = invoke(["hfunc", "twobridge:3,3", "--window", "3"])
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        # Column t=0 of rows r=1 and r=0 reads 0 then 1 (R_0 = 1).
        header = lines[0].split("\t")
        t0 = header.index("0")
        rows = {line.split("\t")[0]: line.split("\t") for line in lines[1:]}
        assert rows["1"][t0] == "0"
        assert rows["0"][t0] == "1"

    def test_hopf_table_half_integers(self):
        result = invoke(["hfunc", "twobridge:3,1", "--window", "3"])
        assert result.exit_code == 0
        assert "-1/2" in result.output

    def test_json_pattern_input(self, unlink_json):
        result = invoke(["hfunc", f"json:{unlink_json}", "--window", "2"])
        assert result.exit_code == 0
        assert result.output.splitlines()[1].startswith("2\t")

    def test_json_format_doubled(self):
        result = invoke(["hfunc", "twobridge:3,1", "--window", "2", "--format", "json"])
        assert result.exit_code == 0
        obj = json.loads(result.output)
        assert obj["linking"] == 1
        assert all(t % 2 == 1 for t in obj["t_doubled"])

    def test_cable_has_no_table(self):
        result = invoke(["hfunc", "cable:2,1"])
        assert result.exit_code == 3


class TestTau:
    def test_both_methods_match(self):
        result = invoke([
            "tau", "twobridge:5,3", "--tau", "2", "--eps", "1",
            "--n", "0", "--method", "both",
        ])
        assert result.exit_code == 0
        assert result.output.count("tau = 3") == 2
        assert "match" in result.output

    def test_cable_example(self):
        result = invoke(["tau", "cable:2,3", "--tau", "1", "--eps", "1"])
        assert result.exit_code == 0
        assert "tau = 3" in result.output

    def test_cable_framing_fold(self):
        # cable:2,1 with n=1 equals cable:2,3 with n=0.
        fold = invoke(["tau", "cable:2,1", "--tau", "1", "--eps", "1", "--n", "1"])
        direct = invoke(["tau", "cable:2,3", "--tau", "1", "--eps", "1"])
        assert fold.output == direct.output

    def test_oracle_method(self):
        result = invoke([
            "tau", "twobridge:5,3", "--tau", "0", "--eps", "-1",
            "--n", "5", "--method", "oracle", "--format", "json",
        ])
        assert result.exit_code == 0
        obj = json.loads(result.output)
        assert obj["method"] == "oracle"
        closed = invoke([
            "tau", "twobridge:5,3", "--tau", "0", "--eps", "-1",
            "--n", "5", "--format", "json",
        ])
        assert json.loads(closed.output)["tau"] == obj["tau"]

    def test_oracle_unsupported_for_cables(self):
        result = invoke([
            "tau", "cable:2,3", "--tau", "1", "--eps", "1",
            "--method", "oracle",
        ])
        assert result.exit_code == 3

    def test_invalid_companion_exit_2(self):
        result = invoke(["tau", "twobridge:5,3", "--tau", "1", "--eps", "0"])
        assert result.exit_code == 2

    # Accepted L-space link data (linking 2, delta2 the trefoil) whose
    # R_{l/2-1} fails cond_tau: l = 2, g3 = 1, doubled R values 0, 4, 4.
    COND_TAU_FAILS = {
        "linking": 2,
        "delta_tilde": {"vars": 2, "terms": [{"e": [0, -2], "c": 1},
                                             {"e": [2, 4], "c": 1}]},
        "delta1": {"vars": 1, "terms": [{"e": [0], "c": 1}]},
        "delta2": {"vars": 1, "terms": [{"e": [-2], "c": 1}, {"e": [0], "c": -1},
                                        {"e": [2], "c": 1}]},
    }

    @pytest.mark.parametrize("eps, tau, n", [
        ("-1", "1", "0"), ("-1", "0", "0"), ("-1", "0", "3"), ("0", "0", "-2"),
    ])
    def test_oracle_refuses_as_the_closed_form_where_cond_tau_fails(
            self, tmp_path, eps, tau, n):
        path = tmp_path / "cond-tau.json"
        path.write_text(json.dumps(self.COND_TAU_FAILS))
        messages = set()
        for method in ("oracle", "closed"):
            result = invoke(["tau", f"json:{path}", "--tau", tau, "--eps", eps,
                             "--n", n, "--method", method])
            assert result.exit_code == 3, method
            messages.add(json.loads(result.stderr.splitlines()[-1])["message"])
        what = "eps=-1" if eps == "-1" else "eps=0 with n<0"
        assert messages == {f"{what} needs the R_{{l/2-1}} condition"}

    def test_unsupported_regime_exit_3(self):
        # eps=-1 on a cable profile has no closed form through this path,
        # but the family formula applies; use a generic unsupported case:
        # the Mazur pattern is fine, so use a cable with eps=-1 via json?
        # Simplest: eps=0 and n<0 needs cond_tau, which holds for
        # two-bridge; use a braid with oracle instead (exit 3 above).
        result = invoke([
            "tau", "braid:4,5,2", "--tau", "0", "--eps", "1",
            "--method", "both",
        ])
        assert result.exit_code == 3


class TestClassifyGenus:
    def test_classify_identity(self):
        result = invoke(["classify", "twobridge:3,1", "--format", "json"])
        assert json.loads(result.output) == {
            "verdict": "identity",
            "failed_claim": None,
        }

    def test_classify_obstructed(self):
        result = invoke(["classify", "twobridge:5,3"])
        assert result.exit_code == 0
        assert result.output.startswith("obstructed")

    @pytest.mark.parametrize("q", [0, 1, -3])
    def test_classify_core_cable_is_identity(self, q):
        # The (1,q) cable is the core of the solid torus, and tau agrees.
        spec = f"cable:1,{q}"
        tsv = invoke(["classify", spec])
        assert (tsv.exit_code, tsv.stdout, tsv.stderr) == (0, "identity\n", "")
        as_json = invoke(["classify", spec, "--format", "json"])
        assert as_json.exit_code == 0
        assert json.loads(as_json.stdout) == {
            "verdict": "identity",
            "failed_claim": None,
        }
        tau = invoke(["tau", spec, "--tau", "2", "--eps", "1", "--n", "3"])
        assert tau.stdout.startswith("tau = 2\t")

    def test_classify_trivial_unlink(self, unlink_json):
        result = invoke(["classify", f"json:{unlink_json}"])
        assert result.output.strip() == "trivial"

    def test_genus_json(self):
        result = invoke([
            "genus", "twobridge:5,3", "--g4-eq-tau", "1", "--n", "0",
            "--format", "json",
        ])
        obj = json.loads(result.output)
        assert obj == {"g3rel": 1, "g4": 2, "regime": "zero-framing"}

    def test_genus_without_flag(self):
        result = invoke(["genus", "cable:3,2", "--format", "json"])
        obj = json.loads(result.output)
        assert obj["g3rel"] == 1 and obj["g4"] is None

    @pytest.mark.parametrize("spec, tau, winding, genus_error", [
        ("cable:3,5", 15, 3, "cable needs p >= 2 and 0 < r < p"),
        ("braid:4,9,2", 32, 4, "bridge braid profile needs p < r < 2p"),
    ])
    def test_family_formula_outside_the_principal_range(
        self, spec, tau, winding, genus_error
    ):
        # tau and classify answer for any valid parameters; the scalar
        # profile behind genus exists only on the principal range.
        kind = spec.split(":")[0]
        result = invoke(["tau", spec, "--tau", "1", "--eps", "-1", "--n", "2"])
        assert result.exit_code == 0
        assert result.stdout.startswith(f"tau = {tau}\t")
        result = invoke(["genus", spec])
        assert result.exit_code == 2
        assert json.loads(result.stderr)["message"] == genus_error
        result = invoke(["classify", spec, "--n", "1"])
        assert (result.exit_code, result.stdout) == (
            0, f"obstructed\twinding {winding} not in {{0, +-1}}\n"
        )
        result = invoke(["hfunc", spec])
        assert result.exit_code == 3
        assert json.loads(result.stderr)["message"] == (
            f"{kind} patterns carry only a scalar profile; "
            "no H-function table is available"
        )


class TestVerify:
    def test_tables_check_passes(self):
        result = invoke(["verify", "--check", "tables"])
        assert result.exit_code == 0
        assert "0 failures" in result.output

    def test_full_verify_passes(self):
        result = invoke(["verify"])
        assert result.exit_code == 0
        assert "total:" in result.output

    def test_deterministic_output(self):
        first = invoke(["verify", "--check", "classifier"])
        second = invoke(["verify", "--check", "classifier"])
        assert first.output == second.output

    def test_threaded_output_identical(self, monkeypatch):
        serial = invoke(["verify", "--check", "oracle"])
        monkeypatch.setenv("LSAT_THREADS", "4")
        threaded = invoke(["verify", "--check", "oracle"])
        assert serial.output == threaded.output

    def test_json_format(self):
        result = invoke(["verify", "--check", "genus", "--format", "json"])
        obj = json.loads(result.output)
        assert obj["total_failures"] == 0

    @pytest.mark.parametrize("fmt", ["tsv", "json"])
    def test_failing_check_reports_and_exits_4(self, monkeypatch, fmt):
        import lsat.cli

        monkeypatch.setitem(
            lsat.cli._CHECKS, "tables", lambda: (3, ["H(0,0) != model"])
        )
        result = invoke(["verify", "--check", "tables", "--format", fmt])
        assert result.exit_code == 4
        if fmt == "json":
            assert json.loads(result.stdout) == {
                "checks": {"tables": {"points": 3, "failures": 1}},
                "total_points": 3,
                "total_failures": 1,
                "failures": ["tables: H(0,0) != model"],
            }
        else:
            assert result.stdout == (
                "check tables: 3 points, 1 failures\n"
                "total: 3 points, 1 failures\n"
                "counterexample: tables: H(0,0) != model\n"
            )
        assert json.loads(result.stderr) == {
            "error": "VerificationError",
            "message": "verify: 1 failures in 3 points",
            "exit_code": 4,
        }


class TestJsonG3:
    """g3 of a ``json:`` link comes from delta2; a supplied one is a claim."""

    COMMANDS = [
        ["tau", "--tau", "-1", "--eps", "1", "--n", "3", "--method", "both"],
        ["classify"],
        ["genus", "--g4-eq-tau", "1"],
    ]

    @staticmethod
    def write(tmp_path, rq, **extra):
        path = tmp_path / f"tb-{rq[0]}-{rq[1]}-{len(extra)}.json"
        obj = dict(twobridge_data(*rq).to_json_obj(), **extra)
        path.write_text(json.dumps(obj), encoding="utf-8")
        return f"json:{path}"

    @pytest.mark.parametrize("rq", [(9, 5), (5, 3)], ids="%d,%d".__mod__)
    def test_json_without_g3_matches_twobridge(self, tmp_path, rq):
        spec = self.write(tmp_path, rq)
        for cmd in self.COMMANDS:
            want = invoke([cmd[0], "twobridge:%d,%d" % rq] + cmd[1:])
            got = invoke([cmd[0], spec] + cmd[1:])
            assert want.exit_code == 0, want.output
            assert (got.exit_code, got.stdout) == (0, want.stdout), cmd

    @pytest.mark.parametrize("rq", [(9, 5), (5, 3)], ids="%d,%d".__mod__)
    @pytest.mark.parametrize("g3", [1, 2])
    def test_json_g3_claim_must_agree(self, tmp_path, rq, g3):
        spec = self.write(tmp_path, rq, g3=g3)
        for cmd in self.COMMANDS:
            result = invoke([cmd[0], spec] + cmd[1:])
            assert (result.exit_code, result.stdout) == (2, ""), cmd
            payload = json.loads(result.stderr.splitlines()[-1])
            assert payload["exit_code"] == 2
            assert "g3" in payload["message"], payload


class TestErrors:
    def test_malformed_spec_exit_2(self):
        result = invoke(["hfunc", "nonsense"])
        assert result.exit_code == 2

    def test_missing_file_exit_2(self):
        result = invoke(["hfunc", "json:/does/not/exist.json"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("name", ["delta1", "delta2"])
    def test_component_not_a_knot_polynomial_exit_2(self, tmp_path, name):
        obj = unlink_data().to_json_obj()
        obj[name] = {"vars": 1, "terms": [{"e": [0], "c": 3}]}
        path = tmp_path / "link.json"
        path.write_text(json.dumps(obj))
        result = invoke(["tau", f"json:{path}", "--tau", "1", "--eps", "1"])
        assert result.exit_code == 2
        payload = json.loads(result.stderr.splitlines()[-1])
        assert payload["message"] == f"{name}(1) must be +-1"

    def test_error_payload_is_json(self):
        result = invoke(["hfunc", "cable:2,1"])
        payload = json.loads(result.output.strip().splitlines()[-1])
        assert payload["exit_code"] == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["tau", "twobridge:3,3", "--tau", "x", "--eps", "1"],
            ["tau", "twobridge:3,3", "--eps", "1"],
            ["frobnicate"],
            ["verify", "--format", "xml"],
            [],
            ["tau", "twobridge:3,3", "--tau", "1", "--eps", "1", "--meth", "both"],
        ],
        ids=["bad-int", "missing-option", "unknown-command", "bad-choice",
             "no-command", "abbreviated-option"],
    )
    def test_usage_error_is_a_json_error(self, argv):
        result = invoke(argv)
        assert result.exit_code == 2
        assert result.stdout == ""
        payload = json.loads(result.stderr.splitlines()[-1])
        assert sorted(payload) == ["error", "exit_code", "message"]
        assert payload["exit_code"] == 2

    @pytest.mark.parametrize("argv", [["--help"], ["tau", "--help"]])
    def test_help_exits_0(self, argv):
        result = invoke(argv)
        assert result.exit_code == 0
        assert result.stdout.startswith("usage: lsat")


TAU_OK = ["tau", "twobridge:3,3", "--tau", "1", "--eps", "1"]

# The usage-error contract: each argv holds one fault, and its message is
# the one the argparse-based parser gave (CPython 3.11).  Frozen data:
# never regenerated from the code under test.
USAGE_ERRORS = [
    ([], "lsat: the following arguments are required: COMMAND"),
    (["frobnicate"], "lsat: argument COMMAND: invalid choice: 'frobnicate' "
     "(choose from 'hfunc', 'tau', 'classify', 'genus', 'verify')"),
    (["-h"], "lsat: the following arguments are required: COMMAND"),
    (["tau"], "lsat tau: the following arguments are required: "
     "PATTERN, --tau, --eps"),
    (["tau", "-h"], "lsat tau: the following arguments are required: "
     "PATTERN, --tau, --eps"),
    (["tau", "twobridge:3,3", "--eps", "1"],
     "lsat tau: the following arguments are required: --tau"),
    (["tau", "twobridge:3,3", "--tau", "x", "--eps", "1"],
     "lsat tau: argument --tau: invalid int value: 'x'"),
    (["tau", "twobridge:3,3", "--tau", "1", "--eps", "2"],
     "lsat tau: argument --eps: invalid choice: '2' (choose from '-1', '0', '1')"),
    (["verify", "--format", "xml"], "lsat verify: argument --format: "
     "invalid choice: 'xml' (choose from 'tsv', 'json')"),
    (["verify", "--check", "nope"], "lsat verify: argument --check: "
     "invalid choice: 'nope' (choose from 'all', 'classifier', 'genus', "
     "'inequality', 'oracle', 'properties', 'tables')"),
    (TAU_OK + ["--meth", "both"], "lsat: unrecognized arguments: --meth both"),
    (TAU_OK + ["--n"], "lsat tau: argument --n: expected one argument"),
    (["tau", "twobridge:3,3", "--tau", "--eps", "1"],
     "lsat tau: argument --tau: expected one argument"),
    (["verify", "extra"], "lsat: unrecognized arguments: extra"),
    (["--", "x"], "lsat: argument COMMAND: invalid choice: '--' "
     "(choose from 'hfunc', 'tau', 'classify', 'genus', 'verify')"),
    (["genus", "twobridge:3,3", "--g4-eq-tau"],
     "lsat genus: argument --g4-eq-tau: expected one argument"),
    (["genus", "twobridge:3,3", "--g4-eq-tau", "x"],
     "lsat genus: argument --g4-eq-tau: invalid int value: 'x'"),
    (["tau", "--", "x"], "lsat tau: the following arguments are required: "
     "--tau, --eps"),
    (["hfunc"], "lsat hfunc: the following arguments are required: PATTERN"),
    (["hfunc", "-x"], "lsat hfunc: the following arguments are required: PATTERN"),
    (["hfunc", "a", "b"], "lsat: unrecognized arguments: b"),
    (["hfunc", "twobridge:3,3", "-5"], "lsat: unrecognized arguments: -5"),
    (["hfunc", "twobridge:3,3", "--window", "٣"],
     "lsat hfunc: argument --window: invalid int value: '٣'"),
    (["verify", "--check"], "lsat verify: argument --check: expected one argument"),
    (["verify", "--help=x"],
     "lsat verify: argument --help: ignored explicit argument 'x'"),
    (TAU_OK + ["--tau"], "lsat tau: argument --tau: expected one argument"),
    (["tau", "twobridge:3,3", "--tau", "-x", "--eps", "1"],
     "lsat tau: argument --tau: expected one argument"),
    (["tau", "twobridge:3,3", "--tau=", "--eps", "1"],
     "lsat tau: argument --tau: invalid int value: ''"),
    (["tau", "--format=json=x", "twobridge:3,3"], "lsat tau: argument --format: "
     "invalid choice: 'json=x' (choose from 'tsv', 'json')"),
]


class TestUsageContract:
    """Usage errors, accepted argv forms and ``--help``, pinned as data."""

    @pytest.mark.parametrize(
        "argv, message", USAGE_ERRORS, ids=[" ".join(a) for a, _ in USAGE_ERRORS]
    )
    def test_usage_error_message(self, argv, message):
        result = invoke(argv)
        assert (result.exit_code, result.stdout) == (2, "")
        payload = {"error": "InvalidInputError", "exit_code": 2, "message": message}
        assert result.stderr == json.dumps(payload, sort_keys=True) + "\n"

    @pytest.mark.parametrize("argv, same_as", [
        (TAU_OK + ["--n=-2"], TAU_OK + ["--n", "-2"]),
        (["tau", "--tau", "1", "--eps", "1", "twobridge:3,3"], TAU_OK),
        (TAU_OK + ["--n", "-3"], TAU_OK + ["--n=-3"]),
        (["tau", "twobridge:3,3", "--tau", "5", "--tau", "1", "--eps", "1"], TAU_OK),
        (["tau", "--method=both", "twobridge:5,3", "--n", "2", "--tau=0",
          "--eps=-1", "--format=json"],
         ["tau", "twobridge:5,3", "--tau", "0", "--eps", "-1", "--n", "2",
          "--method", "both", "--format", "json"]),
    ], ids=["opt=value", "positional-last", "negative-value", "last-repeat-wins",
            "mixed"])
    def test_accepted_forms(self, argv, same_as):
        got, want = invoke(argv), invoke(same_as)
        assert want.exit_code == 0, want.stderr
        assert (got.exit_code, got.stdout, got.stderr) == (0, want.stdout, "")

    @pytest.mark.parametrize("command, names", [
        ("hfunc", ["PATTERN", "--window", "--format {tsv,json}", "--help"]),
        ("tau", ["PATTERN", "--tau", "--eps {-1,0,1}", "--n",
                 "--method {closed,oracle,both}", "--format {tsv,json}", "--help"]),
        ("classify", ["PATTERN", "--n", "--format {tsv,json}", "--help"]),
        ("genus", ["PATTERN", "--g4-eq-tau", "--n", "--format {tsv,json}", "--help"]),
        ("verify", ["--check {all,classifier,genus,inequality,oracle,properties,"
                    "tables}", "--format {tsv,json}", "--help"]),
    ])
    def test_command_help_names_every_option(self, command, names):
        result = invoke([command, "--help"])
        assert (result.exit_code, result.stderr) == (0, "")
        assert result.stdout.startswith(f"usage: lsat {command}")
        for name in names:
            assert name in result.stdout, name


# Every library module but lsat.errors, which lsat.cli imports itself.
LIBRARY = ["genus", "halfgrid_poly", "hfunction", "invariants", "patterns",
           "sweeps", "zcomplex"]


class TestEntryPoint:
    def test_import_does_not_load_click(self):
        check = "import lsat.cli, sys; assert 'click' not in sys.modules"
        proc = run_python("-c", check)
        assert proc.returncode == 0, proc.stderr

    def test_import_loads_no_dataclasses_or_inspect(self):
        check = (
            "import lsat.cli, sys; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)))"
        )
        proc = run_python("-c", check)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_cold_start_loads_no_heavy_module(self):
        # Every op starts an interpreter, so what importing lsat.cli loads
        # is paid on each; -S keeps the site module's imports out.
        heavy = ["argparse", "click", "concurrent", "dataclasses", "decimal",
                 "fractions", "gettext", "inspect", "locale", "multiprocessing",
                 "subprocess"]
        check = (
            "import lsat.cli, sys; "
            "print(sorted({m.partition('.')[0] for m in sys.modules} & "
            f"set({heavy!r})))"
        )
        proc = run_python("-S", "-c", check)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_import_runs_no_library_module_and_loads_no_json(self):
        # lsat.cli binds the library modules as the package's lazy
        # placeholders and imports json only where it writes or reads JSON.
        check = (
            "import sys, types, lsat.cli; "
            "print('json' in sys.modules, sorted(m for m in (*lsat._MODULES, 'sweeps') "
            "if type(sys.modules['lsat.' + m]) is types.ModuleType))"
        )
        proc = run_python("-S", "-c", check)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False ['errors']\n"

    @pytest.mark.parametrize("argv, code, unexecuted", [
        (["hfunc", "twobridge:5,3"], 0, ["genus", "invariants", "sweeps", "zcomplex"]),
        (["classify", "twobridge:5,3"], 0, ["genus", "sweeps", "zcomplex"]),
        (["tau", "twobridge:5,3", "--tau", "1", "--eps", "1", "--method", "closed"],
         0, ["genus", "sweeps", "zcomplex"]),
        (["verify", "--check", "tables"], 0, []),
        (["--help"], 0, LIBRARY),
        (["frobnicate"], 2, LIBRARY),
        (["tau", "twobridge:x,1", "--tau", "0", "--eps", "0"], 2, LIBRARY),
        (["hfunc", "twobridge:3,3", "--window", "0"], 2, LIBRARY),
        (["classify", "json:no-such-dir/link.json"], 2, LIBRARY),
    ], ids=["hfunc", "classify", "tau-closed", "verify", "help", "unknown-command",
            "bad-spec", "bad-window", "unreadable-json"])
    def test_a_command_executes_only_the_modules_it_runs(self, argv, code, unexecuted):
        # A library module that no code has touched yet is still the lazy
        # placeholder the package registered, not a plain module.
        check = (
            "import sys, types, lsat.cli\n"
            f"try:\n    lsat.cli.main({argv!r}); code = 0\n"
            "except SystemExit as exc:\n    code = exc.code\n"
            f"print(code, sorted(m for m in {LIBRARY!r} "
            "if type(sys.modules['lsat.' + m]) is not types.ModuleType))"
        )
        proc = run_python("-S", "-c", check)
        assert proc.stdout.splitlines()[-1] == f"{code} {unexecuted!r}", proc.stderr

    def test_closed_form_route_does_not_import_the_oracle(self):
        # The two tau routes stay independent: lsat.invariants must not
        # load lsat.zcomplex.  The package __init__ re-exports both, so the
        # child registers a bare lsat package to see invariants' own imports.
        check = (
            "import sys, types; pkg = types.ModuleType('lsat'); "
            f"pkg.__path__ = [{str(Path(lsat.__file__).parent)!r}]; "
            "sys.modules['lsat'] = pkg; import lsat.invariants; "
            "print('lsat.zcomplex' in sys.modules)"
        )
        proc = run_python("-S", "-c", check)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    @pytest.mark.parametrize("argv, code", [
        (["tau", "twobridge:3,3", "--tau", "1", "--eps", "1"], 0),
        (["--help"], 0),
        (["tau", "twobridge:3,3", "--tau", "1", "--eps", "2"], 2),
        (["hfunc", "cable:3,2"], 3),
    ], ids=["tau", "help", "exit2", "exit3"])
    def test_console_script_call_matches_the_module_entry_point(self, argv, code):
        # The installed ``lsat`` script imports lsat.cli as a module, sets
        # sys.argv and calls main(); ``python -m`` runs it as __main__.
        script = run_python(
            "-c", "import sys; from lsat.cli import main; "
            f"sys.argv = ['lsat', *{argv!r}]; sys.exit(main())"
        )
        module = run_python("-m", "lsat.cli", *argv)
        assert module.returncode == code, module.stderr
        if code:
            assert module.stdout == ""
            assert json.loads(module.stderr)["exit_code"] == code
        else:
            assert module.stderr == ""
        assert (script.returncode, script.stdout, script.stderr) == (
            code, module.stdout, module.stderr
        )

    def test_in_process_calls_leave_the_collector_unfrozen(self):
        before = gc.get_freeze_count()
        for argv, code in [
            (["tau", "twobridge:3,3", "--tau", "1", "--eps", "1"], 0),
            (["verify", "--check", "tables"], 0),
            (["tau", "cable:4,2", "--tau", "1", "--eps", "1"], 2),
        ]:
            assert invoke(argv).exit_code == code
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("argv", [
        ["tau", "twobridge:3,3", "--tau", "1", "--eps", "1"], ["--help"],
        ["tau", "cable:4,2", "--tau", "1", "--eps", "1"], ["hfunc", "cable:3,2"],
    ], ids=["exit0", "help", "exit2", "exit3"])
    def test_the_process_entry_freezes_the_collector_on_every_exit(self, argv):
        # main() without argv ends the process, so it freezes every object
        # and the interpreter's exit-time collections skip them.
        check = (
            "import gc, sys\nfrom lsat.cli import main\n"
            f"sys.argv = ['lsat', *{argv!r}]\nbefore = gc.get_freeze_count()\n"
            "try:\n    main()\nexcept SystemExit:\n    pass\n"
            "print(before, gc.get_freeze_count() > 0, file=sys.stderr)"
        )
        proc = run_python("-c", check)
        assert proc.stderr.splitlines()[-1] == "0 True", proc.stderr

    def test_module_entry_point(self):
        ok = run_python(
            "-m", "lsat.cli", "tau", "twobridge:3,3", "--tau", "1", "--eps", "1"
        )
        assert ok.returncode == 0, ok.stderr
        assert ok.stdout.startswith("tau = 1\t")
        bad = run_python("-m", "lsat.cli", "frobnicate")
        assert bad.returncode == 2
        assert bad.stdout == ""
        assert json.loads(bad.stderr)["exit_code"] == 2


# The package's public names when they were first re-exported lazily.
PUBLIC_NAMES = [
    "Companion", "HFunction", "LaurentPoly1", "LaurentPoly2", "LinkAlexData",
    "PatternProfile", "TauResult", "ZComplex", "bridge_braid_profile",
    "build_summand", "cable_profile", "classify_operator", "eps_not_minus_one",
    "errors", "g3rel", "g3rel_framed", "g4_satellite_regime", "generic_profile",
    "genus", "half", "halfgrid_poly", "hf_table_tsv", "hfunction", "invariants",
    "knot_chi_expansion", "patterns", "resolve_sign", "shift", "symmetrize",
    "tau_bridge_braid", "tau_cable", "tau_closed_form", "tau_inequality_check",
    "tau_oracle", "tower_alexander", "twobridge_alexander", "twobridge_data",
    "twobridge_eta", "twobridge_profile", "twobridge_walk", "unlink_data",
    "unlink_profile", "validate", "width", "zcomplex",
]


class TestLibraryApi:
    def test_public_names(self):
        assert sorted(lsat.__all__) == PUBLIC_NAMES

    @pytest.mark.parametrize("name", PUBLIC_NAMES)
    def test_each_name_is_its_module_object(self, name):
        import importlib

        got = getattr(lsat, name)
        if name in lsat._MODULES:
            assert got is importlib.import_module(f"lsat.{name}")
        else:
            home = importlib.import_module(f"lsat.{lsat._HOME[name]}")
            assert got is getattr(home, name)
            assert getattr(got, "__module__", home.__name__) == home.__name__

    def test_star_import_binds_every_name(self):
        scope = {}
        exec("from lsat import *", scope)
        assert sorted(set(scope) - {"__builtins__"}) == PUBLIC_NAMES

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            lsat.no_such_name  # noqa: B018

    def test_check_choices_are_the_sweeps_table(self):
        from lsat import cli, sweeps

        assert cli.OPTIONS["--check"]["choices"]() == ["all"] + sorted(sweeps.CHECKS)
        assert cli._CHECKS is sweeps.CHECKS
