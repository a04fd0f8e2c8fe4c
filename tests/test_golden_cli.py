"""Byte-for-byte CLI regression corpus.

``golden_cli.json`` holds the JSON link-data inputs and, for each CLI
invocation, the exact stdout, stderr and exit code it produced when the
corpus was frozen.  It covers ``hfunc``, ``tau`` (every method, eps and
n in {-3, 0, 2, 5}), ``classify`` and ``genus`` on two-bridge, JSON,
cable and braid patterns in both formats, plus the exit-2/3 paths and
``verify --check all``.  The file is data, not a generator: it is never
rewritten by the tests.  Every case runs in process through ``invoke``;
one case of each (command, format, exit code) also runs as its own
``python -m lsat.cli`` process, the path that ends in ``main()`` without
argv.
"""

import json
from pathlib import Path

import pytest

from conftest import invoke, run_python

GOLDEN = Path(__file__).with_name("golden_cli.json")


@pytest.fixture()
def corpus(tmp_path):
    """The corpus's cases, each with its argv's input placeholders filled."""
    corpus = json.loads(GOLDEN.read_text(encoding="utf-8"))
    paths = {}
    for name, obj in corpus["inputs"].items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(obj), encoding="utf-8")
    cases = []
    for case in corpus["cases"]:
        argv = case["argv"]
        for name, path in paths.items():
            argv = [a.replace("{%s}" % name, str(path)) for a in argv]
        cases.append((argv, case))
    return cases


def _mismatches(cases, run):
    """(argv, want, got) of each case whose stdout, stderr or code differ."""
    mismatches = []
    for argv, case in cases:
        got = dict(zip(("stdout", "stderr", "exit_code"), run(argv)))
        want = {k: case[k] for k in got}
        if got != want:
            mismatches.append((case["argv"], want, got))
    return mismatches


def test_cli_output_matches_golden_corpus(corpus):
    def run(argv):
        result = invoke(argv)
        return result.stdout, result.stderr, result.exit_code

    mismatches = _mismatches(corpus, run)
    assert not mismatches, (
        f"{len(mismatches)} of {len(corpus)} invocations differ; "
        f"first: {mismatches[0]}"
    )


def test_process_entry_matches_golden_corpus(corpus):
    def run(argv):
        proc = run_python("-m", "lsat.cli", *argv)
        return proc.stdout, proc.stderr, proc.returncode

    def kind(argv, case):
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else "tsv"
        return argv[0], fmt, case["exit_code"]

    firsts = {}
    for argv, case in corpus:
        firsts.setdefault(kind(argv, case), (argv, case))
    assert len(firsts) == 24
    mismatches = _mismatches(firsts.values(), run)
    assert not mismatches, (
        f"{len(mismatches)} of {len(firsts)} processes differ; "
        f"first: {mismatches[0]}"
    )
