"""Byte-for-byte CLI regression corpus.

``golden_cli.json`` holds the JSON link-data inputs and, for each CLI
invocation, the exact stdout, stderr and exit code it produced when the
corpus was frozen.  It covers ``hfunc``, ``tau`` (every method, eps and
n in {-3, 0, 2, 5}), ``classify`` and ``genus`` on two-bridge, JSON,
cable and braid patterns in both formats, plus the exit-2/3 paths and
``verify --check all``.  The file is data, not a generator: it is never
rewritten by the tests.
"""

import json
from pathlib import Path

from conftest import invoke

GOLDEN = Path(__file__).with_name("golden_cli.json")


def test_cli_output_matches_golden_corpus(tmp_path):
    corpus = json.loads(GOLDEN.read_text(encoding="utf-8"))
    paths = {}
    for name, obj in corpus["inputs"].items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(obj), encoding="utf-8")
    mismatches = []
    for case in corpus["cases"]:
        argv = case["argv"]
        for name, path in paths.items():
            argv = [a.replace("{%s}" % name, str(path)) for a in argv]
        result = invoke(argv)
        got = {
            "stdout": result.stdout,
            "stderr": result.stderr,
            "exit_code": result.exit_code,
        }
        want = {k: case[k] for k in got}
        if got != want:
            mismatches.append((case["argv"], want, got))
    assert not mismatches, (
        f"{len(mismatches)} of {len(corpus['cases'])} invocations differ; "
        f"first: {mismatches[0]}"
    )
