"""Golden CLI outputs: every verb in every format, byte for byte.

``golden_cli.json`` holds the exit code and stdout of each command below.
Stdout is deterministic by design, so any difference is a change in
behaviour.  After an intended change, regenerate the file with
``PYTHONPATH=src python tests/test_golden.py`` and review its diff.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from wordorbits.cli import main

HERE = Path(__file__).parent
GOLDEN = HERE / "golden_cli.json"
FORMATS = ("text", "csv", "structured")

# Paths in these commands are relative to this directory; the command line
# is echoed into stdout, so an absolute path would not be reproducible.
COMMANDS = [
    ("factors", "--word", "fib", "--n", "6"),
    ("factors", "--word", "subst:0=01,1=0;seed=0", "--n", "5"),
    ("orbits", "--word", "fib", "--n", "4", "--group", "(1,3,2,4)"),
    ("orbits", "--word", "tm", "--n", "5", "--group", "cyc"),
    ("epsilon", "--group", "(1,2);(3,4)", "--n", "5"),
    ("complexity-table", "--word", "periodic:001", "--groups", "id", "--n", "1..4"),
    ("verify-theorem1", "--word", "fib", "--groups", "sym", "--n", "1..6"),
    ("verify-theorem1", "--word", "sturmian:2,1", "--groups", "abc:1,1,2", "--n", "4"),
    ("verify-theorem1", "--word", "fib", "--groups", "file:golden_groups.txt",
     "--n", "4..5"),
    ("verify-theorem1", "--word", "periodic:01", "--groups", "id", "--n", "1..3"),
    ("witness", "--word", "fib", "--n", "6", "--abelian", "Z2xZ2"),
    ("conjugate-witness", "--word", "fib", "--n", "7", "--sigma", "(1,2,3,4,5)"),
    ("christoffel", "010010"),
    ("christoffel", "10"),
    ("scan-conjugates", "--word", "fib", "--n", "6", "--group", "(1,2,3)(4,5,6)"),
    ("scan-conjugates", "--word", "fib", "--n", "12", "--group", "id"),
    ("fine-wilf", "--word", "fib", "--m", "8"),
]

CASES = [(*cmd, "--format", fmt) for cmd in COMMANDS for fmt in FORMATS]


def capture(argv) -> dict:
    """Exit code and stdout of one command, run in this directory."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(HERE)
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
    return {"code": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_matches_golden(golden, argv):
    assert capture(argv) == golden[" ".join(argv)]


def test_golden_file_covers_exactly_the_cases(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in CASES)


if __name__ == "__main__":
    table = {" ".join(argv): capture(argv) for argv in CASES}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} cases to {GOLDEN}", file=sys.stderr)
