"""Golden snapshots: stdout of `zass dims` and the `zass series`
coefficients for every catalog expression in every format, of
`zass series --closed-form` in json and table, of `zass verify` for the roundtrip and closed-form suites in every format and
for the finite suite, of `zass basis`, and of every script under demos/,
compared byte for byte.

The snapshots under tests/golden/ were recorded before the expression tree
became n-ary, the basis ones before the Hall sets dropped their commutator
objects, and the dims table and csv and the series coefficients before the
command line built every output in one module, and the demos before integer
polynomials became plain tuples; a refactor of the pipeline must reproduce
them exactly.
The two large bases of the benchmark (0.3 to 2.4 MB of text each) are
pinned by the sha256 of their stdout, the small ones in full.
Re-record (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""
import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from zassenhaus import cli
from zassenhaus.verify import builtin_specs

GOLDEN = pathlib.Path(__file__).parent / "golden"
ROOT = pathlib.Path(__file__).parents[1]
DEMOS = sorted(path.name for path in (ROOT / "demos").glob("*.py"))
PRIMES = (2, 3, 5)
BASIS_HASHED = [
    ["basis", d, "--prime", p, "--degree", n, "--format", fmt]
    for d, p, n in (("2", "3", "18"), ("3", "2", "10"))
    for fmt in ("table", "csv", "json")
]
BASIS_FULL = [
    ["basis", "2", "--prime", "2", "--degree", "4"],
    ["basis", "3", "--prime", "3", "--degree", "3", "--format", "json"],
    ["basis", "1", "--prime", "3", "--degree", "9", "--format", "csv"],
]


def commands(p: int) -> list[list[str]]:
    out = []
    for text, _ in builtin_specs(p):
        out.append(["dims", text, "--prime", str(p), "--max-n", "24", "--format", "json"])
        out.append(["series", text, "--prime", str(p), "--closed-form", "--format", "json"])
    for suite in ("roundtrip", "closedforms"):
        out.append(["verify", "--suite", suite, "--prime", str(p), "--max-n", "16", "--format", "json"])
    # the table and csv renderings, pinned after the json ones
    for text, _ in builtin_specs(p):
        out.append(["series", text, "--prime", str(p), "--closed-form"])
    for suite in ("roundtrip", "closedforms"):
        for fmt in ("table", "csv"):
            out.append(["verify", "--suite", suite, "--prime", str(p), "--max-n", "16", "--format", fmt])
    if p == 2:
        # the finite suite's output does not depend on --prime
        out.append(["verify", "--suite", "finite"])
    # the dims table and csv, and the series coefficients in every format
    for text, _ in builtin_specs(p):
        for fmt in ("table", "csv"):
            out.append(["dims", text, "--prime", str(p), "--max-n", "12", "--format", fmt])
        for fmt in ("table", "csv", "json"):
            out.append(["series", text, "--prime", str(p), "--max-n", "12", "--format", fmt])
    return out


def stdout_of(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"zass {' '.join(argv)} exited {code}")
    return buf.getvalue()


def sha256_of(argv: list[str]) -> str:
    return hashlib.sha256(stdout_of(argv).encode()).hexdigest()


def demo_stdout(name: str) -> str:
    """stdout of demos/<name>, run as a script with src on the path."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, text=True, env=env, check=True,
    )
    return proc.stdout


@pytest.mark.parametrize("p", PRIMES)
def test_outputs_match_snapshots(p):
    recorded = json.loads((GOLDEN / f"p{p}.json").read_text(encoding="utf-8"))
    argvs = commands(p)
    assert list(recorded) == [" ".join(argv) for argv in argvs]
    for argv in argvs:
        assert stdout_of(argv).encode() == recorded[" ".join(argv)].encode(), argv


def test_basis_outputs_match_snapshots():
    recorded = json.loads((GOLDEN / "basis.json").read_text(encoding="utf-8"))
    assert list(recorded["sha256"]) == [" ".join(argv) for argv in BASIS_HASHED]
    assert list(recorded["stdout"]) == [" ".join(argv) for argv in BASIS_FULL]
    for argv in BASIS_HASHED:
        assert sha256_of(argv) == recorded["sha256"][" ".join(argv)], argv
    for argv in BASIS_FULL:
        assert stdout_of(argv) == recorded["stdout"][" ".join(argv)], argv


def test_demo_list_matches_snapshots():
    recorded = json.loads((GOLDEN / "demos.json").read_text(encoding="utf-8"))
    assert list(recorded) == DEMOS


@pytest.mark.parametrize("name", DEMOS)
def test_demo_outputs_match_snapshots(name):
    recorded = json.loads((GOLDEN / "demos.json").read_text(encoding="utf-8"))
    assert demo_stdout(name) == recorded[name]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for p in PRIMES:
        snap = {" ".join(argv): stdout_of(argv) for argv in commands(p)}
        (GOLDEN / f"p{p}.json").write_text(json.dumps(snap, indent=1) + "\n", encoding="utf-8")
    snap = {
        "sha256": {" ".join(argv): sha256_of(argv) for argv in BASIS_HASHED},
        "stdout": {" ".join(argv): stdout_of(argv) for argv in BASIS_FULL},
    }
    (GOLDEN / "basis.json").write_text(json.dumps(snap, indent=1) + "\n", encoding="utf-8")
    snap = {name: demo_stdout(name) for name in DEMOS}
    (GOLDEN / "demos.json").write_text(json.dumps(snap, indent=1) + "\n", encoding="utf-8")
