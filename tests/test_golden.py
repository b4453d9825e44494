"""Golden snapshots: stdout of `zass dims` and `zass series --closed-form`
for every catalog expression, and of `zass verify --format json` for the
roundtrip and closed-form suites, compared byte for byte.

The snapshots under tests/golden/ were recorded before the expression tree
became n-ary; a refactor of the pipeline must reproduce them exactly.
Re-record (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""
import contextlib
import io
import json
import pathlib

import pytest

from zassenhaus import cli
from zassenhaus.verify import builtin_specs

GOLDEN = pathlib.Path(__file__).parent / "golden"
PRIMES = (2, 3, 5)


def commands(p: int) -> list[list[str]]:
    out = []
    for text, _ in builtin_specs(p):
        out.append(["dims", text, "--prime", str(p), "--max-n", "24", "--format", "json"])
        out.append(["series", text, "--prime", str(p), "--closed-form", "--format", "json"])
    for suite in ("roundtrip", "closedforms"):
        out.append(["verify", "--suite", suite, "--prime", str(p), "--max-n", "16", "--format", "json"])
    return out


def stdout_of(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"zass {' '.join(argv)} exited {code}")
    return buf.getvalue()


@pytest.mark.parametrize("p", PRIMES)
def test_outputs_match_snapshots(p):
    recorded = json.loads((GOLDEN / f"p{p}.json").read_text(encoding="utf-8"))
    argvs = commands(p)
    assert list(recorded) == [" ".join(argv) for argv in argvs]
    for argv in argvs:
        assert stdout_of(argv).encode() == recorded[" ".join(argv)].encode(), argv


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for p in PRIMES:
        snap = {" ".join(argv): stdout_of(argv) for argv in commands(p)}
        (GOLDEN / f"p{p}.json").write_text(json.dumps(snap, indent=1) + "\n", encoding="utf-8")
