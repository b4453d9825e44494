"""Golden snapshots: stdout of `zass dims` and the `zass series`
coefficients for every catalog expression in every format, of
`zass series --closed-form` in json and table, of `zass verify` for the roundtrip and closed-form suites in every format and
for the finite suite, of `zass basis`, and of every script under demos/,
compared byte for byte; and the outcome of `parse_group_spec` on a fixed
corpus of expressions.

The snapshots under tests/golden/ were recorded before the expression tree
became n-ary, the basis ones before the Hall sets dropped their commutator
objects, and the dims table and csv and the series coefficients before the
command line built every output in one module, and the demos before integer
polynomials became plain tuples; a refactor of the pipeline must reproduce
them exactly. The parse corpus was recorded before the parser became one
loop over the token list.
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
import random
import subprocess
import sys

import pytest

from zassenhaus import cli
from zassenhaus.groupspec import parse_group_spec, to_text
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


def _alternation(levels: int) -> str:
    text = "free(1)"
    for i in range(levels):
        text = f"free(1) {'*x'[i % 2]} ({text})"
    return text


def _random_expression(rng: random.Random, depth: int = 0) -> str:
    if depth > 3 or rng.random() < 0.4:
        name = rng.choice(["free", "cyclic", "demushkin", "zp", "superpyth"])
        return f"{name}({rng.randrange(0, 12)})"
    factors = [_random_expression(rng, depth + 1) for _ in range(rng.randrange(1, 4))]
    text = rng.choice([" * ", " x ", "*", "x"]).join(factors)
    return f"({text})" if rng.random() < 0.5 else text


# pieces of expressions, a few of them wrong, for the corpus's token soup
_PIECES = [
    "free", "cyclic", "zp", "demushkin", "superpyth", "braid", "free(2)", "cyclic(2)",
    "x", "xx", "*", "(", ")", ",", " ", " ", "1", "2", "07", "_", "+", "\t", "\u00a0",
]


def parse_corpus() -> list[str]:
    """The expressions whose parse outcome is pinned, each once, in a fixed order."""
    texts = [
        "", "   ", "free(1) + free(2)", "free(\u00b2)", "free(\u0663)", "cyclic(\uff12)",
        "free(1)\u00a0x free(2)", "free(1)\u200bx free(2)", "free(1) *", "* free(1)",
        "()", "free(1) * ()", "braid(3)", "x(2)", "free 1", "free", "free()", "free(x)",
        "free(2, 3)", "free(2 3)", "free(2", "(free(2)", "(free(2) free(3))", "free(2) free(3)",
        "free(1))", "free(1) x", "free(1)xcyclic(2)", "free(1)xx(2)", "free(1) xcyclic(2)",
        "(free(1)*zp(1))xdemushkin(2)xfree(2)", "FREE(1)", "free_(1)", "free1(1)",
        "cyclic(2) * (free(1) x zp(2))", "superpyth(0) x superpyth(3)",
        "(" * 1000 + "free(1)" + ")" * 1000,
        "(" * 1000 + "free(1) * (zp(1) x cyclic(2))" + ")" * 1000,
        "(" * 1000 + "free(1)" + ")" * 999,
        _alternation(2000),
        " * ".join(["cyclic(2)"] * 1200),
    ]
    rng = random.Random(20260127)
    for _ in range(250):
        text = _random_expression(rng)
        if rng.random() < 0.5:
            # one character deleted, doubled or replaced by a piece
            i = rng.randrange(len(text))
            text = rng.choice([
                text[:i] + text[i + 1:],
                text[:i] + text[i] + text[i:],
                text[:i] + rng.choice(_PIECES) + text[i + 1:],
            ])
        texts.append(text)
    for _ in range(250):
        texts.append("".join(rng.choice(_PIECES) for _ in range(rng.randrange(1, 12))))
    return list(dict.fromkeys(texts))


def _short(text: str) -> str:
    """The text itself, or its sha256 past 200 characters."""
    if len(text) <= 200:
        return text
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def parse_outcome(text: str) -> list:
    """[type, message, position] for an error, ["ok", to_text, repr] otherwise."""
    try:
        spec = parse_group_spec(text)
    except Exception as exc:
        return [type(exc).__name__, str(exc), getattr(exc, "position", None)]
    return ["ok", _short(to_text(spec)), _short(repr(spec))]


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


def test_parse_outcomes_match_snapshots():
    recorded = json.loads((GOLDEN / "parse.json").read_text(encoding="utf-8"))
    texts = parse_corpus()
    assert list(recorded) == [_short(text) for text in texts]
    for text in texts:
        assert parse_outcome(text) == recorded[_short(text)], text


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
    snap = {_short(text): parse_outcome(text) for text in parse_corpus()}
    (GOLDEN / "parse.json").write_text(json.dumps(snap, indent=1) + "\n", encoding="utf-8")
