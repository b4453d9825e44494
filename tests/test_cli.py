"""Command-line interface: formats, schemas, exit codes."""
import ast
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zassenhaus
import zassenhaus.dimensions
import zassenhaus.verify
from zassenhaus import cli, numtheory
from zassenhaus.dimensions import NonIntegralW
from zassenhaus.groupspec import parse_group_spec
from zassenhaus.series import NonIntegralLog
from zassenhaus.verify import CheckResult


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDims:
    def test_table(self, capsys):
        code, out, err = run(["dims", "free(2)", "--prime", "2", "--max-n", "5"], capsys)
        assert code == 0 and err == ""
        lines = out.strip().splitlines()
        assert lines[0].split() == ["n", "a_n", "b_n", "w_n", "c_n", "sum_c"]
        assert len(lines) == 6
        c_col = [line.split()[4] for line in lines[1:]]
        assert c_col == ["2", "3", "2", "6", "6"]

    def test_csv(self, capsys):
        code, out, _ = run(
            ["dims", "demushkin(2)", "--prime", "2", "--max-n", "2", "--format", "csv"],
            capsys,
        )
        assert code == 0
        assert out.splitlines() == ["n,a_n,b_n,w_n,c_n,sum_c", "1,2,2,2,2,2", "2,3,1,0,2,4"]

    def test_json_schema(self, capsys):
        code, out, _ = run(
            ["dims", "zp(1)", "--prime", "2", "--max-n", "8", "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"spec", "p", "N", "a", "b", "w", "c", "galois_exponents"}
        assert payload["spec"] == "zp(1)"
        assert payload["p"] == 2 and payload["N"] == 8
        assert payload["c"] == [0, 1, 1, 0, 1, 0, 0, 0, 1]
        assert payload["a"] == [1] * 9
        # b entries survive a round trip as exact fractions
        assert [Fraction(x) for x in payload["b"]][1] == 1
        assert payload["galois_exponents"] == [0, 1, 2, 2, 3, 3, 3, 3, 4]

    def test_default_arguments(self, capsys):
        code, out, _ = run(["dims", "free(1)"], capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 17  # header + default N=16

    def test_long_free_product_chain(self, capsys):
        chain = " * ".join(["cyclic(2)"] * 1200)
        code, out, err = run(["dims", chain, "--max-n", "8", "--format", "json"], capsys)
        assert code == 0 and err == ""
        assert json.loads(out)["c"][1] == 1200

    def test_deep_parentheses(self, capsys):
        argv = ["dims", "(" * 400 + "free(1)" + ")" * 400, "--max-n", "8", "--format", "json"]
        code, out, err = run(argv, capsys)
        assert code == 0 and err == ""
        _, plain, _ = run(["dims", "free(1)", "--max-n", "8", "--format", "json"], capsys)
        assert out == plain


class TestSeries:
    def test_coefficient_list(self, capsys):
        code, out, _ = run(["series", "free(0)", "--prime", "3", "--max-n", "6"], capsys)
        assert code == 0
        assert out.strip() == "[1, 0, 0, 0, 0, 0, 0]"

    def test_closed_form_rational(self, capsys):
        code, out, _ = run(
            ["series", "cyclic(2)*free(2)", "--prime", "2", "--closed-form"], capsys
        )
        assert code == 0
        assert out.strip() == "(1 + t) / (1 - 2t - 2t^2)"

    def test_closed_form_json(self, capsys):
        code, out, _ = run(
            ["series", "cyclic(2)*free(2)", "--closed-form", "--format", "json"], capsys
        )
        payload = json.loads(out)
        assert payload["closed_form"] == {
            "kind": "rational",
            "num": "1 + t",
            "den": "1 - 2t - 2t^2",
        }

    def test_closed_form_product(self, capsys):
        code, out, _ = run(
            ["series", "superpyth(2)", "--closed-form", "--format", "json"], capsys
        )
        payload = json.loads(out)
        assert payload["closed_form"]["kind"] == "product"
        assert "1 - t^(2i+1)" in payload["closed_form"]["text"]

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    @pytest.mark.parametrize("spec, message", [
        ("free(2)", "order must be >= 0"),
        ("superpyth(2) * free(1)", "order must be >= 0"),
        # the expression is validated first, as for the coefficients
        ("cyclic(3)", "cyclic(3) does not match the working prime 2"),
    ])
    def test_closed_form_refuses_a_negative_max_n(self, capsys, spec, message, fmt):
        argv = ["series", spec, "--closed-form", "--max-n", "-5", "--format", fmt]
        code, out, err = run(argv, capsys)
        assert (code, out) == (3, "")
        assert err == f"validation error: {message}\n"

    def test_superpyth_coefficients(self, capsys):
        code, out, _ = run(["series", "superpyth(2)", "--max-n", "6"], capsys)
        assert out.strip() == "[1, 3, 5, 8, 12, 17, 24]"

    def test_csv(self, capsys):
        code, out, _ = run(
            ["series", "free(2)", "--max-n", "3", "--format", "csv"], capsys
        )
        assert out.splitlines() == ["n,a_n", "0,1", "1,2", "2,4", "3,8"]


class TestBasis:
    def test_text_with_count(self, capsys):
        code, out, _ = run(["basis", "2", "--prime", "2", "--degree", "2"], capsys)
        assert code == 0
        assert out.strip().splitlines() == ["x1^2", "x2^2", "[x1,x2]", "count = 3"]

    def test_degree4_count(self, capsys):
        code, out, _ = run(["basis", "2", "--prime", "2", "--degree", "4"], capsys)
        assert out.strip().splitlines()[-1] == "count = 6"

    def test_json(self, capsys):
        code, out, _ = run(
            ["basis", "3", "--prime", "3", "--degree", "3", "--format", "json"], capsys
        )
        payload = json.loads(out)
        assert payload["rank"] == 3 and payload["p"] == 3 and payload["degree"] == 3
        assert payload["count"] == 11 == len(payload["elements"])
        assert {"commutator", "weight", "p_exponent"} <= set(payload["elements"][0])

    def test_oversized_basis_exits_3(self, capsys):
        code, out, err = run(["basis", "2", "--degree", "26"], capsys)
        assert code == 3 and out == ""
        assert err == (
            "validation error: the degree-26 basis of free(2) at p = 2 has 2581425 "
            "elements, over the cap of 100000\n"
        )


class TestVerify:
    def test_roundtrip_suite_passes(self, capsys):
        code, out, _ = run(
            ["verify", "--suite", "roundtrip", "--prime", "2", "--max-n", "10"], capsys
        )
        assert code == 0
        assert "checks passed" in out.strip().splitlines()[-1]
        assert "FAIL" not in out

    def test_failure_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(
            zassenhaus.verify,
            "roundtrip_checks",
            lambda p, n: [CheckResult("bogus", False, "spec=s n=1 expected=1 got=2")],
        )
        code, out, _ = run(["verify", "--suite", "roundtrip"], capsys)
        assert code == 1
        assert "FAIL bogus: spec=s n=1 expected=1 got=2" in out

    @pytest.mark.parametrize("max_n", [0, 1, 2])
    def test_small_max_n(self, capsys, monkeypatch, max_n):
        monkeypatch.setattr(
            zassenhaus.verify, "finite_checks", lambda slow: [CheckResult("stub", True)]
        )
        code, out, err = run(["verify", "--suite", "all", "--max-n", str(max_n)], capsys)
        assert code == 0 and err == ""
        last = out.splitlines()[-1]
        k = last.split("/")[0]
        assert last == f"{k}/{k} checks passed"

    def test_json_format(self, capsys, monkeypatch):
        # the finite suite has its own test; a stub keeps this one fast
        monkeypatch.setattr(
            zassenhaus.verify, "finite_checks", lambda slow: [CheckResult("stub", True)]
        )
        code, out, err = run(
            ["verify", "--suite", "all", "--max-n", "6", "--format", "json"], capsys
        )
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert set(payload) == {"checks", "summary"}
        checks = payload["checks"]
        assert all(set(c) == {"name", "suite", "passed", "detail"} for c in checks)
        assert {c["suite"] for c in checks} == {"roundtrip", "closedforms", "finite"}
        assert all(c["passed"] is True and c["detail"] == "" for c in checks)
        assert payload["summary"] == {"passed": len(checks), "total": len(checks)}
        _, table, _ = run(["verify", "--suite", "all", "--max-n", "6"], capsys)
        assert [f"PASS {c['name']}" for c in checks] == table.splitlines()[:-1]

    def test_csv_format_on_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(
            zassenhaus.verify,
            "roundtrip_checks",
            lambda p, n: [
                CheckResult("fine", True),
                CheckResult("bogus, quoted", False, "spec=s n=1 expected=1 got=2"),
            ],
        )
        code, out, _ = run(["verify", "--suite", "roundtrip", "--format", "csv"], capsys)
        assert code == 1
        rows = list(csv.reader(io.StringIO(out)))
        assert rows == [
            ["name", "suite", "passed", "detail"],
            ["fine", "roundtrip", "true", ""],
            ["bogus, quoted", "roundtrip", "false", "spec=s n=1 expected=1 got=2"],
        ]

    def test_json_format_on_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(
            zassenhaus.verify,
            "roundtrip_checks",
            lambda p, n: [CheckResult("bogus", False, "spec=s n=1 expected=1 got=2")],
        )
        code, out, _ = run(["verify", "--suite", "roundtrip", "--format", "json"], capsys)
        assert code == 1
        assert json.loads(out) == {
            "checks": [{"name": "bogus", "suite": "roundtrip", "passed": False,
                        "detail": "spec=s n=1 expected=1 got=2"}],
            "summary": {"passed": 0, "total": 1},
        }

    def test_suite_help_lists_the_table(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, _ = run(["verify", "--help"], capsys)
        assert code == 0
        assert "{roundtrip,closedforms,finite,all}" in out
        assert (
            "roundtrip (product identity), closedforms (closed formulas), finite "
            "(matrix groups up to order 32768, group-algebra checks up to order "
            "1024), or all (default)"
        ) in " ".join(out.split())

    def test_one_table_entry_adds_a_suite(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.setitem(
            cli.SUITES, "stub", ("a stub", lambda verify, a: [CheckResult("stub check", True)])
        )
        monkeypatch.setattr(
            zassenhaus.verify, "finite_checks", lambda slow: [CheckResult("finite stub", True)]
        )
        code, out, err = run(["verify", "--suite", "stub"], capsys)
        assert (code, out, err) == (0, "PASS stub check\n1/1 checks passed\n", "")
        _, out, _ = run(["verify", "--help"], capsys)
        assert "{roundtrip,closedforms,finite,stub,all}" in out
        assert (
            "finite (matrix groups up to order 32768, group-algebra checks up to order "
            "1024), stub (a stub), or all (default)"
        ) in " ".join(out.split())
        code, out, _ = run(["verify", "--max-n", "2", "--format", "json"], capsys)
        checks = json.loads(out)["checks"]
        assert code == 0
        assert checks[-1] == {"name": "stub check", "suite": "stub", "passed": True, "detail": ""}
        suites = [c["suite"] for c in checks]
        assert sorted(set(suites), key=suites.index) == ["roundtrip", "closedforms", "finite", "stub"]
        assert suites.count("stub") == 1

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    @pytest.mark.parametrize("suite", [*cli.SUITES, "all"])
    @pytest.mark.parametrize("options, message", [
        (["--prime", "4"], "working prime must be prime, got 4"),
        (["--max-n", "-1"], "order must be >= 0"),
        (["--prime", "4", "--max-n", "-1"], "working prime must be prime, got 4"),
    ])
    def test_every_suite_refuses_a_bad_prime_or_max_n(self, capsys, suite, fmt, options, message):
        # the finite suite reads neither option, yet refuses both before it runs
        code, out, err = run(["verify", "--suite", suite, *options, "--format", fmt], capsys)
        assert (code, out) == (3, "")
        assert err == f"validation error: {message}\n"


class TestExitCodes:
    def test_parse_error(self, capsys):
        code, out, err = run(["dims", "free(2"], capsys)
        assert code == 2
        assert out == ""  # nothing printed on error
        assert "parse error" in err

    def test_unknown_name(self, capsys):
        code, _, err = run(["dims", "braid(3)"], capsys)
        assert code == 2 and "unknown constructor" in err

    def test_validation_error(self, capsys):
        code, out, err = run(["dims", "cyclic(3)", "--prime", "2"], capsys)
        assert code == 3 and out == "" and "validation error" in err

    def test_nonprime(self, capsys):
        code, _, err = run(["dims", "free(2)", "--prime", "6"], capsys)
        assert code == 3 and "prime" in err

    def test_large_prime_is_decided(self, capsys):
        code, out, _ = run(["dims", "free(1)", "--prime", "10000000000000061", "--max-n", "2"], capsys)
        assert code == 0 and out.splitlines()[1].split() == ["1", "1", "1", "1", "1", "1"]

    @pytest.mark.parametrize("command", ["dims", "series", "basis", "verify"])
    def test_prime_past_the_test_bound_exits_3(self, capsys, command):
        # a 30-digit prime: Miller-Rabin to 13 bases is proven only below the bound
        head = {"dims": ["free(1)"], "series": ["free(1)"], "basis": ["2"], "verify": []}[command]
        code, out, err = run([command, *head, "--prime", str(10**29 + 319)], capsys)
        assert (code, out) == (3, "")
        assert err.count("\n") == 1 and err.startswith("validation error: cannot decide")
        assert str(numtheory.PRIME_TEST_BOUND) in err

    def test_basis_bad_rank(self, capsys):
        code, _, err = run(["basis", "0", "--degree", "2"], capsys)
        assert code == 3

    @pytest.mark.parametrize("argv, message", [
        (["basis", "0"], "rank must be >= 1, got 0"),
        (["basis", "2", "--degree", "0"], "degree must be >= 1, got 0"),
        (["basis", "2", "--prime", "4"], "p must be prime, got 4"),
    ])
    def test_basis_arguments_are_validation_errors(self, capsys, argv, message):
        code, out, err = run(argv, capsys)
        assert code == 3 and out == ""
        assert err == f"validation error: {message}\n"

    @pytest.mark.parametrize("exc", [
        ValueError("plain value error"),
        RuntimeError("internal fault"),
        ValueError("first line\nsecond line"),
    ])
    def test_unexpected_exception_exits_5(self, capsys, monkeypatch, exc):
        # a command that fails with anything but the program's typed errors
        # is a fault of the program, not of its input
        def explode(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_dims", explode)
        code, out, err = run(["dims", "free(2)"], capsys)
        assert code == 5 and out == ""
        detail = str(exc).replace("\n", " ")
        assert err == f"internal error: {type(exc).__name__}: {detail}\n"

    def test_integrality_maps_to_4(self, capsys, monkeypatch):
        def explode(spec, p, order):
            raise NonIntegralW(3, Fraction(1, 3))

        monkeypatch.setattr(zassenhaus.dimensions, "dims_table", explode)
        code, out, err = run(["dims", "free(2)"], capsys)
        assert code == 4 and out == "" and "integrality error" in err

    def test_nonintegral_log_maps_to_4(self, capsys, monkeypatch):
        def explode(spec, p, order):
            raise NonIntegralLog(2, Fraction(1, 2))

        monkeypatch.setattr(zassenhaus.dimensions, "dims_table", explode)
        code, out, err = run(["dims", "free(2)"], capsys)
        assert code == 4 and out == "" and "integrality error" in err

    def test_deep_alternating_nesting_runs(self, capsys):
        text = "free(1)"
        for i in range(2000):
            text = f"free(1) {'*x'[i % 2]} ({text})"
        code, out, err = run(["dims", text, "--max-n", "4", "--format", "json"], capsys)
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert parse_group_spec(payload["spec"]) == parse_group_spec(text)
        assert payload["c"][1] == 2001

    def test_element_cap_is_validation_error(self, capsys, monkeypatch):
        monkeypatch.setenv("ZASS_MAX_ELEMENTS", "16")
        code, out, err = run(["verify", "--suite", "finite"], capsys)
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1
        assert "validation error" in err and "ZASS_MAX_ELEMENTS" in err

    @pytest.mark.parametrize("value", ["abc", "0", "-4", "2.5"])
    def test_bad_element_cap_names_the_variable(self, capsys, monkeypatch, value):
        monkeypatch.setenv("ZASS_MAX_ELEMENTS", value)
        code, out, err = run(["verify", "--suite", "finite"], capsys)
        assert code == 3 and out == ""
        assert err == (
            f"validation error: ZASS_MAX_ELEMENTS must be a positive integer, got {value!r}\n"
        )

    def test_coefficients_past_4300_digits(self, capsys):
        code, out, err = run(["series", "free(100000)", "--max-n", "900"], capsys)
        assert code == 0 and err == ""
        last = out.strip().strip("[]").split(", ")[-1]
        assert len(last) == 4501 and last == "1" + "0" * 4500

    def test_closed_stdout_exits_quietly(self):
        # about 1.4 MB of output, far past any pipe buffer, so the writes
        # after the reader has gone fail with EPIPE
        env = dict(os.environ, PYTHONPATH=str(Path(zassenhaus.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "zassenhaus", "series", "free(2)", "--max-n", "3000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.read(10) == b"[1, 2, 4, "
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert err == b""

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    @pytest.mark.parametrize("argv", [
        ["dims", "free(2)", "--max-n", "-1"],
        ["series", "free(2)", "--max-n", "-3"],
        ["verify", "--suite", "roundtrip", "--max-n", "-1"],
        ["verify", "--max-n", "-2"],
        ["verify", "--suite", "closedforms", "--max-n", "-1"],
    ])
    def test_negative_max_n_is_validation_error(self, capsys, argv, fmt):
        code, out, err = run(argv + ["--format", fmt], capsys)
        assert code == 3 and out == ""
        assert err == "validation error: order must be >= 0\n"

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(["--help"], capsys)
        assert code == 0
        assert "dims" in out and "verify" in out

    def test_missing_subcommand(self, capsys):
        code, _, err = run([], capsys)
        assert code == 2


_LEAF_NAMES = ["free", "cyclic", "demushkin", "zp", "superpyth"]
_leaf = st.builds("{}({})".format, st.sampled_from(_LEAF_NAMES), st.integers(0, 7))
_expression = st.recursive(
    _leaf,
    lambda kids: st.builds(
        lambda op, parts: "(" + f" {op} ".join(parts) + ")",
        st.sampled_from("*x"),
        st.lists(kids, min_size=2, max_size=3),
    ),
    max_leaves=6,
)


def _mutated(text, data):
    """text with one character deleted or one inserted."""
    i = data.draw(st.integers(0, len(text)))
    if data.draw(st.booleans()):
        return text[:i] + text[i + 1:]
    return text[:i] + data.draw(st.sampled_from("()*x, 0-z")) + text[i:]


_spec_text = st.one_of(
    _expression,
    st.builds(_mutated, _expression, st.data()),
    st.text(alphabet="freecyclicdmushkzpt()*x, 0123456789-", max_size=30),
)
_small_int = st.sampled_from([str(k) for k in range(-3, 13)] + ["", "1.5", "two"])
_common = st.fixed_dictionaries({
    "--prime": st.sampled_from(["2", "3", "5", "7"] * 3 + ["-2", "0", "1", "4", "", "p"]),
    "--format": st.sampled_from(["table", "csv", "json"]),
})


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["dims", "series", "basis", "verify"]))
    options = dict(draw(_common))
    if command == "basis":
        head = [draw(st.integers(-1, 7).map(str))]
        options["--degree"] = draw(_small_int)
    else:
        head = [] if command == "verify" else [draw(_spec_text)]
        options["--max-n"] = draw(_small_int)
    if command == "verify":
        options["--suite"] = draw(st.sampled_from(["roundtrip", "closedforms", "finite"]))
        if options["--suite"] == "finite":
            # the finite suite runs for a second: draw it only with an
            # option that it refuses before any check runs
            if draw(st.booleans()):
                options["--prime"] = draw(st.sampled_from(["-2", "0", "1", "4", "", "p"]))
            else:
                options["--max-n"] = draw(st.sampled_from(["-3", "-2", "-1"]))
    flags = ["--closed-form"] if command == "series" and draw(st.booleans()) else []
    return [command, *head, *(x for pair in options.items() for x in pair), *flags]


@settings(max_examples=300, deadline=None)
@given(_argv())
def test_fuzzed_main_keeps_the_exit_contract(argv):
    """No exception escapes, the exit code is documented, a failure prints
    nothing on stdout, and JSON output parses."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    out = buf.getvalue()
    assert code in (0, 1, 2, 3, 4)
    if "finite" in argv:
        assert code in (2, 3)  # refused before any check runs
    if code:
        assert out == ""
    elif "json" in argv:
        json.loads(out)


def test_no_assert_in_library():
    """Checks are explicit raises: python -O must not change behaviour."""
    found = []
    for path in sorted(Path(zassenhaus.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
