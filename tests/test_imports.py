"""What each entry point loads, and the bench tracer's hooks on the lazy package.

Every test runs its code in a fresh interpreter, because the test process
has long since imported every module.
"""
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(code: str) -> dict:
    """Run code in a fresh interpreter with src on the path; parse its last stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _modules_after_main(argv: list[str]) -> set[str]:
    """Module names loaded by one cli.main call, which must exit 0."""
    out = _run(f"""
        import contextlib, io, json, sys
        from zassenhaus import cli
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main({argv!r})
        print(json.dumps({{"code": code, "modules": sorted(sys.modules)}}))
    """)
    assert out["code"] == 0
    return set(out["modules"])


def test_finite_alone_loads_no_other_program_module():
    out = _run("""
        import json, sys
        from zassenhaus import finite
        print(json.dumps(sorted(m for m in sys.modules if m.startswith("zassenhaus"))))
    """)
    assert out == ["zassenhaus", "zassenhaus.finite"]


COMMANDS = [
    ["dims", "free(2)", "--max-n", "8"],
    ["series", "cyclic(2) * free(2)", "--max-n", "8"],
    ["basis", "2", "--degree", "4"],
]


# every format's output is built in cli, from what the command computes
@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(argv + fmt, id="-".join([argv[0], *fmt[1:]]))
        for fmt in ([], ["--format", "json"], ["--format", "csv"])
        for argv in COMMANDS
    ],
)
def test_commands_load_neither_numpy_nor_the_oracles(argv):
    modules = _modules_after_main(argv)
    assert not {"numpy", "zassenhaus.finite", "zassenhaus.verify"} & modules
    if argv[0] == "dims":
        assert "zassenhaus.hall" not in modules
        assert "zassenhaus.dimensions" in modules
    if argv[0] == "basis":
        # the typed errors of the series pipeline load only on the error path
        assert "zassenhaus.hall" in modules
        assert not {"zassenhaus.dimensions", "zassenhaus.groupspec", "zassenhaus.series"} & modules


@pytest.mark.parametrize("suite, max_n", [("roundtrip", "6"), ("closedforms", "4")])
def test_series_suites_load_no_numpy(suite, max_n):
    modules = _modules_after_main(["verify", "--suite", suite, "--max-n", max_n])
    assert "zassenhaus.verify" in modules
    assert "numpy" not in modules and "zassenhaus.finite" not in modules


def test_finite_verify_loads_no_numpy_ma():
    # np.unique imports numpy.ma on its first call, 13 to 16 ms of a launch;
    # the finite oracle dedupes with its own sort and mask
    modules = _modules_after_main(["verify", "--suite", "finite"])
    assert "zassenhaus.finite" in modules and "numpy" in modules
    assert "numpy.ma" not in modules


def test_package_names_resolve_on_first_use():
    out = _run("""
        import json, sys
        import zassenhaus
        before = sorted(m for m in sys.modules if m.startswith("zassenhaus."))
        missing = [n for n in zassenhaus.__all__ if n not in dir(zassenhaus)]
        unresolved = [n for n in zassenhaus.__all__ if getattr(zassenhaus, n, None) is None]
        try:
            zassenhaus.no_such_name
            unknown = "resolved"
        except AttributeError as exc:
            unknown = str(exc)
        namespace = {}
        exec("from zassenhaus import *", namespace)
        starred = sorted(set(namespace) - {"__builtins__"})
        print(json.dumps({"before": before, "missing": missing, "unresolved": unresolved,
                          "unknown": unknown, "starred": starred,
                          "all": sorted(zassenhaus.__all__)}))
    """)
    assert out["before"] == []
    assert out["missing"] == [] and out["unresolved"] == []
    assert out["unknown"] == "module 'zassenhaus' has no attribute 'no_such_name'"
    assert out["starred"] == out["all"]
    assert {"dims_table", "hp_series", "zassenhaus_basis", "expand_rational"} <= set(out["all"])


def test_bench_tracer_hooks_resolve_and_record():
    out = _run(f"""
        import contextlib, importlib.util, io, json, sys
        spec = importlib.util.spec_from_file_location(
            "tracing", {str(ROOT / "bench" / "tracing.py")!r})
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        from zassenhaus import cli, finite
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["dims", "free(2)", "--max-n", "8"],
                         ["basis", "2", "--degree", "4"],
                         ["verify", "--suite", "roundtrip", "--max-n", "6"]):
                codes.append(cli.main(argv))
        finite.zassenhaus_filtration_finite(finite.unitriangular_group(3, 2), 3)
        unhooked = []
        for name, module, attr, counter, span in tracing.HOOKS:
            owner_name, _, leaf = attr.rpartition(".")
            owner = sys.modules[module]
            if owner_name:
                owner = getattr(owner, owner_name)
            if not hasattr(vars(owner)[leaf], "__wrapped__"):
                unhooked.append(name)
        print(json.dumps({{"codes": codes, "unhooked": unhooked,
                          "spans": sorted({{s[0] for s in tracer.spans}})}}))
    """)
    assert out["codes"] == [0, 0, 0]
    assert out["unhooked"] == []
    assert {
        "cli.main",
        "dimensions.dims_table",
        "hall.zassenhaus_basis",
        "verify.roundtrip_checks",
        "finite.commutators",
    } <= set(out["spans"])
