"""Run one workload of the zass benchmark and print its metrics.

    python3 bench/run.py --workload cli-pipeline --seed 0 --seconds 50 --trace 0

Run from the root of a checkout. Each pass starts a fresh interpreter
(bench/one_pass.py) that runs every job of the workload once, so any memo
the program keeps starts cold, as for a user's ``zass`` invocation. Passes
run one after another (a closed loop, one job in flight) for about ``--seconds``
seconds; every pass runs the same jobs, so the share of failed jobs is
the same in every run. checks.py checks all outputs after the passes.

Every time a pass measures is multiplied by the pass's speed factor from
calibration.py (the workload's calibration kernel's nominal time over its
mean measured time in that pass), so the figures do not follow the drifting
speed of a shared host; ``wall_s`` and ``calibration.kernel_s`` are as
measured. ``setup_s`` is the median over SETUP_PROBES set-up-only passes,
each scaled by the kernels it runs right after its set-up.

``--trace 0`` prints the end-to-end metrics, medians over the passes.
``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics; the spans of the traced passes are written to
bench/out/trace-<workload>-seed<seed>.json.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Without the program's sources (src/zassenhaus) the run
exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 8  # set-up-only passes per run; setup_s is their median
RUN_LIMIT_S = 170  # a run ends within 180 s, whatever --seconds asks
PART_METRICS = {part: part.replace("-", "_") + "_s" for part in workloads.PARTS}
SPAN_METRICS = (
    "cli.main.self_s",
    "groupspec.parse_group_spec.self_s",
    "groupspec.hp_series.self_s", "groupspec.hp_series.calls",
    "series.expand_rational.self_s",
    "series.TruncSeries.log.self_s",
    "series.TruncSeries.inverse.self_s", "series.TruncSeries.inverse.calls",
    "series.TruncSeries.mul.self_s", "series.TruncSeries.mul.calls",
    "series.TruncSeries.pow.self_s",
    "series.product_identity_rhs.self_s", "series.product_identity_rhs.calls",
    "dimensions.dims_table.self_s",
    "dimensions.w_sequence.self_s",
    "dimensions.c_sequence.self_s",
    "hall.zassenhaus_basis.self_s",
    "hall.basis_text_lines.self_s",
    "hall.elements",
    "verify.roundtrip_checks.self_s",
    "verify.closedform_checks.self_s",
    "verify.checks",
    "finite.commutators.self_s", "finite.commutators.pairs",
    "finite.power.self_s",
    "finite.subgroup_closure.self_s", "finite.products.pairs",
    "finite.mult.self_s",
    "finite.row_echelon_mod_p.self_s", "finite.row_echelon_mod_p.rows_in",
)
# ratio metric: (numerator counter, denominator counter)
RATIO_METRICS = {
    "finite.commutators.unique_per_pair": ("finite.commutators.unique", "finite.commutators.pairs"),
    "finite.row_echelon_mod_p.rank_per_row": ("finite.row_echelon_mod_p.rank",
                                              "finite.row_echelon_mod_p.rows_in"),
}


def _unit(name: str) -> str:
    if name == "peak_rss_mib":
        return "MiB"
    if name.endswith("_s"):
        return "s"
    return "ratio" if name in RATIO_METRICS else "count"


class BenchError(RuntimeError):
    """A pass could not run; the run prints no result."""


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one job needs one thread; keep BLAS and OpenMP pools from starting more
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(workload: str, seed: int, mode: str, env: dict, deadline: float) -> dict:
    """Start one pass process, wait for it; return its report, setup_s and speed factor."""
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "one_pass.py"), workload, str(seed), mode],
            capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=max(1.0, deadline - launched),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} pass of {workload} ran past the run's time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass of {workload} exited {proc.returncode}:\n{proc.stderr}")
    report = json.loads(proc.stdout)
    report["setup_s"] = report["ready"] - launched
    report["factor"] = calibration.speed_factor(workload, report["kernel_s"])
    return report


def _git_record() -> str:
    if not (ROOT / ".git").exists():
        return "git=none (not a git checkout)"
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True).stdout.strip()
    return f"git={git('rev-parse', 'HEAD') or 'unknown'} dirty={bool(git('status', '--porcelain'))}"


def _failure(record: dict) -> str | None:
    if record["fault"]:
        return record["fault"]
    if record["code"] not in (None, 0, 1):  # 1 is a failed verify check: checked, not failed
        return f"exit code {record['code']}: {record['stderr'].strip()}"
    return None


def _median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "zassenhaus" / "cli.py").is_file():
        print(f"no program sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    env = _child_env()
    jobs = workloads.jobs(args.workload, args.seed)
    untraced, traced = [], []
    try:
        # Start another round only if it should end less than half a round past
        # --seconds, so a run takes about --seconds however long a round is.
        while True:
            untraced.append(run_pass(args.workload, args.seed, "run", env, deadline))
            if args.trace:
                traced.append(run_pass(args.workload, args.seed, "trace", env, deadline))
            elapsed = time.monotonic() - started
            if elapsed + elapsed / len(untraced) / 2 > args.seconds:
                break
        if not args.trace:
            probes = [run_pass(args.workload, args.seed, "setup", env, deadline)
                      for _ in range(SETUP_PROBES)]
            setups = [r["setup_s"] * r["factor"] for r in probes]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    print(f"run: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} passes={len(untraced)} traced_passes={len(traced)}")
    print(f"env: python={platform.python_version()} numpy={untraced[0]['numpy']} "
          f"nproc={len(os.sched_getaffinity(0))} {_git_record()}")

    attempted = failed = 0
    problems: list[str] = []
    verdicts: dict = {}  # identical outputs get identical verdicts; check each once
    for report in untraced + traced:
        for job, record in zip(jobs, report["jobs"]):
            attempted += 1
            fault = _failure(record)
            if fault:
                failed += 1
                continue
            key = (job.name, record["stdout"], json.dumps([record.get("value"), report["layers"]]))
            if key not in verdicts:
                verdicts[key] = checks.check(job, record, report["layers"])
            problems += [f"{job.name}: {p}" for p in verdicts[key]]
    for index, job in enumerate(jobs):
        times = [r["jobs"][index]["seconds"] for r in untraced]
        fault = _failure(untraced[0]["jobs"][index])
        status = f"FAILED: {fault}" if fault else "ok"
        scaled = [r["jobs"][index]["seconds"] * r["factor"] for r in untraced]
        print(f"job {job.name}: median {_median(times):.4f} s as measured, "
              f"{_median(scaled):.4f} s scaled, over {len(times)} passes; {status}")
    for problem in sorted(set(problems)):
        print(f"CHECK FAILED {problem}")

    walls = [sum(j["seconds"] for j in r["jobs"]) for r in untraced]
    ref_walls = [wall * r["factor"] for wall, r in zip(walls, untraced)]
    print("speed factor per pass:", " ".join(f"{r['factor']:.3f}" for r in untraced))
    if args.trace:
        metrics = {"wall_s": _median(walls),
                   "calibration.kernel_s": _median([statistics.fmean(r["kernel_s"])
                                                    for r in untraced])}
        for part, name in PART_METRICS.items():
            metrics[name] = _median([
                r["factor"] * sum(rec["seconds"] for job, rec in zip(jobs, r["jobs"])
                                  if job.part == part)
                for r in untraced])
        for name in SPAN_METRICS:
            scaled = name.endswith("_s")
            metrics[name] = _median([r["trace"].get(name, 0) * (r["factor"] if scaled else 1)
                                     for r in traced])
        for name, (num, den) in RATIO_METRICS.items():
            total = sum(r["trace"].get(den, 0) for r in traced)
            metrics[name] = sum(r["trace"].get(num, 0) for r in traced) / total if total else 0.0
        traced_walls = [r["factor"] * sum(j["seconds"] for j in r["jobs"]) for r in traced]
        metrics["trace.overhead_s"] = _median(traced_walls) - _median(ref_walls)
        trace_dir = BENCH / "out"
        trace_dir.mkdir(exist_ok=True)
        trace_file = trace_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "jobs": [job.name for job in jobs],
            "span_fields": ["name", "start", "end", "parent", "job"],
            "passes": [r["spans"] for r in traced],
        }))
        print(f"trace: {sum(len(r['spans']) for r in traced)} spans written to "
              f"{trace_file.relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": _median(setups),
            "wall_ref_s": _median(ref_walls),
            "peak_rss_mib": _median([r["peak_rss_mib"] for r in untraced]),
        }
    result = {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()}
    for name, m in result.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(f"operations: attempted={attempted} failed={failed}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
