"""One pass of a workload, in a fresh interpreter: run every job once.

    python3 bench/one_pass.py WORKLOAD SEED MODE

MODE is ``setup`` (import and build the inputs, then stop), ``run`` (time
every job) or ``trace`` (time every job with the span wrappers installed).
The workload's calibration kernel runs once to warm up, then, each time
timed on its own, before every job and after the last, or in ``setup`` mode
SETUP_KERNELS times right after set-up.
run.py starts it with ``src`` on PYTHONPATH. The pass writes one JSON object
to stdout; the program's own stdout and stderr are captured per job and
returned in that object.

Timed regions cover the calls into the program only; capturing tracebacks,
serialising results and the untimed check data come after them.
"""
from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from collections import Counter

SETUP_KERNELS = 3


def _fault(exc: BaseException, call: str) -> str:
    """What escaped which call, and the program functions that recurse most."""
    frames = Counter(
        f"{frame.filename.rsplit('/', 1)[-1][:-3]}.{frame.name}"
        for frame in traceback.extract_tb(exc.__traceback__)
        if "zassenhaus" in frame.filename
    )
    text = f"{type(exc).__name__} escaped {call}: {exc}"
    deepest = ", ".join(f"{name} x{n}" for name, n in frames.most_common(3) if n > 1)
    return f"{text}; recursing in {deepest}" if deepest else text


def main(workload: str, seed: int, mode: str) -> dict:
    from zassenhaus import cli, finite

    import calibration
    import tracing
    import workloads

    jobs = workloads.jobs(workload, seed)
    groups = {}
    for job in jobs:
        if job.group and job.group not in groups:
            blocks = [finite.unitriangular_group(m, p) for m, p in job.group]
            group = blocks[0]
            for block in blocks[1:]:
                group = finite.direct_product(group, block)
            groups[job.group] = group
    ready = time.monotonic()
    kernel = calibration.KERNELS[workload][0]
    kernel()

    def timed_kernel() -> float:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start

    if mode == "setup":
        return {"ready": ready, "kernel_s": [timed_kernel() for _ in range(SETUP_KERNELS)]}

    tracer = None
    if mode == "trace":
        tracer = tracing.Tracer()
        tracing.install(tracer)
    kernel_s = []
    results = []
    for index, job in enumerate(jobs):
        kernel_s.append(timed_kernel())
        if tracer:
            tracer.job = index
        out, err = io.StringIO(), io.StringIO()
        code, value, error = None, None, None
        start = time.perf_counter()
        try:
            if job.argv:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(list(job.argv))
            elif job.kind == "filtration":
                value = finite.zassenhaus_filtration_finite(groups[job.group], job.depth)
            else:
                value = finite.group_algebra_aug_dims(groups[job.group], job.depth)
        except Exception as exc:  # a failing job is counted and named, not fatal
            error = exc
        seconds = time.perf_counter() - start
        record = {"seconds": seconds, "code": code, "stdout": out.getvalue(),
                  "stderr": err.getvalue(), "fault": None}
        if error is not None:
            record["fault"] = _fault(error, "cli.main" if job.argv else f"finite ({job.kind})")
        if job.kind == "filtration" and error is None:
            record["value"] = {"dims": list(value.dims), "last_size": len(value.subgroups[-1])}
        elif job.kind == "augmentation" and error is None:
            record["value"] = list(value)
        results.append(record)
    kernel_s.append(timed_kernel())
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    report = {"ready": ready, "jobs": results, "kernel_s": kernel_s,
              "peak_rss_mib": peak_kib / 1024, "numpy": sys.modules["numpy"].__version__}
    if tracer:
        tracer.active = False
        report["trace"] = tracer.summary()
        report["spans"] = tracer.spans
    # Jennings check data: the oracle's own layer dims of each augmentation group
    report["layers"] = {
        workloads.group_name(job.group):
            list(finite.zassenhaus_filtration_finite(
                groups[job.group], len(workloads.expected_layers(job.group)) + 1).dims)
        for job in jobs if job.kind == "augmentation"
    }
    return report


if __name__ == "__main__":
    workload_arg, seed_arg, mode_arg = sys.argv[1:4]
    json.dump(main(workload_arg, int(seed_arg), mode_arg), sys.stdout)
