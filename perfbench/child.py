"""One workload process.

Started by ``run.py`` in a fresh interpreter so that set-up time and peak
memory belong to this workload alone. It imports ``linbandits`` from the
checkout's ``src/`` (the set-up being timed), then, unless it is a set-up
probe, calls ``linbandits.cli.main`` in a closed loop: one caller, each call
starting after the previous one returns. Usage::

    python3 child.py PLAN_JSON RESULT_JSON probe|run
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import sys
import time
import traceback


def _iteration(cli, plan: dict, index: int, traced: bool) -> dict:
    """Run every call of the workload once; outputs move to ``iter_<index>``."""
    recorder = None
    if traced:
        import tracer

        recorder = tracer.Recorder()
        recorder.install()
    calls = []
    try:
        start = time.perf_counter()
        for call in plan["calls"]:
            buffer = io.StringIO()
            began = time.perf_counter()
            rc, error = None, None
            try:
                with contextlib.redirect_stdout(buffer):
                    rc = cli.main(list(call["argv"]))
            except Exception:  # a failed call is a failed operation, not a failed benchmark
                error = traceback.format_exc(limit=4)
            calls.append(
                {"wall_s": time.perf_counter() - began, "rc": rc, "error": error,
                 "stdout": buffer.getvalue()}
            )
        wall = time.perf_counter() - start
    finally:
        if recorder is not None:
            recorder.uninstall()

    output_bytes = 0
    for base, _, files in os.walk("out"):
        output_bytes += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    record = {"traced": traced, "wall_s": wall, "calls": calls, "dir": f"iter_{index}"}
    if os.path.isdir("out"):
        os.rename("out", record["dir"])
    if recorder is not None:
        record["layers"] = tracer.layer_metrics(
            recorder, plan["steps"], output_bytes / 1e6, plan["arm_buffer_mb"]
        )
    return record


def main(plan_path: str, result_path: str, mode: str) -> None:
    spawned = float(os.environ["PERFBENCH_SPAWN"])
    with open(plan_path) as fh:
        plan = json.load(fh)
    src = os.path.join(plan["root"], "src")
    sys.path.insert(0, src)
    from linbandits import cli

    setup_s = time.monotonic() - spawned
    if not os.path.abspath(cli.__file__).startswith(os.path.join(src, "")):
        raise SystemExit(f"linbandits was imported from {cli.__file__}, not from {src}")
    result = {"setup_s": setup_s}
    if mode == "run":
        iterations = []
        start = time.monotonic()
        while True:
            traced = plan["trace"] and len(iterations) % 2 == 1
            gc.collect()
            iterations.append(_iteration(cli, plan, len(iterations), traced))
            longest = max(it["wall_s"] for it in iterations)
            # a traced run needs one untraced and one traced iteration at least
            if len(iterations) >= (2 if plan["trace"] else 1) and (
                time.monotonic() - start + longest > plan["seconds"]
            ):
                break
        import resource

        import numpy
        import scipy

        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        result.update(
            iterations=iterations,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            environment={
                "python": sys.version.split()[0],
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
                "blas": f"{blas.get('name')} {blas.get('version')}",
            },
        )
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:4])
