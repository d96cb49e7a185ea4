"""Benchmark of the ``linbandits`` command line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload highdim --seed 20240601 --seconds 40 --trace 0

Each run starts fresh interpreters: three set-up probes that only import
``linbandits``, then one workload process that calls ``linbandits.cli.main``
in a closed loop for ``--seconds`` (at least one iteration; a traced run
alternates untraced and traced iterations, at least one of each). This
process then checks every iteration's outputs and prints, as the last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Earlier lines hold the environment and the output digests.

Nothing outside the checkout is read or written; work files go to
``.perfbench_work/``. No machine setting is changed: no CPU pinning, no
frequency governor, no cache drop. The only change to the children's
environment is that BLAS and OpenMP threads are capped at ``nproc``.
"""

from __future__ import annotations

import argparse
import compileall
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3
# every run, its checks included, must end well inside three minutes
RUN_LIMIT_S = 170.0
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_environment() -> dict[str, str]:
    """The children's environment: BLAS and OpenMP threads capped at ``nproc``.

    A thread count already set below ``nproc`` is kept, as a user's would be.
    """
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        current = env.get(var, "")
        keep = current.isdigit() and 0 < int(current) <= nproc
        env[var] = current if keep else str(nproc)
    return env


def _spawn(plan_path: Path, result_path: Path, mode: str, env: dict, deadline: float) -> dict:
    """Run one child to completion (killing it at the deadline) and load its result."""
    result_path.unlink(missing_ok=True)
    env = dict(env, PERFBENCH_SPAWN=repr(time.monotonic()))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("no time left to start the workload process")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(plan_path), str(result_path), mode],
            cwd=plan_path.parent,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{mode} process exceeded the run limit") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"{mode} process failed:\n{proc.stderr[-2000:]}")
    with open(result_path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Output checks


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rows_by_seed(path: Path) -> dict[str, list[dict]]:
    groups: dict[str, list[dict]] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            key = row.get("policy", "") + "/" + row["seed"]
            groups.setdefault(key, []).append(row)
    return groups


def _regret_ok(rows: list[dict], horizon: int) -> bool:
    """A complete trace whose regret is finite and non-negative."""
    if len(rows) != horizon:
        return False
    for row in rows:
        inst, cum = float(row["instant_regret"]), float(row["cum_regret"])
        if not (math.isfinite(inst) and math.isfinite(cum) and inst >= 0.0 and cum >= 0.0):
            return False
    return True


def _verify_lines(record: dict) -> list[str]:
    """The PASS/FAIL lines a ``linbandits verify`` call printed."""
    return [l for l in record["stdout"].splitlines() if l.startswith(("PASS", "FAIL"))]


def _check_call(call: workloads.Call, record: dict, out_dir: Path) -> tuple[int, list[str]]:
    """Failed operations of one call and the reasons."""
    if record["error"] is not None:
        return call.operations, [f"{call.label} raised:\n{record['error']}"]
    if call.kind == "verify":
        lines = _verify_lines(record)
        failed = sum(1 for l in lines if l.startswith("FAIL"))
        failed += max(0, call.operations - len(lines))
        notes = [f"{call.label}: {l}" for l in lines if l.startswith("FAIL")]
        if record["rc"] != 0 and failed == 0:
            return call.operations, [f"{call.label} exited with {record['rc']}"]
        return failed, notes
    if record["rc"] != 0:
        return call.operations, [f"{call.label} exited with {record['rc']}"]
    missing = [f for f in call.files if not (out_dir / f).is_file()]
    if missing:
        return call.operations, [f"{call.label} wrote no {', '.join(missing)}"]

    traces = _rows_by_seed(out_dir / call.files[0])
    bad = {key for key, rows in traces.items() if not _regret_ok(rows, call.horizon)}
    if call.kind == "adversarial":
        for key, rows in _rows_by_seed(out_dir / "adversarial_budget.csv").items():
            if not all(float(r["divergence"]) <= call.epsilon for r in rows):
                bad.add(key)
        if call.linear_regret:
            bad |= {
                key for key, rows in traces.items()
                if float(rows[-1]["cum_regret"]) != float(call.horizon)
            }
    failed = len(bad) + max(0, call.operations - len(traces))
    return failed, [f"{call.label}: property check failed for {sorted(bad)}"] if bad else []


def check_outputs(workload: workloads.Workload, iterations: list[dict], work: Path,
                  pinned: dict | None) -> tuple[int, int, dict, list[str]]:
    """Attempted and failed operations over all iterations, the digests of
    the first iteration, and notes on every failure.

    Every iteration must reproduce the first one's digests; at the default
    seed they must also equal the pinned ones.
    """
    attempted, failed, notes = 0, 0, []
    reference: dict[str, str] = {}
    for it in iterations:
        for call, record in zip(workload.calls, it["calls"]):
            attempted += call.operations
            out_dir = work / it["dir"] / os.path.relpath(call.out, "out") if call.out else None
            bad, why = _check_call(call, record, out_dir)
            digests = {}
            if call.out and not why:
                digests = {f"{call.label}/{f}": _sha256(out_dir / f) for f in call.files}
                expected = {**digests, **reference, **(pinned or {})}
                wrong = sorted(k for k in digests if expected.get(k) != digests[k])
                if wrong:
                    bad, why = call.operations, [f"digest mismatch in {it['dir']}: {wrong}"]
                reference = {**digests, **reference}
            failed += bad
            notes += why
    return attempted, failed, reference, notes


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(workload: workloads.Workload, setups: list[float], result: dict,
               attempted: int, failed: int) -> dict:
    walls = [it["wall_s"] for it in result["iterations"]]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "steps_per_s": statistics.median(workload.steps / w for w in walls),
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_frac": 1.0 - failed / attempted,
    }


def per_layer(workload: workloads.Workload, result: dict) -> dict:
    traced = [it for it in result["iterations"] if it["traced"]]
    untraced = [it["wall_s"] for it in result["iterations"] if not it["traced"]]
    values = {
        name: statistics.median(it["layers"][name] for it in traced)
        for name in traced[0]["layers"]
    }
    checks = [
        [line for call, record in zip(workload.calls, it["calls"]) if call.kind == "verify"
         for line in _verify_lines(record)]
        for it in traced
    ]
    values["verify.checks"] = statistics.median(len(lines) for lines in checks)
    values["verify.checks_passed"] = statistics.median(
        sum(line.startswith("PASS") for line in lines) for lines in checks
    )
    values["trace.overhead_s"] = (
        statistics.median(it["wall_s"] for it in traced) - statistics.median(untraced)
    )
    return values


def run(args: argparse.Namespace) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "linbandits" / "cli.py").is_file():
        raise BenchmarkError(f"no linbandits sources under {ROOT / 'src'}")
    # compile once so that no set-up probe pays for byte-compilation
    compileall.compile_dir(str(ROOT / "src" / "linbandits"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)

    workload = workloads.build(args.workload, args.seed, args.toy)
    work = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for name, text in workload.inputs.items():
        (work / name).write_text(text)
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps({
        "root": str(ROOT),
        "calls": [{"argv": c.argv} for c in workload.calls],
        "steps": workload.steps,
        "arm_buffer_mb": workload.arm_buffer_mb,
        "seconds": args.seconds,
        "trace": bool(args.trace),
    }))

    env = child_environment()
    result_path = work / "child_result.json"
    setups = [_spawn(plan_path, result_path, "probe", env, deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    result = _spawn(plan_path, result_path, "run", env, deadline)
    setups.append(result["setup_s"])

    pinned = None
    if args.seed == workloads.DEFAULT_SEED and not args.toy:
        with open(HERE / "digests.json") as fh:
            pinned = json.load(fh).get(args.workload, {})
    attempted, failed, digests, notes = check_outputs(
        workload, result["iterations"], work, pinned
    )
    metrics = per_layer(workload, result) if args.trace else end_to_end(
        workload, setups, result, attempted, failed
    )
    units = tracer.LAYER_UNITS if args.trace else END_TO_END_UNITS
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
        "environment": {
            **result["environment"],
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": {v: env[v] for v in BLAS_THREAD_VARS},
            "machine_settings": "unchanged: no CPU pinning, no governor change, no cache drop",
        },
        "setup_s_samples": setups,
        "iterations": [
            {"traced": it["traced"], "wall_s": it["wall_s"],
             "calls": {c.label: r["wall_s"] for c, r in zip(workload.calls, it["calls"])}}
            for it in result["iterations"]
        ],
        "digests": digests,
        "digests_pinned": pinned is not None,
        "notes": notes,
    }
    (work / "record.json").write_text(json.dumps(record, indent=1))
    for key in ("environment", "setup_s_samples", "iterations", "digests"):
        print(json.dumps({key: record[key]}))
    for note in notes:
        print(note, file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny shapes, for the self-check")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
