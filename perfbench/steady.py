"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

Runs ``run.py`` untraced for BENCHMARK.json's ``run_seconds`` once per seed
1, 2, ... on each workload and reports, per metric, the median and the
quartile spread ``(q3 - q1) / median`` next to the metric's bound from
BENCHMARK.json. A spread above a third of its bound is flagged. For
``setup_s`` it also reports the spread that the workload process's own
set-up alone would give. Usage, from the root of a checkout::

    python3 perfbench/steady.py --workloads verify --seeds 5
    python3 perfbench/steady.py --seeds 10 --baseline perfbench/baseline.json

``--baseline`` also makes one traced run per workload at the default seed
and writes every end-to-end median and per-layer value to the given file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run's result, with the records run.py prints before it merged in
    under ``"record"``."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    *records, last = proc.stdout.splitlines()
    result = json.loads(last)
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs incorrect:\n{proc.stderr}")
    result["record"] = {k: v for line in records for k, v in json.loads(line).items()}
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    seeds = range(1, 1 + args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict = {}
    for workload in args.workloads.split(","):
        runs = [bench(workload, seed, seconds, 0) for seed in seeds]
        summary[workload] = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            median, q1, q3, share = spread(values)
            flag = "" if share <= bound / 3 else "  <-- above bound/3"
            print(f"{workload:12s} {name:12s} median {median:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  spread {share:7.4f}  bound {bound}{flag}", flush=True)
            summary[workload][name] = {
                "median": median, "q1": q1, "q3": q3, "spread": share,
                "unit": runs[0]["metrics"][name]["unit"], "values": values,
            }
        # setup_s is the median of several set-ups; what one set-up alone would give
        single = [r["record"]["setup_s_samples"][-1] for r in runs]
        share = spread(single)[3]
        print(f"{workload:12s} {'setup_s':12s} one set-up per run: spread {share:7.4f}", flush=True)
        summary[workload]["setup_s"]["one_setup_spread"] = share
    if args.baseline:
        layers = {w: bench(w, workloads.DEFAULT_SEED, seconds, 1)["metrics"] for w in summary}
        args.baseline.write_text(json.dumps({
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "seconds": seconds,
            "seeds": list(seeds),
            "verify_seed": "ignored: the verify suites run at their built-in seeds, so the "
                           "verify values are repeats of one input",
            "end_to_end": summary,
            "per_layer_at_default_seed": layers,
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
