"""Toy-size self-check of the benchmark.

Checks that BENCHMARK.json obeys the benchmark contract and names exactly
the metrics the code emits, then runs every workload at toy size, traced and
untraced, and checks that the result line has the contract's schema and
every named metric with its unit. It asserts nothing about timings. Last, it
checks that the benchmark fails without a result in a directory holding only
BENCHMARK.json and ``perfbench/``. Usage, from the root of a checkout::

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import run
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selfcheck failed: {message}")


def check_spec(spec: dict, size: int) -> None:
    check(size <= 64 * 1024, "BENCHMARK.json is larger than 64 KiB")
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          "BENCHMARK.json has the wrong keys")
    check(1 <= len(spec["paths"]) <= 16, "1 to 16 paths")
    for p in spec["paths"]:
        check(PATH.fullmatch(p) is not None and not p.startswith("/") and ".." not in p.split("/"),
              f"bad path {p!r}")
    command = spec["command"]
    check(1 <= len(command) <= 32 and all(isinstance(c, str) and len(c) <= 200 for c in command),
          "command is a list of at most 32 strings of at most 200 characters")
    check(all(not c.startswith("/") and ".." not in c.split("/") for c in command),
          "command leaves the checkout")
    run_seconds = spec["run_seconds"]
    check(isinstance(run_seconds, int) and 1 <= run_seconds <= 60, "run_seconds is 1 to 60")
    check(2 <= len(spec["workloads"]) <= 8, "2 to 8 workloads")
    for w in spec["workloads"]:
        check(set(w) == {"name", "why"}, f"workload {w} has the wrong keys")
        check(len(w["why"]) <= 200 and "\n" not in w["why"], f"why of {w['name']} is one line")
    check(1 <= len(spec["end_to_end"]) <= 16, "1 to 16 end-to-end metrics")
    check(1 <= len(spec["per_layer"]) <= 128, "1 to 128 per-layer metrics")
    for m in spec["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"}, f"{m['name']} has the wrong keys")
        check(0 < m["bound"] <= 0.25, f"bound of {m['name']} is above 0.25")
    for m in spec["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, f"{m['name']} has the wrong keys")
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in spec["workloads"] + metrics]
    check(len(names) == len(set(names)), "names are used once")
    for m in metrics:
        check(NAME.fullmatch(m["name"]) is not None, f"bad name {m['name']!r}")
        check(UNIT.fullmatch(m["unit"]) is not None, f"bad unit {m['unit']!r}")
        check(m["better"] in ("higher", "lower"), f"better of {m['name']}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
          "setup_s is an end-to-end metric in s, lower is better")
    check(setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s has the largest bound")
    check([w["name"] for w in spec["workloads"]] == list(workloads.NAMES),
          "BENCHMARK.json lists the workloads the code defines")
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS,
          "BENCHMARK.json lists the end-to-end metrics the code emits")
    check({m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.LAYER_UNITS,
          "BENCHMARK.json lists the per-layer metrics the code emits")


def check_result(line: str, expected: dict, label: str) -> None:
    result = json.loads(line)
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    check(result["correct"] is True, f"{label}: outputs incorrect")
    check(type(result["attempted"]) is int and result["attempted"] >= 1, f"{label}: attempted")
    check(type(result["failed"]) is int and result["failed"] == 0, f"{label}: failed")
    check(set(result["metrics"]) == set(expected), f"{label}: metric names")
    for name, unit in expected.items():
        metric = result["metrics"][name]
        check(set(metric) == {"value", "unit"} and metric["unit"] == unit, f"{label}: {name} unit")
        value = metric["value"]
        check(type(value) in (int, float) and math.isfinite(value), f"{label}: {name} value")


def main() -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    check_spec(spec, spec_path.stat().st_size)
    for workload in workloads.NAMES:
        for trace, expected in ((0, run.END_TO_END_UNITS), (1, tracer.LAYER_UNITS)):
            proc = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--toy"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
            )
            label = f"{workload} trace={trace}"
            check(proc.returncode == 0, f"{label} exited with {proc.returncode}:\n{proc.stderr}")
            check_result(proc.stdout.splitlines()[-1], expected, label)
            print(f"ok  {label}")

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(spec_path, bare)
    for p in spec["paths"]:
        shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*spec["command"], "--workload", "highdim", "--seed", "1", "--seconds", "1"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
    )
    check(proc.returncode != 0, "the benchmark succeeded without the program's sources")
    check('"metrics"' not in proc.stdout, "the benchmark printed a result without the sources")
    shutil.rmtree(bare)
    print("ok  fails without the program's sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
