#!/usr/bin/env python3
"""Self-test of the benchmark at reduced size (about a minute).

    python3 perfbench/selftest.py

Checks that
  * every workload of BENCHMARK.json runs for one second at the reference
    seed, exits 0 with a correct result, and prints every end-to-end
    metric (trace 0) and every per-layer metric (trace 1) by name and with
    the unit BENCHMARK.json gives it, both in its report and in the final
    JSON line;
  * a corrupted reference answer makes the run exit 1 with correct=false;
  * without the program's sources the run exits non-zero and prints no
    result.
Scratch files go to .bench_out/selftest/.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_out" / "selftest"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def parse_result(lines):
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        raise AssertionError(f"result keys {sorted(result)}")
    return result


def check_metrics(workload, trace, specs):
    code, lines, err = run_bench(["--workload", workload, "--seed", "1",
                                  "--seconds", "1", "--trace", str(trace)])
    if code != 0:
        raise AssertionError(f"{workload} trace {trace}: exit {code}\n{err}")
    result = parse_result(lines)
    if not result["correct"] or result["attempted"] < 1:
        raise AssertionError(f"{workload} trace {trace}: {result}")
    metrics = result["metrics"]
    if set(metrics) != {s["name"] for s in specs}:
        raise AssertionError(f"{workload} trace {trace}: metrics {sorted(metrics)}")
    report = "\n".join(lines[:-1])
    for spec in specs:
        m = metrics[spec["name"]]
        if m["unit"] != spec["unit"] or not math.isfinite(m["value"]):
            raise AssertionError(f"{workload}: {spec['name']} = {m}")
        if not any(spec["name"] in ln and spec["unit"] in ln for ln in report.splitlines()):
            raise AssertionError(f"{workload}: report lacks {spec['name']} [{spec['unit']}]")
    return result


def check_corrupted_reference(workload):
    ref_dir = SCRATCH / "reference"
    shutil.rmtree(ref_dir, ignore_errors=True)
    shutil.copytree(HERE / "reference", ref_dir)
    path = ref_dir / f"{workload}.json"
    data = json.loads(path.read_text())
    entry = next(a for a in data["answers"] if a["status"] == "ok")
    entry["answer"] = {"corrupted": True}
    path.write_text(json.dumps(data))
    code, lines, _ = run_bench(["--workload", workload, "--seed", "1", "--seconds", "1",
                                "--trace", "0", "--reference", str(ref_dir)])
    result = parse_result(lines)
    if code != 1 or result["correct"]:
        raise AssertionError(f"corrupted {workload} reference passed: exit {code}, {result}")


def check_without_sources():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines, _ = run_bench(["--workload", "calculators", "--seed", "1",
                                "--seconds", "1", "--trace", "0"],
                               cwd=bare, script=bare / HERE.name / "run.py")
    if code == 0 or any(ln.startswith("{") for ln in lines):
        raise AssertionError(f"run without sources: exit {code}, output {lines}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    SCRATCH.mkdir(parents=True, exist_ok=True)
    for w in spec["workloads"]:
        check_metrics(w["name"], 0, spec["end_to_end"])
        check_metrics(w["name"], 1, spec["per_layer"])
        print(f"ok   {w['name']}: every metric printed with its unit")
    for w in spec["workloads"]:
        check_corrupted_reference(w["name"])
    print("ok   a corrupted reference answer fails every workload")
    check_without_sources()
    print("ok   without sources the run fails and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
