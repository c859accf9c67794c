"""Toy-scale self-check of the benchmark.

Usage, from the root of a checkout::

    python3 perfbench/selfcheck.py

Checks that ``BENCHMARK.json`` names the workloads ``workloads.py`` runs,
the end-to-end metrics ``run.py`` prints and the per-layer metrics
``layer_map.json`` declares, with the same units and directions.  Then runs
every workload small, untraced and traced, and fails if an output line is
not the result object, an output is wrong, or a declared metric is missing
or carries another unit.  Last, it runs the benchmark from a directory
holding only ``BENCHMARK.json`` and the benchmark's files, where it must
fail without printing a result.  Exits 1 on the first kind of failure
found, listing every failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from run import END_TO_END_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def declaration_problems(spec: dict, layer_map: dict) -> list[str]:
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {list(WORKLOADS)}")
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if e2e != END_TO_END_UNITS:
        problems.append(f"BENCHMARK.json end_to_end {e2e} != run.py's "
                        f"{END_TO_END_UNITS}")
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    mapped = {name: (entry["unit"], entry["better"])
              for name, entry in layer_map["metrics"].items()}
    if declared != mapped:
        for name in sorted(declared.keys() | mapped.keys()):
            if declared.get(name) != mapped.get(name):
                problems.append(f"per-layer metric {name}: BENCHMARK.json "
                                f"{declared.get(name)} != layer_map.json "
                                f"{mapped.get(name)}")
    for name, entry in layer_map["metrics"].items():
        unknown = set(entry["moves"]) - e2e.keys()
        unknown |= set(entry["workloads"]) - set(WORKLOADS)
        if unknown:
            problems.append(f"layer_map.json {name} names unknown {unknown}")
    return problems


def run_problems(workload: str, trace: int, units: dict[str, str]) -> list[str]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "0.5", "--trace", str(trace),
           "--scale", "toy"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-2000:]}"]
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return [f"{where}: last output line is not JSON"]
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
        return problems
    if result["correct"] is not True or result["failed"] != 0 \
            or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} "
                        f"attempted={result['attempted']} "
                        f"failed={result['failed']}: {proc.stderr[-2000:]}")
    metrics = result["metrics"]
    for name, unit in units.items():
        if name not in metrics:
            problems.append(f"{where}: metric {name} missing")
        elif metrics[name].get("unit") != unit:
            problems.append(f"{where}: metric {name} has unit "
                            f"{metrics[name].get('unit')!r}, expected {unit!r}")
    for name in metrics.keys() - units.keys():
        problems.append(f"{where}: undeclared metric {name}")
    return problems


def bare_checkout_problems(spec: dict) -> list[str]:
    """Without the program source the benchmark must fail, printing no result."""
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            spec["command"] + ["--workload", spec["workloads"][0]["name"],
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["benchmark succeeded without the program source"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    problems = declaration_problems(spec, layer_map)
    if not problems:
        e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for workload in WORKLOADS:
            problems += run_problems(workload, 0, e2e)
            problems += run_problems(workload, 1, layers)
            print(f"selfcheck: {workload} done", flush=True)
    if not problems:
        problems += bare_checkout_problems(spec)
    for problem in problems:
        print(f"selfcheck: {problem}", file=sys.stderr)
    print("selfcheck: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
