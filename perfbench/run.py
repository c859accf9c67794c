"""Run one workload of the end-to-end benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload tune_pipeline --seed 0 \\
        --seconds 10 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``tune_pipeline``,
``paper_skew``, ``private_port_scale``, ``serve_queries``.

``--trace 0`` prints the end-to-end metrics: set-up time, the median time
of one pass, peak resident memory and the median operation latency.  An
operation is one cell on ``tune_pipeline``, the skewed cell on
``paper_skew`` and ``private_port_scale``, and one query on
``serve_queries``.  Passes repeat until ``--seconds`` have elapsed (at
least one pass).  Times are scaled to the reference host's speed by the
reference loops of ``calibrate.py`` run around each timed interval; the
unscaled median pass time goes to standard error.

``--trace 1`` runs one plain pass and one traced pass and prints the
per-layer metrics that ``layer_map.json`` declares, each with the layer it
belongs to and the end-to-end metric and workload it should move.

Every pass is checked: simulated cells must reproduce the exact-engine
d-hat/d* digests recorded in ``digests.json`` bit for bit, the selection
service must answer each tuned coordinate with the campaign's pick, and
every served reply must equal the answer the same store gives in-process.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--scale toy`` runs every workload small (``selfcheck.py`` uses it).
The program is imported from ``src/`` of the checkout; without it the
benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up is repeated this many times per run; the median is reported.
SETUP_REPEATS = 3

#: End-to-end metrics and their units.
END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MiB",
    "op_p50_ms": "ms",
}


def layer_units() -> dict[str, str]:
    """Per-layer metric units, as ``layer_map.json`` declares them."""
    table = json.loads((HERE / "layer_map.json").read_text())
    return {name: entry["unit"] for name, entry in table["metrics"].items()}


def recorded_digests(scale: str, workload: str, variant: int) -> dict | None:
    table = json.loads((HERE / "digests.json").read_text())
    return table.get(scale, {}).get(workload, {}).get(str(variant))


def import_fresh(modules) -> None:
    """Import ``modules`` in a fresh interpreter."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            f"import {', '.join(modules)}")
    subprocess.run([sys.executable, "-c", code], check=True)


def timed_setups(workload, clock):
    """Set the workload up :data:`SETUP_REPEATS` times; keep the last.

    Returns the state and the median scaled set-up time.
    """
    setups = []
    state = None
    for i in range(SETUP_REPEATS):
        state, wall, scale = clock.call(workload.setup)
        setups.append(wall * scale)
        if i < SETUP_REPEATS - 1:
            workload.teardown(state)
    return state, statistics.median(setups)


def stop_resource_tracker() -> None:
    """Stop and reap the helper process that multiprocessing starts for
    process pools and spawned children (it would otherwise outlive this
    process briefly)."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class Checker:
    """Tallies attempted and failed operations over every pass."""

    def __init__(self, expected: dict | None, simulates: bool) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        if simulates and expected is None:
            self.problems.append(
                "no recorded digests for this workload, scale and variant; "
                "run perfbench/record_digests.py")

    def add(self, outcome) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems.extend(outcome.problems)
        if self.expected is None:
            return
        for label, want in self.expected.items():
            got = outcome.digests.get(label)
            if got != want:
                self.failed += 1
                self.problems.append(
                    f"cell {label}: digest {got} differs from the exact "
                    f"engine's {want}")
        for label in outcome.digests.keys() - self.expected.keys():
            self.failed += 1
            self.problems.append(f"cell {label} has no recorded digest")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def run_plain(workload, seconds: float) -> tuple[dict, list]:
    from calibrate import HostClock

    workload.prepare()
    clock = HostClock()
    state, setup_s = timed_setups(workload, clock)
    passes, pass_s, op_s, wall_s = [], [], [], []
    try:
        started = time.perf_counter()
        while not passes or time.perf_counter() - started < seconds:
            outcome, _, scale = clock.call(workload.run_pass, state)
            passes.append(outcome)
            wall_s.append(outcome.seconds)
            pass_s.append(outcome.seconds * scale)
            op_s.extend(x * scale for x in outcome.op_seconds)
    finally:
        workload.teardown(state)
    rss = peak_rss_mb()
    # After the memory reading: the import probes are children too.
    imports = []
    for _ in range(SETUP_REPEATS):
        _, wall, scale = clock.call(import_fresh, workload.modules)
        imports.append(wall * scale)
    print(f"perfbench: {len(passes)} passes, median wall "
          f"{statistics.median(wall_s):.6g} s unscaled", file=sys.stderr)
    metrics = {
        "setup_s": setup_s + statistics.median(imports),
        "run_s": statistics.median(pass_s),
        "peak_rss_mb": rss,
        "op_p50_ms": statistics.median(op_s) * 1e3,
    }
    return metrics, passes


def run_traced(workload) -> tuple[dict, list]:
    from layers import LayerTrace, layer_metrics

    workload.prepare()
    state = workload.setup()
    try:
        plain = workload.run_pass(state)
        before = workload.service_stats(state) \
            if hasattr(workload, "service_stats") else None
        with LayerTrace() as trace:
            traced = workload.run_pass(state)
        service = None
        if before is not None:
            service = workload.service_metrics(state, before, traced)
        metrics = layer_metrics(trace, traced, plain.seconds, service)
    finally:
        workload.teardown(state)
    return metrics, [plain, traced]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}; run from the root "
              "of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, make_workload, variant

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {', '.join(WORKLOADS)}")
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        workload = make_workload(args.workload, args.seed, args.scale,
                                 workdir)
        checker = Checker(
            recorded_digests(args.scale, args.workload, variant(args.seed))
            if workload.simulates else None,
            workload.simulates)
        if args.trace:
            values, passes = run_traced(workload)
            units = layer_units()
        else:
            values, passes = run_plain(workload, args.seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        stop_resource_tracker()
    for outcome in passes:
        checker.add(outcome)
    for problem in checker.problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units.items()}
    for name, entry in metrics.items():
        print(f"{args.workload} {name} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": checker.correct,
                      "attempted": checker.attempted,
                      "failed": checker.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
