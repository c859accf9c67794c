"""Run a :class:`WorkloadSpec`: application loop + per-phase tuning cells.

A workload run has two halves:

1. **Loop simulation** — the whole workload (warmup + measured iterations,
   compute, overlap mode, optional arrival-pattern skew) runs as one
   simulated program per rank (:func:`~repro.workloads.spec.workload_loop`),
   producing the end-to-end runtime, per-phase MPI time, and — under an
   observability session — the trace that the replay frontend can later
   reconstruct.
2. **Cell fan-out** — every phase becomes a :class:`~repro.bench.executor.CellSpec`
   executed through the shared :class:`~repro.bench.executor.CellExecutor`,
   so workload runs hit the same cache, obs-session merge, and tuning-store
   ingest as campaign sweeps.  This is how the zoo grows the store's
   scenario coverage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.bench.executor import CellExecutor, CellSpec
from repro.bench.micro import MicroBenchmark
from repro.bench.results import BenchResult
from repro.collectives.tuned import fixed_decision
from repro.obs.context import current as _obs_current
from repro.patterns.generator import ArrivalPattern
from repro.selection.table import SelectionTable
from repro.sim.mpi import run_processes
from repro.sim.noise import NoiseModel
from repro.workloads.spec import WorkloadSpec, build_plan, workload_loop


def resolve_algorithm(phase, num_ranks: int,
                      table: SelectionTable | None = None) -> str:
    """Priority: explicit phase algorithm → selection table → fixed rules."""
    if phase.algorithm is not None:
        return phase.algorithm
    if table is not None:
        try:
            return table.lookup(phase.collective, num_ranks,
                                phase.effective_msg_bytes)
        except ConfigurationError:
            pass  # no rules for this collective/comm size: fall through
    return fixed_decision(phase.collective, num_ranks,
                          phase.effective_msg_bytes)


@dataclass
class WorkloadRunResult:
    """Everything one workload run produced."""

    spec: WorkloadSpec
    runtime: float
    resolved: dict[str, str] = field(default_factory=dict)
    phase_mpi_time: dict[str, float] = field(default_factory=dict)
    cell_specs: list[CellSpec] = field(default_factory=list)
    cell_results: list[BenchResult] = field(default_factory=list)

    @property
    def dominant_phase(self) -> str:
        return max(self.phase_mpi_time, key=self.phase_mpi_time.get)

    def to_dict(self) -> dict:
        return {
            "workload": self.spec.name,
            "runtime": self.runtime,
            "resolved": self.resolved,
            "phase_mpi_time": self.phase_mpi_time,
            "cells": [r.to_dict() for r in self.cell_results],
        }


def run_workload(
    spec: WorkloadSpec,
    bench: MicroBenchmark,
    table: SelectionTable | None = None,
    executor: CellExecutor | None = None,
    pattern: ArrivalPattern | None = None,
    label: str | None = None,
    cells: bool = True,
) -> WorkloadRunResult:
    """Execute ``spec`` on ``bench``'s platform; see the module docstring.

    ``pattern`` overrides the spec's embedded arrival pattern.  ``label``
    namespaces link attribution (used by the contention runner).  With
    ``cells=False`` only the loop simulation runs (no executor fan-out).
    """
    p = bench.num_ranks
    if pattern is None and spec.pattern is not None:
        pattern = spec.pattern.build()
    if pattern is not None and pattern.num_ranks != p:
        raise ConfigurationError(
            f"workload pattern has {pattern.num_ranks} ranks, platform has {p}"
        )
    plan = build_plan(spec.phases, p, lambda ph: resolve_algorithm(ph, p, table))
    resolved = {key: algorithm for key, _c, algorithm, _a, _i in plan}
    noise = (NoiseModel(bench.noise_profile, p, seed=bench.seed)
             if bench.noise_profile != "none" else None)
    # The arrival pattern skews each rank's entry into the measured loop;
    # the precise per-pattern measurement happens in the phase cells below,
    # where MicroBenchmark imposes skews per repetition.
    skews = pattern.skews if pattern is not None else None
    octx = _obs_current()
    with octx.wall_span(
        "workload.run", track="workload",
        args={"workload": spec.name, "phases": len(spec.phases),
              "iterations": spec.iterations, "overlap": spec.overlap},
    ):
        run = run_processes(
            bench.platform,
            lambda ctx: workload_loop(ctx, spec, plan, skews, label),
            params=bench.params, noise=noise,
        )
    if octx.enabled:
        octx.metrics.counter("workload.runs", {"workload": spec.name}).inc()
    runtime = float(max(r[0] for r in run.rank_results))
    phase_mpi = {
        key: float(np.mean([r[1][key] for r in run.rank_results]))
        for key, *_ in plan
    }

    result = WorkloadRunResult(
        spec=spec, runtime=runtime, resolved=resolved,
        phase_mpi_time=phase_mpi,
    )
    if not cells:
        return result
    for ph, (key, collective, algorithm, _args, _inputs) in zip(spec.phases, plan):
        if ph.is_vector:
            kwargs = {"counts": ph.counts, "item_bytes": ph.item_bytes}
        else:
            from repro.collectives.ops import get_op

            kwargs = {"op": get_op(ph.op)}
        result.cell_specs.append(CellSpec.from_bench(
            bench, collective, algorithm, ph.effective_msg_bytes, pattern,
            **kwargs,
        ))
    own_executor = executor is None
    if own_executor:
        executor = CellExecutor.from_env()
    try:
        result.cell_results = executor.run_cells(result.cell_specs)
    finally:
        if own_executor:
            executor.close()
    return result


__all__ = ["WorkloadRunResult", "resolve_algorithm", "run_workload"]
