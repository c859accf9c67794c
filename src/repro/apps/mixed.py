"""Mixed-collective proxy application driven by a selection table.

Real applications interleave several collectives per timestep (e.g. a CFD
step: halo-ish Alltoall, a residual Allreduce, an occasional Bcast of
control data).  :class:`MixedProxyApp` models that and — unlike the
fixed-algorithm proxies — resolves each phase's algorithm through a
decision source, in priority order:

1. an explicit per-phase algorithm,
2. a deployed :class:`~repro.selection.table.SelectionTable` (the artifact
   a tuning campaign produces),
3. the Open-MPI-style fixed decision logic.

This closes the loop: trace -> tune -> deploy table -> run application.

The compute/phase loop itself lives in :mod:`repro.workloads.spec` — this
app routes through :func:`~repro.workloads.spec.iteration_body`, so it
supports every workload overlap mode (``sequential``/``split``/
``interleaved``) and vector-collective phases.  Phases are
:class:`~repro.workloads.spec.CollectivePhase` values; a full
:class:`~repro.workloads.spec.WorkloadSpec` can be run directly instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.selection.table import SelectionTable
from repro.sim.mpi import run_processes
from repro.sim.network import NetworkParams
from repro.sim.noise import NoiseModel
from repro.sim.platform import MachineSpec, Platform
from repro.workloads.runner import resolve_algorithm as _resolve
from repro.workloads.spec import (
    OVERLAP_MODES,
    CollectivePhase,
    WorkloadSpec,
    build_plan,
    iteration_body,
)


@dataclass
class MixedAppResult:
    runtime: float
    resolved: dict[str, str] = field(default_factory=dict)  # phase key -> algorithm
    phase_mpi_time: dict[str, float] = field(default_factory=dict)

    @property
    def dominant_phase(self) -> str:
        return max(self.phase_mpi_time, key=self.phase_mpi_time.get)


@dataclass
class MixedProxyApp:
    """compute -> phase_1 -> phase_2 -> ... loop with table-driven algorithms."""

    platform: Platform
    phases: tuple[CollectivePhase, ...]
    iterations: int = 10
    compute_per_iteration: float = 1e-3
    params: NetworkParams = field(default_factory=NetworkParams)
    noise: NoiseModel | None = None
    table: SelectionTable | None = None
    overlap: str = "sequential"

    def __post_init__(self) -> None:
        if not self.phases:
            raise ConfigurationError("need at least one phase")
        if self.iterations <= 0:
            raise ConfigurationError("iterations must be positive")
        if self.overlap not in OVERLAP_MODES:
            raise ConfigurationError(
                f"unknown overlap mode {self.overlap!r}; "
                f"expected one of {OVERLAP_MODES}"
            )

    @classmethod
    def from_machine(cls, spec: MachineSpec, phases, nodes=None,
                     cores_per_node=None, seed: int = 0, **kwargs):
        platform = spec.platform.scaled(nodes, cores_per_node)
        return cls(
            platform=platform,
            phases=tuple(phases),
            params=NetworkParams(**spec.network),
            noise=NoiseModel(spec.noise_profile, platform.num_ranks, seed=seed),
            **kwargs,
        )

    def resolve_algorithm(self, phase: CollectivePhase) -> str:
        """Priority: explicit -> selection table -> fixed decision logic."""
        return _resolve(phase, self.platform.num_ranks, self.table)

    def to_workload(self, name: str = "mixed") -> WorkloadSpec:
        """This app's loop as a declarative workload spec."""
        return WorkloadSpec(
            name=name,
            phases=tuple(self.phases),
            iterations=self.iterations,
            warmup=0,
            compute=self.compute_per_iteration,
            overlap=self.overlap,
            description="mixed-collective proxy application",
        )

    def run(self) -> MixedAppResult:
        p = self.platform.num_ranks
        plan = build_plan(self.phases, p, self.resolve_algorithm)
        resolved = {key: algorithm for key, _c, algorithm, _a, _i in plan}
        compute = self.compute_per_iteration
        iterations = self.iterations
        overlap = self.overlap

        def prog(ctx):
            me = ctx.rank
            my_plan = [(key, coll, algo, args, inputs[me])
                       for key, coll, algo, args, inputs in plan]
            phase_time = {key: 0.0 for key, *_ in plan}
            yield from ctx.barrier()
            start = ctx.time()
            for _it in range(iterations):
                yield from iteration_body(ctx, my_plan, compute, overlap,
                                          phase_time)
            return ctx.time() - start, phase_time

        run = run_processes(self.platform, prog, params=self.params,
                            noise=self.noise)
        runtimes = [r[0] for r in run.rank_results]
        phase_mpi = {key: float(np.mean([r[1][key] for r in run.rank_results]))
                     for key, *_ in plan}
        return MixedAppResult(
            runtime=float(max(runtimes)),
            resolved=resolved,
            phase_mpi_time=phase_mpi,
        )


__all__ = ["MixedProxyApp", "MixedAppResult"]
