"""Generic iterative proxy application over the simulated MPI layer.

An :class:`IterativeProxyApp` alternates noise-perturbed compute phases with
collective calls — the skeleton of bulk-synchronous applications like the
NAS benchmarks.  It runs as a warmup-free ``split``-overlap workload (one
phase per collective call) through the shared per-rank loop,
:func:`~repro.workloads.spec.workload_loop`.  Per-rank compute and MPI time
are accounted separately, standing in for the paper's mpisee profiling, and
every run records its collective calls as obs rank spans, returned as a
:class:`~repro.obs.analysis.TraceAnalysis` for arrival-pattern extraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.errors import ConfigurationError
from repro.obs.analysis import TraceAnalysis
from repro.sim.mpi import run_processes
from repro.sim.network import NetworkParams
from repro.sim.noise import NoiseModel
from repro.sim.platform import MachineSpec, Platform
from repro.workloads.spec import (
    CollectivePhase,
    WorkloadSpec,
    build_plan,
    workload_loop,
)


@dataclass
class AppResult:
    """Accounting from one application run (the mpisee-analogue profile)."""

    runtime: float
    rank_compute_time: np.ndarray = field(repr=False)
    rank_mpi_time: np.ndarray = field(repr=False)
    collective_calls: int = 0
    #: The run's recorded collective calls (one rank span per rank per
    #: call) — the source of the Section V-A arrival-pattern reconstruction.
    trace: TraceAnalysis | None = field(default=None, repr=False, compare=False)

    @property
    def compute_time(self) -> float:
        """Critical-path compute estimate: the slowest rank's compute total."""
        return float(self.rank_compute_time.max())

    @property
    def mpi_time(self) -> float:
        """Mean time spent inside collectives across ranks."""
        return float(self.rank_mpi_time.mean())

    @property
    def mpi_fraction(self) -> float:
        return self.mpi_time / self.runtime if self.runtime > 0 else 0.0


@dataclass
class IterativeProxyApp:
    """compute -> collective [-> collective ...] loop, repeated ``iterations`` times.

    Parameters
    ----------
    collective, algorithm, msg_bytes:
        The dominant collective and the algorithm under study.
    compute_per_iteration:
        Nominal seconds of compute per iteration (split evenly across the
        ``calls_per_iteration`` collective calls).
    calls_per_iteration:
        Collective calls per iteration (FT performs multiple transposes).
    noise:
        The machine noise model; its per-rank persistent speed factors are
        what create the application's characteristic arrival pattern.
    """

    platform: Platform
    collective: str
    algorithm: str
    msg_bytes: float
    iterations: int = 20
    calls_per_iteration: int = 2
    compute_per_iteration: float = 2e-3
    count: int = 64
    params: NetworkParams = field(default_factory=NetworkParams)
    noise: NoiseModel | None = None
    name: str = "proxy"

    def __post_init__(self) -> None:
        if self.iterations <= 0 or self.calls_per_iteration <= 0:
            raise ConfigurationError("iterations and calls_per_iteration must be positive")
        if self.compute_per_iteration < 0:
            raise ConfigurationError("compute_per_iteration must be non-negative")

    @classmethod
    def from_machine(cls, spec: MachineSpec, nodes: int | None = None,
                     cores_per_node: int | None = None, seed: int = 0, **kwargs):
        platform = spec.platform.scaled(nodes, cores_per_node)
        noise = NoiseModel(spec.noise_profile, platform.num_ranks, seed=seed)
        return cls(platform=platform, params=NetworkParams(**spec.network),
                   noise=noise, **kwargs)

    def run(self) -> AppResult:
        """Execute the proxy app; returns profile accounting and its trace.

        The program runs in a nested span-recording obs session, whose
        metrics, engine stats and spans then fold into the enclosing session
        (if any) the way the executor folds a cell's telemetry.
        """
        phase = CollectivePhase(self.collective, self.msg_bytes,
                                count=self.count, algorithm=self.algorithm)
        spec = WorkloadSpec(
            name=self.name, phases=(phase,) * self.calls_per_iteration,
            iterations=self.iterations, warmup=0,
            compute=self.compute_per_iteration, overlap="split",
        )
        plan = build_plan(spec.phases, self.platform.num_ranks)

        outer = obs.current()
        with obs.session(meta={"app": self.name, "collective": self.collective,
                               "algorithm": self.algorithm},
                         record_spans=True) as actx:
            run = run_processes(
                self.platform, lambda ctx: workload_loop(ctx, spec, plan),
                params=self.params, noise=self.noise,
            )
            trace = TraceAnalysis.from_context(actx)
            telemetry = obs.capture_telemetry(actx) if outer.enabled else None
        if telemetry is not None:
            obs.merge_telemetry(outer, telemetry, name=f"app/{self.name}")
        runtimes = np.array([r[0] for r in run.rank_results])
        return AppResult(
            runtime=float(runtimes.max()),
            rank_compute_time=np.array([r[2] for r in run.rank_results]),
            rank_mpi_time=np.array([sum(r[1].values())
                                    for r in run.rank_results]),
            collective_calls=spec.iterations * len(spec.phases),
            trace=trace,
        )
