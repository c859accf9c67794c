"""Self-check harness: validate every registered algorithm against MPI semantics.

Intended for users extending the library with new algorithms: one call
sweeps every registered algorithm over a grid of rank counts (including
awkward non-powers-of-two), roots, and segmentation settings, comparing the
produced data against :func:`repro.collectives.api.reference_results`.
Exposed on the CLI as ``repro-mpi selfcheck``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.collectives.api import make_input, reference_results
from repro.collectives.base import CollArgs, get_algorithm, list_algorithms, list_collectives
from repro.sim.mpi import run_processes
from repro.sim.platform import Platform

#: Families with data semantics to validate (barrier has none).
DATA_FAMILIES = (
    "bcast", "reduce", "allreduce", "alltoall", "allgather",
    "gather", "scatter", "reduce_scatter", "scan", "exscan",
)
ROOTED = ("bcast", "reduce", "gather", "scatter")


@dataclass
class ValidationReport:
    """Outcome of a self-check sweep."""

    cases_run: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        status = "OK" if self.ok else f"{len(self.failures)} FAILURES"
        lines = [f"self-check: {self.cases_run} cases — {status}"]
        lines.extend(f"  FAIL {failure}" for failure in self.failures[:20])
        if len(self.failures) > 20:
            lines.append(f"  ... and {len(self.failures) - 20} more")
        return "\n".join(lines)


def _check_one(collective: str, algorithm: str, size: int, count: int,
               root: int, segment_bytes: float | None) -> str | None:
    """Run one case; return a failure description or None."""
    nodes = max(1, (size + 3) // 4)
    platform = Platform("selfcheck", nodes=nodes, cores_per_node=4)
    args = CollArgs(
        count=count,
        msg_bytes=float(1 << 20) if segment_bytes else float(count * 8),
        root=root,
        segment_bytes=segment_bytes,
    )
    inputs = [make_input(collective, r, size, count) for r in range(size)]
    info = get_algorithm(collective, algorithm)

    def prog(ctx):
        result = yield from info.fn(ctx, args, inputs[ctx.rank])
        return result

    try:
        run = run_processes(platform, prog, num_ranks=size)
    except Exception as exc:  # noqa: BLE001 - report, don't crash the sweep
        return (f"{collective}/{algorithm} p={size} root={root} "
                f"seg={segment_bytes}: raised {type(exc).__name__}: {exc}")
    for rank, expected in enumerate(reference_results(collective, inputs, args)):
        got = run.rank_results[rank]
        if expected is None:
            if got is not None:
                return (f"{collective}/{algorithm} p={size} rank={rank}: "
                        f"expected None, got data")
        elif got is None or not np.array_equal(np.asarray(got), expected):
            return (f"{collective}/{algorithm} p={size} root={root} "
                    f"seg={segment_bytes} rank={rank}: wrong data")
    return None


def validate_all(
    sizes: tuple[int, ...] = (1, 2, 3, 5, 8, 13),
    count: int = 16,
    quick: bool = False,
) -> ValidationReport:
    """Validate every registered data-moving algorithm; returns a report."""
    report = ValidationReport()
    sizes = sizes[:3] if quick else sizes
    for collective in list_collectives():
        if collective not in DATA_FAMILIES:
            continue
        for algorithm in list_algorithms(collective):
            for size in sizes:
                roots = (0, size - 1) if collective in ROOTED and size > 1 else (0,)
                for root in roots:
                    for segment_bytes in (None, float(1 << 17)):
                        report.cases_run += 1
                        failure = _check_one(
                            collective, algorithm, size, count, root, segment_bytes
                        )
                        if failure:
                            report.failures.append(failure)
    return report


__all__ = ["ValidationReport", "validate_all"]
