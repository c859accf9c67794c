"""Convenience layer: build inputs, run algorithms, compute reference results.

These helpers give the benchmark harness, the applications, and the test
suite one uniform way to drive any registered collective:

* :func:`make_input` — deterministic per-rank input of the right shape,
* :func:`run_collective` — dispatch by (family, algorithm-name),
* :func:`reference_results` — every rank's semantically defined result,
  computed directly from all inputs in one pass (what MPI guarantees,
  independent of algorithm); :func:`reference_result` picks one rank's.
"""

from __future__ import annotations

import functools
import itertools
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.collectives.base import CollArgs, get_algorithm
from repro.collectives.vector import VectorArgs
from repro.obs.context import current as _obs_current
from repro.sim.mpi import ProcContext

#: Families taking :class:`VectorArgs` (irregular counts) instead of CollArgs.
VECTOR_FAMILIES = ("alltoallv", "allgatherv", "gatherv", "scatterv")


def make_input(
    collective: str, rank: int, size: int, count: int, dtype=np.int64
) -> np.ndarray:
    """Deterministic input for ``rank`` with the family's expected shape.

    Values are small distinct integers so reductions are exact and block
    provenance is recognizable in failures (value encodes rank and index).
    """
    if collective in ("reduce", "allreduce", "allgather", "gather", "scan", "exscan"):
        return (np.arange(count) + 1000 * rank + 1).astype(dtype)
    if collective in ("alltoall", "scatter"):
        base = np.arange(size * count).reshape(size, count)
        return (base + 100_000 * rank + 1).astype(dtype)
    if collective == "reduce_scatter":
        return (np.arange(size * count) + 1000 * rank + 1).astype(dtype)
    if collective == "bcast":
        return (np.arange(count) + 7).astype(dtype)
    if collective == "barrier":
        return np.zeros(0, dtype=dtype)
    raise ConfigurationError(f"unknown collective family {collective!r}")


def make_vector_input(
    collective: str, rank: int, size: int, args: VectorArgs, dtype=np.int64
):
    """Deterministic input for a vector collective following its data convention.

    Values encode ``(source rank, destination block, index)`` so misplaced
    blocks are recognizable in failures, mirroring :func:`make_input`.
    """
    if collective == "alltoallv":
        counts = args.matrix(size)
        return [
            (np.arange(counts[rank][dst]) + 100_000 * rank + 1000 * dst + 1)
            .astype(dtype)
            for dst in range(size)
        ]
    if collective in ("allgatherv", "gatherv"):
        counts = args.vector(size)
        return (np.arange(counts[rank]) + 1000 * rank + 1).astype(dtype)
    if collective == "scatterv":
        counts = args.vector(size)
        if rank != args.root:
            return None
        return [
            (np.arange(counts[dst]) + 1000 * dst + 1).astype(dtype)
            for dst in range(size)
        ]
    raise ConfigurationError(f"unknown vector collective family {collective!r}")


def run_collective(ctx: ProcContext, collective: str, algorithm: str, args: CollArgs,
                   data, label: str | None = None):
    """Generator: run one collective algorithm on this rank; returns its result.

    When an observability session is open this is the canonical
    instrumentation point: it counts the call and records one
    arrival-to-exit span on the rank's virtual-time track — which is what
    makes process arrival patterns readable straight off the trace.

    When the engine carries a flow runtime (``--engine-mode hybrid|flow``,
    see :mod:`repro.sim.flow`) and the schedule declares a phase plan
    eligible under the dispatch rules, the call is collapsed into one flow
    batch instead of per-message simulation; the span/counter semantics are
    identical either way.

    ``label`` overrides the activity string attached to fabric link records
    (default ``"{collective}/{algorithm}"``); multi-job runs use it to keep
    per-job traffic apart in link attribution.  The span name is always the
    plain ``"{collective}/{algorithm}"`` so call reconstruction is uniform.
    """
    info = get_algorithm(collective, algorithm)
    engine = ctx.engine
    activity = label if label is not None else f"{collective}/{algorithm}"
    engine.activity = activity
    fiber = getattr(ctx, "_fiber", None)
    prev_activity = fiber.activity if fiber is not None else None
    if fiber is not None:
        fiber.activity = activity
    try:
        body = None
        runtime = engine.flow_runtime
        if runtime is not None:
            # A flow batch hands every rank its entry of one
            # reference_results call over all the batch's inputs.
            body = runtime.dispatch(
                ctx, collective, algorithm, args, data,
                lambda inputs: reference_results(collective, inputs, args),
            )
        if body is None:
            body = info.fn(ctx, args, data)
        octx = _obs_current()
        if not octx.enabled:
            return (yield from body)
        octx.metrics.counter(f"collective.calls.{collective}.{algorithm}").inc()
        if not octx.record_spans:
            return (yield from body)
        arrival = ctx.time()
        result = yield from body
        octx.record_rank_span(
            f"{collective}/{algorithm}", getattr(ctx, "obs_rank", ctx.rank),
            arrival, ctx.time(), args={"msg_bytes": args.msg_bytes},
        )
        return result
    finally:
        if fiber is not None:
            fiber.activity = prev_activity
            engine.activity = prev_activity


def _fold(op, inputs: Sequence) -> np.ndarray:
    """The rank-order left fold ``op(...op(op(x0, x1), x2)..., x[p-1])``."""
    return functools.reduce(
        op, map(np.asarray, inputs[1:]), np.asarray(inputs[0]).copy()
    )


def _prefix_folds(op, inputs: Sequence) -> list[np.ndarray]:
    """Every rank's inclusive prefix of :func:`_fold`, each its own copy."""
    running = itertools.accumulate(
        map(np.asarray, inputs[1:]), op, initial=np.asarray(inputs[0]).copy()
    )
    return [acc.copy() for acc in running]


def _at_root(value, root: int, size: int) -> list:
    """``value`` at rank ``root``, ``None`` at every other rank."""
    out = [None] * size
    out[root] = value
    return out


def reference_results(collective: str, inputs: Sequence,
                      args: CollArgs | VectorArgs) -> list:
    """Every rank's MPI-semantics result of ``collective``, built in one pass.

    ``inputs`` holds every rank's input (index = rank); entry ``r`` of the
    returned list is rank ``r``'s result, ``None`` where MPI delivers
    nothing.  Results built here never share memory between ranks, while
    bcast, scatter and the vector families hand out the input blocks
    themselves (or views of them).  This is the oracle every algorithm is
    validated against, and the result the flow fast path distributes.
    """
    size = len(inputs)
    root = args.root
    if collective == "bcast":
        return [np.asarray(inputs[root])] * size
    if collective == "reduce":
        return _at_root(_fold(args.op, inputs), root, size)
    if collective == "allreduce":
        acc = _fold(args.op, inputs)
        return [acc.copy() for _ in range(size)]
    if collective == "alltoall":
        return list(np.stack(inputs, axis=1))
    if collective == "allgather":
        stacked = np.stack(inputs)
        return [stacked.copy() for _ in range(size)]
    if collective == "gather":
        return _at_root(np.stack(inputs), root, size)
    if collective == "scatter":
        return list(np.asarray(inputs[root]))
    if collective == "reduce_scatter":
        total, n = _fold(args.op, inputs), args.count
        return [total[r * n:(r + 1) * n] for r in range(size)]
    if collective == "scan":
        return _prefix_folds(args.op, inputs)
    if collective == "exscan":
        return [None] + _prefix_folds(args.op, inputs)[:-1]
    if collective == "barrier":
        return [None] * size
    if collective == "alltoallv":
        return [list(map(np.asarray, blocks)) for blocks in zip(*inputs)]
    if collective == "allgatherv":
        blocks = [np.asarray(block) for block in inputs]
        return [list(blocks) for _ in range(size)]
    if collective == "gatherv":
        return _at_root([np.asarray(block) for block in inputs], root, size)
    if collective == "scatterv":
        return [np.asarray(block) for block in inputs[root]]
    raise ConfigurationError(f"unknown collective family {collective!r}")


def reference_result(collective: str, inputs: Sequence,
                     args: CollArgs | VectorArgs, rank: int):
    """Rank ``rank``'s entry of :func:`reference_results`."""
    return reference_results(collective, inputs, args)[rank]


__all__ = [
    "VECTOR_FAMILIES",
    "make_input",
    "make_vector_input",
    "run_collective",
    "reference_result",
    "reference_results",
]
