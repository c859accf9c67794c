"""Semantic correctness of every registered collective algorithm.

Each algorithm is validated against :func:`reference_results` (the MPI
standard's definition computed directly from all inputs) across power-of-two
and awkward rank counts, different roots, and segmented configurations.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.collectives  # noqa: F401 - populate the registry
from repro.collectives import MAX, SUM, list_algorithms, reference_results
from tests.helpers import run_collective_all_ranks

SIZES = [1, 2, 3, 4, 5, 7, 8, 13, 16]
ROOTED = {"bcast", "reduce", "gather", "scatter"}


def check(collective, algorithm, size, count=8, root=0, op=None, **kw):
    results, _, args, inputs = run_collective_all_ranks(
        collective, algorithm, size, count=count, root=root, op=op, **kw
    )
    for rank, expected in enumerate(reference_results(collective, inputs, args)):
        got = results[rank]
        if expected is None:
            assert got is None, f"rank {rank} should return None, got {got!r}"
        else:
            assert got is not None, f"rank {rank} returned None, expected data"
            assert np.array_equal(np.asarray(got), expected), (
                f"{collective}/{algorithm} p={size} rank={rank}:\n"
                f"expected {expected}\ngot      {np.asarray(got)}"
            )


def all_cases():
    cases = []
    for coll in ("bcast", "reduce", "allreduce", "alltoall",
                 "allgather", "gather", "scatter", "reduce_scatter",
                 "scan", "exscan"):
        for algo in list_algorithms(coll):
            cases.append((coll, algo))
    return cases


@pytest.mark.parametrize("collective,algorithm", all_cases())
@pytest.mark.parametrize("size", SIZES)
def test_algorithm_matches_reference(collective, algorithm, size):
    check(collective, algorithm, size, count=16)


@pytest.mark.parametrize("collective,algorithm", all_cases())
def test_algorithm_nonzero_root_or_large(collective, algorithm):
    if collective in ROOTED:
        check(collective, algorithm, size=6, count=16, root=3)
        check(collective, algorithm, size=8, count=16, root=7)
    else:
        check(collective, algorithm, size=6, count=32)


@pytest.mark.parametrize("collective", ["bcast", "reduce", "allreduce"])
def test_segmented_paths(collective):
    """Force multiple segments: big modeled size, small segment size."""
    for algo in list_algorithms(collective):
        check(
            collective,
            algo,
            size=5,
            count=24,
            msg_bytes=1 << 20,
            segment_bytes=1 << 17,  # 8 segments
        )


@pytest.mark.parametrize(
    "collective", ["reduce", "allreduce", "reduce_scatter"]
)
def test_max_operator(collective):
    for algo in list_algorithms(collective):
        check(collective, algo, size=6, count=16, op=MAX)


def _affine_compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Compose affine maps stored as interleaved (m, c) pairs: b after a.

    Associative but non-commutative — exactly the class of operators MPI
    defines a reduction order for.
    """
    m1, c1 = a[0::2], a[1::2]
    m2, c2 = b[0::2], b[1::2]
    out = np.empty_like(a)
    out[0::2] = m1 * m2
    out[1::2] = c1 * m2 + c2
    return out


@pytest.mark.parametrize("algorithm", ["linear", "in_order_binary"])
def test_reduce_order_sensitive_algorithms_combine_in_rank_order(algorithm):
    """Non-commutative (but associative) op must reduce in ascending rank order."""
    from repro.collectives.ops import ReduceOp

    affine = ReduceOp("affine", _affine_compose, commutative=False)
    inputs = [np.array([r + 2, r + 1, r + 3, 2 * r + 1], dtype=np.int64) for r in range(7)]
    results, _, args, _ = run_collective_all_ranks(
        "reduce", algorithm, size=7, count=4, op=affine, inputs=inputs
    )
    expected = inputs[0].copy()
    for contrib in inputs[1:]:
        expected = affine(expected, contrib)
    # Sanity: a wrong order would give a different value.
    backwards = inputs[-1].copy()
    for contrib in reversed(inputs[:-1]):
        backwards = affine(backwards, contrib)
    assert not np.array_equal(expected, backwards)
    assert np.array_equal(results[0], expected)


def test_tree_algorithms_reject_non_commutative_ops():
    from repro.errors import ConfigurationError
    from repro.collectives.ops import ReduceOp

    weird = ReduceOp("weird", lambda a, b: 2 * a + b, commutative=False)
    with pytest.raises(ConfigurationError):
        run_collective_all_ranks("reduce", "binomial", size=4, op=weird)
    with pytest.raises(ConfigurationError):
        run_collective_all_ranks("allreduce", "ring", size=4, op=weird)


@pytest.mark.parametrize("algorithm", list_algorithms("barrier"))
@pytest.mark.parametrize("size", [1, 2, 5, 8, 12])
def test_barrier_completes_and_synchronizes(algorithm, size):
    """After a barrier, no rank's exit time precedes another rank's entry."""
    from repro.collectives import CollArgs, run_collective
    from repro.sim.mpi import run_processes
    from repro.sim.platform import Platform

    args = CollArgs(count=1, msg_bytes=1.0)

    def prog(ctx):
        # Staggered arrivals: rank r arrives at r milliseconds.
        yield ctx.sleep(ctx.rank * 1e-3)
        entry = ctx.time()
        yield from run_collective(ctx, "barrier", algorithm, args, None)
        return entry, ctx.time()

    nodes = max(1, (size + 3) // 4)
    run = run_processes(Platform("t", nodes=nodes, cores_per_node=4), prog, num_ranks=size)
    entries = [r[0] for r in run.rank_results]
    exits = [r[1] for r in run.rank_results]
    assert min(exits) >= max(entries), f"{algorithm}: barrier exit before last entry"
