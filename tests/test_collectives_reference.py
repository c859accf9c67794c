"""The batch oracle :func:`reference_results` against per-rank MPI definitions.

``reference_results`` builds every rank's result in one pass per family.
These tests pin it to a naive one-rank-at-a-time definition written out
here (values, dtype, shape, and ``None`` exactly where MPI delivers
nothing), pin the rank-order fold of reductions bit for bit, and check that
no two ranks' results share memory where the builder computes them.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.collectives import (
    VECTOR_FAMILIES,
    CollArgs,
    ReduceOp,
    SUM,
    VectorArgs,
    make_input,
    make_vector_input,
    reference_result,
    reference_results,
)

FAMILIES = ("bcast", "reduce", "allreduce", "alltoall", "allgather", "gather",
            "scatter", "reduce_scatter", "scan", "exscan", "barrier")
SIZES = (1, 2, 5, 8)
COUNT = 3
#: Families whose results are (views of) the input blocks themselves.
ALIASING = {"bcast", "scatter", *VECTOR_FAMILIES}


def naive(collective, inputs, args, rank):
    """Rank ``rank``'s result straight from the MPI definition."""
    size = len(inputs)

    def fold(contribs):
        acc = np.asarray(contribs[0]).copy()
        for contrib in contribs[1:]:
            acc = args.op(acc, np.asarray(contrib))
        return acc

    if collective == "bcast":
        return np.asarray(inputs[args.root])
    if collective in ("reduce", "gather", "gatherv") and rank != args.root:
        return None
    if collective in ("reduce", "allreduce"):
        return fold(inputs)
    if collective == "alltoall":
        return np.stack([np.asarray(inputs[src])[rank] for src in range(size)])
    if collective in ("allgather", "gather"):
        return np.stack([np.asarray(inputs[src]) for src in range(size)])
    if collective == "scatter":
        return np.asarray(inputs[args.root])[rank]
    if collective == "reduce_scatter":
        return fold(inputs)[rank * args.count:(rank + 1) * args.count]
    if collective == "scan":
        return fold(inputs[:rank + 1])
    if collective == "exscan":
        return fold(inputs[:rank]) if rank > 0 else None
    if collective == "barrier":
        return None
    if collective == "alltoallv":
        return [np.asarray(inputs[src][rank]) for src in range(size)]
    if collective in ("allgatherv", "gatherv"):
        return [np.asarray(inputs[src]) for src in range(size)]
    if collective == "scatterv":
        return np.asarray(inputs[args.root][rank])
    raise AssertionError(collective)


def assert_same(expected, got, where):
    if expected is None:
        assert got is None, where
        return
    if isinstance(expected, list):
        assert isinstance(got, list) and len(got) == len(expected), where
        for a, b in zip(expected, got):
            assert_same(a, b, where)
        return
    got = np.asarray(got)
    assert (got.dtype, got.shape) == (expected.dtype, expected.shape), where
    assert np.array_equal(got, expected), where


def _case(collective, size):
    """Inputs and args at a non-default root (the last rank)."""
    root = size - 1
    if collective in VECTOR_FAMILIES:
        rng = np.random.default_rng(size)
        shape = (size, size) if collective == "alltoallv" else (size,)
        counts = rng.integers(0, 4, shape).tolist()
        args = VectorArgs(counts=tuple(map(tuple, counts))
                          if collective == "alltoallv" else tuple(counts),
                          root=root)
        inputs = [make_vector_input(collective, r, size, args)
                  for r in range(size)]
    else:
        args = CollArgs(count=COUNT, msg_bytes=8.0 * COUNT, root=root)
        inputs = [make_input(collective, r, size, COUNT) for r in range(size)]
    return inputs, args


def _leaves(result):
    return result if isinstance(result, list) else [result]


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("collective", FAMILIES + VECTOR_FAMILIES)
def test_matches_per_rank_definition(collective, size):
    inputs, args = _case(collective, size)
    results = reference_results(collective, inputs, args)
    assert len(results) == size
    for rank, got in enumerate(results):
        where = f"{collective} p={size} rank={rank}"
        assert_same(naive(collective, inputs, args, rank), got, where)
        assert_same(got, reference_result(collective, inputs, args, rank),
                    where)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("collective", sorted(set(FAMILIES) - ALIASING))
def test_built_results_do_not_share_memory(collective, size):
    inputs, args = _case(collective, size)
    results = [r for r in reference_results(collective, inputs, args)
               if r is not None]
    for a, b in itertools.combinations(results, 2):
        assert not np.shares_memory(a, b), collective
    for result, block in itertools.product(results, inputs):
        assert not np.shares_memory(result, block), collective


@pytest.mark.parametrize("collective", ["reduce", "allreduce",
                                        "reduce_scatter", "scan", "exscan"])
def test_in_place_op_keeps_each_prefix(collective):
    """An operator that accumulates into its first argument must not let
    a later fold step overwrite an earlier rank's result."""
    iadd = ReduceOp("iadd", lambda a, b: np.add(a, b, out=a))
    inputs, args = _case(collective, 5)
    args = CollArgs(count=COUNT, msg_bytes=8.0 * COUNT, root=args.root, op=iadd)
    results = reference_results(collective, inputs, args)
    for rank, got in enumerate(results):
        assert_same(naive(collective, inputs, args, rank), got,
                    f"{collective} rank={rank}")


def test_vector_results_are_distinct_lists():
    inputs, args = _case("allgatherv", 5)
    results = reference_results("allgatherv", inputs, args)
    assert len({id(result) for result in results}) == len(results)


FSUB = ReduceOp("fsub", np.subtract, commutative=False)


@pytest.mark.parametrize("op", [SUM, FSUB], ids=lambda op: op.name)
@pytest.mark.parametrize("collective",
                         ["reduce", "allreduce", "reduce_scatter", "scan",
                          "exscan"])
def test_float_fold_is_rank_order_left_fold(collective, op):
    """Float reductions fold ``((x0 op x1) op x2) ...`` in rank order.

    The values make every other bracketing round differently, so the
    ``float.hex`` comparison pins the order, not just the value.
    """
    values = [1e16, 1.0, -1e16, 1.0, 3.0, 1e-3, -7.5, 0.1]
    size = len(values)
    block = 2 if collective == "reduce_scatter" else 1
    inputs = [np.full(size * block if collective == "reduce_scatter" else 1, v)
              for v in values]
    args = CollArgs(count=block, msg_bytes=8.0, op=op)
    py_op = {"sum": float.__add__, "fsub": float.__sub__}[op.name]

    def left_fold(vals):
        acc = vals[0]
        for v in vals[1:]:
            acc = py_op(acc, v)
        return acc

    right_fold = values[0]
    for v in reversed(values[1:]):
        right_fold = py_op(v, right_fold)
    assert left_fold(values).hex() != right_fold.hex()  # order is observable

    results = reference_results(collective, inputs, args)
    for rank, got in enumerate(results):
        if collective == "scan":
            want = left_fold(values[:rank + 1])
        elif collective == "exscan":
            if rank == 0:
                assert got is None
                continue
            want = left_fold(values[:rank])
        elif collective == "reduce" and rank != args.root:
            assert got is None
            continue
        else:
            want = left_fold(values)
        assert [float(x).hex() for x in got] == [want.hex()] * len(got)
