"""Property-based tests (hypothesis) over the collective library."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.collectives  # noqa: F401 - populate registry
from repro.collectives import SUM, list_algorithms, reference_results
from tests.helpers import run_collective_all_ranks

_slow = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


@_slow
@given(
    size=st.integers(min_value=1, max_value=12),
    count=st.integers(min_value=1, max_value=40),
    algo=st.sampled_from(list_algorithms("allreduce")),
    data=st.data(),
)
def test_allreduce_equals_sum_of_inputs(size, count, algo, data):
    inputs = [
        np.array(
            data.draw(
                st.lists(
                    st.integers(min_value=-(2**30), max_value=2**30),
                    min_size=count,
                    max_size=count,
                )
            ),
            dtype=np.int64,
        )
        for _ in range(size)
    ]
    results, _, args, _ = run_collective_all_ranks(
        "allreduce", algo, size, count=count, inputs=inputs
    )
    expected = np.sum(np.stack(inputs), axis=0)
    for rank in range(size):
        assert np.array_equal(results[rank], expected)


@_slow
@given(
    size=st.integers(min_value=1, max_value=10),
    count=st.integers(min_value=1, max_value=16),
    algo=st.sampled_from(list_algorithms("alltoall")),
)
def test_alltoall_is_matrix_transpose(size, count, algo):
    """Alltoall is exactly a block transpose: out[me][i] == in[i][me]."""
    results, _, args, inputs = run_collective_all_ranks(
        "alltoall", algo, size, count=count
    )
    for rank, expected in enumerate(reference_results("alltoall", inputs, args)):
        assert np.array_equal(results[rank], expected)


@_slow
@given(
    size=st.integers(min_value=1, max_value=12),
    root=st.data(),
    algo=st.sampled_from(list_algorithms("bcast")),
)
def test_bcast_delivers_root_buffer_everywhere(size, root, algo):
    root = root.draw(st.integers(min_value=0, max_value=size - 1))
    results, _, args, inputs = run_collective_all_ranks(
        "bcast", algo, size, count=12, root=root
    )
    for rank in range(size):
        assert np.array_equal(np.asarray(results[rank]), np.asarray(inputs[root]))


@_slow
@given(
    size=st.integers(min_value=2, max_value=10),
    algo=st.sampled_from(list_algorithms("reduce")),
)
def test_reduce_only_root_returns_data(size, algo):
    results, _, args, inputs = run_collective_all_ranks(
        "reduce", algo, size, count=size * 2, root=size - 1
    )
    expected = np.sum(np.stack(inputs), axis=0)
    for rank in range(size):
        if rank == size - 1:
            assert np.array_equal(results[rank], expected)
        else:
            assert results[rank] is None


@_slow
@given(
    size=st.integers(min_value=1, max_value=10),
    algo=st.sampled_from(list_algorithms("allgather")),
)
def test_allgather_collects_every_contribution(size, algo):
    results, _, args, inputs = run_collective_all_ranks(
        "allgather", algo, size, count=6
    )
    expected = np.stack(inputs)
    for rank in range(size):
        assert np.array_equal(results[rank], expected)


@_slow
@given(
    size=st.integers(min_value=1, max_value=10),
    algo=st.sampled_from(list_algorithms("reduce_scatter")),
)
def test_reduce_scatter_blocks_partition_the_reduction(size, algo):
    results, _, args, inputs = run_collective_all_ranks(
        "reduce_scatter", algo, size, count=4
    )
    total = np.sum(np.stack(inputs), axis=0)
    reassembled = np.concatenate([results[r] for r in range(size)])
    assert np.array_equal(reassembled, total)


@_slow
@given(
    size=st.integers(min_value=2, max_value=12),
    algo=st.sampled_from(list_algorithms("gather")),
    root=st.data(),
)
def test_gather_scatter_roundtrip(size, algo, root):
    """scatter(gather(x)) is the identity on per-rank blocks."""
    root = root.draw(st.integers(min_value=0, max_value=size - 1))
    results, _, args, inputs = run_collective_all_ranks(
        "gather", algo, size, count=5, root=root
    )
    gathered = results[root]
    assert np.array_equal(gathered, np.stack(inputs))
    scat_results, _, sargs, _ = run_collective_all_ranks(
        "scatter", "binomial", size, count=5, root=root,
        inputs=[gathered if r == root else np.zeros_like(gathered) for r in range(size)],
    )
    for rank in range(size):
        assert np.array_equal(scat_results[rank], inputs[rank])
