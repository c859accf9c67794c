"""Micro-benchmarks of the simulation substrate itself.

These track the engine's throughput (simulated messages per second of wall
time) and the cost of the clock-sync stack — useful when tuning the DES hot
paths, and a regression guard for the experiment suite's overall runtime.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.clocks import ClockSet
from repro.clocks.sync import sync_clocks
from repro.collectives import CollArgs, make_input, run_collective
from repro.sim.flow import FlowConfig
from repro.sim.mpi import run_processes
from repro.sim.platform import Platform

# Aligned entries (single collective from t=0), no payload materialization:
# the scale benches time the engine, not result building.
_HYBRID = FlowConfig(mode="hybrid", declared_spread=0.0, payloads=False)

scale_only = pytest.mark.skipif(
    os.environ.get("REPRO_BENCH_SCALE") != "1",
    reason="set REPRO_BENCH_SCALE=1 for the largest-scale engine benches",
)


def _flow_collective_job(plat, collective, algorithm, args, flow):
    """A zero-copy collective runner: one shared zeros input for all ranks.

    With ``payloads=False`` the flow path never materializes results, so a
    single shared input array serves every rank without O(p^2) memory.
    """
    p = plat.num_ranks
    shape = (p, args.count) if collective == "alltoall" else (args.count,)
    data = np.zeros(shape)

    def prog(ctx):
        yield from run_collective(ctx, collective, algorithm, args, data)

    def job():
        return run_processes(plat, prog, flow=flow)

    return job


def bench_engine_alltoall_throughput(benchmark):
    """Simulate a 64-rank linear Alltoall (~4k messages) repeatedly."""
    plat = Platform("t", nodes=16, cores_per_node=4)
    p = plat.num_ranks
    args = CollArgs(count=8, msg_bytes=1024.0)
    inputs = [make_input("alltoall", r, p, 8) for r in range(p)]

    def prog(ctx):
        yield from run_collective(ctx, "alltoall", "basic_linear", args, inputs[ctx.rank])

    def job():
        return run_processes(plat, prog)

    result = benchmark(job)
    assert result.events_processed > p * (p - 1)


def bench_engine_tree_collective_throughput(benchmark):
    """A 256-rank binomial broadcast — deep-tree scheduling pressure."""
    plat = Platform("t", nodes=32, cores_per_node=8)
    p = plat.num_ranks
    args = CollArgs(count=4, msg_bytes=8.0)
    inputs = [make_input("bcast", r, p, 4) for r in range(p)]

    def prog(ctx):
        yield from run_collective(ctx, "bcast", "binomial", args, inputs[ctx.rank])

    def job():
        return run_processes(plat, prog)

    result = benchmark(job)
    assert result.final_time > 0


def bench_engine_alltoall_1024(benchmark):
    """The old scale ceiling: a 1024-rank linear Alltoall (~1M messages),
    routed through the hybrid flow engine.  The aligned single-collective
    program is provably flow-eligible, so the whole exchange collapses to
    one analytic batch — bit-identical exit times at a fraction of the
    exact engine's ~9 s (see docs/performance.md)."""
    plat = Platform("t", nodes=128, cores_per_node=8)
    p = plat.num_ranks
    args = CollArgs(count=4, msg_bytes=1024.0)
    job = _flow_collective_job(plat, "alltoall", "basic_linear", args, _HYBRID)

    result = benchmark.pedantic(job, rounds=1, iterations=1)
    # Flow engagement: only start/resume events remain, not ~p^2 deliveries.
    assert 0 < result.events_processed <= 4 * p
    assert result.final_time > 0


def bench_engine_alltoall_4096(benchmark):
    """A 4096-rank pairwise Alltoall (~16.8M messages) through the hybrid
    flow engine — the CI scale smoke target.  Single-core nodes keep every
    port single-owner, so the stepped replay is bit-exact at any skew and
    memory stays O(p) per step."""
    plat = Platform("t", nodes=4096, cores_per_node=1)
    p = plat.num_ranks
    args = CollArgs(count=4, msg_bytes=1024.0)
    job = _flow_collective_job(plat, "alltoall", "pairwise", args, _HYBRID)

    result = benchmark.pedantic(job, rounds=1, iterations=1)
    assert 0 < result.events_processed <= 4 * p
    assert result.final_time > 0


def bench_engine_alltoall_8192(benchmark):
    """An 8192-rank pairwise Alltoall (~67M messages) through the hybrid
    engine.  Single-core nodes keep every port single-owner, so the stepped
    replay is bit-exact at any skew; memory stays O(p) per step."""
    plat = Platform("t", nodes=8192, cores_per_node=1)
    p = plat.num_ranks
    args = CollArgs(count=4, msg_bytes=1024.0)
    job = _flow_collective_job(plat, "alltoall", "pairwise", args, _HYBRID)

    result = benchmark.pedantic(job, rounds=1, iterations=1)
    assert 0 < result.events_processed <= 4 * p
    assert result.final_time > 0


def bench_engine_allreduce_4096(benchmark):
    """A 4096-rank ring Allreduce (reduce-scatter + allgather, ~33.5M
    messages) through the hybrid engine on an SMP platform."""
    plat = Platform("t", nodes=512, cores_per_node=8)
    p = plat.num_ranks
    args = CollArgs(count=p, msg_bytes=float(8 * p))
    job = _flow_collective_job(plat, "allreduce", "ring", args, _HYBRID)

    result = benchmark.pedantic(job, rounds=1, iterations=1)
    assert 0 < result.events_processed <= 4 * p
    assert result.final_time > 0


def bench_engine_allreduce_8192(benchmark):
    """An 8192-rank ring Allreduce (~134M messages) through the hybrid
    engine."""
    plat = Platform("t", nodes=1024, cores_per_node=8)
    p = plat.num_ranks
    args = CollArgs(count=p, msg_bytes=float(8 * p))
    job = _flow_collective_job(plat, "allreduce", "ring", args, _HYBRID)

    result = benchmark.pedantic(job, rounds=1, iterations=1)
    assert 0 < result.events_processed <= 4 * p
    assert result.final_time > 0


def bench_engine_alltoall_512_results(benchmark):
    """A 512-rank pairwise Alltoall through the hybrid engine with payloads
    on — the result-build layer of flow resolve.  Every other hybrid bench
    runs ``payloads=False``; here each rank gets its reference result, built
    once for the whole batch."""
    plat = Platform("t", nodes=512, cores_per_node=1)
    p = plat.num_ranks
    args = CollArgs(count=1, msg_bytes=1024.0)
    inputs = [make_input("alltoall", r, p, 1) for r in range(p)]

    def prog(ctx):
        return (yield from run_collective(ctx, "alltoall", "pairwise", args,
                                          inputs[ctx.rank]))

    def job():
        return run_processes(plat, prog,
                             flow=FlowConfig(mode="hybrid", declared_spread=0.0))

    result = benchmark(job)
    assert 0 < result.events_processed <= 4 * p
    # make_input puts ``dst + 100_000 * src + 1`` in src's block for dst.
    assert result.rank_results[p - 1][:, 0].tolist() == [
        100_000 * src + p for src in range(p)
    ]


@scale_only
def bench_engine_alltoall_16384_flow(benchmark):
    """A 16384-rank pairwise Alltoall (~268M messages) in forced flow mode —
    the new scale ceiling.  Exact simulation at this size is out of reach
    (hundreds of millions of events); flow mode costs p-1 vectorized
    steps."""
    plat = Platform("t", nodes=16384, cores_per_node=1)
    p = plat.num_ranks
    args = CollArgs(count=4, msg_bytes=1024.0)
    flow = FlowConfig(mode="flow", payloads=False)
    job = _flow_collective_job(plat, "alltoall", "pairwise", args, flow)

    result = benchmark.pedantic(job, rounds=1, iterations=1)
    assert 0 < result.events_processed <= 4 * p
    assert result.final_time > 0


def bench_engine_bcast_1024(benchmark):
    """A 1024-rank binomial broadcast — resume-dominated deep-tree scheduling
    at scale (few messages per rank, long dependency chains)."""
    plat = Platform("t", nodes=128, cores_per_node=8)
    p = plat.num_ranks
    args = CollArgs(count=4, msg_bytes=8.0)
    inputs = [make_input("bcast", r, p, 4) for r in range(p)]

    def prog(ctx):
        yield from run_collective(ctx, "bcast", "binomial", args, inputs[ctx.rank])

    def job():
        return run_processes(plat, prog)

    result = benchmark.pedantic(job, rounds=3, iterations=1)
    assert result.final_time > 0


def bench_clock_sync_cost(benchmark):
    """Full hierarchical clock sync on 32 ranks."""
    plat = Platform("t", nodes=8, cores_per_node=4)
    clockset = ClockSet(plat.num_ranks, seed=1)

    def prog(ctx):
        corr = yield from sync_clocks(ctx, clockset[ctx.rank])
        return corr

    def job():
        return run_processes(plat, prog)

    result = benchmark(job)
    assert all(c is not None for c in result.rank_results)
