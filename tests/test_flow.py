"""Unit tests for the flow-level fast path (:mod:`repro.sim.flow`).

The bitwise hybrid-vs-exact sweeps live in ``test_engine_parity.py``; this
file covers the building blocks: the sequential port-chain kernel, platform
classification, dispatch eligibility (including fallback reasons and their
counters), gate protocol errors, and the engine's max_events diagnostics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.collectives import CollArgs, run_collective
from repro.errors import ConfigurationError, SimulationError
from repro.sim.flow import (
    ENGINE_MODES,
    FlowConfig,
    _seq_chain,
    get_descriptor,
)
from repro.sim.mpi import build_engine, run_processes
from repro.sim.platform import Platform

HETERO = Platform("hetero", nodes=16, cores_per_node=4)
UNIFORM = Platform("uniform", nodes=64, cores_per_node=1)
INTRA = Platform("intra", nodes=1, cores_per_node=64)

ARGS = CollArgs(count=8, msg_bytes=2048.0)


def _alltoall_data(p, count):
    return np.arange(p * count, dtype=np.float64).reshape(p, count)


def _single_collective_prog(collective, algorithm, args, skews=None):
    def prog(ctx):
        if skews is not None:
            yield ctx.wait_until(float(skews[ctx.rank]))
        if collective == "barrier":
            data = None
        elif collective == "alltoall":
            data = _alltoall_data(ctx.size, args.count) + ctx.rank
        else:
            data = np.arange(args.count, dtype=np.float64) + ctx.rank
        return (yield from run_collective(ctx, collective, algorithm, args, data))

    return prog


def _run_flow(plat, prog, flow):
    """Run and return (result, flow_runtime) so counters are inspectable."""
    engine, contexts = build_engine(plat, flow=flow)
    for rank, ctx in enumerate(contexts):
        engine.set_process(rank, prog(ctx))
    engine.run()
    return engine


# --------------------------------------------------------------------- #
# _seq_chain: the exact sequential port-claim kernel
# --------------------------------------------------------------------- #


def _seq_chain_scalar(a, t, free0):
    """The definitional left fold _seq_chain must match bit-for-bit."""
    out = np.empty(len(a))
    prev = free0
    for i in range(len(a)):
        start = a[i] if a[i] > prev else prev
        prev = start + t[i]
        out[i] = prev
    return out, prev


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_seq_chain_matches_scalar_fold(seed):
    rng = np.random.default_rng(seed)
    n = 257
    a = np.cumsum(rng.uniform(0, 2e-6, n))        # mostly increasing claims
    a[rng.integers(0, n, 40)] = a[n // 2]         # inject ties and back-jumps
    t = rng.uniform(1e-7, 5e-6, n)
    free0 = float(a[3])
    ends, last = _seq_chain(a, t, free0)
    ref_ends, ref_last = _seq_chain_scalar(a, t, free0)
    assert np.array_equal(ends, ref_ends)         # bitwise, not approx
    assert last == ref_last


def test_seq_chain_idle_port():
    a = np.array([5.0, 6.0, 9.0])
    t = np.array([0.5, 0.5, 0.5])
    ends, last = _seq_chain(a, t, 0.0)
    assert ends.tolist() == [5.5, 6.5, 9.5]
    assert last == 9.5


def test_seq_chain_busy_port_serializes():
    a = np.zeros(4)
    t = np.full(4, 1.0)
    ends, last = _seq_chain(a, t, 10.0)
    assert ends.tolist() == [11.0, 12.0, 13.0, 14.0]
    assert last == 14.0


# --------------------------------------------------------------------- #
# Platform classification
# --------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "plat,private",
    [
        (HETERO, False),   # multi-rank nodes + shared NIC + two classes
        (UNIFORM, True),   # one rank per node: all inter, private ports
        (INTRA, True),     # one node: all intra, node ports unused
    ],
)
def test_net_tables_port_privacy(plat, private):
    engine, _ = build_engine(plat, flow=FlowConfig(mode="hybrid"))
    assert engine.flow_runtime.net_tables.private_ports is private


# --------------------------------------------------------------------- #
# Single-port-owner scan (shared-platform stepped eligibility)
# --------------------------------------------------------------------- #


def _plan_for(plat, collective, algorithm, args=ARGS):
    engine, _ = build_engine(plat, flow=FlowConfig(mode="hybrid"))
    fn = get_descriptor(collective, algorithm)
    assert fn is not None
    plan = fn(engine.num_procs, args, engine.network)
    assert plan is not None
    return engine.flow_runtime, plan


def test_ring_schedule_is_single_owner_on_smp():
    rt, plan = _plan_for(HETERO, "allgather", "ring")
    assert rt._single_port_owner(plan, ARGS) is True


def test_strided_schedules_are_contended_on_smp():
    for collective, algorithm in [
        ("alltoall", "pairwise"),
        ("allreduce", "recursive_doubling"),
        ("barrier", "bruck"),
    ]:
        args = CollArgs(count=1, msg_bytes=0.0) if collective == "barrier" else ARGS
        rt, plan = _plan_for(HETERO, collective, algorithm, args)
        assert rt._single_port_owner(plan, args) is False, (collective, algorithm)


def test_owner_scan_verdict_is_cached():
    rt, plan = _plan_for(HETERO, "allgather", "ring")
    rt._single_port_owner(plan, ARGS)
    key = (plan.collective, plan.algorithm, rt.net_tables.p, ARGS.count,
           ARGS.msg_bytes)
    assert rt._owner_cache[key] is True


# --------------------------------------------------------------------- #
# Dispatch eligibility and fallback counters
# --------------------------------------------------------------------- #


def test_flow_engages_on_eligible_cell():
    prog = _single_collective_prog("alltoall", "basic_linear", ARGS)
    engine = _run_flow(HETERO, prog, FlowConfig(mode="hybrid", declared_spread=0.0))
    rt = engine.flow_runtime
    assert rt.batches == 1
    assert rt.fallback_calls == 0
    assert rt.messages_collapsed == 64 * 63
    assert engine.events_processed <= 4 * 64


def test_shared_contention_falls_back():
    prog = _single_collective_prog("alltoall", "pairwise", ARGS)
    engine = _run_flow(HETERO, prog, FlowConfig(mode="hybrid", declared_spread=0.0))
    rt = engine.flow_runtime
    assert rt.batches == 0
    assert rt.fallback_calls == 1          # counted once, not once per rank
    assert rt.fallback_messages == 64 * 63


def test_vector_args_fall_back_with_reason():
    """Vector collectives always take the exact path, labeled reason=vector."""
    from repro.collectives import VectorArgs, make_vector_input

    p = HETERO.num_ranks
    counts = tuple(tuple(0 if i == j else 2 for j in range(p))
                   for i in range(p))
    args = VectorArgs(counts=counts)

    def prog(ctx):
        data = make_vector_input("alltoallv", ctx.rank, p, args)
        return (yield from run_collective(
            ctx, "alltoallv", "basic_linear", args, data))

    with obs.session(meta={"test": "vector_fallback"}) as octx:
        engine = _run_flow(
            HETERO, prog, FlowConfig(mode="hybrid", declared_spread=0.0))
        snap = octx.metrics.snapshot()
    rt = engine.flow_runtime
    assert rt.batches == 0
    # Like "no_plan", the vector early-return counts only in the labeled
    # obs counter; the plain attribute means "a plan existed but fell back".
    assert rt.fallback_calls == 0
    assert snap['flow.fallback_calls{reason="vector"}']["value"] == 1
    assert 'flow.fallback_calls{reason="no_plan"}' not in snap


def test_unknown_spread_falls_back():
    prog = _single_collective_prog("alltoall", "basic_linear", ARGS)
    engine = _run_flow(HETERO, prog, FlowConfig(mode="hybrid", declared_spread=None))
    assert engine.flow_runtime.batches == 0
    assert engine.flow_runtime.fallback_calls == 1


def test_declared_skew_beyond_tolerance_falls_back():
    skews = np.linspace(0, 100e-6, HETERO.num_ranks)
    prog = _single_collective_prog("alltoall", "basic_linear", ARGS, skews=skews)
    engine = _run_flow(
        HETERO, prog, FlowConfig(mode="hybrid", declared_spread=100e-6)
    )
    assert engine.flow_runtime.batches == 0
    assert engine.flow_runtime.fallback_calls == 1


def test_skewed_stepped_engages_on_private_ports():
    skews = np.linspace(0, 100e-6, UNIFORM.num_ranks)
    prog = _single_collective_prog("alltoall", "pairwise", ARGS, skews=skews)
    engine = _run_flow(
        UNIFORM, prog, FlowConfig(mode="hybrid", declared_spread=100e-6)
    )
    assert engine.flow_runtime.batches == 1


def _flow_counter_snapshot(plat, algorithm):
    """Run one aligned hybrid alltoall in a session; (engine, metrics)."""
    prog = _single_collective_prog("alltoall", algorithm, ARGS)
    with obs.session(meta={"test": "flow_counters"}) as octx:
        engine = _run_flow(
            plat, prog, FlowConfig(mode="hybrid", declared_spread=0.0))
        snap = octx.metrics.snapshot()
    return engine, snap


def test_flow_counters_reach_obs_metrics():
    _, snap = _flow_counter_snapshot(HETERO, "basic_linear")
    key = 'flow.batches{algorithm="basic_linear"}'
    assert snap[key]["value"] == 1
    assert snap['flow.messages_collapsed{algorithm="basic_linear"}'][
        "value"] == 64 * 63
    # The labeled key parses back to (name, labels) for exposition.
    assert obs.parse_metric_key(key) == (
        "flow.batches", {"algorithm": "basic_linear"})


def test_stepped_flow_counters_reach_obs_metrics():
    """A stepped plan on private ports (the 4096-rank scale bench's cell
    at 64 ranks) collapses into one batch and reports it, labeled."""
    engine, snap = _flow_counter_snapshot(UNIFORM, "pairwise")
    p = UNIFORM.num_ranks
    assert snap['flow.batches{algorithm="pairwise"}']["value"] == 1
    assert snap['flow.messages_collapsed{algorithm="pairwise"}'][
        "value"] == p * (p - 1)
    # Counters exist only under their labeled keys.
    assert "flow.batches" not in snap
    assert not any(k.startswith("flow.fallback") for k in snap)
    assert engine.flow_runtime.fallback_calls == 0
    assert 0 < engine.events_processed <= 4 * p


# --------------------------------------------------------------------- #
# Gate protocol and resolve-time checks
# --------------------------------------------------------------------- #


def test_gate_signature_mismatch_raises():
    def prog(ctx):
        tag = 1 if ctx.rank == 0 else 2     # diverging parameters
        args = CollArgs(count=8, msg_bytes=2048.0, tag=tag)
        data = _alltoall_data(ctx.size, 8)
        return (yield from run_collective(ctx, "alltoall", "basic_linear", args, data))

    with pytest.raises(SimulationError, match="flow gate mismatch"):
        run_processes(HETERO, prog,
                      flow=FlowConfig(mode="hybrid", declared_spread=0.0))


def test_stale_declaration_raises_at_resolve():
    # Two back-to-back collectives: ranks exit the first at different times,
    # so the second gate sees a real spread the declaration (0.0) promised
    # away.  The gate must refuse rather than silently mis-replay.
    def prog(ctx):
        data = _alltoall_data(ctx.size, 8)
        args1 = CollArgs(count=8, msg_bytes=2048.0, tag=1)
        args2 = CollArgs(count=8, msg_bytes=2048.0, tag=2)
        yield from run_collective(ctx, "alltoall", "basic_linear", args1, data)
        return (yield from run_collective(ctx, "alltoall", "basic_linear", args2, data))

    with pytest.raises(SimulationError, match="actual entry spread"):
        run_processes(HETERO, prog,
                      flow=FlowConfig(mode="hybrid", declared_spread=0.0))


def test_forced_flow_mode_accepts_skew():
    # mode="flow" takes the analytic batch regardless of skew — it must
    # complete and collapse the phase (no bitwise claim here).
    skews = np.linspace(0, 200e-6, HETERO.num_ranks)
    prog = _single_collective_prog("alltoall", "basic_linear", ARGS, skews=skews)
    engine = _run_flow(HETERO, prog, FlowConfig(mode="flow"))
    assert engine.flow_runtime.batches == 1
    assert engine.now > 0


def test_payloads_disabled_returns_none():
    prog = _single_collective_prog("alltoall", "basic_linear", ARGS)
    result = run_processes(
        HETERO, prog,
        flow=FlowConfig(mode="hybrid", declared_spread=0.0, payloads=False),
    )
    assert all(r is None for r in result.rank_results)
    assert result.final_time > 0


# --------------------------------------------------------------------- #
# Config validation and engine diagnostics
# --------------------------------------------------------------------- #


def test_flow_config_validation():
    assert ENGINE_MODES == ("exact", "hybrid", "flow")
    with pytest.raises(ConfigurationError, match="unknown engine mode"):
        FlowConfig(mode="fast")
    with pytest.raises(ConfigurationError, match="declared_spread"):
        FlowConfig(declared_spread=-1.0)


def test_max_events_error_names_activity_and_suggests_hybrid():
    engine, contexts = build_engine(HETERO)
    engine.max_events = 500       # far below the ~4k events this cell needs
    prog = _single_collective_prog("alltoall", "basic_linear", ARGS)
    for rank, ctx in enumerate(contexts):
        engine.set_process(rank, prog(ctx))
    with pytest.raises(SimulationError) as exc:
        engine.run()
    msg = str(exc.value)
    assert "alltoall/basic_linear" in msg
    assert "--engine-mode hybrid" in msg
