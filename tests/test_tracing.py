"""Tests for collective tracing on obs spans: recording, analysis, trace files.

Every collective call records one rank span per rank (arrival -> exit); the
Section V-A reconstruction (per-rank mean delay versus each call's first
arrival) and the per-call arrival spread are read back through
:class:`~repro.obs.analysis.TraceAnalysis`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.apps import FTProxy
from repro.cli import main
from repro.collectives import CollArgs, make_input, run_collective
from repro.errors import TraceFormatError
from repro.obs.analysis import TraceAnalysis
from repro.obs.export import export_jsonl, read_jsonl
from repro.sim.mpi import run_processes
from repro.sim.platform import Platform, get_machine
from repro.workloads import pattern_from_trace, workload_from_trace


def _run_traced(pattern_skews, ncalls=3, meta=None):
    """Run ``ncalls`` alltoalls with a fixed imposed arrival pattern.

    Returns the recording session's analysis and the session itself.
    """
    p = len(pattern_skews)
    platform = Platform("t", nodes=max(1, (p + 3) // 4), cores_per_node=4)
    args = CollArgs(count=8, msg_bytes=64.0)
    inputs = [make_input("alltoall", r, p, 8) for r in range(p)]

    def prog(ctx):
        for _call in range(ncalls):
            yield from ctx.barrier()
            base = ctx.time()
            yield ctx.wait_until(base + pattern_skews[ctx.rank])
            yield from run_collective(ctx, "alltoall", "bruck", args,
                                      inputs[ctx.rank])
        return None

    with obs.session(meta=meta, record_spans=True) as octx:
        run_processes(platform, prog, num_ranks=p)
    return TraceAnalysis.from_context(octx), octx


class TestTracer:
    def test_records_all_calls_and_ranks(self):
        trace, _ = _run_traced([0.0] * 8, ncalls=3)
        calls = trace.calls("alltoall")
        assert len(calls) == 3
        for call in calls:
            assert call.ranks == tuple(range(8))
            assert all(e >= a for a, e in zip(call.arrivals, call.exits))


class TestAnalysis:
    def test_average_delay_recovers_imposed_pattern(self):
        skews = [0.0, 1e-4, 2e-4, 5e-5, 0.0, 3e-4, 1e-5, 0.0]
        trace, _ = _run_traced(skews, ncalls=4)
        avg = trace.arrival_pattern("alltoall").skews
        # The dissemination barrier releases ranks within a few microseconds,
        # so recovery is accurate to that scale.
        assert np.allclose(avg, skews, atol=5e-6)

    def test_max_call_spread_recovered(self):
        skews = [0.0, 0.0, 4e-4, 0.0]
        trace, _ = _run_traced(skews, ncalls=2)
        spread = max(c.arrival_spread for c in trace.calls("alltoall"))
        assert spread == pytest.approx(4e-4, abs=5e-6)

    def test_pattern_from_trace_is_replayable(self):
        skews = [0.0, 2e-4, 1e-4, 0.0]
        trace, _ = _run_traced(skews, ncalls=2)
        pattern = pattern_from_trace(trace, "alltoall", name="scenario")
        assert pattern.name == "scenario"
        assert pattern.num_ranks == 4
        assert np.allclose(pattern.skews, skews, atol=5e-6)

    def test_missing_collective_rejected(self):
        trace, _ = _run_traced([0.0] * 4, ncalls=1)
        with pytest.raises(TraceFormatError):
            trace.arrival_pattern("bcast")


class TestTraceFiles:
    def test_roundtrip(self, tmp_path):
        trace, octx = _run_traced([0.0, 1e-4, 0.0, 5e-5], ncalls=2,
                                  meta={"app": "test"})
        path = export_jsonl(tmp_path / "run.jsonl", octx)
        assert read_jsonl(path)["header"]["meta"]["app"] == "test"
        back = TraceAnalysis.from_file(path)
        assert len(back.calls()) == len(trace.calls())
        # JSONL round-trips bit-exactly.
        np.testing.assert_array_equal(
            back.arrival_pattern("alltoall").skews,
            trace.arrival_pattern("alltoall").skews,
        )

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"magic": "nope", "version": 1}\n')
        with pytest.raises(TraceFormatError):
            read_jsonl(path)

    def test_corrupt_event_rejected(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"magic": "repro-obs", "version": 1}\n{"c": "alltoall"}\n')
        with pytest.raises(TraceFormatError):
            read_jsonl(path)


class TestFTEndToEnd:
    def test_ft_trace_produces_structured_pattern(self):
        """Fig. 1's phenomenon: the FT proxy yields a non-uniform, stable pattern."""
        spec = get_machine("galileo100")
        ft = FTProxy.class_d_scaled(spec, nodes=4, cores_per_node=4, seed=7)
        result = ft.run()
        assert result.runtime > 0
        assert len(result.trace.calls("alltoall")) == result.collective_calls
        avg = result.trace.arrival_pattern("alltoall").skews
        # Delays differ meaningfully across ranks (the paper's observation).
        assert avg.max() > 0
        assert np.std(avg) > 0.05 * avg.max()

    def test_ft_is_alltoall_dominant(self):
        spec = get_machine("hydra")
        ft = FTProxy.class_d_scaled(spec, nodes=4, cores_per_node=4, seed=1)
        result = ft.run()
        assert 0.05 < result.mpi_fraction < 0.95
        assert result.collective_calls == ft.iterations * ft.calls_per_iteration

    def test_app_run_folds_into_enclosing_session(self):
        ft = FTProxy.class_d_scaled(get_machine("hydra"), nodes=2,
                                    cores_per_node=4, seed=1, iterations=3)
        with obs.session(record_spans=True) as octx:
            result = ft.run()
        assert octx.engine_stats is not None and octx.engine_stats.runs == 1
        counter = octx.metrics.get(f"collective.calls.alltoall.{ft.algorithm}")
        assert counter.value == result.collective_calls * 8
        # The spans land too, so the enclosing trace reconstructs the same
        # pattern as the app's own.
        np.testing.assert_array_equal(
            TraceAnalysis.from_context(octx).arrival_pattern("alltoall").skews,
            result.trace.arrival_pattern("alltoall").skews,
        )


class TestTraceCommand:
    def test_trace_out_replays_as_alltoall_workload(self, tmp_path, capsys):
        trace_path = tmp_path / "ft.trace"
        code = main(["trace", "--app", "ft", "--nodes", "2", "--cores", "2",
                     "--iterations", "3", "--trace-out", str(trace_path),
                     "--pattern-out", str(tmp_path / "ft.pattern")])
        assert code == 0
        assert f"wrote trace: {trace_path}" in capsys.readouterr().out
        ana = TraceAnalysis.from_file(trace_path)
        assert len(ana.calls("alltoall")) == 6
        spec = workload_from_trace(trace_path, name="ft")
        assert [ph.collective for ph in spec.phases] == ["alltoall"]
        assert spec.phases[0].algorithm == "pairwise"
        assert len(spec.pattern.skews) == 4
