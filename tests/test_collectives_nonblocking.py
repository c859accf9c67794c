"""Tests for fibers and non-blocking collectives."""

from __future__ import annotations

import numpy as np
import pytest

import repro.collectives  # noqa: F401
from repro.collectives import (
    CollArgs, make_input, reference_result, reference_results,
)
from repro.collectives.nonblocking import icollective, wait_collective
from repro.sim.mpi import run_processes
from repro.sim.platform import Platform


@pytest.fixture
def plat():
    return Platform("t", nodes=2, cores_per_node=4)


class TestFibers:
    def test_fiber_runs_concurrently_with_main(self, plat):
        """Main computes 10 ms while the fiber sleeps 10 ms: total ~10 ms."""

        def prog(ctx):
            def side(fctx):
                yield fctx.sleep(0.01)
                return "side-done"

            handle = ctx.start_fiber(side)
            yield ctx.sleep(0.01)
            yield ctx.waitall(handle)
            return ctx.time(), handle.result

        run = run_processes(plat, prog)
        for total, result in run.rank_results:
            assert result == "side-done"
            assert total == pytest.approx(0.01, rel=1e-9)  # overlapped, not 0.02

    def test_fiber_messages_use_shared_queues(self, plat):
        """A fiber's send matches the peer's main-fiber receive."""

        def prog(ctx):
            if ctx.rank == 0:
                def sender(fctx):
                    yield from fctx.send(1, 8, tag=5, payload=np.array([3.0]))
                    return None

                handle = ctx.start_fiber(sender)
                yield ctx.waitall(handle)
            elif ctx.rank == 1:
                req = yield from ctx.recv(0, tag=5)
                return float(req.payload[0])
            return None

        run = run_processes(plat, prog)
        assert run.rank_results[1] == 3.0

    def test_join_already_finished_fiber(self, plat):
        def prog(ctx):
            def quick(fctx):
                return 42
                yield  # pragma: no cover

            handle = ctx.start_fiber(quick)
            yield ctx.sleep(0.05)
            yield ctx.waitall(handle)
            return handle.result

        run = run_processes(plat, prog)
        assert run.rank_results[0] == 42

    def test_unjoined_fiber_still_counts_for_deadlock(self, plat):
        """A fiber blocked forever deadlocks the simulation."""
        from repro.errors import DeadlockError

        def prog(ctx):
            if ctx.rank == 0:
                def stuck(fctx):
                    yield from fctx.recv(1, tag=99)  # never sent

                ctx.start_fiber(stuck)
            yield ctx.sleep(0.0)
            return None

        with pytest.raises(DeadlockError) as exc:
            run_processes(plat, prog)
        assert exc.value.blocked_ranks == [0]


class TestNonblockingCollectives:
    @pytest.mark.parametrize("collective,algorithm", [
        ("allreduce", "ring"),
        ("allreduce", "recursive_doubling"),
        ("alltoall", "pairwise"),
        ("bcast", "binomial"),
    ])
    def test_icollective_result_matches_reference(self, plat, collective, algorithm):
        p = plat.num_ranks
        count = 16
        args = CollArgs(count=count, msg_bytes=128.0)
        inputs = [make_input(collective, r, p, count) for r in range(p)]

        def prog(ctx):
            handle = icollective(ctx, collective, algorithm, args, inputs[ctx.rank])
            yield ctx.compute(1e-3)
            result = yield from wait_collective(ctx, handle)
            return result

        run = run_processes(plat, prog)
        for rank, expected in enumerate(
            reference_results(collective, inputs, args)
        ):
            if expected is None:
                assert run.rank_results[rank] is None
            else:
                assert np.array_equal(np.asarray(run.rank_results[rank]), expected)

    def test_overlap_hides_collective_latency(self, plat):
        """compute >> collective: total time ~ compute, not compute + collective."""
        p = plat.num_ranks
        args = CollArgs(count=64, msg_bytes=float(1 << 20))
        inputs = [make_input("allreduce", r, p, 64) for r in range(p)]
        compute = 20e-3

        def blocking(ctx):
            from repro.collectives import run_collective

            yield from ctx.barrier()
            start = ctx.time()
            yield ctx.compute(compute)
            yield from run_collective(ctx, "allreduce", "ring", args, inputs[ctx.rank])
            return ctx.time() - start

        def nonblocking(ctx):
            yield from ctx.barrier()
            start = ctx.time()
            handle = icollective(ctx, "allreduce", "ring", args, inputs[ctx.rank])
            yield ctx.compute(compute)
            yield from wait_collective(ctx, handle)
            return ctx.time() - start

        t_block = max(run_processes(plat, blocking).rank_results)
        t_nonblock = max(run_processes(plat, nonblocking).rank_results)
        assert t_nonblock < t_block  # some of the collective is hidden
        assert t_nonblock == pytest.approx(compute, rel=0.2)

    def test_two_outstanding_collectives_need_distinct_offsets(self, plat):
        p = plat.num_ranks
        args = CollArgs(count=8, msg_bytes=64.0)
        inputs = [make_input("allreduce", r, p, 8) for r in range(p)]

        def prog(ctx):
            h1 = icollective(ctx, "allreduce", "ring", args, inputs[ctx.rank],
                             tag_offset=0)
            h2 = icollective(ctx, "allreduce", "recursive_doubling", args,
                             inputs[ctx.rank], tag_offset=1)
            r1 = yield from wait_collective(ctx, h1)
            r2 = yield from wait_collective(ctx, h2)
            return r1, r2

        run = run_processes(plat, prog)
        expected = reference_result("allreduce", inputs, args, 0)
        for r1, r2 in run.rank_results:
            assert np.array_equal(r1, expected)
            assert np.array_equal(r2, expected)
