"""Tests for mixed-collective, table-driven application workloads.

A timestep that mixes several collectives is a :class:`WorkloadSpec`; each
phase's algorithm is resolved explicit → selection table → fixed rules by
:func:`resolve_algorithm`, and :func:`run_workload` runs the loop.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.bench import MicroBenchmark
from repro.collectives.tuned import fixed_decision
from repro.selection import SelectionTable
from repro.sim.platform import Platform, get_machine
from repro.workloads import (
    CollectivePhase,
    WorkloadSpec,
    resolve_algorithm,
    run_workload,
)

PHASES = (
    CollectivePhase("alltoall", 32768.0, count=16),
    CollectivePhase("allreduce", 8.0, count=8),
    CollectivePhase("bcast", 1024.0, count=16),
)

P = 16


class TestResolution:
    def test_explicit_algorithm_wins(self):
        table = SelectionTable()
        table.add_rule("alltoall", P, 0.0, "pairwise")
        phase = CollectivePhase("alltoall", 64.0, algorithm="bruck")
        assert resolve_algorithm(phase, P, table) == "bruck"

    def test_table_overrides_fixed_rules(self):
        table = SelectionTable()
        table.add_rule("alltoall", P, 0.0, "pairwise")
        phase = CollectivePhase("alltoall", 64.0)
        assert resolve_algorithm(phase, P, table) == "pairwise"

    def test_fallback_to_fixed_rules(self):
        phase = CollectivePhase("alltoall", 64.0)
        assert resolve_algorithm(phase, P) == fixed_decision("alltoall", P, 64.0)

    def test_table_missing_collective_falls_back(self):
        table = SelectionTable()
        table.add_rule("reduce", P, 0.0, "binomial")
        phase = CollectivePhase("alltoall", 64.0)
        assert resolve_algorithm(phase, P, table) == fixed_decision(
            "alltoall", P, 64.0)


class TestRun:
    def test_accounting_per_phase(self):
        bench = MicroBenchmark(platform=Platform("t", nodes=4, cores_per_node=4))
        spec = WorkloadSpec(name="mixed", phases=PHASES, iterations=3,
                            warmup=0, compute=5e-4)
        result = run_workload(spec, bench, cells=False)
        assert result.runtime > 0
        assert set(result.resolved) == {
            "alltoall@32768B", "allreduce@8B", "bcast@1024B"
        }
        assert set(result.phase_mpi_time) == set(result.resolved)
        # The 32 KiB alltoall dominates the tiny allreduce/bcast.
        assert result.dominant_phase == "alltoall@32768B"

    def test_tuned_table_end_to_end(self):
        """Campaign -> table -> mixed workload resolves from the campaign."""
        from repro.bench import TuningCampaign

        spec = get_machine("hydra")
        bench = MicroBenchmark.from_machine(spec, nodes=4, cores_per_node=4, nrep=1)
        campaign = TuningCampaign(
            bench=bench, collectives=("alltoall",), msg_sizes=(32768,),
            shapes=("first_delayed", "random"),
        )
        campaign_result = campaign.run()
        mixed = WorkloadSpec(name="mixed", phases=PHASES, iterations=2,
                             warmup=0, compute=1e-3)
        result = run_workload(mixed, bench, table=campaign_result.table,
                              cells=False)
        assert result.resolved["alltoall@32768B"] == campaign_result.winners[
            ("alltoall", 32768.0)
        ]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(name="mixed", phases=())
        with pytest.raises(ConfigurationError):
            WorkloadSpec(name="mixed", phases=PHASES, iterations=0)
        with pytest.raises(ConfigurationError):
            CollectivePhase("alltoall", -1.0)
