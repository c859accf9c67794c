"""Tests for the mixed-collective, table-driven proxy application."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.apps import MixedProxyApp
from repro.collectives.tuned import fixed_decision
from repro.selection import SelectionTable
from repro.sim.platform import Platform, get_machine
from repro.workloads import CollectivePhase

PHASES = (
    CollectivePhase("alltoall", 32768.0, count=16),
    CollectivePhase("allreduce", 8.0, count=8),
    CollectivePhase("bcast", 1024.0, count=16),
)


@pytest.fixture
def plat():
    return Platform("t", nodes=4, cores_per_node=4)


class TestResolution:
    def test_explicit_algorithm_wins(self, plat):
        app = MixedProxyApp(
            platform=plat,
            phases=(CollectivePhase("alltoall", 64.0, algorithm="bruck"),),
        )
        assert app.resolve_algorithm(app.phases[0]) == "bruck"

    def test_table_overrides_fixed_rules(self, plat):
        table = SelectionTable()
        table.add_rule("alltoall", plat.num_ranks, 0.0, "pairwise")
        app = MixedProxyApp(platform=plat, phases=(CollectivePhase("alltoall", 64.0),),
                            table=table)
        assert app.resolve_algorithm(app.phases[0]) == "pairwise"

    def test_fallback_to_fixed_rules(self, plat):
        app = MixedProxyApp(platform=plat, phases=(CollectivePhase("alltoall", 64.0),))
        expected = fixed_decision("alltoall", plat.num_ranks, 64.0)
        assert app.resolve_algorithm(app.phases[0]) == expected

    def test_table_missing_collective_falls_back(self, plat):
        table = SelectionTable()
        table.add_rule("reduce", plat.num_ranks, 0.0, "binomial")
        app = MixedProxyApp(platform=plat, phases=(CollectivePhase("alltoall", 64.0),),
                            table=table)
        expected = fixed_decision("alltoall", plat.num_ranks, 64.0)
        assert app.resolve_algorithm(app.phases[0]) == expected


class TestRun:
    def test_accounting_per_phase(self, plat):
        app = MixedProxyApp(platform=plat, phases=PHASES, iterations=3,
                            compute_per_iteration=5e-4)
        result = app.run()
        assert result.runtime > 0
        assert set(result.resolved) == {
            "alltoall@32768B", "allreduce@8B", "bcast@1024B"
        }
        assert set(result.phase_mpi_time) == set(result.resolved)
        # The 32 KiB alltoall dominates the tiny allreduce/bcast.
        assert result.dominant_phase == "alltoall@32768B"

    def test_tuned_table_end_to_end(self):
        """Campaign -> table -> mixed app resolves from the campaign."""
        from repro.bench import MicroBenchmark, TuningCampaign

        spec = get_machine("hydra")
        bench = MicroBenchmark.from_machine(spec, nodes=4, cores_per_node=4, nrep=1)
        campaign = TuningCampaign(
            bench=bench, collectives=("alltoall",), msg_sizes=(32768,),
            shapes=("first_delayed", "random"),
        )
        campaign_result = campaign.run()
        app = MixedProxyApp.from_machine(
            spec, PHASES, nodes=4, cores_per_node=4,
            table=campaign_result.table, iterations=2,
        )
        result = app.run()
        assert result.resolved["alltoall@32768B"] == campaign_result.winners[
            ("alltoall", 32768.0)
        ]

    def test_validation(self, plat):
        with pytest.raises(ConfigurationError):
            MixedProxyApp(platform=plat, phases=())
        with pytest.raises(ConfigurationError):
            MixedProxyApp(platform=plat, phases=PHASES, iterations=0)
        with pytest.raises(ConfigurationError):
            CollectivePhase("alltoall", -1.0)
