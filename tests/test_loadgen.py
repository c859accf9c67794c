"""Tests for the selection-service load generator."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.bench.loadgen import (
    LoadGenConfig,
    WORKLOADS,
    build_mix,
    percentile,
    run_suite,
    run_workload,
)
from repro.bench.metrics import CollectiveTiming
from repro.bench.results import BenchResult, SweepResult
from repro.errors import ConfigurationError
from repro.selection import RobustAverageSelector
from repro.selection.table import SelectionTable
from repro.service import SelectionService
from repro.store import TuningStore


@pytest.fixture
def small_store(tmp_path):
    """A store covering the loadgen's default collectives at one size."""
    from repro.bench.campaign import CampaignResult

    table = SelectionTable(strategy_name="robust_average")
    sweeps, winners = {}, {}
    for coll in ("alltoall", "allreduce"):
        sweep = SweepResult(coll, 1024.0, 4, machine="testbox")
        sweep.skew_by_pattern["no_delay"] = 0.0
        for algo, delay in (("bruck", 1.0), ("pairwise", 2.0)):
            timing = CollectiveTiming(np.zeros(2), np.full(2, delay))
            sweep.add(BenchResult(coll, algo, 1024.0, 4, "no_delay",
                                  0.0, [timing]))
        winners[(coll, 1024.0)] = table.add_sweep(sweep,
                                                  RobustAverageSelector())
        sweeps[(coll, 1024.0)] = sweep
    path = tmp_path / "tuning.db"
    with TuningStore(path) as store:
        store.ingest_campaign(
            CampaignResult(table=table, sweeps=sweeps, winners=winners),
            run_id="seed")
    return path


def _config(**kw):
    kw.setdefault("queries", 200)
    kw.setdefault("threads", 2)
    return LoadGenConfig(**kw)


class TestMixAndPercentile:
    def test_mix_is_deterministic_per_seed(self):
        a = build_mix(_config(seed=7))
        b = build_mix(_config(seed=7))
        c = build_mix(_config(seed=8))
        assert a == b
        assert a != c

    def test_distinct_caps_the_key_space(self):
        mix = build_mix(_config(), distinct=3)
        keys = {tuple(sorted(q.items(), key=str)) for q in mix}
        assert len(keys) <= 3

    def test_mix_queries_are_all_valid(self, small_store):
        with SelectionService(small_store, watch_store=False) as service:
            for q in build_mix(_config(queries=50)):
                service.query(**q)  # must not raise
            assert service.stats.errors == 0

    def test_percentile_exact(self):
        xs = list(range(1, 101))
        assert percentile(xs, 0.0) == 1
        assert percentile(xs, 1.0) == 100
        assert percentile(xs, 0.5) == pytest.approx(50.5)
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            LoadGenConfig(queries=0)
        with pytest.raises(ConfigurationError):
            LoadGenConfig(threads=0)


class TestRunWorkload:
    def test_hot_cache_counts_and_histogram_cross_check(self, small_store):
        with SelectionService(small_store, watch_store=False) as service:
            result = run_workload(service, "hot_cache", _config())
        assert result.queries == 200
        assert result.errors == 0
        assert len(result.latencies) == 200
        assert result.qps > 0
        # The service histogram quantile estimate accompanies the exact
        # sample percentiles.
        assert result.hist_p50 is not None and result.hist_p99 is not None

    def test_batch_workload_uses_query_batch(self, small_store):
        with SelectionService(small_store, watch_store=False) as service:
            result = run_workload(service, "batch",
                                  _config(batch_size=50))
            batch_hist = service.metrics.histogram("service.batch_seconds")
        assert result.errors == 0
        assert batch_hist.count == 4  # 2 threads x (100-query shard / 50)

    def test_reload_churn_reloads_concurrently(self, small_store):
        with SelectionService(small_store, reload_interval=0.0) as service:
            result = run_workload(
                service, "reload_churn",
                _config(queries=2000, reload_interval=0.001))
        assert result.errors == 0
        assert result.reloads >= 1
        assert service.stats.reloads >= result.reloads

    def test_unknown_workload_raises(self, small_store):
        with SelectionService(small_store, watch_store=False) as service:
            with pytest.raises(ConfigurationError):
                run_workload(service, "nope", _config())


class TestRunSuite:
    def test_payload_shape_matches_the_gate(self, small_store):
        payload = run_suite(small_store, _config(queries=100),
                            workloads=("hot_cache", "batch"))
        assert set(payload["workloads"]) == {"hot_cache", "batch"}
        for row in payload["workloads"].values():
            assert {"qps", "p50_us", "p99_us", "queries", "errors",
                    "reloads", "hist_p50_us", "hist_p99_us"} <= set(row)
            assert row["errors"] == 0
            assert row["p50_us"] <= row["p99_us"]
        assert payload["meta"]["queries_per_workload"] == 100
        json.dumps(payload)  # must be JSON-serializable as-is

    def test_default_workload_names_are_stable(self):
        # The committed benchmarks/BENCH.json covers exactly these; renames
        # must update the baseline (the gate hard-fails otherwise).
        assert WORKLOADS == ("hot_cache", "cold_mix", "batch",
                             "reload_churn")
