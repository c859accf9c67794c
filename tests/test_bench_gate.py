"""Tests for the unified benchmark gate ``benchmarks/check_bench.py``."""

from __future__ import annotations

import ast
import importlib.util
import json
from pathlib import Path

import pytest

from repro.bench.loadgen import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location(
        "check_bench", BENCH_DIR / "check_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pytest_json(module: str, medians: dict[str, float]) -> dict:
    """A minimal ``pytest-benchmark --benchmark-json`` document."""
    return {"benchmarks": [
        {"name": name, "fullname": f"benchmarks/{module}.py::{name}",
         "stats": {"median": median}}
        for name, median in medians.items()]}


def _loadgen_json(rows: dict[str, dict]) -> dict:
    """A minimal ``python -m repro.bench.loadgen`` payload."""
    return {"meta": {}, "workloads": {
        name: {"errors": 0, **row} for name, row in rows.items()}}


ENGINE = {"bench_a": 1.0, "bench_b": 2.0}
OBS = {"bench_obs_x_untraced": 1.0, "bench_obs_x_linked": 1.05}
SERVICE = {"hot": {"qps": 1000.0, "p99_us": 50.0}}


@pytest.fixture
def baseline(gate):
    entries = []
    for doc in (_pytest_json("bench_engine", ENGINE),
                _pytest_json("bench_obs", OBS), _loadgen_json(SERVICE)):
        entries += gate.fresh_entries(doc)[0]
    return entries


def _check(gate, doc, baseline, subset=False):
    fresh, errors = gate.fresh_entries(doc)
    more, warnings, _ = gate.check(fresh, baseline, subset)
    return errors + more, warnings


def test_identical_runs_are_clean(gate, baseline):
    for doc in (_pytest_json("bench_engine", ENGINE),
                _pytest_json("bench_obs", OBS), _loadgen_json(SERVICE)):
        assert _check(gate, doc, baseline) == ([], [])


def test_layers_come_from_the_input(gate):
    engine, _ = gate.fresh_entries(_pytest_json("bench_engine", ENGINE))
    assert {(e["layer"], e["metric"], e["tolerance"]) for e in engine} == {
        ("engine", "median_s", 0.25)}
    obs, _ = gate.fresh_entries(_pytest_json("bench_obs", OBS))
    assert {(e["layer"], e["tolerance"]) for e in obs} == {("obs", 0.10)}
    service, _ = gate.fresh_entries(_loadgen_json(SERVICE))
    assert {(e["metric"], e["better"], e["tolerance"]) for e in service} == {
        ("qps", "higher", 0.40), ("p99_us", "lower", 0.40)}
    with pytest.raises(SystemExit):
        gate.fresh_entries({"medians": {}})
    with pytest.raises(SystemExit, match="not in a gated suite"):
        gate.fresh_entries(_pytest_json("bench_fig4_alltoall", ENGINE))


def test_extra_fresh_bench_is_hard_error(gate, baseline):
    doc = _pytest_json("bench_engine", dict(ENGINE, bench_new=1.0))
    errors, _ = _check(gate, doc, baseline, subset=True)
    assert len(errors) == 1 and "'bench_new'" in errors[0]
    assert "no baseline entry" in errors[0]


def test_missing_baseline_bench_is_hard_error_unless_subset(gate, baseline):
    doc = _pytest_json("bench_engine", {"bench_a": 1.0})
    errors, _ = _check(gate, doc, baseline)
    assert len(errors) == 1 and "'bench_b'" in errors[0]
    assert _check(gate, doc, baseline, subset=True) == ([], [])


def test_coverage_is_judged_per_layer(gate, baseline):
    # An obs-only run must not flag the engine and service entries.
    assert _check(gate, _pytest_json("bench_obs", OBS), baseline) == ([], [])


def test_empty_run_is_hard_error(gate, baseline):
    errors, _ = _check(gate, _loadgen_json({}), baseline)
    assert errors == ["::error::the fresh file holds no benchmark results"]


def test_loadgen_query_errors_are_hard_errors(gate, baseline):
    doc = _loadgen_json(SERVICE)
    doc["workloads"]["hot"]["errors"] = 3
    errors, warnings = _check(gate, doc, baseline)
    assert len(errors) == 1 and "3 query error" in errors[0]
    assert warnings == []


def test_drift_past_tolerance_only_warns(gate, baseline):
    slow = _loadgen_json({"hot": {"qps": 500.0, "p99_us": 80.0}})
    errors, warnings = _check(gate, slow, baseline)
    assert errors == []
    assert len(warnings) == 2                  # QPS drop + p99 rise
    assert all(w.startswith("::warning::") for w in warnings)
    assert any("qps regressed 50%" in w for w in warnings)
    assert any("p99_us regressed 60%" in w for w in warnings)
    doc = _pytest_json("bench_engine", {"bench_a": 1.3, "bench_b": 2.4})
    errors, warnings = _check(gate, doc, baseline)
    assert errors == []
    assert len(warnings) == 1 and "'bench_a' median_s regressed 30%" in warnings[0]
    # Moving in the good direction never warns.
    fast = _loadgen_json({"hot": {"qps": 5000.0, "p99_us": 5.0}})
    assert _check(gate, fast, baseline) == ([], [])


def test_linked_over_untraced_warns(gate, baseline):
    within = _pytest_json("bench_obs", {"bench_obs_x_untraced": 1.0,
                                        "bench_obs_x_linked": 1.09})
    assert _check(gate, within, baseline) == ([], [])
    over = _pytest_json("bench_obs", {"bench_obs_x_untraced": 1.0,
                                      "bench_obs_x_linked": 1.11})
    errors, warnings = _check(gate, over, baseline)
    assert errors == []
    assert len(warnings) == 1
    assert "recording overhead of 'bench_obs_x_linked' is +11.0%" in warnings[0]


def test_update_keeps_tolerance_and_direction(gate, baseline):
    tuned = [dict(e, tolerance=0.5) if e["layer"] == "service" else e
             for e in baseline]
    fresh, _ = gate.fresh_entries(
        _loadgen_json({"hot": {"qps": 2000.0, "p99_us": 40.0},
                       "new": {"qps": 10.0, "p99_us": 1.0}}))
    updated = {gate._key(e): e for e in gate.update(fresh, tuned)}
    hot_qps = updated[("service", "hot", "qps")]
    assert (hot_qps["value"], hot_qps["tolerance"], hot_qps["better"]) == (
        2000.0, 0.5, "higher")
    assert updated[("service", "new", "p99_us")]["tolerance"] == 0.40
    # Other layers are untouched.
    assert updated[("engine", "bench_a", "median_s")]["value"] == 1.0
    # A dropped entry goes away, unless the run was a declared subset.
    fresh, _ = gate.fresh_entries(_pytest_json("bench_engine", {"bench_a": 3.0}))
    assert ("engine", "bench_b", "median_s") not in {
        gate._key(e) for e in gate.update(fresh, tuned)}
    subset = gate.update(fresh, tuned, subset=True)
    keys = [gate._key(e) for e in subset]
    assert ("engine", "bench_b", "median_s") in keys
    assert len(keys) == len(set(keys)) == len(tuned)


def test_main_update_then_check_round_trips(gate, baseline, tmp_path,
                                            monkeypatch, capsys):
    path = tmp_path / "BENCH.json"
    gate.write_baseline(baseline, path)
    monkeypatch.setattr(gate, "BASELINE_PATH", path)
    fresh = tmp_path / "fresh.json"
    fresh.write_text(json.dumps(_pytest_json("bench_engine", {"bench_a": 9.0})))
    assert gate.main([str(fresh)]) == 1                 # bench_b not run
    assert gate.main(["--subset", str(fresh)]) == 0     # drift only warns
    assert "::warning::" in capsys.readouterr().out
    assert gate.main(["--update", str(fresh)]) == 0
    assert gate.main([str(fresh)]) == 0
    assert "0 error(s), 0 warning(s)" in capsys.readouterr().out
    assert len(gate.load_baseline(path)) == len(baseline) - 1


def _bench_functions(path: Path) -> set[str]:
    tree = ast.parse(path.read_text())
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and node.name.startswith("bench_")}


def test_committed_baseline_covers_every_bench(gate):
    """BENCH.json names exactly the suites' benches — no run needed."""
    entries = gate.load_baseline(gate.BASELINE_PATH)
    by_layer = {}
    for e in entries:
        by_layer.setdefault(e["layer"], set()).add((e["name"], e["metric"]))
        assert e["better"] in ("lower", "higher") and e["tolerance"] > 0
        assert e["value"] > 0
    assert set(by_layer) == {"engine", "obs", "service"}
    for layer in ("engine", "obs"):
        names = _bench_functions(BENCH_DIR / f"bench_{layer}.py")
        assert by_layer[layer] == {(n, "median_s") for n in names}
    assert by_layer["service"] == {(w, m) for w in WORKLOADS
                                   for m in ("qps", "p99_us")}
    assert len({gate._key(e) for e in entries}) == len(entries)
