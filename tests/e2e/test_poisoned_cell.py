"""End to end: a poisoned store cell is flagged by the lint and never served.

A real campaign is tuned into a store with ``repro-mpi tune --store``.  One
of its alltoall cells is then copied with its timings scaled far below the
machine's bandwidth floor and a rule is derived from it.  ``repro-mpi
lint-store --mark`` must fail on that cell, and the selection service must
refuse to serve the rule it backs while clean rules still answer from the
store.
"""

from __future__ import annotations

import pytest

from repro.bench.results import BenchResult
from repro.cli import main
from repro.service import SelectionService
from repro.store import TuningStore


@pytest.fixture(autouse=True)
def _in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


def _poison(payload: dict) -> dict:
    """The cell with physically impossible (near-zero) timings."""
    payload = dict(payload, algorithm="poisoned")
    payload["timings"] = [
        dict(t, arrivals=[0.0] * len(t["arrivals"]),
             exits=[1e-15] * len(t["exits"]))
        for t in payload["timings"]]
    payload["last_delays"] = [1e-15] * len(payload["last_delays"])
    payload["total_delays"] = [1e-15] * len(payload["total_delays"])
    return payload


def test_poisoned_cell_is_flagged_and_excluded(capsys):
    assert main(["tune", "--nodes", "2", "--cores", "2",
                 "--collectives", "alltoall", "allreduce",
                 "--sizes", "64", "1KiB", "--out", "tuned",
                 "--store", "tuning.db"]) == 0

    with TuningStore("tuning.db") as store:
        payload = next(payload for _, payload, _ in store.iter_cell_rows()
                       if payload["collective"] == "alltoall")
        coord = (int(payload["num_ranks"]), float(payload["msg_bytes"]))
        _, inserted = store.ingest_result(
            BenchResult.from_dict(_poison(payload)))
        assert inserted
        store.add_rule(store.strategies()[0], "alltoall", *coord, "poisoned")

    assert main(["lint-store", "tuning.db", "--mark",
                 "--fail-on", "error"]) != 0
    with TuningStore("tuning.db") as store:
        assert store.suspect_hashes(), "lint --mark flagged no cells"

    with SelectionService("tuning.db", watch_store=False) as service:
        bad = service.query("alltoall", *coord)
        assert bad["algorithm"] != "poisoned", bad
        clean = service.query("allreduce", *coord)
        assert clean["source"] == "store", clean
