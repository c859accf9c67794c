"""End to end: record a run's obs trace with the CLI, then replay it.

Each test drives ``repro-mpi`` exactly as a user would — one command writes
a trace with ``--trace-out``, ``workload replay`` reconstructs the phases
and arrival pattern from that file and re-runs them.
"""

from __future__ import annotations

import pytest

from repro.cli import main

SMALL = ["--fast", "--machine", "simcluster", "--nodes", "4", "--cores", "2",
         "--no-cells"]


@pytest.fixture(autouse=True)
def _in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


def _replay(trace, capsys) -> str:
    capsys.readouterr()
    assert main(["workload", "replay", str(trace), *SMALL]) == 0
    return capsys.readouterr().out


def test_patterned_workload_trace_replays(capsys):
    assert main(["workload", "run", "halo_mix", *SMALL,
                 "--shape", "ascending", "--max-skew", "2e-4",
                 "--trace-out", "halo_trace.json"]) == 0
    out = _replay("halo_trace.json", capsys)
    assert "pattern replay:" in out
    assert "alltoall@" in out


def test_trace_command_output_replays(capsys):
    assert main(["trace", "--app", "ft", "--nodes", "2", "--cores", "4",
                 "--iterations", "3"]) == 0
    out = _replay("app.trace", capsys)
    assert "pattern replay:" in out
    assert "alltoall@" in out
    assert "8 ranks on simcluster" in out
