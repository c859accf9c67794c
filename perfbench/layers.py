"""Per-layer metrics of a traced pass.

:class:`LayerTrace` wraps the public entry points of each layer with a
timer for the length of one pass, and opens a :func:`repro.obs.session`
so the counters the program already exports (engine stats, ``flow.*``,
executor counters) are collected.  Timers add their seconds to obs
counters named ``perfbench.<layer>``: inside a process-pool worker the
executor ships those counters home with each cell's telemetry, so worker
time lands in the same session as parent time.  Pool workers are forked
after the wrappers are installed and inherit them.

Nested calls into one timed entry point count once (the outermost call),
so a store ingest that calls other ingest methods is not counted twice.
"""

from __future__ import annotations

import dataclasses
import functools
import statistics
import time

import repro.bench.micro as micro
import repro.collectives.api as coll_api
import repro.lint as lint
from repro.bench.micro import MicroBenchmark
from repro.obs.context import current as obs_current
from repro.obs.context import session as obs_session
from repro.obs.metrics import parse_metric_key
from repro.sim.flow import FlowGate
from repro.store import TuningStore

#: Fallback reasons the flow engine labels ``flow.fallback_calls`` with.
FALLBACK_REASONS = ("hetero", "unknown_spread", "spread", "shared_contention",
                    "no_plan", "vector")

def _add(name: str, seconds: float) -> None:
    obs_current().metrics.counter(f"perfbench.{name}").inc(seconds)


def _timed(name: str, fn, depths: dict[str, int]):
    """``fn`` with its outermost calls' wall time added to ``name``.

    ``depths`` counts the calls of each name in progress.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        depth = depths.get(name, 0)
        depths[name] = depth + 1
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            depths[name] = depth
            if depth == 0:
                _add(name, time.perf_counter() - started)

    return wrapper


def _timed_generator(gen):
    """Drive ``gen`` and add the time spent inside it to ``generator_s``."""
    clock = time.perf_counter
    spent = 0.0
    value, error = None, None
    try:
        while True:
            started = clock()
            try:
                request = gen.send(value) if error is None else gen.throw(error)
            except StopIteration as stop:
                spent += clock() - started
                return stop.value
            spent += clock() - started
            value, error = None, None
            try:
                value = yield request
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into the generator
                error = exc
    finally:
        _add("generator_s", spent)


def _timed_get_algorithm(get_algorithm):
    @functools.wraps(get_algorithm)
    def wrapper(collective, name):
        info = get_algorithm(collective, name)
        fn = info.fn
        return dataclasses.replace(
            info, fn=lambda *args: _timed_generator(fn(*args)))

    return wrapper


class LayerTrace:
    """Context manager: timers on every layer plus an obs session."""

    def __init__(self) -> None:
        depths: dict[str, int] = {}
        self._patches = [
            (micro, "run_processes",
             _timed("sim_run_s", micro.run_processes, depths)),
            (MicroBenchmark, "run",
             _timed("harness_s", MicroBenchmark.run, depths)),
            (coll_api, "get_algorithm",
             _timed_get_algorithm(coll_api.get_algorithm)),
            (coll_api, "reference_result",
             _timed("result_build_s", coll_api.reference_result, depths)),
            (FlowGate, "resolve",
             _timed("flow_resolve_s", FlowGate.resolve, depths)),
            (lint, "lint_store", _timed("lint_s", lint.lint_store, depths)),
        ] + [
            (TuningStore, method,
             _timed("store_ingest_s", getattr(TuningStore, method), depths))
            for method in ("ingest_result", "ingest_sweep", "add_rule",
                           "store_table", "ingest_campaign")
        ]
        self._saved: list = []
        self._session = None
        self.obs = None

    def __enter__(self) -> "LayerTrace":
        for owner, attr, wrapper in self._patches:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)
        self._session = obs_session(meta={"benchmark": "perfbench"},
                                    record_spans=False)
        self.obs = self._session.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        self._session.__exit__(*exc)
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def seconds(self, name: str) -> float:
        counter = self.obs.metrics.get(f"perfbench.{name}")
        return float(counter.value) if counter is not None else 0.0

    def counter_sum(self, name: str) -> dict[str, float]:
        """Totals of counter ``name`` keyed by label set (``""`` = bare)."""
        out: dict[str, float] = {}
        for key in self.obs.metrics:
            base, labels = parse_metric_key(key)
            if base == name:
                tag = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
                out[tag] = out.get(tag, 0.0) + float(
                    self.obs.metrics.get(key).value)
        return out


def _quantile(values, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return float(cuts[int(round(q * 100)) - 1])


def layer_metrics(trace: LayerTrace, outcome, plain_seconds: float,
                  service: dict | None = None) -> dict[str, float]:
    """Every per-layer metric of one traced pass (0 where a layer is idle)."""
    m: dict[str, float] = {}
    detail = outcome.detail
    cell_s = outcome.op_seconds if service is None else []
    m["bench.cells"] = float(len(outcome.digests))
    m["bench.cell_p50_ms"] = _quantile(cell_s, 0.5) * 1e3
    m["bench.cell_p90_ms"] = _quantile(cell_s, 0.9) * 1e3
    m["bench.harness_self_s"] = (trace.seconds("harness_s")
                                 - trace.seconds("sim_run_s"))
    stats = detail.get("stats")
    if stats is not None and stats.wall_seconds > 0:
        jobs = detail["jobs"]
        m["bench.executor_self_s"] = (stats.wall_seconds
                                      - stats.sim_seconds / jobs)
        m["bench.pool_busy_ratio"] = (stats.sim_seconds
                                      / (jobs * stats.wall_seconds))
    else:
        m["bench.executor_self_s"] = 0.0
        m["bench.pool_busy_ratio"] = 0.0

    m["collectives.generator_s"] = trace.seconds("generator_s")
    m["collectives.result_build_s"] = trace.seconds("result_build_s")

    engine = trace.obs.engine_stats
    m["sim.run_s"] = trace.seconds("sim_run_s")
    m["sim.events"] = float(engine.events_total) if engine else 0.0
    m["sim.deliveries"] = float(engine.events_deliver) if engine else 0.0
    m["sim.events_per_s"] = float(engine.events_per_sec) if engine else 0.0
    m["sim.peak_heap"] = float(engine.peak_heap) if engine else 0.0
    m["sim.flow_resolve_s"] = (trace.seconds("flow_resolve_s")
                               - m["collectives.result_build_s"])

    collapsed = sum(trace.counter_sum("flow.messages_collapsed").values())
    fallback_msgs = sum(trace.counter_sum("flow.fallback_messages").values())
    m["flow.batches"] = sum(trace.counter_sum("flow.batches").values())
    m["flow.messages_collapsed"] = collapsed
    calls = trace.counter_sum("flow.fallback_calls")
    for reason in FALLBACK_REASONS:
        m[f"flow.fallback_calls.{reason}"] = calls.get(f"reason={reason}", 0.0)
    total = collapsed + fallback_msgs
    m["flow.engaged_ratio"] = collapsed / total if total else 0.0

    m["store.ingest_s"] = trace.seconds("store_ingest_s")
    m["store.rows_ingested"] = float(detail.get("rows", 0))
    m["lint.s"] = trace.seconds("lint_s")
    m["lint.findings"] = float(detail.get("lint_findings", 0))

    service = service or {}
    for key in ("store.table_load_s", "service.query_p50_us",
                "service.wire_p50_us", "service.cache_hit_ratio",
                "service.fallback_ratio", "service.p90_us", "service.p99_us",
                "service.errors"):
        m[key] = float(service.get(key, 0.0))

    m["error_rate"] = outcome.failed / outcome.attempted
    m["obs.traced_over_plain"] = outcome.seconds / plain_seconds
    return m
