"""The benchmark's four workloads, each driven through public entry points.

Every workload follows one shape:

* ``prepare()`` builds fixtures a pass needs but that are not the
  workload's own set-up (only ``serve_queries`` has one: the store it
  serves, built by the ``tune_pipeline`` campaign);
* ``setup()`` returns the state one or more passes run against, and
  ``teardown(state)`` releases it;
* ``run_pass(state)`` runs the workload once and returns a
  :class:`PassOutcome`: wall time, per-operation latencies, attempted and
  failed operations, and the per-cell d-hat/d* digests of every simulated
  cell.

Inputs depend on the seed only through :func:`variant`, so every seed maps
onto one of the variants whose exact-engine digests ``digests.json``
records; that keeps every run's outputs checkable.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro
from repro.bench.campaign import TuningCampaign
from repro.bench.loadgen import LoadGenConfig, build_mix
from repro.bench.micro import MicroBenchmark
from repro.errors import ServiceError
from repro.patterns.generator import ArrivalPattern
from repro.patterns.shapes import list_shapes
from repro.patterns.skew import DEFAULT_SKEW_FACTOR, skew_from_mean_runtime
from repro.service import SelectionClient, SelectionServer, SelectionService
from repro.sim.platform import get_machine
from repro.store import TuningStore

#: Number of distinct inputs per workload; ``digests.json`` holds the
#: exact-engine digests of each.
VARIANTS = 2

#: The simulated machine every workload runs on.
MACHINE = "hydra"

#: (collectives, message sizes in bytes, nodes, cores per node) of the
#: tuning grid shared by ``tune_pipeline`` and ``serve_queries``.  Small
#: ranks keep one pass near a second, so a run holds a dozen passes.
TUNE_GRID = {
    "full": (("alltoall", "allreduce", "reduce"), (8, 1024, 32768), 2, 4),
    "toy": (("alltoall", "reduce"), (8, 1024), 2, 2),
}

#: (nodes, cores per node, payload items) of the two FT-Scenario workloads,
#: sized so one pass takes about half a second.
SKEW_SCALE = {
    "paper_skew": {"full": (4, 32, 64), "toy": (4, 4, 64)},
    "private_port_scale": {"full": (512, 1, 1), "toy": (16, 1, 1)},
}

#: The paper's FT-Scenario coordinate.
SKEW_COLLECTIVE, SKEW_ALGORITHM, SKEW_BYTES = "alltoall", "pairwise", 32768

#: Process-pool width of the tuning campaign.  One worker: on a 2-vCPU
#: shared host a second worker made the pass time follow the speed of the
#: other vCPU, which the calibration loop does not see.
JOBS = 1

#: Queries per ``serve_queries`` pass.  They go over one client
#: connection, so the client and the server process take turns on the CPUs.
SERVE_QUERIES = {"full": 4000, "toy": 200}


def source_digest() -> str:
    """Digest of the program's source files."""
    package = Path(repro.__file__).parent
    h = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        h.update(str(path.relative_to(package)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def variant(seed: int) -> int:
    """The input variant a seed selects (see the module docstring)."""
    return seed % VARIANTS


def cell_digest(result) -> str:
    """Digest of one cell's d-hat/d* pair, bit for bit."""
    text = f"{result.last_delay.hex()} {result.total_delay.hex()}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def cell_label(result) -> str:
    return (f"{result.collective}/{result.algorithm}/"
            f"{int(result.msg_bytes)}/{result.pattern_name}")


@dataclass
class PassOutcome:
    """What one pass of a workload did and how long it took."""

    seconds: float
    op_seconds: list[float]
    attempted: int
    failed: int = 0
    digests: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    #: Workload-specific values the traced run turns into layer metrics.
    detail: dict = field(default_factory=dict)


# --------------------------------------------------------------------- #
# tune_pipeline
# --------------------------------------------------------------------- #


def tune_campaign(scale: str, seed: int, store_path: Path) -> TuningCampaign:
    """The researcher's campaign over the shared tuning grid."""
    collectives, sizes, nodes, cores = TUNE_GRID[scale]
    bench = MicroBenchmark.from_machine(get_machine(MACHINE), nodes, cores,
                                        nrep=1, seed=seed)
    return TuningCampaign(bench, collectives=collectives, msg_sizes=sizes,
                          seed=seed, jobs=JOBS, store=str(store_path),
                          lint_after=True)


def check_service_answers(service: SelectionService, result) -> list[str]:
    """Every tuned coordinate must be answered with the campaign's pick."""
    problems = []
    for (coll, size), sweep in result.sweeps.items():
        expected = {None: result.winners[(coll, size)]}
        expected.update({shape: sweep.best_algorithm(shape)
                         for shape in sweep.patterns})
        for pattern, algorithm in expected.items():
            reply = service.query(coll, sweep.num_ranks, size, pattern)
            if reply["algorithm"] != algorithm:
                problems.append(
                    f"service answered {coll}/{int(size)}/{pattern} with "
                    f"{reply['algorithm']}, campaign picked {algorithm}")
    return problems


class TunePipeline:
    """Campaign -> store -> lint -> service on a fresh store per pass."""

    #: Whether passes simulate cells, whose digests ``digests.json`` holds.
    simulates = True
    modules = ("repro.bench.campaign", "repro.store", "repro.lint",
               "repro.service")

    def __init__(self, seed: int, scale: str, workdir: Path) -> None:
        self.seed = variant(seed)
        self.scale = scale
        self.workdir = workdir
        self._passes = 0

    def prepare(self) -> None:
        pass

    def setup(self):
        return None

    def teardown(self, state) -> None:
        pass

    def run_pass(self, state) -> PassOutcome:
        self._passes += 1
        store_dir = self.workdir / f"tune{self._passes}"
        store_dir.mkdir(parents=True)
        store_path = store_dir / "store.db"
        started = time.perf_counter()
        campaign = tune_campaign(self.scale, self.seed, store_path)
        try:
            result = campaign.run()
        finally:
            campaign.close()
        with SelectionService(store_path) as service:
            problems = check_service_answers(service, result)
            queries = service.stats.queries
        seconds = time.perf_counter() - started
        with TuningStore(store_path) as store:
            rows = sum(store.counts().values())
        shutil.rmtree(store_dir)
        results = [cell for sweep in result.sweeps.values()
                   for cell in sweep.cells.values()]
        stats = result.stats
        return PassOutcome(
            seconds=seconds,
            op_seconds=list(stats.cell_seconds),
            attempted=len(results) + queries,
            failed=len(problems),
            digests={cell_label(r): cell_digest(r) for r in results},
            problems=problems,
            detail={"stats": stats, "jobs": JOBS, "rows": rows,
                    "lint_findings": len(result.lint_report.findings)},
        )


# --------------------------------------------------------------------- #
# paper_skew and private_port_scale
# --------------------------------------------------------------------- #


def jittered_ascending(num_ranks: int, max_skew: float,
                       seed: int) -> ArrivalPattern:
    """The ascending shape with up to 5 % seeded per-rank jitter."""
    rng = np.random.default_rng(seed)
    rel = np.arange(num_ranks) / max(num_ranks - 1, 1)
    rel = rel + 0.05 * rng.random(num_ranks)
    return ArrivalPattern("ascending_jitter", rel / rel.max() * max_skew)


class SkewCell:
    """One No-delay cell sizes the skew, then one skewed cell runs.

    The skewed cell is the operation whose latency the pass reports; the
    No-delay cell is digest-checked like it but only sizes the skew.  (A
    median over both cells would fall in the gap between their times.)
    """

    simulates = True
    modules = ("repro.bench.micro",)

    def __init__(self, name: str, seed: int, scale: str,
                 engine_mode: str = "hybrid") -> None:
        self.seed = variant(seed)
        self.nodes, self.cores, self.count = SKEW_SCALE[name][scale]
        self.engine_mode = engine_mode

    def prepare(self) -> None:
        pass

    def setup(self) -> MicroBenchmark:
        return MicroBenchmark.from_machine(
            get_machine(MACHINE), self.nodes, self.cores, nrep=1,
            seed=self.seed, count=self.count, engine_mode=self.engine_mode)

    def teardown(self, state) -> None:
        pass

    def run_pass(self, bench: MicroBenchmark) -> PassOutcome:
        started = time.perf_counter()
        base = bench.run(SKEW_COLLECTIVE, SKEW_ALGORITHM, SKEW_BYTES)
        first = time.perf_counter()
        skew = skew_from_mean_runtime([base.last_delay], DEFAULT_SKEW_FACTOR)
        pattern = jittered_ascending(bench.num_ranks, skew, self.seed)
        skewed = bench.run(SKEW_COLLECTIVE, SKEW_ALGORITHM, SKEW_BYTES,
                           pattern)
        ended = time.perf_counter()
        return PassOutcome(
            seconds=ended - started,
            op_seconds=[ended - first],
            attempted=2,
            digests={cell_label(r): cell_digest(r) for r in (base, skewed)},
        )


# --------------------------------------------------------------------- #
# serve_queries
# --------------------------------------------------------------------- #


def serve_mix(scale: str, seed: int) -> list[dict]:
    """The seeded query mix over the full key space around the tuned grid."""
    collectives, sizes, nodes, cores = TUNE_GRID[scale]
    p = nodes * cores
    config = LoadGenConfig(
        queries=SERVE_QUERIES[scale], seed=seed,
        collectives=collectives + ("bcast",),
        comm_sizes=(p // 2, p, 2 * p),
        msg_bytes=tuple(float(s) for s in sizes) + (1048576.0,),
        patterns=(None,) + tuple(list_shapes()),
    )
    return build_mix(config)


def _query_key(q: dict) -> tuple:
    return (q["collective"], q["comm_size"], q["msg_bytes"], q["pattern"])


def serve_store(store_path, ready) -> None:
    """Server process body: load the store, serve, stop on request."""
    started = time.perf_counter()
    service = SelectionService(store_path)
    load_seconds = time.perf_counter() - started
    server = SelectionServer(service).start()
    try:
        ready.send((server.address, load_seconds))
        ready.recv()
    finally:
        server.stop()
        service.close()


@dataclass
class ServeState:
    process: object
    control: object
    client: SelectionClient | None
    expected: dict
    load_seconds: float


class ServeQueries:
    """A closed loop of one TCP client against a selection server process."""

    simulates = False
    modules = ("repro.service",)

    def __init__(self, seed: int, scale: str, workdir: Path) -> None:
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        # Built once per program source and variant, then reused by later
        # runs: building it is tune_pipeline's pass, which that workload
        # measures.
        self.store_path = (workdir.parent / "cache"
                           / f"serve-{scale}-{variant(seed)}-{source_digest()}"
                           / "store.db")
        self.mix = serve_mix(scale, seed)

    def prepare(self) -> None:
        if self.store_path.exists():
            return
        building = self.workdir / "serve"
        building.mkdir(parents=True)
        campaign = tune_campaign(self.scale, variant(self.seed),
                                 building / "store.db")
        try:
            campaign.run()
        finally:
            campaign.close()
        self.store_path.parent.parent.mkdir(parents=True, exist_ok=True)
        os.replace(building, self.store_path.parent)

    def setup(self) -> ServeState:
        ctx = multiprocessing.get_context("spawn")
        control, child_end = ctx.Pipe()
        process = ctx.Process(target=serve_store,
                              args=(str(self.store_path), child_end))
        process.start()
        child_end.close()
        client = None
        try:
            if not control.poll(60):
                raise RuntimeError("selection server did not start")
            (host, port), load_seconds = control.recv()
            client = SelectionClient(host, port)
            # The expected answers come from the same store, in-process.
            with SelectionService(self.store_path) as service:
                expected = {}
                for q in self.mix:
                    key = _query_key(q)
                    if key not in expected:
                        reply = service.query(**q)
                        expected[key] = (reply["algorithm"], reply["source"])
        except BaseException:
            self.teardown(ServeState(process, control, client, {}, 0.0))
            raise
        return ServeState(process, control, client, expected, load_seconds)

    def teardown(self, state: ServeState) -> None:
        if state.client is not None:
            state.client.close()
        try:
            state.control.send("stop")
        except (BrokenPipeError, OSError):
            pass
        state.process.join(30)
        if state.process.is_alive():
            state.process.terminate()
            state.process.join(10)
        state.control.close()

    def service_stats(self, state: ServeState) -> dict:
        return state.client.stats()["stats"]

    def service_metrics(self, state: ServeState, before: dict,
                        outcome: PassOutcome) -> dict:
        """Service-side layer metrics of one pass, read over the wire."""
        client = state.client
        after = client.stats()["stats"]
        served = client.metrics()["quantiles"]["service.query_seconds"]
        delta = {k: after[k] - before[k] for k in after}
        queries = max(delta["queries"], 1)
        cuts = statistics.quantiles(outcome.op_seconds, n=100,
                                    method="inclusive")
        return {
            "store.table_load_s": state.load_seconds,
            "service.query_p50_us": served["p50"] * 1e6,
            "service.wire_p50_us": (cuts[49] - served["p50"]) * 1e6,
            "service.cache_hit_ratio": delta["cache_hits"] / queries,
            "service.fallback_ratio":
                outcome.detail["fallback_replies"] / outcome.attempted,
            "service.p90_us": cuts[89] * 1e6,
            "service.p99_us": cuts[98] * 1e6,
            "service.errors": delta["errors"],
        }

    def run_pass(self, state: ServeState) -> PassOutcome:
        client, clock = state.client, time.perf_counter
        latencies: list[float] = []
        bad: list[str] = []
        started = clock()
        for q in self.mix:
            t0 = clock()
            try:
                reply = client.request({"op": "query", **q})
            except (ServiceError, OSError) as exc:
                reply = {"ok": False, "error": repr(exc)}
            latencies.append(clock() - t0)
            want = state.expected[_query_key(q)]
            if not reply.get("ok") or \
                    (reply.get("algorithm"), reply.get("source")) != want:
                bad.append(f"query {q} answered {reply}, expected {want}")
        seconds = clock() - started
        fallbacks = sum(state.expected[_query_key(q)][1] == "fallback"
                        for q in self.mix)
        return PassOutcome(
            seconds=seconds,
            op_seconds=latencies,
            attempted=len(self.mix),
            failed=len(bad),
            problems=bad,
            detail={"fallback_replies": fallbacks},
        )


WORKLOADS = ("tune_pipeline", "paper_skew", "private_port_scale",
             "serve_queries")


def make_workload(name: str, seed: int, scale: str, workdir: Path,
                  engine_mode: str = "hybrid"):
    """The workload object for ``name``."""
    if name == "tune_pipeline":
        return TunePipeline(seed, scale, workdir)
    if name in SKEW_SCALE:
        return SkewCell(name, seed, scale, engine_mode)
    if name == "serve_queries":
        return ServeQueries(seed, scale, workdir)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
