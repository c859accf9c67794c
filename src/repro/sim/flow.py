"""Flow-level fast path: collapse regular bulk phases into vectorized replays.

The exact engine (:mod:`repro.sim.engine`) prices every message as its own
discrete event — perfect fidelity, but a 16k-rank linear alltoall is ~256M
messages and hopeless at one heap pop per message.  This module adds the
escape hatch: collectives *declare* the regular bulk phases of their
schedules via :func:`phase_descriptor` plans, and when every rank of a
communicator reaches such a phase together (aligned entries, or any
entries where the replay is skew-exact), the engine collapses the whole phase into **one
event per rank** — a :class:`FlowGate` that blocks all ranks, replays the
phase's port-claim recurrences with vectorized numpy, writes the port state
back, and resumes every rank at its computed exit time.

Exactness contract
------------------
The replay is not an approximation of the engine's cost model — it *is* the
cost model, evaluated in closed form:

* every float operation of the exact engine (sequential ``+= overhead``
  clock advances, ``max(ready, port_free) + tx_time`` port claims, eager
  and rendezvous completion rules) is replicated operation-for-operation,
  in the same order, so results are **bit-identical** to exact simulation
  whenever the flow path engages (see ``tests/test_engine_parity.py``);
* ``np.add.accumulate`` on float64 is a strict left fold, which makes
  saturated port chains evaluable in O(resets) vectorized passes
  (:func:`_seq_chain`) without changing a single rounding step.

The provable-exactness domain splits on port ownership:

* *Stepped* plans (lockstep exchange rounds) on **private-port** platforms
  (per-rank NICs, a single node, or one rank per node) are bit-exact at
  **any** entry skew: every port has a single owning rank that claims it
  in its own program order, and the engine's expected- and unexpected-path
  completion formulas coincide, so event interleaving cannot change the
  arithmetic.
* On platforms with ranks *sharing* node ports, and for the *linear* plan
  everywhere, exactness additionally needs **aligned entries**: with
  skewed entries an early rank's phase overlaps a late rank's previous
  phase in simulated time, and the engine interleaves their claims on the
  shared port while the gate serializes phases (linear plans further
  reorder unexpected-path extraction claims).  Stepped plans on such
  platforms moreover engage only when each node port has a **single
  claiming rank** for the whole phase (ring schedules qualify; strided
  exchanges like pairwise or recursive doubling do not — several
  co-located ranks would contend for the node NIC, which the vectorized
  replay does not serialize).  Hybrid mode falls back or refuses these
  cases; forced ``flow`` mode runs them anyway as analytic approximations
  (see ``docs/performance.md``).

Dispatch rules (``hybrid`` mode)
--------------------------------
A collective call takes the flow path only when **all** of these hold,
otherwise it falls back to exact per-message simulation and bumps the
``flow.fallback_*`` counters:

* a phase descriptor is registered for ``(collective, algorithm)`` and
  returns a plan for these parameters (e.g. recursive doubling only for
  power-of-two communicators, ring allreduce only for ``count >= p``,
  linear alltoall only below the eager threshold);
* for linear plans, and for stepped plans on shared-port platforms: the
  declared arrival spread of the run's pattern is zero (perfectly aligned
  phases), and the gate re-checks the *actual* entry spread at resolution, raising
  :class:`SimulationError` if the declaration was violated; stepped plans
  on private-port platforms are skew-exact and skip both checks;
* the call happens on the rank's main fiber (overlapped fibers keep exact
  ordering semantics).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.obs.context import current as _obs_current
from repro.sim.engine import _EV_RESUME, Engine

ENGINE_MODES = ("exact", "hybrid", "flow")


@dataclass(frozen=True)
class FlowConfig:
    """How (and whether) the flow fast path engages for a run.

    Parameters
    ----------
    mode:
        ``"exact"`` — never; ``"hybrid"`` — where a plan exists *and* the
        replay is provably bit-identical (aligned entries, or a stepped
        plan on private ports); ``"flow"`` — on every planned phase
        regardless of skew (analytic approximation).
    declared_spread:
        The arrival spread the harness *promises* for collective entries
        (``max(skew) - min(skew)`` of the pattern under a perfect clock).
        ``None`` means unknown (e.g. synced-clock mode) and disables the
        hybrid fast path entirely.
    payloads:
        When False, flow-path collectives return ``None`` instead of the
        reference result.  With payloads on, each batch builds every rank's
        result in one vectorized pass; turning them off saves the memory
        those results take (O(p^2) for alltoall and allgather), which the
        largest-scale benchmarks need.
    """

    mode: str = "hybrid"
    declared_spread: float | None = None
    payloads: bool = True

    def __post_init__(self) -> None:
        if self.mode not in ENGINE_MODES:
            raise ConfigurationError(
                f"unknown engine mode {self.mode!r}; expected one of {ENGINE_MODES}"
            )
        if self.declared_spread is not None and self.declared_spread < 0:
            raise ConfigurationError("declared_spread must be non-negative")


@dataclass(frozen=True)
class FlowPlan:
    """A collective schedule's declaration of one regular bulk phase.

    ``kind="stepped"`` describes a sequence of lockstep exchange rounds
    (every rank sends one message and receives one message per step, then
    waits on both): ``steps`` lazily yields ``(dst, src, sbytes)`` arrays
    per round, where ``dst[r]``/``src[r]`` are rank ``r``'s peers (mutually
    consistent permutations: ``dst[src[r]] == r``) and ``sbytes[r]`` the
    modeled wire bytes rank ``r`` sends.  Steps are generated lazily so an
    8k-rank plan costs O(p) memory, not O(p * steps).

    ``kind="linear"`` describes the post-everything-then-wait shape of
    ``alltoall/basic_linear``: ``p-1`` receives (ascending source, skipping
    self) then ``p-1`` sends to ``(rank+off) % p``, each of ``msg_bytes``
    eager bytes, one terminal waitall.

    ``est_messages`` is the total point-to-point message count the plan
    replaces — the basis of the ``flow.fallback_messages`` and
    ``flow.messages_collapsed`` counters.
    """

    kind: str
    collective: str
    algorithm: str
    est_messages: int
    num_steps: int = 0
    msg_bytes: float = 0.0
    steps: Callable[[], Iterator[tuple]] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ("stepped", "linear"):
            raise ConfigurationError(f"unknown flow plan kind {self.kind!r}")
        if self.kind == "stepped" and self.steps is None:
            raise ConfigurationError("stepped flow plans need a steps() generator")


# --------------------------------------------------------------------- #
# Phase-descriptor registry
# --------------------------------------------------------------------- #

_DESCRIPTORS: dict[tuple[str, str], Callable] = {}


def phase_descriptor(collective: str, algorithm: str):
    """Register ``fn(p, args, network) -> FlowPlan | None`` for a schedule.

    The descriptor runs per collective call and must be cheap (O(p) at
    most); returning ``None`` means the schedule is not phase-regular for
    these parameters and the exact engine handles the call.
    """

    def deco(fn):
        _DESCRIPTORS[(collective, algorithm)] = fn
        return fn

    return deco


def get_descriptor(collective: str, algorithm: str):
    """The registered phase descriptor, or ``None``."""
    return _DESCRIPTORS.get((collective, algorithm))


# --------------------------------------------------------------------- #
# Vectorized network tables and port state
# --------------------------------------------------------------------- #


class _NetTables:
    """Link-class lookup arrays for the engine's cost model.

    Class indices mirror the exact engine: 1 = intra-node, 2 = inter-node
    same group, 3 = cross-group (self-messages never occur in bulk phases).
    """

    __slots__ = (
        "p", "node_of", "group_of", "lat", "inv_bw", "shared", "rx_ser",
        "o", "ro", "eager_max", "multi_group", "private_ports",
    )

    def __init__(self, engine: Engine) -> None:
        net = engine.network
        p = engine.num_procs
        self.p = p
        self.node_of = np.asarray(net.node_of[:p], dtype=np.int64)
        self.group_of = np.asarray(net.group_of[:p], dtype=np.int64)
        self.lat = np.array([0.0, net.intra_lat, net.inter_lat, net.group_lat])
        self.inv_bw = np.array(
            [0.0, net.intra_inv_bw, net.inter_inv_bw, net.group_inv_bw]
        )
        self.shared = bool(net.shared_node_nic)
        self.rx_ser = bool(net.rx_serialization)
        self.o = net.send_overhead
        self.ro = net.recv_overhead
        self.eager_max = net.eager_max
        self.multi_group = bool(np.unique(self.group_of).size > 1) and (
            net.group_lat != net.inter_lat or net.group_inv_bw != net.inter_inv_bw
        )
        nodes_used = int(np.unique(self.node_of).size)
        # Private ports: no port is claimed by more than one rank — either
        # NICs are per-rank, all traffic is intra-node (node ports unused),
        # or each node hosts a single rank.  This is the domain where
        # stepped replays stay bit-exact under arbitrary entry skew.
        self.private_ports = (
            not self.shared
            or nodes_used == 1
            or int(np.bincount(self.node_of).max()) == 1
        )

    def classes(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Per-element link class for messages ``src[i] -> dst[i]``."""
        node = self.node_of
        same_node = node[src] == node[dst]
        if self.multi_group:
            grp = self.group_of
            return np.where(same_node, 1, np.where(grp[src] == grp[dst], 2, 3))
        return np.where(same_node, 1, 2)


class _PortState:
    """Snapshot of every injection/extraction port's ``free`` time."""

    __slots__ = ("tx", "rx", "node_tx", "node_rx")

    def __init__(self, engine: Engine) -> None:
        self.tx = np.array([proc.tx_free for proc in engine.procs])
        self.rx = np.array([proc.rx_free for proc in engine.procs])
        self.node_tx = np.array(engine._node_tx_free)
        self.node_rx = np.array(engine._node_rx_free)

    def write_back(self, engine: Engine) -> None:
        # Plain python floats keep the exact engine's hot path free of
        # numpy scalar overhead after the batch.
        for proc, v in zip(engine.procs, self.tx):
            proc.tx_free = float(v)
        for proc, v in zip(engine.procs, self.rx):
            proc.rx_free = float(v)
        engine._node_tx_free = [float(v) for v in self.node_tx]
        engine._node_rx_free = [float(v) for v in self.node_rx]


class _LinkAccum:
    """Per-batch fabric-traffic accumulator for the link recorder.

    The flow replay never materializes individual messages, so link
    recording aggregates instead: per ``(port, class, direction)`` it sums
    busy seconds, bytes, messages, and contention wait over the whole
    batch with :func:`np.bincount`, then :meth:`emit` writes one synthetic
    :meth:`~repro.obs.linkstats.LinkStatsRecorder.record_batch` interval
    per nonzero link.  Byte and message totals match the exact engine's
    per-message records exactly (integer-valued sums); busy/wait seconds
    can differ in the last ulp because the summation order differs.

    Keys pack the engine's port index space (ranks ``0..p-1``, node ports
    ``p + node``) with the link class: ``key = port * 4 + cls``.
    """

    __slots__ = ("p", "size", "busy", "nbytes", "wait", "msgs")

    def __init__(self, nt: _NetTables) -> None:
        self.p = nt.p
        num_nodes = int(nt.node_of.max()) + 1
        self.size = (nt.p + num_nodes) * 4
        # Index 0 = tx (injection), 1 = rx (extraction), as in linkstats.
        self.busy = np.zeros((2, self.size))
        self.nbytes = np.zeros((2, self.size))
        self.wait = np.zeros((2, self.size))
        self.msgs = np.zeros((2, self.size))

    def add(self, direction: int, ports, cls, busy, nbytes, wait) -> None:
        keys = np.asarray(ports, dtype=np.int64).ravel() * 4 + \
            np.asarray(cls, dtype=np.int64).ravel()

        def weights(x):
            x = np.asarray(x, dtype=float)
            return np.broadcast_to(x, keys.shape) if x.ndim == 0 else x.ravel()

        self.busy[direction] += np.bincount(keys, weights=weights(busy),
                                            minlength=self.size)
        self.nbytes[direction] += np.bincount(keys, weights=weights(nbytes),
                                              minlength=self.size)
        self.wait[direction] += np.bincount(keys, weights=weights(wait),
                                            minlength=self.size)
        self.msgs[direction] += np.bincount(keys, minlength=self.size)

    def emit(self, recorder, start: float, end: float,
             activity: str | None) -> None:
        p = self.p
        for direction in (0, 1):
            idx = np.flatnonzero(self.msgs[direction])
            if not idx.size:
                continue
            # Bulk-convert once: per-element numpy scalar boxing would
            # dominate the whole write-back on wide platforms.
            busy = self.busy[direction][idx].tolist()
            nbytes = self.nbytes[direction][idx].tolist()
            wait = self.wait[direction][idx].tolist()
            msgs = self.msgs[direction][idx].tolist()
            for i, key in enumerate(idx.tolist()):
                port = key >> 2
                recorder.record_batch(
                    port if port < p else p - 1 - port, key & 3, direction,
                    start, end, busy[i], nbytes[i], int(msgs[i]), wait[i],
                    activity)


# --------------------------------------------------------------------- #
# Exact sequential port chains, vectorized
# --------------------------------------------------------------------- #


def _seq_chain(a: np.ndarray, t: np.ndarray, free0: float) -> tuple[np.ndarray, float]:
    """Evaluate ``end_j = max(a_j, end_{j-1}) + t_j`` with ``end_{-1} = free0``.

    This is the engine's port-claim recurrence for one port's claim
    sequence (``a`` = per-claim ready times in claim order, ``t`` =
    transmission times).  ``np.add.accumulate`` on float64 is a strict
    left fold, so a run with no resets (``a_j <= end_{j-1}``) is evaluated
    in one vector pass with bit-identical rounding; each pass extends to
    the first reset, then re-bases.  Saturated ports — the regime flow
    batching targets — reset O(1) times.  Returns (ends, final_free).
    """
    n = a.shape[0]
    out = np.empty(n)
    start = 0
    prev = free0
    while True:
        base = a[start] if a[start] > prev else prev
        seg = np.empty(n - start + 1)
        seg[0] = base
        seg[1:] = t[start:]
        np.add.accumulate(seg, out=seg)
        ends = seg[1:]
        viol = np.flatnonzero(a[start + 1 :] > ends[:-1])
        if viol.size == 0:
            out[start:] = ends
            return out, float(out[-1])
        stop = start + 1 + int(viol[0])
        out[start:stop] = ends[: stop - start]
        prev = float(out[stop - 1])
        start = stop


# --------------------------------------------------------------------- #
# Phase replays
# --------------------------------------------------------------------- #


def _replay_stepped(
    plan: FlowPlan, nt: _NetTables, state: _PortState, entries: np.ndarray,
    accum: _LinkAccum | None = None,
) -> np.ndarray:
    """Replay a stepped exchange phase; returns per-rank exit times.

    Each step replicates the exact engine per rank: isend (clock += send
    overhead, eager port claim at ready or rendezvous claim at CTS
    arrival), irecv (clock += recv overhead), delivery at the receiver
    (eager extraction-port claim or rendezvous extract), waitall (clock =
    max of clock and both completion times).  All per-step quantities are
    elementwise over ranks; each shared node port is chained as a single
    sequence, which is exact because the dispatcher's single-owner scan
    guarantees at most one rank claims any node port during the phase.
    """
    p = nt.p
    ranks = np.arange(p)
    node_r = nt.node_of
    tx, rx = state.tx, state.rx
    node_tx, node_rx = state.node_tx, state.node_rx
    shared = nt.shared
    now = entries.copy()
    for dst, src, sbytes in plan.steps():
        now = now + nt.o          # isend: post, clock advance
        ready = now               # send ready == this step's irecv post time
        now = now + nt.ro         # irecv: clock advance
        cls = nt.classes(ranks, dst)
        tx_time = sbytes * nt.inv_bw[cls]
        lat = nt.lat[cls]
        eager = sbytes <= nt.eager_max
        # Rendezvous handshake: RTS at ready+lat, CTS back after the
        # receiver's recv post; the data claim starts at CTS arrival.
        if eager.all():
            claim_ready = ready
        else:
            handshake = np.maximum(ready[dst], ready + lat)
            claim_ready = np.where(eager, ready, handshake + lat)
        shared_o = (cls >= 2) if shared else None
        if shared:
            free_eff = np.where(shared_o, node_tx[node_r], tx)
        else:
            free_eff = tx
        tx_start = np.maximum(claim_ready, free_eff)
        tx_end = tx_start + tx_time
        if shared:
            tx = np.where(shared_o, tx, tx_end)
            node_tx[node_r[shared_o]] = tx_end[shared_o]
        else:
            tx = tx_end
        if accum is not None:
            ports = np.where(shared_o, p + node_r, ranks) if shared else ranks
            accum.add(0, ports, cls, tx_time, sbytes, tx_start - claim_ready)
        # Receiver side: rank r's inbound message comes from src[r]; its
        # sender-side quantities are gathers of the arrays above.
        arrival_in = tx_end[src] + lat[src]
        rx_time_in = tx_time[src]
        a_val = np.where(eager[src], np.maximum(ready, arrival_in), arrival_in)
        if nt.rx_ser:
            if shared:
                shared_i = cls[src] >= 2
                free_eff = np.where(shared_i, node_rx[node_r], rx)
            else:
                free_eff = rx
            rx_start = np.maximum(a_val, free_eff)
            delivered = rx_start + rx_time_in
            if shared:
                rx = np.where(shared_i, rx, delivered)
                node_rx[node_r[shared_i]] = delivered[shared_i]
            else:
                rx = delivered
            if accum is not None:
                ports = (np.where(shared_i, p + node_r, ranks)
                         if shared else ranks)
                accum.add(1, ports, cls[src], rx_time_in,
                          np.broadcast_to(np.asarray(sbytes, dtype=float),
                                          (p,))[src],
                          rx_start - a_val)
        else:
            delivered = a_val
        now = np.maximum(np.maximum(now, tx_end), delivered)
    state.tx, state.rx = tx, rx
    return now


def _replay_linear(
    plan: FlowPlan,
    nt: _NetTables,
    state: _PortState,
    entries: np.ndarray,
    order: np.ndarray,
    accum: _LinkAccum | None = None,
) -> np.ndarray:
    """Replay the basic-linear alltoall phase; returns per-rank exit times.

    Every rank posts ``p-1`` receives then ``p-1`` eager sends and waits
    once, so *all* posts of a rank execute in its single arrival resume —
    port claims interleave across ranks in **gate-arrival order** (``order``),
    send-index minor.  Receiver extraction ports are claimed at delivery
    events, globally ordered by ``(arrival, schedule seq)``; the stable
    two-key sort below reproduces that order exactly, and every port's
    claim sequence is then evaluated with :func:`_seq_chain`.
    """
    p = nt.p
    m = p - 1
    rank_of_pos = order
    t_pos = entries[rank_of_pos]

    # Sequential clock advance per rank: m recv-overhead adds, then m
    # send-overhead adds — replicated as a left-fold accumulate per row.
    seq = np.empty((p, 2 * m + 1))
    seq[:, 0] = t_pos
    seq[:, 1 : m + 1] = nt.ro
    seq[:, m + 1 :] = nt.o
    np.add.accumulate(seq, axis=1, out=seq)
    recv_post_pos = seq[:, :m]      # post time of the j-th irecv
    ready = seq[:, m + 1 :]         # ready time of the k-th isend
    now_after = seq[:, -1].copy()

    recv_post_rank = np.empty((p, m))
    recv_post_rank[rank_of_pos] = recv_post_pos

    # int32 indices: the O(p*m) gathers below are memory-bound and p < 2^31.
    off = np.arange(1, p, dtype=np.int32)
    src_col = rank_of_pos.astype(np.int32)[:, None]  # (p, 1) sender per row
    dst = src_col + off[None, :]                  # (p, m) receiver per element
    dst -= (dst >= p).astype(np.int32) * np.int32(p)  # cheaper than % p
    nod_s = nt.node_of[src_col]
    nod_d = nt.node_of[dst]
    if nt.multi_group:
        cls = np.where(
            nod_d == nod_s, 1,
            np.where(nt.group_of[dst] == nt.group_of[src_col], 2, 3),
        ).astype(np.int8)
    else:
        cls = np.where(nod_d == nod_s, np.int8(1), np.int8(2))
    tx_time = plan.msg_bytes * nt.inv_bw[cls]
    lat = nt.lat[cls]

    # --- injection-port claims, in (arrival position, send index) order ---
    tx_end = np.empty((p, m))
    shared_elem = (cls >= 2) if nt.shared else np.zeros((p, m), dtype=bool)
    # One pass instead of p flatnonzero row scans: np.nonzero is row-major,
    # which IS the claim order (arrival position major, send index minor).
    pr_rows, pr_cols = np.nonzero(~shared_elem)
    row_bounds = np.searchsorted(pr_rows, np.arange(p + 1))
    tx_state = state.tx
    for a in range(p):                      # private chains: <= cores-1 each
        b0, b1 = row_bounds[a], row_bounds[a + 1]
        if b0 == b1:
            continue
        idx = pr_cols[b0:b1]
        r = int(rank_of_pos[a])
        ends, last = _seq_chain(ready[a, idx], tx_time[a, idx], tx_state[r])
        tx_end[a, idx] = ends
        tx_state[r] = last
    if nt.shared:
        # A row's shared elements all claim the same node port (the
        # sender's node), so grouping by node only needs a p-row sort; the
        # row-major order of np.nonzero already matches the claim order
        # within and across the rows of one node.
        sh_rows, sh_cols = np.nonzero(shared_elem)
        if sh_rows.size:
            flat_sh = sh_rows.astype(np.int64) * m + sh_cols
            counts = np.bincount(sh_rows, minlength=p)
            starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
            row_node = nt.node_of[rank_of_pos]
            rperm = np.argsort(row_node, kind="stable")
            # Segmented arange: concatenate each sorted row's element range.
            lens = counts[rperm]
            total = int(lens.sum())
            if total:
                seg_off = np.repeat(np.cumsum(lens) - lens, lens)
                gather = np.repeat(starts[rperm], lens) + (
                    np.arange(total) - seg_off
                )
                sel_flat = flat_sh[gather]
                node_sorted = np.repeat(row_node[rperm], lens)
                ready_f = ready.ravel()[sel_flat]
                txt_f = tx_time.ravel()[sel_flat]
                tx_end_flat = tx_end.ravel()
                bounds = np.flatnonzero(np.diff(node_sorted)) + 1
                for b0, b1 in zip(
                    np.concatenate(([0], bounds)),
                    np.concatenate((bounds, [total])),
                ):
                    node = int(node_sorted[b0])
                    ends, last = _seq_chain(
                        ready_f[b0:b1], txt_f[b0:b1], state.node_tx[node]
                    )
                    tx_end_flat[sel_flat[b0:b1]] = ends
                    state.node_tx[node] = last

    if accum is not None:
        # The chains only surface end times, so the aggregate reconstructs
        # start = end - tx_time; wait can differ from the exact engine's in
        # the last ulp (clamped at zero), while bytes/messages are exact.
        tx_ports = np.where(shared_elem, p + nod_s,
                            np.broadcast_to(src_col, (p, m)))
        accum.add(0, tx_ports, cls, tx_time, plan.msg_bytes,
                  np.maximum(tx_end - tx_time - ready, 0.0))

    # --- deliveries: extraction-port claims in (arrival, seq) order ---
    arrival = tx_end + lat
    recv_idx = (src_col - (src_col > dst)).astype(np.int32)
    a_val = np.maximum(recv_post_rank[dst, recv_idx], arrival)
    if nt.rx_ser:
        res_id = np.where(shared_elem, p + nod_d, dst)
        arrival_f = arrival.ravel()
        res_f = res_id.ravel()
        # All times are positive finite, so the IEEE-754 bit pattern viewed
        # as uint64 sorts identically to the float — and integer keys take
        # numpy's radix path, several times faster at p^2 scale.
        perm1 = np.argsort(arrival_f.view(np.uint64), kind="stable")
        perm = perm1[np.argsort(res_f[perm1], kind="stable")]
        res_sorted = res_f[perm]
        a_f = a_val.ravel()[perm]
        txt_f = tx_time.ravel()[perm]
        delivered_f = np.empty(p * m)
        bounds = np.flatnonzero(np.diff(res_sorted)) + 1
        for b0, b1 in zip(
            np.concatenate(([0], bounds)),
            np.concatenate((bounds, [res_sorted.size])),
        ):
            res = int(res_sorted[b0])
            free0 = state.rx[res] if res < p else state.node_rx[res - p]
            ends, last = _seq_chain(a_f[b0:b1], txt_f[b0:b1], free0)
            delivered_f[perm[b0:b1]] = ends
            if res < p:
                state.rx[res] = last
            else:
                state.node_rx[res - p] = last
        delivered = delivered_f.reshape(p, m)
        if accum is not None:
            accum.add(1, res_id, cls, tx_time, plan.msg_bytes,
                      np.maximum(delivered - tx_time - a_val, 0.0))
    else:
        delivered = a_val

    # --- waitall: exit = max(clock after posts, send ends, recv ends) ---
    # Scatter deliveries into receiver-major layout (each slot written once:
    # every column of dst is a permutation of the ranks), then reduce; max
    # is exact, so the reduction order cannot change the result.
    recv_major = np.empty((p, m))
    cols = np.broadcast_to(np.arange(m), (p, m))
    recv_major[dst, cols] = delivered
    exits = np.empty(p)
    exits[rank_of_pos] = np.maximum(now_after, tx_end.max(axis=1))
    np.maximum(exits, recv_major.max(axis=1), out=exits)
    return exits


# --------------------------------------------------------------------- #
# Gate and runtime
# --------------------------------------------------------------------- #


class FlowGate:
    """Rendezvous point where all ranks of one planned phase meet.

    Each rank's ``run_collective`` yields ``("flow_gate", gate)``; the
    engine blocks the fiber and calls :meth:`arrive`.  The last arrival
    triggers :meth:`resolve`: snapshot port state, replay the phase, write
    the state back, and schedule every rank's resume (rank-ascending) at
    its computed exit time with its result as the resume value.
    """

    __slots__ = (
        "runtime", "plan", "signature", "result_fn", "fibers", "data",
        "order", "arrived",
    )

    def __init__(self, runtime: "FlowRuntime", plan: FlowPlan,
                 signature: tuple, result_fn) -> None:
        p = runtime.engine.num_procs
        self.runtime = runtime
        self.plan = plan
        self.signature = signature
        self.result_fn = result_fn
        self.fibers: list = [None] * p
        self.data: list = [None] * p
        self.order: list[int] = []
        self.arrived = 0

    def arrive(self, fiber) -> None:
        rank = fiber.rank
        if self.fibers[rank] is not None:
            raise SimulationError(
                f"rank {rank} re-entered the flow gate for "
                f"{self.plan.collective}/{self.plan.algorithm}"
            )
        self.fibers[rank] = fiber
        self.order.append(rank)
        self.arrived += 1
        if self.arrived == len(self.fibers):
            self.resolve()

    def resolve(self) -> None:
        runtime = self.runtime
        engine = runtime.engine
        plan = self.plan
        cfg = runtime.config
        runtime._active_gate = None
        p = engine.num_procs
        nt = runtime.net_tables
        entries = np.array([f.now for f in self.fibers])
        if cfg.mode == "hybrid" and (
            plan.kind == "linear" or not nt.private_ports
        ):
            spread = float(entries.max() - entries.min())
            if spread > 0.0:
                raise SimulationError(
                    f"flow gate for {plan.collective}/{plan.algorithm}: actual "
                    f"entry spread {spread:.3g}s but hybrid mode needs aligned "
                    "entries here — the declared zero spread did not hold at "
                    "this phase (collectives not separated by a harmonized "
                    "barrier?); rerun with --engine-mode exact, or "
                    "--engine-mode flow to accept an analytic approximation"
                )
        state = _PortState(engine)
        accum = _LinkAccum(nt) if engine._obs_link is not None else None
        if plan.kind == "linear":
            order = np.array(self.order, dtype=np.int64)
            exits = _replay_linear(plan, nt, state, entries, order, accum)
        else:
            exits = _replay_stepped(plan, nt, state, entries, accum)
        state.write_back(engine)
        if accum is not None:
            accum.emit(engine._obs_link, float(entries.min()),
                       float(exits.max()), engine.activity)
        if cfg.payloads and self.result_fn is not None:
            results = self.result_fn(self.data)
        else:
            results = [None] * p
        floor = engine.now
        for r in range(p):
            fib = self.fibers[r]
            exit_t = float(exits[r])
            fib.now = exit_t
            engine._schedule(
                exit_t if exit_t >= floor else floor, _EV_RESUME, fib, results[r]
            )
        runtime.batches += 1
        runtime.messages_collapsed += plan.est_messages
        octx = _obs_current()
        if octx.enabled:
            labels = {"algorithm": plan.algorithm}
            octx.metrics.counter("flow.batches", labels).inc()
            octx.metrics.counter("flow.messages_collapsed",
                                 labels).inc(plan.est_messages)


class FlowRuntime:
    """Per-engine flow state: dispatch decisions, gates, and counters.

    Attached to an engine as ``engine.flow_runtime`` by
    :func:`repro.sim.mpi.build_engine` when a :class:`FlowConfig` with a
    non-exact mode is supplied.  The plain attribute counters mirror the
    ``flow.*`` obs counters so benchmarks can assert coverage without an
    open observability session.
    """

    def __init__(self, engine: Engine, config: FlowConfig) -> None:
        if config.mode == "exact":
            raise ConfigurationError("FlowRuntime is pointless in exact mode")
        self.engine = engine
        self.config = config
        self.batches = 0
        self.messages_collapsed = 0
        self.fallback_calls = 0
        self.fallback_messages = 0
        self._active_gate: FlowGate | None = None
        self._nt: _NetTables | None = None
        self._owner_cache: dict[tuple, bool] = {}

    @property
    def net_tables(self) -> _NetTables:
        nt = self._nt
        if nt is None:
            nt = self._nt = _NetTables(self.engine)
        return nt

    def dispatch(self, ctx, collective: str, algorithm: str, args, data,
                 result_fn) -> Iterator | None:
        """A flow-path generator for this call, or ``None`` for exact.

        The decision depends only on call parameters, config, and platform
        shape, so every rank of one collective call decides identically.
        """
        engine = self.engine
        p = engine.num_procs
        if p <= 1:
            return None
        if ctx._fiber is not engine.procs[ctx.rank].fibers[0]:
            return None
        if not hasattr(args, "count"):
            # Vector collectives (VectorArgs: per-rank/per-pair counts) have
            # no stepped flow plan yet; label them distinctly so workload
            # runs do not silently read as generic "no_plan" regressions.
            self._count_fallback(ctx, "vector", 0)
            return None
        fn = _DESCRIPTORS.get((collective, algorithm))
        if fn is None:
            self._count_fallback(ctx, "no_plan", 0)
            return None
        plan = fn(p, args, engine.network)
        if plan is None:
            self._count_fallback(ctx, "no_plan", 0)
            return None
        cfg = self.config
        nt = self.net_tables
        reason = None
        if cfg.mode == "hybrid" and (
            plan.kind == "linear" or not nt.private_ports
        ):
            # Stepped plans on private-port platforms are order-insensitive
            # (single-owner ports; skew folds into the recurrences exactly)
            # and engage at any declared spread.  Linear plans and shared
            # node ports need aligned entries to stay bit-exact.
            if cfg.declared_spread is None:
                reason = "unknown_spread"
            elif cfg.declared_spread > 0.0:
                reason = "spread"
            elif plan.kind == "stepped" and not self._single_port_owner(plan, args):
                # The vectorized stepped replay chains each shared node port
                # as one sequence; two ranks claiming the same port would
                # need event-order serialization it does not model.
                reason = "shared_contention"
        if reason is not None:
            if ctx.rank == 0:        # count once per collective call
                # The plain attributes keep their original semantics (a plan
                # existed but fell back); the labeled obs counters also see
                # "no_plan" calls from the early returns above.
                self.fallback_calls += 1
                self.fallback_messages += plan.est_messages
            self._count_fallback(ctx, reason, plan.est_messages)
            return None
        signature = (collective, algorithm, p, args.count, args.msg_bytes, args.tag)
        return self._flow_body(ctx, plan, signature, result_fn, data)

    def _count_fallback(self, ctx, reason: str, est_messages: int) -> None:
        """Count one fallback-to-exact decision under its reason label.

        Counted once per collective call (at rank 0) so the totals read as
        calls, not call × ranks.  ``est_messages`` is zero when no plan
        exists to estimate from (``reason="no_plan"``).
        """
        if ctx.rank != 0:
            return
        octx = _obs_current()
        if not octx.enabled:
            return
        labels = {"reason": reason}
        octx.metrics.counter("flow.fallback_calls", labels).inc()
        octx.metrics.counter("flow.fallback_messages", labels).inc(est_messages)

    def _single_port_owner(self, plan: FlowPlan, args) -> bool:
        """Whether every shared node port has at most one claiming rank.

        Stepped replays on shared-NIC multi-rank nodes are exact only when
        each node's injection and extraction port is touched by a single
        rank for the whole phase — true for ring schedules (only the
        node-boundary ranks cross nodes), false for strided exchanges like
        pairwise or recursive doubling where several co-located ranks send
        inter-node in the same step.  The scan is O(p) per step with an
        early exit on the first violation, and the verdict depends only on
        the schedule shape, so it is cached across ranks and repetitions.
        """
        nt = self.net_tables
        key = (plan.collective, plan.algorithm, nt.p, args.count, args.msg_bytes)
        cached = self._owner_cache.get(key)
        if cached is not None:
            return cached
        ranks = np.arange(nt.p)
        node = nt.node_of
        num_nodes = int(node.max()) + 1
        tx_owner = np.full(num_nodes, -1, dtype=np.int64)
        rx_owner = np.full(num_nodes, -1, dtype=np.int64)
        ok = True
        prev_dst = prev_src = None
        for dst, src, _sbytes in plan.steps():
            # Ring-style schedules repeat the same partner map every step;
            # a repeated map cannot add owners, so skip the rescan.
            if (
                prev_dst is not None
                and np.array_equal(dst, prev_dst)
                and np.array_equal(src, prev_src)
            ):
                continue
            prev_dst, prev_src = dst, src
            cls = nt.classes(ranks, dst)
            for inter, owner, claimant in (
                (cls >= 2, tx_owner, ranks),
                ((cls[src] >= 2) if nt.rx_ser else None, rx_owner, ranks),
            ):
                if inter is None or not inter.any():
                    continue
                c_ranks = claimant[inter]
                c_nodes = node[c_ranks]
                prev = owner[c_nodes]
                if (np.any((prev != -1) & (prev != c_ranks))
                        or np.unique(c_nodes).size != c_nodes.size):
                    ok = False
                    break
                owner[c_nodes] = c_ranks
            if not ok:
                break
        self._owner_cache[key] = ok
        return ok

    def _flow_body(self, ctx, plan, signature, result_fn, data):
        gate = self._active_gate
        if gate is None:
            gate = FlowGate(self, plan, signature, result_fn)
            self._active_gate = gate
        elif gate.signature != signature:
            raise SimulationError(
                f"flow gate mismatch: rank {ctx.rank} entered {signature} while "
                f"the active batch is {gate.signature} — ranks must call the "
                "same collective with the same parameters"
            )
        gate.data[ctx.rank] = data
        result = yield ("flow_gate", gate)
        return result


__all__ = [
    "ENGINE_MODES",
    "FlowConfig",
    "FlowGate",
    "FlowPlan",
    "FlowRuntime",
    "get_descriptor",
    "phase_descriptor",
]
