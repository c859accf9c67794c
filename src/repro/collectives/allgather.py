"""Allgather algorithms.

All algorithms take ``(ctx, args, data)`` where ``data`` is this rank's
contribution (1-D, ``args.count`` items) and return a ``(p, count)`` matrix,
row ``i`` holding rank ``i``'s contribution.  ``args.msg_bytes`` models one
contribution's wire size.
"""

from __future__ import annotations

import numpy as np

from repro.collectives.base import (
    FlowPlan,
    as_array,
    ceil_log2,
    phase_descriptor,
    register,
)
from repro.sim.mpi import ProcContext


def _out(ctx: ProcContext, args, own: np.ndarray) -> np.ndarray:
    out = np.empty((ctx.size, args.count), dtype=own.dtype)
    out[ctx.rank] = own
    return out


@register("allgather", "linear", ompi_id=1, aliases=("basic_linear",),
          description="Everyone sends its block to everyone else directly.")
def allgather_linear(ctx, args, data):
    p, me = ctx.size, ctx.rank
    own = as_array(data, args.count, "allgather data")
    out = _out(ctx, args, own)
    if p == 1:
        return out
    recv_reqs = {src: ctx.irecv(src, args.tag) for src in range(p) if src != me}
    send_reqs = [
        ctx.isend((me + off) % p, args.msg_bytes, args.tag, payload=own)
        for off in range(1, p)
    ]
    yield ctx.waitall(list(recv_reqs.values()) + send_reqs)
    for src, req in recv_reqs.items():
        out[src] = req.payload
    return out


@register("allgather", "bruck", ompi_id=2,
          description="ceil(log2 p) rounds, doubling the shipped block set each round.")
def allgather_bruck(ctx, args, data):
    p, me = ctx.size, ctx.rank
    own = as_array(data, args.count, "allgather data")
    out = _out(ctx, args, own)
    if p == 1:
        return out
    # staged[j] = contribution of rank (me + j) % p; grows from 1 to p rows.
    staged = np.empty((p, args.count), dtype=own.dtype)
    staged[0] = own
    have = 1
    for k in range(ceil_log2(p) + 1):
        pow2 = 1 << k
        if have >= p:
            break
        dst = (me - pow2) % p
        src = (me + pow2) % p
        ship = min(have, p - have)
        sreq = ctx.isend(dst, args.msg_bytes * ship, args.tag, payload=staged[:ship].copy())
        rreq = ctx.irecv(src, args.tag)
        yield ctx.waitall(sreq, rreq)
        staged[have : have + ship] = rreq.payload
        have += ship
    for j in range(p):
        out[(me + j) % p] = staged[j]
    return out


@register("allgather", "recursive_doubling", ompi_id=3, aliases=("rdb",),
          description="log2(p) exchange rounds (power-of-two ranks; otherwise falls back to Bruck).")
def allgather_recursive_doubling(ctx, args, data):
    p, me = ctx.size, ctx.rank
    if p & (p - 1):
        return (yield from allgather_bruck(ctx, args, data))
    own = as_array(data, args.count, "allgather data")
    out = _out(ctx, args, own)
    mask = 1
    while mask < p:
        partner = me ^ mask
        block_lo = (me // mask) * mask
        rows = out[block_lo : block_lo + mask].copy()
        sreq = ctx.isend(partner, args.msg_bytes * mask, args.tag, payload=rows)
        rreq = ctx.irecv(partner, args.tag)
        yield ctx.waitall(sreq, rreq)
        other_lo = (partner // mask) * mask
        out[other_lo : other_lo + mask] = rreq.payload
        mask <<= 1
    return out


@register("allgather", "ring", ompi_id=4,
          description="p-1 steps passing blocks around the ring.")
def allgather_ring(ctx, args, data):
    p, me = ctx.size, ctx.rank
    own = as_array(data, args.count, "allgather data")
    out = _out(ctx, args, own)
    right = (me + 1) % p
    left = (me - 1) % p
    for step in range(p - 1):
        send_i = (me - step) % p
        recv_i = (me - step - 1) % p
        sreq = ctx.isend(right, args.msg_bytes, args.tag, payload=out[send_i])
        rreq = ctx.irecv(left, args.tag)
        yield ctx.waitall(sreq, rreq)
        out[recv_i] = rreq.payload
    return out


@register("allgather", "neighbor_exchange", ompi_id=5, aliases=("neighbor",),
          description="p/2 rounds exchanging growing pairs with alternating neighbours (even p).")
def allgather_neighbor_exchange(ctx, args, data):
    """Neighbor-exchange allgather (Chen et al.); requires even p, else ring.

    Round 0 exchanges single blocks with one neighbour; subsequent rounds
    exchange the two most recently acquired blocks with alternating left and
    right neighbours.
    """
    p, me = ctx.size, ctx.rank
    if p % 2:
        return (yield from allgather_ring(ctx, args, data))
    own = as_array(data, args.count, "allgather data")
    out = _out(ctx, args, own)
    if p == 1:
        return out
    even = me % 2 == 0
    # Open MPI's bookkeeping: two alternating neighbours and, per parity, a
    # sliding even-aligned pair index the next receive lands at.
    if even:
        neighbor = [(me + 1) % p, (me - 1) % p]
        recv_from = [me, me]
        offset_at = [+2, -2]
    else:
        neighbor = [(me - 1) % p, (me + 1) % p]
        recv_from = [(me - 1) % p, (me - 1) % p]
        offset_at = [-2, +2]
    # Step 0: exchange own blocks with neighbor[0].
    rreq = yield from ctx.sendrecv(neighbor[0], neighbor[0], args.msg_bytes, payload=out[me])
    out[neighbor[0]] = rreq.payload
    send_from = me if even else recv_from[0]
    for i in range(1, p // 2):
        parity = i % 2
        recv_from[parity] = (recv_from[parity] + offset_at[parity]) % p
        lo = recv_from[parity]
        payload = out[send_from : send_from + 2].copy()
        rreq = yield from ctx.sendrecv(
            neighbor[parity], neighbor[parity], 2 * args.msg_bytes, payload=payload
        )
        arrived = np.asarray(rreq.payload)
        out[lo] = arrived[0]
        out[lo + 1] = arrived[1]
        send_from = lo
    return out


# --------------------------------------------------------------------- #
# Flow-phase descriptors (repro.sim.flow)
# --------------------------------------------------------------------- #


@phase_descriptor("allgather", "ring")
def _ring_flow(p, args, net):
    msg_bytes = float(args.msg_bytes)

    def steps():
        idx = np.arange(p, dtype=np.int64)
        right = (idx + 1) % p
        left = (idx - 1) % p
        sbytes = np.full(p, msg_bytes)
        for step in range(p - 1):
            yield right, left, sbytes

    return FlowPlan(
        kind="stepped",
        collective="allgather",
        algorithm="ring",
        est_messages=p * (p - 1),
        num_steps=p - 1,
        steps=steps,
    )
