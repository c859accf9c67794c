"""Barrier algorithms.

All algorithms take ``(ctx, args, data=None)`` and return ``None``.  Barrier
messages are modeled as single-byte control messages; ``args.count`` and
``args.msg_bytes`` are ignored.
"""

from __future__ import annotations

import numpy as np

from repro.collectives.base import (
    FlowPlan,
    binomial_tree,
    ceil_log2,
    largest_power_of_two_leq,
    phase_descriptor,
    register,
)
from repro.sim.mpi import ProcContext

_B = 1  # modeled bytes of a barrier token


@register("barrier", "linear", ompi_id=1, aliases=("basic_linear",),
          description="Fan-in to rank 0, then fan-out release.")
def barrier_linear(ctx, args, data=None):
    p, me = ctx.size, ctx.rank
    if p == 1:
        return None
    if me == 0:
        reqs = [ctx.irecv(src, args.tag) for src in range(1, p)]
        yield ctx.waitall(reqs)
        rel = [ctx.isend(dst, _B, args.tag + 1) for dst in range(1, p)]
        yield ctx.waitall(rel)
    else:
        yield from ctx.send(0, _B, args.tag)
        yield from ctx.recv(0, args.tag + 1)
    return None


@register("barrier", "double_ring", ompi_id=2,
          description="A token circulates the ring twice.")
def barrier_double_ring(ctx, args, data=None):
    p, me = ctx.size, ctx.rank
    if p == 1:
        return None
    left = (me - 1) % p
    right = (me + 1) % p
    for _round in range(2):
        if me == 0:
            yield from ctx.send(right, _B, args.tag + _round)
            yield from ctx.recv(left, args.tag + _round)
        else:
            yield from ctx.recv(left, args.tag + _round)
            yield from ctx.send(right, _B, args.tag + _round)
    return None


@register("barrier", "recursive_doubling", ompi_id=3, aliases=("rdb",),
          description="log2(p) pairwise exchange rounds; extras fold in/out.")
def barrier_recursive_doubling(ctx, args, data=None):
    p, me = ctx.size, ctx.rank
    if p == 1:
        return None
    pof2 = largest_power_of_two_leq(p)
    rem = p - pof2
    if me < 2 * rem:
        if me % 2 == 0:
            yield from ctx.send(me + 1, _B, args.tag)
            newrank = -1
        else:
            yield from ctx.recv(me - 1, args.tag)
            newrank = me // 2
    else:
        newrank = me - rem
    if newrank != -1:
        mask = 1
        while mask < pof2:
            partner_nr = newrank ^ mask
            partner = partner_nr * 2 + 1 if partner_nr < rem else partner_nr + rem
            yield from ctx.sendrecv(partner, partner, _B, tag=args.tag + 1)
            mask <<= 1
    if me < 2 * rem:
        if me % 2 == 0:
            yield from ctx.recv(me + 1, args.tag + 2)
        else:
            yield from ctx.send(me - 1, _B, args.tag + 2)
    return None


@register("barrier", "bruck", ompi_id=4, aliases=("dissemination",),
          description="ceil(log2 p) dissemination rounds with ring-offset partners.")
def barrier_bruck(ctx, args, data=None):
    p, me = ctx.size, ctx.rank
    distance = 1
    round_no = 0
    while distance < p:
        dst = (me + distance) % p
        src = (me - distance) % p
        yield from ctx.sendrecv(dst, src, _B, tag=args.tag + round_no)
        distance <<= 1
        round_no += 1
    return None


@register("barrier", "tree", ompi_id=6, aliases=("bmtree",),
          description="Binomial fan-in, then binomial fan-out.")
def barrier_tree(ctx, args, data=None):
    p, me = ctx.size, ctx.rank
    if p == 1:
        return None
    parent, children = binomial_tree(me, p, 0)
    for child in children:
        yield from ctx.recv(child, args.tag)
    if parent is not None:
        yield from ctx.send(parent, _B, args.tag)
        yield from ctx.recv(parent, args.tag + 1)
    for child in children:
        yield from ctx.send(child, _B, args.tag + 1)
    return None


# --------------------------------------------------------------------- #
# Flow-phase descriptors (repro.sim.flow)
# --------------------------------------------------------------------- #


@phase_descriptor("barrier", "bruck")
def _bruck_flow(p, args, net):
    rounds = ceil_log2(p)

    def steps():
        idx = np.arange(p, dtype=np.int64)
        sbytes = np.full(p, float(_B))
        distance = 1
        while distance < p:
            yield (idx + distance) % p, (idx - distance) % p, sbytes
            distance <<= 1

    return FlowPlan(
        kind="stepped",
        collective="barrier",
        algorithm="bruck",
        est_messages=p * rounds,
        num_steps=rounds,
        steps=steps,
    )
