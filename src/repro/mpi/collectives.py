"""Collective operations built from point-to-point messages.

Two broadcast algorithms, matching the paper's §3.3:

* :func:`bcast_tree` - binomial tree, latency-optimal (``log2 P``
  rounds).  Used for DiagBcast, whose message is small and on the
  critical path.
* :func:`bcast_ring` - ring relay, bandwidth-optimal (each process
  receives and forwards the message exactly once).  Used for
  PanelBcast by the ``+Async`` variant.  The relay is issued
  *asynchronously*: a process returns from the collective as soon as
  its own copy has arrived and the forward has been enqueued, which is
  precisely what lets ``P_r(k+1)`` start the look-ahead update before
  the broadcast completes, and lets successive broadcasts overlap
  across iterations.

Both are real message-passing programs, so their latency/bandwidth
behaviour *emerges* from the NIC model instead of being assumed.
"""

from __future__ import annotations

from typing import Any, Optional

from ..errors import CommTimeoutError, ConfigurationError
from ..sim.engine import Event
from .comm import Comm, payload_checksum

__all__ = [
    "bcast_tree",
    "bcast_ring",
    "bcast_ring_segmented",
    "barrier",
    "gather",
    "recv_with_retry",
    "BARRIER_TAG",
    "GATHER_TAG",
]

#: Internal control tags.  Negative by construction so they can never
#: collide with user tags, which :func:`_check_user_tag` keeps >= 0.
BARRIER_TAG = -7
GATHER_TAG = -9


def _check_user_tag(tag: int) -> None:
    if tag < 0:
        raise ConfigurationError(
            f"user tags must be non-negative (got {tag}); negative tags are "
            "reserved for internal collectives (barrier/gather)"
        )


def recv_with_retry(comm: Comm, src: int, tag: int):
    """Generator: a receive hardened against the fault injector.

    On unarmed runs this is exactly ``comm.recv`` (one extra ``is
    None`` check).  Armed, it layers the reliability protocol on top:

    * a receive deadline (``plan.recv_timeout``) with bounded retries
      and exponential backoff - each timeout re-requests the lost
      message from the injector's retained pristine copy;
    * checksum verification - a payload whose CRC32 does not match its
      envelope is discarded and re-requested the same way.

    Raises :class:`~repro.errors.CommTimeoutError` once the retry
    budget is spent (the peer is then presumed dead; the driver's
    recovery loop takes over).
    """
    injector = comm.mpi.injector
    if injector is None:
        payload = yield from comm.recv(src=src, tag=tag)
        return payload
    plan = injector.plan
    timeout = plan.recv_timeout
    src_world = comm.world_ranks[src]
    retries = 0
    while True:
        try:
            msg = yield from comm.recv_message(src=src, tag=tag, timeout=timeout)
        except CommTimeoutError:
            if retries >= plan.max_retries:
                raise CommTimeoutError(
                    f"rank {comm.rank} gave up on recv(src={src}, tag={tag}) "
                    f"after {retries} retries",
                    rank=comm.rank,
                    src=src,
                    tag=tag,
                    retries=retries,
                ) from None
            retries += 1
            injector.count("faults.retries")
            yield from injector.request_retransmit(comm.me_world, src_world, tag)
            if timeout is not None:
                timeout *= plan.backoff
            continue
        if msg.checksum is not None and payload_checksum(msg.payload) != msg.checksum:
            injector.count("faults.checksum_mismatches")
            injector.mark_undelivered(comm.me_world, msg.src, msg.seq)
            if retries >= plan.max_retries:
                raise CommTimeoutError(
                    f"rank {comm.rank} got {retries + 1} corrupted copies of "
                    f"(src={src}, tag={tag})",
                    rank=comm.rank,
                    src=src,
                    tag=tag,
                    retries=retries,
                )
            retries += 1
            injector.count("faults.retries")
            yield from injector.request_retransmit(comm.me_world, src_world, tag)
            continue
        return msg.payload


def _binomial_children(rel: int, size: int) -> list[int]:
    """Children of relative rank ``rel`` in a binomial broadcast tree,
    furthest-first (the classic MPICH schedule)."""
    if rel == 0:
        low = 1
        while low < size:
            low <<= 1
    else:
        low = rel & -rel
    children = []
    mask = low >> 1
    while mask:
        child = rel | mask
        if child < size and child != rel:
            children.append(child)
        mask >>= 1
    return children


def _binomial_parent(rel: int) -> int:
    return rel & (rel - 1)  # clear lowest set bit


def bcast_tree(comm: Comm, root: int, payload: Any = None, tag: int = 0, nbytes: Optional[float] = None):
    """Generator: binomial-tree broadcast; returns the payload on every
    member.  Non-root callers must pass ``payload=None``.

    Sends are *blocking*, so an interior node is held until its whole
    forwarding fan-out has drained through its NIC - the synchronizing
    behaviour the paper attributes to the library broadcast.
    """
    _check_user_tag(tag)
    size, me = comm.size, comm.rank
    rel = (me - root) % size
    if rel != 0:
        parent = (_binomial_parent(rel) + root) % size
        payload = yield from recv_with_retry(comm, parent, tag)
    for child in _binomial_children(rel, size):
        yield from comm.send((child + root) % size, payload, tag=tag, nbytes=nbytes)
    return payload


def bcast_ring(
    comm: Comm,
    root: int,
    payload: Any = None,
    tag: int = 0,
    nbytes: Optional[float] = None,
):
    """Generator: ring broadcast; returns ``(payload, relay_event)``.

    The message travels root -> root+1 -> ... -> root-1.  Each process
    enqueues its forward with ``isend`` and returns immediately, so
    computation proceeds while the NIC relays; ``relay_event`` fires
    when this process's forward has left the node (the last member, or
    a lone root, gets an already-fired event).
    """
    _check_user_tag(tag)
    size, me = comm.size, comm.rank
    rel = (me - root) % size
    if rel != 0:
        payload = yield from recv_with_retry(comm, (me - 1) % size, tag)
    done: Event
    if rel != size - 1 and size > 1:
        done = comm.isend((me + 1) % size, payload, tag=tag, nbytes=nbytes)
    else:
        done = comm.env.event()
        done.succeed()
    return payload, done


def bcast_ring_segmented(
    comm: Comm,
    root: int,
    payload: Any = None,
    tag: int = 0,
    segments: int = 4,
    nbytes: Optional[float] = None,
):
    """Generator: pipelined (segmented) ring broadcast, HPL-style.

    The message is cut into ``segments`` chunks relayed independently,
    so the ring's end-to-end makespan drops from ``(P-1)·B`` toward
    ``(P-1+S)·B/S`` - large-message latency close to the bandwidth
    bound, at the cost of S times the per-message setup.  This is the
    natural extension of the paper's §3.3 ring (its broadcast is
    unsegmented); ``benchmarks/bench_ablation_ring_segments.py``
    quantifies the trade.

    Returns ``(payload, relay_event)`` like :func:`bcast_ring`; the
    relay event fires when all of this member's forwards are enqueued
    complete.  Payloads must be picklable structures of arrays or
    ``None``; chunking is by top-level item for dicts/lists and by rows
    for a single array.
    """
    _check_user_tag(tag)
    size, me = comm.size, comm.rank
    if segments < 1:
        raise ValueError(f"segments must be >= 1, got {segments}")
    if segments == 1 or size == 1:
        result = yield from bcast_ring(comm, root, payload, tag=tag, nbytes=nbytes)
        return result
    rel = (me - root) % size
    base_tag = tag << 4  # sub-tags per segment; keep caller tags distinct

    def split(p: Any) -> list[Any]:
        import numpy as np

        if isinstance(p, dict):
            keys = list(p.keys())
            if not keys:
                return [p]
            step = -(-len(keys) // segments)
            return [
                {k: p[k] for k in keys[i : i + step]} for i in range(0, len(keys), step)
            ]
        if isinstance(p, np.ndarray) and p.ndim >= 1 and p.shape[0] >= segments:
            return list(np.array_split(p, segments, axis=0))
        if isinstance(p, (list, tuple)) and len(p) >= segments:
            step = -(-len(p) // segments)
            return [p[i : i + step] for i in range(0, len(p), step)]
        return [p]  # not splittable; degenerate to one segment

    def join(chunks: list[Any]) -> Any:
        import numpy as np

        if all(isinstance(c, dict) for c in chunks):
            out: dict = {}
            for c in chunks:
                out.update(c)
            return out
        if all(isinstance(c, np.ndarray) for c in chunks):
            return np.concatenate(chunks, axis=0)
        if len(chunks) == 1:
            return chunks[0]
        joined: list = []
        for c in chunks:
            joined.extend(c)
        return joined

    relays: list[Event] = []
    if rel == 0:
        # The protocol always carries exactly `segments` messages;
        # short splits are padded with None so every member's receive
        # loop is uniform.
        chunks = split(payload)
        chunks += [None] * (segments - len(chunks))
        for i, chunk in enumerate(chunks):
            relays.append(comm.isend((me + 1) % size, chunk, tag=base_tag + i))
        got = payload
    else:
        received = []
        # Receive segments in order; forward each the moment it lands
        # (the pipelining that cuts the ring's makespan).
        for i in range(segments):
            chunk = yield from recv_with_retry(comm, (me - 1) % size, base_tag + i)
            received.append(chunk)
            if rel != size - 1:
                relays.append(comm.isend((me + 1) % size, chunk, tag=base_tag + i))
        real = [c for c in received if c is not None]
        got = join(real) if real else None
    done: Event
    if relays:
        done = comm.env.all_of(relays)
    else:
        done = comm.env.event()
        done.succeed()
    return got, done


def barrier(comm: Comm, tag: int = BARRIER_TAG):
    """Generator: dissemination barrier (``ceil(log2 P)`` rounds of
    tiny messages)."""
    size, me = comm.size, comm.rank
    if size == 1:
        return
    dist = 1
    round_no = 0
    while dist < size:
        dst = (me + dist) % size
        src = (me - dist) % size
        t = (tag, round_no)
        send_ev = comm.isend(dst, None, tag=hash(t) & 0x7FFFFFFF)
        yield from comm.recv(src=src, tag=hash(t) & 0x7FFFFFFF)
        yield send_ev
        dist <<= 1
        round_no += 1


def gather(comm: Comm, root: int, payload: Any, tag: int = GATHER_TAG):
    """Generator: gather every member's payload at ``root``; returns the
    list (ordered by local rank) at the root, ``None`` elsewhere."""
    size, me = comm.size, comm.rank
    if me == root:
        out: list[Any] = [None] * size
        out[root] = payload
        for _ in range(size - 1):
            msg = yield from comm.recv_message(tag=tag)
            local_src = comm.world_ranks.index(msg.src)
            out[local_src] = msg.payload
        return out
    yield from comm.send(root, payload, tag=tag)
    return None
