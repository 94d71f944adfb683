"""Simulated MPI: ranks, mailboxes, communicators, point-to-point.

Rank *programs* are Python generators running on the
:class:`~repro.sim.engine.Environment`; they talk through an MPI-like
API whose costs are charged by the :class:`~repro.machine.cluster.SimCluster`
(NIC occupancy, intranode channel, latency).  Payloads are real NumPy
arrays, so the distributed algorithms compute real answers.

Semantics (close to eager-mode MPI over a bandwidth-serialized NIC):

* ``send`` blocks the caller for its share of NIC occupancy (messages
  from one node serialize on that node's NIC), then the message is
  delivered ``latency`` later; the receiver's ``recv`` matches on
  (source, tag) like MPI envelopes.
* ``isend`` does the same in a spawned child process and returns an
  event, enabling the sender to overlap (used by the ring broadcast's
  relay and by the pipelined schedule).
* Array payloads are copied at send time (eager buffering) so a sender
  mutating its block in a later iteration can never corrupt a message
  in flight - the exact hazard the pipelined/asynchronous schedules
  would otherwise create.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Optional, Sequence

import numpy as np

from ..errors import CommTimeoutError, ConfigurationError
from ..machine.cluster import SimCluster
from ..sim.engine import Environment, Event
from ..sim.resources import FilterStore
from ..sim.trace import Tracer

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Message",
    "SimMPI",
    "Comm",
    "virtual_nbytes",
    "payload_checksum",
]

#: Wildcards for :meth:`Comm.recv` matching.
ANY_SOURCE = -1
ANY_TAG = -1

#: Message classes by tag opcode (tag = (k << 3) | op, see
#: :class:`repro.core.context.Op`); negative tags are the fault
#: layer's control traffic (re-requests, retransmits).
_TAG_CLASS = {0: "diag_row", 1: "diag_col", 2: "panel_row", 3: "panel_col"}


@dataclass(frozen=True)
class Message:
    """An MPI envelope + payload, as stored in a rank's mailbox."""

    src: int  # world rank of the sender
    tag: int
    payload: Any
    nbytes: float  # virtual bytes, for accounting
    sent_at: float
    delivered_at: float
    #: Per-(src, dst) sequence number for duplicate suppression; -1 on
    #: unarmed runs (no fault injector).
    seq: int = -1
    #: CRC32 over the payload's array bytes; None on unarmed runs.
    checksum: Optional[int] = None


def _copy_payload(payload: Any) -> Any:
    """Deep-copy the ndarray leaves of a payload (eager buffering)."""
    if isinstance(payload, np.ndarray):
        return payload.copy()
    if isinstance(payload, (list, tuple)):
        return type(payload)(_copy_payload(p) for p in payload)
    if isinstance(payload, dict):
        return {k: _copy_payload(v) for k, v in payload.items()}
    return payload


def payload_checksum(payload: Any) -> int:
    """CRC32 over a payload's structure and ndarray bytes.

    Sends under a plan with message faults stamp this on the
    envelope; the retry wrapper in
    :mod:`repro.mpi.collectives` recomputes it on receipt, so injected
    bit-flips are detected and the pristine copy re-requested."""
    crc = 0

    def walk(p: Any) -> None:
        nonlocal crc
        if isinstance(p, np.ndarray):
            crc = zlib.crc32(np.ascontiguousarray(p).tobytes(), crc)
        elif isinstance(p, (list, tuple)):
            for x in p:
                walk(x)
        elif isinstance(p, dict):
            for key, x in p.items():
                crc = zlib.crc32(repr(key).encode(), crc)
                walk(x)
        else:
            crc = zlib.crc32(repr(p).encode(), crc)

    walk(payload)
    return crc


class SimMPI:
    """The world: mailboxes plus the rank -> node mapping."""

    def __init__(
        self,
        env: Environment,
        cluster: SimCluster,
        rank_to_node: Sequence[int],
        tracer: Optional[Tracer] = None,
    ):
        self.env = env
        self.cluster = cluster
        self.rank_to_node = list(rank_to_node)
        self.tracer = tracer
        for node in self.rank_to_node:
            if not 0 <= node < len(cluster):
                raise ConfigurationError(f"rank mapped to nonexistent node {node}")
        self.size = len(self.rank_to_node)
        self._mailboxes = [FilterStore(env, name=f"mbox{r}") for r in range(self.size)]
        #: Total virtual bytes sent, by (intra, inter) node.
        self.bytes_internode = 0.0
        self.bytes_intranode = 0.0
        self.message_count = 0
        #: Armed by the driver with a
        #: :class:`~repro.faults.injector.FaultInjector`; None (the
        #: default) keeps the transport on its zero-overhead path.
        self.injector = None
        #: Armed by the driver with a
        #: :class:`~repro.obs.metrics.MetricsRegistry`; None (the
        #: default) keeps the transport on its zero-overhead path.
        #: When set, every message is counted into per-class
        #: (``diag_row`` / ``panel_col`` / ...) and per-scope
        #: (``intranode`` / ``internode``) byte and message counters.
        self.obs = None

    def virtual_nbytes(self, payload: Any) -> float:
        return virtual_nbytes(payload, self.cluster.cost)

    def node_of(self, world_rank: int) -> int:
        return self.rank_to_node[world_rank]

    def world(self) -> "Comm":
        """COMM_WORLD as seen from no particular rank; use
        :meth:`Comm.localize` per rank program."""
        return Comm(self, tuple(range(self.size)), me=None)

    # -- transport ---------------------------------------------------------
    def _send(self, src: int, dst: int, payload: Any, tag: int, nbytes: Optional[float]):
        """Generator: the actual transport (runs in sender context)."""
        if nbytes is None:
            nbytes = self.virtual_nbytes(payload)
        sent_at = self.env.now
        src_node, dst_node = self.rank_to_node[src], self.rank_to_node[dst]
        buffered = _copy_payload(payload)
        injector = self.injector
        seq = -1
        checksum = None
        if injector is not None:
            seq = injector.next_seq(src, dst)
            if injector.plan.message_faults:
                # Only a message fault can corrupt a payload in flight.
                checksum = payload_checksum(buffered)
        yield from self.cluster.transfer(
            src_node,
            dst_node,
            nbytes,
            label=f"r{src}->r{dst} t{tag}",
            injector=injector,
        )
        if src_node == dst_node:
            self.bytes_intranode += nbytes
        else:
            self.bytes_internode += nbytes
        self.message_count += 1
        obs = self.obs
        if obs is not None:
            cls = _TAG_CLASS.get(tag & 7, "other") if tag >= 0 else "control"
            scope = "intranode" if src_node == dst_node else "internode"
            obs.counter(f"comm.{cls}.bytes").inc(nbytes)
            obs.counter(f"comm.{cls}.messages").inc()
            obs.counter(f"comm.{scope}.bytes").inc(nbytes)
            obs.counter(f"comm.{scope}.messages").inc()
        msg = Message(src, tag, buffered, nbytes, sent_at, self.env.now, seq, checksum)
        if injector is None:
            self._mailboxes[dst].put(msg)
        else:
            injector.process_send(self, dst, msg)


class Comm:
    """An ordered group of world ranks, localized to one member.

    ``rank``/``size`` and all src/dst arguments are *communicator-local*
    indices, exactly like MPI communicators.  Sub-communicators (a
    process row or column of the 2-D grid) are just other ``Comm``
    instances over the same :class:`SimMPI`.
    """

    def __init__(self, mpi: SimMPI, world_ranks: tuple[int, ...], me: Optional[int]):
        if len(set(world_ranks)) != len(world_ranks):
            raise ConfigurationError(f"duplicate ranks in communicator: {world_ranks}")
        self.mpi = mpi
        self.world_ranks = world_ranks
        #: This member's world rank (None for an unlocalized handle).
        self.me_world = me
        self._index = {w: i for i, w in enumerate(world_ranks)}

    # -- shape -----------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self.world_ranks)

    @property
    def rank(self) -> int:
        """My communicator-local rank."""
        if self.me_world is None:
            raise ConfigurationError("communicator not localized to a rank")
        return self._index[self.me_world]

    @property
    def env(self) -> Environment:
        return self.mpi.env

    def localize(self, world_rank: int) -> "Comm":
        """The same group, seen from ``world_rank`` (must be a member)."""
        if world_rank not in self._index:
            raise ConfigurationError(f"rank {world_rank} not in communicator {self.world_ranks}")
        return Comm(self.mpi, self.world_ranks, me=world_rank)

    def subgroup(self, local_ranks: Sequence[int]) -> "Comm":
        """A new (unlocalized) communicator from local indices."""
        return Comm(self.mpi, tuple(self.world_ranks[i] for i in local_ranks), me=None)

    def to_world(self, local: int) -> int:
        return self.world_ranks[local]

    # -- point to point -----------------------------------------------------
    def send(self, dst: int, payload: Any, tag: int = 0, nbytes: Optional[float] = None):
        """Generator: blocking send to communicator-local ``dst``."""
        yield from self.mpi._send(
            self.me_world, self.world_ranks[dst], payload, tag, nbytes
        )

    def isend(self, dst: int, payload: Any, tag: int = 0, nbytes: Optional[float] = None) -> Event:
        """Non-blocking send; returns the completion event."""
        return self.env.process(
            self.send(dst, payload, tag, nbytes),
            name=f"isend r{self.me_world}->l{dst} t{tag}",
        )

    def recv(self, src: int = ANY_SOURCE, tag: int = ANY_TAG, timeout: Optional[float] = None):
        """Generator: blocking receive; returns the payload.

        ``src`` is communicator-local (or :data:`ANY_SOURCE`); matching
        is FIFO among messages that satisfy (src, tag).  With a
        ``timeout`` (simulated seconds) the receive raises
        :class:`~repro.errors.CommTimeoutError` if nothing matched
        within the deadline - the detection primitive for lost
        messages and dead peers.
        """
        msg = yield from self.recv_message(src, tag, timeout=timeout)
        return msg.payload

    def recv_message(
        self, src: int = ANY_SOURCE, tag: int = ANY_TAG, timeout: Optional[float] = None
    ):
        """Like :meth:`recv` but returns the full :class:`Message`."""
        me = self.me_world
        if me is None:
            raise ConfigurationError("recv on unlocalized communicator")
        want_src_world = None if src == ANY_SOURCE else self.world_ranks[src]
        member_worlds = set(self.world_ranks)

        def match(msg: Message) -> bool:
            if want_src_world is not None and msg.src != want_src_world:
                return False
            if want_src_world is None and msg.src not in member_worlds:
                return False
            if tag != ANY_TAG and msg.tag != tag:
                return False
            return True

        mailbox = self.mpi._mailboxes[me]
        get_ev = mailbox.get(match)
        if timeout is None:
            msg = yield get_ev
            return msg
        deadline = self.env.timeout(timeout)
        yield self.env.any_of([get_ev, deadline])
        if get_ev.triggered:
            return get_ev.value
        # Withdraw the pending getter so a late arrival is not consumed
        # by an abandoned receive (it stays queued for the retry).
        mailbox.cancel(get_ev)
        raise CommTimeoutError(
            f"rank {self.rank} recv(src={src}, tag={tag}) timed out after {timeout:g}s",
            rank=self.rank,
            src=src,
            tag=tag,
        )


def virtual_nbytes(payload: Any, cost) -> float:
    """Virtual wire size of a payload (ndarray leaves scaled by the
    cost model's ``dim_scale``; everything else counts a header's worth)."""
    if isinstance(payload, np.ndarray):
        if payload.ndim == 2:
            return cost.bytes_of(payload.shape[0], payload.shape[1])
        # 1-D and 0-D payloads scale linearly (vectors) / not at all.
        if payload.ndim == 1:
            return cost.v(payload.shape[0]) * cost.itemsize
        return float(payload.size * cost.itemsize)
    if isinstance(payload, (list, tuple)):
        return sum(virtual_nbytes(p, cost) for p in payload) or 8.0
    if isinstance(payload, dict):
        return sum(virtual_nbytes(p, cost) for p in payload.values()) or 8.0
    return 8.0
