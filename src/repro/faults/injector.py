"""The fault injector: applies a :class:`~repro.faults.plan.FaultPlan`
inside the transport and machine layers.

The injector sits at three hook points, each costing one ``is None``
check when unarmed:

* :meth:`SimMPI._send <repro.mpi.comm.SimMPI._send>` calls
  :meth:`FaultInjector.process_send` instead of putting the message in
  the destination mailbox directly - drops, duplications and payload
  corruption happen here, after the NIC cost was charged (the fault
  model is "the wire/receiver lost or mangled it", so the sender paid
  for the send).
* :meth:`SimCluster.transfer <repro.machine.cluster.SimCluster.transfer>`
  multiplies internode durations by :meth:`FaultInjector.nic_factor`.
* :class:`CudaStream <repro.machine.gpu.CudaStream>` kernels multiply
  durations by the owning GPU's ``compute_multiplier``, which the
  driver sets from :meth:`FaultInjector.compute_factor`.

Reliability protocol
--------------------
Every armed send carries a per-(src, dst) *sequence number*, and,
when the plan holds a message fault (the only fault that corrupts a
payload in flight), a CRC32 *checksum* over its payload.  The injector retains a pristine
copy of the most recent message per (dst, src, tag); a receiver whose
:func:`~repro.mpi.collectives.recv_with_retry` times out (or detects a
checksum mismatch) calls :meth:`request_retransmit`, which charges a
control round-trip plus the data transfer again and re-delivers the
pristine copy - modeling NIC-level retransmission without requiring
the (generator-based) sender program to participate.  A per-dst set of
delivered (src, seq) pairs suppresses duplicates, whether injected
(``dup`` faults) or produced by a retransmit racing a slow original.

Everything is deterministic: probabilistic faults draw from a seeded
NumPy generator in send order, and send order is fixed by the
simulation kernel - so the same seed + plan reproduce the same faults,
retries and recoveries event-for-event.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from typing import TYPE_CHECKING, Any, Optional

import numpy as np

from ..mpi.comm import _copy_payload, payload_checksum
from ..sim.trace import Tracer
from .plan import FaultPlan

if TYPE_CHECKING:  # pragma: no cover
    from ..mpi.comm import Message, SimMPI
    from .checkpoint import CheckpointStore

__all__ = ["FaultInjector", "FaultRuntime", "CTRL_NBYTES"]

#: Virtual bytes charged for a re-request control message.
CTRL_NBYTES = 64.0


class FaultInjector:
    """Applies one :class:`FaultPlan` to one simulated run."""

    def __init__(self, plan: FaultPlan, tracer: Optional[Tracer] = None):
        self.plan = plan
        self.tracer = tracer
        self.rng = np.random.default_rng(plan.seed)
        #: Injection/recovery counters (``faults.*``).  Kept here (and
        #: mirrored into the tracer when one is attached) so the
        #: determinism contract is checkable even on untraced runs.
        self.counters: dict[str, float] = defaultdict(float)
        self.mpi: Optional["SimMPI"] = None
        self._seq: dict[tuple[int, int], int] = defaultdict(int)
        #: Per message-fault count of envelope matches (drives nth=).
        self._matches = [0] * len(plan.message_faults)
        #: dst -> {(src, seq)} already placed in the mailbox.
        self._delivered: dict[int, set[tuple[int, int]]] = defaultdict(set)
        #: dst -> {(src, tag): pristine Message} for retransmission.
        self._retained: dict[int, dict[tuple[int, int], "Message"]] = defaultdict(dict)
        self._oom_fired: set[tuple[int, int]] = set()
        #: Indices into plan.memory_faults that already fired (memflips
        #: are one-shot, like OOMs: replay after a restart stays clean).
        self._mem_fired: set[int] = set()
        self._straggler = {s.rank: s.factor for s in plan.stragglers}

    def attach(self, mpi: "SimMPI") -> None:
        self.mpi = mpi

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] += amount
        if self.tracer is not None:
            self.tracer.add(name, amount)

    # -- send-side hooks -----------------------------------------------------
    def next_seq(self, src: int, dst: int) -> int:
        seq = self._seq[(src, dst)]
        self._seq[(src, dst)] = seq + 1
        return seq

    def _classify(self, src: int, dst: int, tag: int) -> tuple[bool, bool, int]:
        """(drop, duplicate, corrupt_bits) decision for one send."""
        drop = dup = False
        bits = 0
        for idx, f in enumerate(self.plan.message_faults):
            if f.src is not None and f.src != src:
                continue
            if f.dst is not None and f.dst != dst:
                continue
            if f.tag is not None and f.tag != tag:
                continue
            self._matches[idx] += 1
            if f.nth is not None:
                hit = self._matches[idx] == f.nth
            else:
                hit = bool(self.rng.random() < f.p)
            if not hit:
                continue
            if f.kind == "drop":
                drop = True
            elif f.kind == "dup":
                dup = True
            else:
                bits = max(bits, f.bits)
        return drop, dup, bits

    def _corrupt(self, payload: Any, bits: int) -> Any:
        """Deep-copy ``payload`` and bit-flip ``bits`` entries of its
        ndarray leaves (seeded, so corruption is reproducible)."""
        corrupted = _copy_payload(payload)
        leaves: list[np.ndarray] = []

        def walk(p: Any) -> None:
            if isinstance(p, np.ndarray) and p.size:
                leaves.append(p)
            elif isinstance(p, (list, tuple)):
                for x in p:
                    walk(x)
            elif isinstance(p, dict):
                for x in p.values():
                    walk(x)

        walk(corrupted)
        if not leaves:
            return corrupted
        for _ in range(bits):
            leaf = leaves[int(self.rng.integers(len(leaves)))]
            flat = leaf.view(np.uint8).reshape(-1)
            byte = int(self.rng.integers(flat.size))
            bit = int(self.rng.integers(8))
            flat[byte] ^= np.uint8(1 << bit)
        return corrupted

    def first_delivery(self, dst: int, src: int, seq: int) -> bool:
        """Record a delivery attempt; False means this (src, seq) was
        already delivered to ``dst`` and must be suppressed."""
        if seq < 0:
            return True
        key = (src, seq)
        if key in self._delivered[dst]:
            self.count("faults.duplicates_suppressed")
            return False
        self._delivered[dst].add(key)
        return True

    def mark_undelivered(self, dst: int, src: int, seq: int) -> None:
        """Forget a delivery (the receiver consumed a corrupted copy),
        so the pristine retransmit is not suppressed."""
        self._delivered[dst].discard((src, seq))

    def process_send(self, mpi: "SimMPI", dst: int, msg: "Message") -> None:
        """Transport tail: decide the fate of one fully-transferred
        message.  Runs in the sender's context, zero additional cost."""
        self._retained[dst][(msg.src, msg.tag)] = msg
        drop, dup, bits = self._classify(msg.src, dst, msg.tag)
        if drop:
            self.count("faults.dropped")
            return
        deliver = msg
        if bits:
            self.count("faults.corrupted")
            deliver = dataclasses.replace(msg, payload=self._corrupt(msg.payload, bits))
        if self.first_delivery(dst, msg.src, msg.seq):
            mpi._mailboxes[dst].put(deliver)
        if dup:
            self.count("faults.duplicated")
            # The duplicate shares the original's sequence number, so
            # suppression swallows it unless the original was dropped.
            if self.first_delivery(dst, msg.src, msg.seq):
                mpi._mailboxes[dst].put(
                    dataclasses.replace(deliver, payload=_copy_payload(deliver.payload))
                )

    # -- receive-side recovery ----------------------------------------------
    def request_retransmit(self, dst_world: int, src_world: int, tag: int):
        """Generator: re-request the retained (dst, src, tag) message.

        Charges a small control message dst -> src plus the full data
        transfer src -> dst, then re-delivers the pristine copy (unless
        suppression says the original made it after all).  Returns True
        if a retained copy existed, False when there was nothing to
        re-send (e.g. the peer never sent - it may be dead)."""
        mpi = self.mpi
        assert mpi is not None, "injector not attached to a SimMPI world"
        msg = self._retained[dst_world].get((src_world, tag))
        self.count("faults.retransmit_requests")
        src_node = mpi.rank_to_node[src_world]
        dst_node = mpi.rank_to_node[dst_world]
        yield from mpi.cluster.transfer(
            dst_node,
            src_node,
            CTRL_NBYTES,
            label=f"rereq r{dst_world}->r{src_world} t{tag}",
            injector=self,
        )
        if msg is None:
            return False
        yield from mpi.cluster.transfer(
            src_node,
            dst_node,
            msg.nbytes,
            label=f"rexmit r{src_world}->r{dst_world} t{tag}",
            injector=self,
        )
        self.count("faults.retransmits")
        if self.first_delivery(dst_world, msg.src, msg.seq):
            mpi._mailboxes[dst_world].put(
                dataclasses.replace(
                    msg,
                    payload=_copy_payload(msg.payload),
                    delivered_at=mpi.env.now,
                )
            )
        return True

    # -- machine-layer hooks --------------------------------------------------
    def nic_factor(self, node: int, now: float) -> float:
        """Product of the NIC degradation factors active on ``node``
        at simulated time ``now``."""
        factor = 1.0
        for w in self.plan.nic_windows:
            if w.node == node and w.t0 <= now < w.t1:
                factor *= w.factor
        return factor

    def compute_factor(self, rank: int) -> float:
        return self._straggler.get(rank, 1.0)

    # -- silent-data-corruption faults ----------------------------------------
    def flip_entries(self, arr: np.ndarray, bits: int) -> int:
        """Flip the IEEE sign bit of up to ``bits`` seeded entries of
        ``arr`` *in place* and return how many flipped.

        Entries are chosen among the strictly positive finite values
        (falling back to any finite value): on non-negative distances a
        sign-bit upset drops the entry below every row/col minimum, the
        worst case for the result and the one the min-checksums provably
        detect.  ``0.0`` and ``inf`` are excluded because their sign
        flips are invisible to (min,+) comparisons or invalid weights.
        """
        values = arr.ravel()  # read-only scan; writes go through arr itself
        cand = np.flatnonzero(np.isfinite(values) & (values > 0))
        if cand.size == 0:
            cand = np.flatnonzero(np.isfinite(values) & (values != 0))
        if cand.size == 0:
            return 0
        idx = self.rng.choice(cand, size=min(bits, cand.size), replace=False)
        multi = np.unravel_index(idx, arr.shape)
        arr[multi] = -arr[multi]
        return int(idx.size)

    def _take_memory_faults(self, rank: int, k: int, target: str) -> list:
        """Matching not-yet-fired memflips for (rank, k, target); marks
        them fired."""
        hits = []
        for idx, f in enumerate(self.plan.memory_faults):
            if f.rank == rank and f.k == k and f.target == target and idx not in self._mem_fired:
                self._mem_fired.add(idx)
                hits.append(f)
        return hits

    def fire_block_flips(self, state, k: int) -> None:
        """``target=block`` memflips: silently corrupt a resident
        distance block at the top of iteration ``k``.  Fired *after* any
        checkpoint save of the same iteration, so snapshots stay
        pristine and restart replay is bit-exact."""
        for f in self._take_memory_faults(state.me, k, "block"):
            if f.block is not None:
                if f.block not in state.blocks:
                    self.count("faults.memflips_missed")
                    continue
                key = f.block
            else:
                keys = sorted(state.blocks)
                if not keys:  # rank owns no blocks (world larger than grid)
                    self.count("faults.memflips_missed")
                    continue
                key = keys[int(self.rng.integers(len(keys)))]
            if self.flip_entries(state.blocks[key], f.bits):
                self.count("faults.block_flips")

    def fire_checkpoint_flips(self, store: "CheckpointStore", rank: int, k: int) -> None:
        """``target=checkpoint`` memflips: corrupt the newest stored
        snapshot payload of ``rank`` in place, *without* refreshing its
        CRC - exactly the rot the integrity layer must catch."""
        for f in self._take_memory_faults(rank, k, "checkpoint"):
            epochs = sorted(e for e, per_rank in store._blocks.items() if rank in per_rank and e <= k)
            if not epochs:
                self.count("faults.memflips_missed")
                continue
            snap = store._blocks[epochs[-1]][rank]
            keys = sorted(snap)
            if not keys:  # blockless rank snapshots an empty payload
                self.count("faults.memflips_missed")
                continue
            key = keys[int(self.rng.integers(len(keys)))]
            if self.flip_entries(snap[key], f.bits):
                self.count("faults.ckpt_flips")

    def take_oog_flip(self, rank: int, k: int) -> int:
        """``target=oog`` memflips: bits to flip in the first staged
        ooGSrGemm tile of (rank, k); 0 when none is pending.  Only the
        host-resident variants consume these."""
        bits = 0
        for f in self._take_memory_faults(rank, k, "oog"):
            bits = max(bits, f.bits)
        return bits

    def should_oom(self, rank: int, k: int) -> bool:
        """True exactly once per (rank, k) OOM fault."""
        for o in self.plan.ooms:
            if o.rank == rank and o.k == k and (rank, k) not in self._oom_fired:
                self._oom_fired.add((rank, k))
                return True
        return False

    def reset_world(self) -> None:
        """Discard per-epoch transport state before a restart: all
        mailboxes (in-flight + undelivered messages of the dead epoch)
        and their abandoned getters.  Sequence counters, delivered sets
        and fault match counts carry over - an ``nth`` fault that
        already fired must not fire again on replay."""
        mpi = self.mpi
        assert mpi is not None
        for mailbox in mpi._mailboxes:
            mailbox.reset()


@dataclasses.dataclass
class FaultRuntime:
    """Per-run recovery state shared by the driver and the rank
    programs (hung off ``FwContext.faults``; None when unarmed)."""

    injector: FaultInjector
    store: "CheckpointStore"
    #: Outer iteration the current epoch (re)started from.
    start_k: int = 0
    #: rank -> highest k it has checkpointed (suppresses double saves
    #: at the restart iteration).
    last_saved: dict[int, int] = dataclasses.field(default_factory=dict)
    #: True on a checkpoint-carrying re-admission (scheduler retry):
    #: the first epoch of the new attempt must restore from the store
    #: at ``start_k`` instead of re-scattering ``rp.locals_`` - the
    #: previous attempt mutated those blocks in place - and must not
    #: overwrite the pristine ``k=0`` snapshot.
    resumed: bool = False
