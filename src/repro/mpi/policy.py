"""Broadcast strategy as a policy object (paper §3.3).

The paper evaluates two one-to-all strategies for the panel
broadcasts - the library-style binomial tree and the bandwidth-optimal
(optionally asynchronous, optionally segmented) ring - and the solver
variants differ only in which one they pick.  :class:`BcastPolicy`
puts that choice behind a single interface so the schedule IR
(:mod:`repro.core.schedule`) composes it freely with the other policy
axes instead of branching on config strings at every call site.

A policy's :meth:`~BcastPolicy.bcast` is a generator (it runs inside a
rank program) returning ``(payload, relay_event)``; ``relay_event`` is
``None`` for synchronous strategies and an outstanding-send event for
asynchronous relays, which the caller parks until its end-of-program
drain.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from ..errors import ConfigurationError
from ..sim.engine import Event
from .collectives import bcast_ring, bcast_ring_segmented, bcast_tree
from .comm import Comm

__all__ = ["BcastPolicy", "TreeBcast", "RingBcast"]


class BcastPolicy:
    """Strategy for one one-to-all broadcast inside the sweep."""

    name: str = "abstract"

    def bcast(
        self,
        comm: Comm,
        root: int,
        payload: Any = None,
        tag: int = 0,
        nbytes: Optional[float] = None,
    ):
        """Generator: broadcast ``payload`` from ``root`` over ``comm``;
        returns ``(payload, relay_event_or_None)`` on every member."""
        raise NotImplementedError

    def segmented(self, segments: int) -> "BcastPolicy":
        """This strategy with ``SolveConfig.ring_segments`` applied; a
        no-op for strategies that do not segment."""
        return self


class TreeBcast(BcastPolicy):
    """Binomial tree: latency-optimal, blocking sends (the library
    behaviour the paper's baseline uses)."""

    name = "tree"

    def bcast(self, comm, root, payload=None, tag=0, nbytes=None):
        got = yield from bcast_tree(comm, root=root, payload=payload, tag=tag, nbytes=nbytes)
        return got, None


class RingBcast(BcastPolicy):
    """Ring relay: bandwidth-optimal; the forward is an isend and the
    member returns as soon as its own copy landed (the ``+Async``
    behaviour); ``segments > 1`` pipelines the relay HPL-style."""

    name = "ring"

    def __init__(self, segments: int = 1):
        if segments < 1:
            raise ConfigurationError(f"ring segments must be >= 1, got {segments}")
        self.segments = segments

    def segmented(self, segments):
        return RingBcast(segments)

    def bcast(self, comm, root, payload=None, tag=0, nbytes=None):
        relay: Event
        if self.segments > 1:
            got, relay = yield from bcast_ring_segmented(
                comm, root=root, payload=payload, tag=tag,
                segments=self.segments, nbytes=nbytes,
            )
        else:
            got, relay = yield from bcast_ring(
                comm, root=root, payload=payload, tag=tag, nbytes=nbytes,
            )
        return got, relay
