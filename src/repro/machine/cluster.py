"""The simulated multi-GPU cluster: nodes, NICs and the interconnect.

Modeling choices (also recorded in DESIGN.md):

* Each node's NIC is a FIFO resource charged ``bytes / nic_bw`` per
  outgoing message.  Because *all ranks of a node share it*, the
  refined communication model of the paper's §3.4.1 (the
  ``n² Q_r / P_r`` terms) emerges from simulation rather than being
  assumed.  Receive-side occupancy is not separately modeled; the
  paper's analysis likewise counts data sent out of the NIC.
* Intranode messages never touch the NIC; they use a per-node
  shared-memory channel with its own (higher) bandwidth, which is why
  good rank placement (K_r ≈ K_c) reduces NIC traffic and single-node
  runs exceed the 25 GB/s line in Figure 3.
* Message delivery is sender-occupancy + latency; queues at the
  destination are unbounded (flow control happens at the NIC).
"""

from __future__ import annotations

from typing import Optional

from ..errors import ConfigurationError
from ..sim.engine import Environment
from ..sim.resources import Resource
from ..sim.trace import Tracer
from .cost import CostModel
from .gpu import SimGPU
from .host import HostCpu
from .spec import MachineSpec

__all__ = ["SimNode", "SimCluster"]


class SimNode:
    """One node: GPUs + host + NIC + intranode channel."""

    def __init__(
        self,
        env: Environment,
        machine: MachineSpec,
        cost: CostModel,
        node_id: int,
        tracer: Optional[Tracer] = None,
    ):
        self.env = env
        self.spec = machine.node
        self.cost = cost
        self.node_id = node_id
        self.tracer = tracer
        self.nic_tx = Resource(env, 1, f"node{node_id}.nic")
        self.intra_channel = Resource(env, 1, f"node{node_id}.shm")
        #: Multiplier on this node's NIC transfer times (> 1 models a
        #: straggler: contended links, a slow adapter, a noisy
        #: neighbour - the §3.3 motivation for the asynchronous ring).
        self.nic_slowdown = 1.0
        self.gpus = [
            SimGPU(env, machine.node.gpu, cost, name=f"node{node_id}.gpu{g}", tracer=tracer)
            for g in range(machine.node.gpus_per_node)
        ]
        self.host = HostCpu(env, machine.node, cost, name=f"node{node_id}.host", tracer=tracer)
        #: Outgoing bytes (virtual) that crossed this node's NIC.
        self.nic_bytes_sent = 0.0
        #: Bytes that stayed on-node.
        self.intra_bytes_sent = 0.0


class SimCluster:
    """A homogeneous cluster of :class:`SimNode` objects."""

    def __init__(
        self,
        env: Environment,
        machine: MachineSpec,
        n_nodes: int,
        cost: Optional[CostModel] = None,
        tracer: Optional[Tracer] = None,
    ):
        if n_nodes < 1:
            raise ConfigurationError(f"need at least one node, got {n_nodes}")
        if n_nodes > machine.max_nodes:
            raise ConfigurationError(
                f"{machine.name} has {machine.max_nodes} nodes; {n_nodes} requested"
            )
        self.env = env
        self.machine = machine
        self.cost = cost if cost is not None else CostModel(machine)
        self.tracer = tracer
        self.nodes = [SimNode(env, machine, self.cost, i, tracer) for i in range(n_nodes)]

    def __len__(self) -> int:
        return len(self.nodes)

    def transfer(
        self,
        src_node: int,
        dst_node: int,
        nbytes_virtual: float,
        label: str = "msg",
        injector=None,
    ):
        """Generator: move a message between nodes (or within one).

        Completes when the message has been delivered; the caller (the
        MPI layer) then enqueues it at the destination rank.  Returns
        the simulated transfer duration (excluding queueing).

        ``injector`` is the calling solve's fault injector (None when
        unarmed): NIC-degradation windows apply to that solve's traffic
        only, never to a concurrent job's.
        """
        node = self.nodes[src_node]
        if src_node == dst_node:
            channel = node.intra_channel
            duration = self.cost.intranode_transfer_time(nbytes_virtual)
            latency = self.cost.intranode_latency
            node.intra_bytes_sent += nbytes_virtual
            category = "intra_xfer"
        else:
            channel = node.nic_tx
            duration = self.cost.internode_transfer_time(nbytes_virtual) * node.nic_slowdown
            if injector is not None:
                # NIC degradation window: bandwidth x factor over [t0, t1].
                duration *= injector.nic_factor(src_node, self.env.now)
            latency = self.cost.internode_latency
            node.nic_bytes_sent += nbytes_virtual
            category = "nic_xfer"
        yield from channel.use(duration)
        if self.tracer is not None:
            self.tracer.record(
                channel.name, category, label, self.env.now - duration, self.env.now
            )
            self.tracer.add(f"{category}.bytes", nbytes_virtual)
            self.tracer.add(f"{category}.count")
        yield self.env.timeout(latency)
        return duration

    def set_stragglers(self, slowdowns: dict[int, float]) -> None:
        """Mark nodes as stragglers: ``{node_id: factor}`` multiplies
        those nodes' NIC transfer times."""
        for node_id, factor in slowdowns.items():
            if factor <= 0:
                raise ConfigurationError(f"slowdown factor must be positive, got {factor}")
            self.nodes[node_id].nic_slowdown = float(factor)

    # -- cluster-wide statistics ------------------------------------------
    def total_nic_bytes(self) -> float:
        return sum(n.nic_bytes_sent for n in self.nodes)

    def max_nic_bytes(self) -> float:
        return max(n.nic_bytes_sent for n in self.nodes)
