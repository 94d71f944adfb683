"""Same-run micro-probes of single layers, in host time.

Each probe drives one layer's public surface in isolation, so a change
to that layer has a number that moves without any solve around it.  They
are context for the traced-round attribution, not end-to-end metrics.
"""

from __future__ import annotations

import time

import numpy as np

from repro.machine.cluster import SimCluster
from repro.machine.cost import CostModel
from repro.machine.spec import SUMMIT
from repro.mpi import SimMPI, bcast_ring, bcast_tree
from repro.semiring.backends import get_backend
from repro.sim import Environment


def _median_wall(fn, repeats: int = 5) -> float:
    """Median wall of ``repeats`` calls.  Not the minimum: on this VM a
    few milliseconds can run 50 % faster than anything sustained, and the
    probes are read beside sustained rates."""
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - t0)
    return float(np.median(walls))


def semiring_peak_outer_gflops(size: int = 256) -> float:
    backend = get_backend("cnative")
    rng = np.random.default_rng(0)
    a = rng.uniform(1.0, 10.0, (size, size))
    b = rng.uniform(1.0, 10.0, (size, size))
    c = rng.uniform(1.0, 10.0, (size, size))
    wall = _median_wall(lambda: backend.srgemm_outer(c, a, b), repeats=15)
    return 2.0 * size**3 / wall / 1e9


def sim_events_per_s(processes: int = 64, timeouts: int = 500) -> float:
    def run():
        env = Environment()

        def ticker(step):
            for _ in range(timeouts):
                yield env.timeout(step)

        for p in range(processes):
            env.process(ticker(1e-6 * (p + 1)))
        env.run()

    return processes * timeouts / _median_wall(run)


def _world(env):
    cost = CostModel(SUMMIT)
    cluster = SimCluster(env, SUMMIT, 2, cost)
    return SimMPI(env, cluster, [0, 0, 1, 1]), cluster


def mpi_bcast_us(kind: str, block: int, rounds: int = 50) -> float:
    """Host microseconds per rank-collective: ``rounds`` broadcasts of a
    ``block x block`` payload over 4 ranks on 2 nodes."""
    payload = np.zeros((block, block))

    def run():
        env = Environment()
        mpi, _ = _world(env)
        world = mpi.world()

        def rank(me):
            comm = world.localize(me)
            for r in range(rounds):
                data = payload if me == 0 else None
                if kind == "tree":
                    yield from bcast_tree(comm, 0, data, tag=r)
                else:
                    _, relay = yield from bcast_ring(comm, 0, data, tag=r)
                    yield relay

        for me in range(mpi.size):
            env.process(rank(me))
        env.run()

    return _median_wall(run) / (rounds * 4) * 1e6


def machine_stream_op_us(block: int, ops: int = 300) -> float:
    """Host microseconds per simulated device op: h2d -> kernel -> d2h
    triples on one stream, then one internode transfer each."""

    def run():
        env = Environment()
        _, cluster = _world(env)
        stream = cluster.nodes[0].gpus[0].stream("probe")

        def host():
            for _ in range(ops // 3):
                stream.h2d(block, block)
                stream.kernel(block, block, block)
                yield stream.d2h(block, block)
                yield from cluster.transfer(0, 1, 8.0 * block * block)

        env.process(host())
        env.run()

    return _median_wall(run) / (ops + ops // 3) * 1e6


def run_all(block: int) -> dict[str, float]:
    return {
        "semiring.peak_outer_gflops": semiring_peak_outer_gflops(),
        "sim.events_per_s": sim_events_per_s(),
        "mpi.bcast_tree_us": mpi_bcast_us("tree", block),
        "mpi.bcast_ring_us": mpi_bcast_us("ring", block),
        "machine.stream_op_us": machine_stream_op_us(block),
    }
