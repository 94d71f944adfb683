"""Next-hop pointers for (min,+) path tracking.

These back *distributed shortest-path generation* (the paper's first
future-work item): every distance update also updates a parallel
next-hop matrix, so paths come out of the distributed sweep itself
rather than from post-processing.  The updates are the kernel waist's
hop operand (``hops=`` on ``KernelBackend.srgemm_grid`` and
``fw_closure``); this module holds the pointers' sentinel and their
initial value.

The update rule: when ``C[r, c]`` improves via intermediate ``t``
(i.e. ``A[r, t] + B[t, c] < C[r, c]``), the first hop of the new best
path is the first hop of the path behind ``A[r, t]`` - so the kernels
need the *left* operand's next-hop block only.  In the blocked
algorithm that means the column panels (and the diagonal) carry their
pointer blocks over the wire, while row panels travel as distances
only; the asymmetry is visible in the communication accounting.
"""

from __future__ import annotations

import numpy as np

__all__ = ["NO_HOP", "init_next_hops"]

#: Sentinel for "no next hop" (same vertex, or unreachable).
NO_HOP = -1


def init_next_hops(weights: np.ndarray, col_offset: int = 0) -> np.ndarray:
    """Initial next-hop block for a weight block.

    ``nxt[r, c] = global column id`` where an edge exists, else
    :data:`NO_HOP`.  ``col_offset`` is the block's global column start
    (next hops are global vertex ids).  The caller is responsible for
    clearing the diagonal of diagonal blocks.
    """
    rows, cols = weights.shape
    nxt = np.where(
        np.isfinite(weights),
        np.arange(col_offset, col_offset + cols, dtype=np.int64)[None, :],
        np.int64(NO_HOP),
    )
    return np.ascontiguousarray(nxt)
