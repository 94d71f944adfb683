"""Semiring definitions, with the tropical (min,+) semiring as default.

The paper computes APSP as the matrix closure of the weight matrix over
the tropical semiring (its §2.3): ``x ⊕ y = min(x, y)`` and
``x ⊗ y = x + y``, with ``⊕``-identity ``+inf`` and ``⊗``-identity
``0``.  The cuASR kernel the paper builds on supports other semirings
too, so we expose a small generic :class:`Semiring` abstraction and
ship the common instances; every kernel backend in
:mod:`repro.semiring.backends` is generic over it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "INF",
    "Semiring",
    "MIN_PLUS",
    "MAX_PLUS",
    "MAX_MIN",
    "MIN_MAX",
    "OR_AND",
    "PLUS_TIMES",
    "SEMIRINGS",
    "weight_matrix_is_valid",
]

#: Additive identity of the (min,+) semiring: "no path".
INF = np.inf


@dataclass(frozen=True)
class Semiring:
    """A matrix-multiplication-compatible semiring ``(S, ⊕, ⊗, 0̄, 1̄)``.

    Attributes
    ----------
    name:
        Human-readable identifier (also the registry key).
    plus:
        The ``⊕`` operator as a binary NumPy ufunc (must be
        associative, commutative, idempotent not required).
    times:
        The ``⊗`` operator as a binary NumPy ufunc.
    zero:
        The ``⊕`` identity, which must annihilate under ``⊗``.
    one:
        The ``⊗`` identity.
    dtype:
        Preferred NumPy dtype (the paper's kernels are single
        precision; we default to float64 for test fidelity and let
        callers downcast).
    idempotent_plus:
        True when ``x ⊕ x = x``; this is what makes repeated squaring
        converge to the closure (paper Eq. 4) and lets blocked
        algorithms apply updates more than once without harm.
    """

    name: str
    plus: Callable[..., np.ndarray]
    times: Callable[..., np.ndarray]
    zero: float
    one: float
    dtype: np.dtype = field(default_factory=lambda: np.dtype(np.float64))
    idempotent_plus: bool = True

    def eye(self, n: int, dtype: np.dtype | None = None) -> np.ndarray:
        """The ``n x n`` multiplicative identity matrix (1̄ on the
        diagonal, 0̄ elsewhere).  For (min,+) this is 0-diagonal/inf."""
        out = np.full((n, n), self.zero, dtype=dtype or self.dtype)
        np.fill_diagonal(out, self.one)
        return out

    def zeros(self, shape: tuple[int, ...], dtype: np.dtype | None = None) -> np.ndarray:
        """A matrix of ``⊕`` identities ("empty" distance matrix)."""
        return np.full(shape, self.zero, dtype=dtype or self.dtype)

    def plus_reduce(self, arr: np.ndarray, axis: int) -> np.ndarray:
        """``⊕``-reduction along an axis (min for the tropical case)."""
        return self.plus.reduce(arr, axis=axis)  # type: ignore[attr-defined]

    def __repr__(self) -> str:  # pragma: no cover
        return f"Semiring({self.name})"


#: Tropical / shortest-path semiring: the paper's subject.
MIN_PLUS = Semiring("min_plus", np.minimum, np.add, zero=INF, one=0.0)

#: Critical path / longest path (on DAGs) semiring.
MAX_PLUS = Semiring("max_plus", np.maximum, np.add, zero=-INF, one=0.0)

#: Bottleneck / maximum-capacity-path semiring.
MAX_MIN = Semiring("max_min", np.maximum, np.minimum, zero=-INF, one=INF)

#: Minimax / minimum-of-maximum-edge paths (e.g. minimum spanning
#: bottleneck distances).
MIN_MAX = Semiring("min_max", np.minimum, np.maximum, zero=INF, one=-INF)

#: Boolean reachability semiring (transitive closure).
OR_AND = Semiring(
    "or_and",
    np.logical_or,
    np.logical_and,
    zero=False,
    one=True,
    dtype=np.dtype(np.bool_),
)

#: The ordinary ring of reals; not idempotent.  Useful to cross-check
#: the generic kernels against ``np.matmul``.
PLUS_TIMES = Semiring(
    "plus_times", np.add, np.multiply, zero=0.0, one=1.0, idempotent_plus=False
)

SEMIRINGS: dict[str, Semiring] = {
    sr.name: sr for sr in (MIN_PLUS, MAX_PLUS, MAX_MIN, MIN_MAX, OR_AND, PLUS_TIMES)
}


def weight_matrix_is_valid(w: np.ndarray, semiring: Semiring = MIN_PLUS) -> bool:
    """Check that ``w`` is a square 2-D array usable as a distance/weight
    matrix for the given semiring (no NaNs; -inf forbidden for
    (min,+) since it encodes an infinitely-negative edge)."""
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        return False
    if np.isnan(w).any():
        return False
    if semiring is MIN_PLUS and np.isneginf(w).any():
        return False
    return True
