"""Input checking: weight matrices the solver can digest.

The output side - is a distance matrix the APSP of its weights? - is
:mod:`repro.graphs.oracle`.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError

__all__ = ["validate_weights"]


def validate_weights(weights: np.ndarray) -> np.ndarray:
    """Reject weight matrices the (min,+) sweep cannot digest.

    ``NaN`` poisons every min/plus it touches and silently corrupts
    whole panels; ``-inf`` is an instant negative cycle through any
    vertex pair.  Both are input errors, caught at load/generation time
    rather than deep inside a distributed run.  ``+inf`` (no edge) is
    of course fine.  Returns ``weights`` unchanged for chaining.
    """
    if np.isnan(weights).any():
        bad = np.argwhere(np.isnan(weights))[0]
        raise ValidationError(
            f"weight matrix contains NaN (first at ({bad[0]}, {bad[1]})); "
            "NaN propagates through every (min,+) update it touches"
        )
    if np.isneginf(weights).any():
        bad = np.argwhere(np.isneginf(weights))[0]
        raise ValidationError(
            f"weight matrix contains -inf (first at ({bad[0]}, {bad[1]})); "
            "a -inf edge is an immediate negative cycle"
        )
    return weights
