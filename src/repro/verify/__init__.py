"""Algorithm-based fault tolerance (ABFT) for the tropical solver.

Three cooperating pieces (see docs/FAULTS.md for the math and the
escalation ladder):

- :mod:`repro.verify.checksums` — exact ``⊕``-checksum algebra for
  SrGemm ops on comparison-``⊕`` semirings (its stacked grid forms are
  the kernel waist's guard entries: ``guard_band``, one guarded band,
  by default over ``tile_sums`` / ``predict_sums``);
- :mod:`repro.verify.runtime` — per-run verification state: tracked
  blocks, guarded kernels (one ``guard_band`` call per band of a grid,
  one native call over ``cnative``; a flagged band's verdicts and
  localized repairs in Python), the monotonicity sentinel, deferred
  escalation, and the verification certificate;
- :mod:`repro.verify.backend` — the :class:`ChecksummedBackend`
  decorator that gives all schedule-IR variants checksummed kernels
  through the single ``ctx.backend`` seam.
"""

from .backend import ChecksummedBackend
from .checksums import (
    block_checksums,
    checksums_match,
    predicted_accumulate,
    predicted_merge,
)
from .runtime import VERIFY_MODES, VerifyRuntime

__all__ = [
    "VERIFY_MODES",
    "VerifyRuntime",
    "ChecksummedBackend",
    "block_checksums",
    "checksums_match",
    "predicted_accumulate",
    "predicted_merge",
]
