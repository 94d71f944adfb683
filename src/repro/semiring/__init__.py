"""Tropical (min,+) semiring algebra and SrGemm kernels.

This subpackage is the numerical heart of the reproduction: the
semiring abstraction (paper §2.3), the SrGemm matrix-product kernels
the GPU model executes (paper §2.6/§4.1), Floyd-Warshall on one block,
and the closure-by-squaring DiagUpdate (paper Eq. 4).  No APSP oracle
lives here: those are :mod:`repro.graphs.oracle`, which shares no code
with these kernels.
"""

from .backends import (
    KernelBackend,
    available_backends,
    get_backend,
    registered_backends,
    tune_kernel_tiling,
)
from .backends.base import srgemm_flops
from .closure import (
    check_no_negative_cycle,
    closure_by_squaring,
    fw_inplace,
    squaring_steps,
)
from .path_kernels import NO_HOP, init_next_hops
from .minplus import (
    INF,
    MAX_MIN,
    MAX_PLUS,
    MIN_MAX,
    MIN_PLUS,
    OR_AND,
    PLUS_TIMES,
    SEMIRINGS,
    Semiring,
    weight_matrix_is_valid,
)

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
    "srgemm_flops",
    "fw_inplace",
    "closure_by_squaring",
    "squaring_steps",
    "check_no_negative_cycle",
    "NO_HOP",
    "init_next_hops",
    "KernelBackend",
    "get_backend",
    "registered_backends",
    "available_backends",
    "tune_kernel_tiling",
]
