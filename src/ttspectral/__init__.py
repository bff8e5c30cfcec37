"""Low-rank spectral parameterizations of weight matrices.

A weight matrix is represented as two Householder-parameterized orthonormal
frames around a controlled diagonal spectrum; optionally each frame is
itself a chain of small orthonormal cores, shrinking the parameter count to
grow only logarithmically with the matrix size.  The package covers the
parameterizations and their exact parameter counts, spectral diagnostics,
FLOP-optimal contraction planning for applying the map without
decompression, reverse-mode gradients with a finite-difference harness,
gradient-descent fitting, and a file/CLI surface.
"""

from .dense import multi_index, reshape, svd_full
from .errors import TtspectralError
from .fit import FitConfig, demo_train, eckart_young_optimum, fit_matrix
from .householder import decode, decode_batch, encode, make_layout
from .planner import apply_map, execute, plan
from .spectral import (
    compression_ratio,
    d_optimal_penalty,
    lipschitz_bound,
    materialize_sigma,
)
from .sttp import decompress, factorize, init_sttp_params, sttp_dof
from .svdp import init_svdp_params, svdp_dof
from .tensortrain import frames_from_cores, rank_caps, tt_contract

__version__ = "0.1.0"

__all__ = [
    "TtspectralError",
    "multi_index",
    "reshape",
    "svd_full",
    "decode",
    "decode_batch",
    "encode",
    "make_layout",
    "decompress",
    "init_svdp_params",
    "svdp_dof",
    "factorize",
    "init_sttp_params",
    "sttp_dof",
    "rank_caps",
    "tt_contract",
    "frames_from_cores",
    "materialize_sigma",
    "d_optimal_penalty",
    "lipschitz_bound",
    "compression_ratio",
    "plan",
    "execute",
    "apply_map",
    "FitConfig",
    "fit_matrix",
    "demo_train",
    "eckart_young_optimum",
    "__version__",
]
