"""The parameterization schemes by name.

Both schemes share every other code path: a parameter set of either reads
its chain from its :class:`ttspectral.sttp.ChainStructure` record and its
own layouts, and the ``chain_*`` structure functions of
:mod:`ttspectral.sttp` serve both; svdp is the one-core chain.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .sampling import random_sttp_params, random_svdp_params
from .sttp import init_sttp_params, sttp_structure, unpack_sttp
from .svdp import init_svdp_params, svdp_structure, unpack_svdp

__all__ = ["Scheme", "SCHEMES"]


class Scheme(NamedTuple):
    init: Callable  # (d_out, d_in, r, spectrum_mode, seed, init_scheme, ...)
    random: Callable  # (d_out, d_in, r, spectrum_mode, seed, lam)
    structure: Callable  # (d_out, d_in, r, spectrum_mode) -> ChainStructure
    unpack: Callable  # (structure, theta, spectrum) -> a parameter set


SCHEMES = {
    "svdp": Scheme(init_svdp_params, random_svdp_params, svdp_structure,
                   unpack_svdp),
    "sttp": Scheme(init_sttp_params, random_sttp_params, sttp_structure,
                   unpack_sttp),
}
