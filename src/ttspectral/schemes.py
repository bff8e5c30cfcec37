"""The parameterization schemes by name.

Both schemes share every other code path: a parameter set of either reads
its chain from its :class:`ttspectral.sttp.ChainStructure` record and its
own layouts, and the ``chain_*`` structure functions of
:mod:`ttspectral.sttp` serve both; svdp is the one-core chain.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .sampling import random_sttp_params, random_svdp_params
from .sttp import init_sttp_params, sttp_dof, sttp_template
from .svdp import init_svdp_params, svdp_dof, svdp_template

__all__ = ["Scheme", "SCHEMES"]


class Scheme(NamedTuple):
    dof: Callable[..., int]  # (d_out, d_in, r, spectrum_mode)
    init: Callable  # (d_out, d_in, r, spectrum_mode, seed, init_scheme, ...)
    random: Callable  # (d_out, d_in, r, spectrum_mode, seed, lam)
    template: Callable  # (d_out, d_in, r, spectrum_mode)


SCHEMES = {
    "svdp": Scheme(svdp_dof, init_svdp_params, random_svdp_params,
                   svdp_template),
    "sttp": Scheme(sttp_dof, init_sttp_params, random_sttp_params,
                   sttp_template),
}
