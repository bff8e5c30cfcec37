"""Seeded random parameter sets for property tests and gradcheck runs.

Any real-valued layout parameters decode to a valid orthonormal frame, so
random parameter sets simply draw standard normals for every free cell.
Learned spectra draw magnitudes from a jittered descending grid over
[0.3, 1.0] with random signs: the magnitudes stay pairwise separated, which
keeps the max-magnitude normalization differentiable at the sampled point
and keeps nearly-degenerate singular pairs (a slow manifold for descent)
out of randomly constructed fitting targets.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .errors import check_integer
from .spectral import SpectrumParams
from .spectrum_modes import IDENTITY
from .sttp import sttp_structure, unpack_sttp
from .svdp import svdp_structure, unpack_svdp

__all__ = ["random_spectrum", "random_svdp_params", "random_sttp_params"]


def random_spectrum(mode: str, r: int, rng: np.random.Generator,
                    lam: float = 0.0) -> SpectrumParams:
    signs = np.where(rng.integers(0, 2, r) == 0, -1.0, 1.0)
    if mode == IDENTITY:
        return SpectrumParams(IDENTITY, r, None, signs, lam)
    if r == 1:
        mags = np.array([1.0])
    else:
        gap = 0.7 / (r - 1)
        mags = np.linspace(1.0, 0.3, r) + rng.uniform(-gap / 3, gap / 3, r)
    return SpectrumParams(mode, r, mags * signs, None, lam)


def _random_params(structure_of, unpack, d_out: int, d_in: int, r: int,
                   mode: str, seed: int, lam: float = 0.0):
    """Standard normals for every free cell in pack order, then a spectrum;
    ``seed`` is an integer >= 0."""
    check_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    structure = structure_of(d_out, d_in, r, mode)
    return unpack(structure, rng.standard_normal(structure.offsets[-1]),
                  random_spectrum(mode, r, rng, lam))


random_svdp_params = partial(_random_params, svdp_structure, unpack_svdp)
random_sttp_params = partial(_random_params, sttp_structure, unpack_sttp)
