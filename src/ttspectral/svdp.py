"""Rank-r weight matrices assembled as U @ diag(sigma) @ V^T.

Both frames are Householder-parameterized.  With a learned spectrum the
parameterization reaches every matrix of rank <= r and spectral norm 1
(the infinity-norm rescaling of the spectrum pins ``max|sigma|`` to 1):
:func:`~ttspectral.householder.encode` the frames of its truncated SVD and
fold the returned signs into the spectrum.
With the identity spectrum, independently parameterized frames would be
redundant - ``(U Q)(V Q)^T = U V^T`` for any orthogonal Q - so the U frame
uses the reduced (gauge-fixed) layout.

This is the :mod:`ttspectral.sttp` chain with one core per side, factors
``(d_out,)`` and ``(d_in,)``: its structure check, gauge rule included, dof
count, template and initializer are the chain's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import householder as hh
from .errors import DomainError, ShapeError
from .spectral import SpectrumParams
from .spectral import materialize_sigma  # noqa: F401  (perfbench patches it)
from .spectrum_modes import IDENTITY
from .sttp import (
    assemble_sttp,
    chain_dof,
    chain_structure,
    chain_template,
    check_chain,
    init_chain,
    rank_cap,
)
from .tensortrain import ChainView

__all__ = [
    "rank_cap",
    "svdp_dof",
    "SvdpParams",
    "init_svdp_params",
    "svdp_template",
    "assemble",
    "redundancy_witness",
]


def svdp_dof(d_out: int, d_in: int, r: int, spectrum_mode: str) -> int:
    """Free-parameter count of the parameterization.

    Learned spectrum: ``r*(d_out + d_in) - r**2`` (two full frames plus r
    spectrum values).  Identity spectrum: ``r*(d_out + d_in) - r*(3r + 1)/2``
    (reduced U frame, full V frame, no spectrum values).
    """
    return chain_dof((d_out,), (d_in,), r, spectrum_mode)


@dataclass(frozen=True, eq=False)
class SvdpParams:
    """Complete parameter set: two frame layouts plus the spectrum.

    The constructor runs :func:`~.sttp.check_chain` against the one-core
    :func:`~.sttp.chain_structure` as :class:`~.sttp.SttpParams` does, gauge
    rule included (reduced U with an identity spectrum, full/full
    otherwise), so ``n_params`` always equals :func:`svdp_dof`.  Its parts
    memoize their frames and sigma, so ``==`` and ``hash`` go by identity.
    """

    d_out: int
    d_in: int
    r: int
    u_layout: hh.HouseholderLayout
    v_layout: hh.HouseholderLayout
    spectrum: SpectrumParams

    def __post_init__(self):
        check_chain(chain_structure((self.d_out,), (self.d_in,), self.r,
                                    self.spectrum.mode),
                    (self.u_layout,), (self.v_layout,), self.spectrum)

    @property
    def n_params(self) -> int:
        return (self.u_layout.params.size + self.v_layout.params.size
                + self.spectrum.n_params)

    @property
    def chain(self) -> ChainView:
        """The one-core-per-side chain; its dims never go through factorize."""
        d_out, d_in, r = self.d_out, self.d_in, self.r
        return ChainView(
            "svdp", (d_out,), (d_in,), (1, r, 1), (self.u_layout,),
            (self.v_layout,), ((1, d_out, r),), ((1, d_in, r),),
            lambda u, v, sp: SvdpParams(d_out, d_in, r, *u, *v, sp))


def svdp_template(d_out: int, d_in: int, r: int, spectrum_mode: str
                  ) -> SvdpParams:
    """Parameters of the given structure with all-zero layouts and spectrum
    ones, as a template for :meth:`ChainView.rebuild`."""
    (u_layout,), (v_layout,), spectrum = chain_template(
        (d_out,), (d_in,), r, spectrum_mode)
    return SvdpParams(d_out, d_in, r, u_layout, v_layout, spectrum)


def init_svdp_params(d_out: int, d_in: int, r: int, spectrum_mode: str,
                     seed: int, init_scheme: str = "noisy_identity",
                     lam: float = 0.0) -> SvdpParams:
    """Fresh parameters of the one-core chain, as :func:`~.sttp.init_chain`."""
    (u_layout,), (v_layout,), spectrum = init_chain(
        (d_out,), (d_in,), r, spectrum_mode, seed, init_scheme, lam)
    return SvdpParams(d_out, d_in, r, u_layout, v_layout, spectrum)


def assemble(p: SvdpParams) -> np.ndarray:
    """Materialize W = U @ diag(sigma) @ V^T as a d_out x d_in matrix.

    The singular values of the result are ``|sigma|``; no d_out x d_out
    intermediate is formed.  This is the one-core case of
    :func:`ttspectral.sttp.assemble_sttp`.
    """
    return assemble_sttp(p)


def redundancy_witness(p: SvdpParams, q: np.ndarray):
    """Rotate both frames of an identity-spectrum parameter set by ``q``.

    Returns full layouts of ``U q`` and ``V q`` (V with the spectrum's signs
    absorbed) and the signs their encoding hands back: for an orthogonal
    r x r ``q``, ``(U' * signs) @ V'^T`` is ``p``'s matrix in other frames,
    the redundancy that the reduced U layout removes.
    """
    if p.spectrum.mode != IDENTITY:
        raise DomainError("redundancy witness applies to the identity spectrum")
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (p.r, p.r):
        raise ShapeError(f"rotation must be {p.r} x {p.r}, got {q.shape}")
    if not np.linalg.norm(q.T @ q - np.eye(p.r)) <= 1e-10:  # NaN fails too
        raise DomainError("witness rotation is not orthogonal")
    u = hh.decode(p.u_layout)
    v = hh.decode(p.v_layout) * p.spectrum.signs  # absorb signs into V
    u_layout, su = hh.encode(u @ q)
    v_layout, sv = hh.encode(v @ q)
    return u_layout, v_layout, su * sv
