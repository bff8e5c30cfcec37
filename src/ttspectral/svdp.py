"""Rank-r weight matrices assembled as U @ diag(sigma) @ V^T.

Both frames are Householder-parameterized.  With a learned spectrum the
parameterization reaches every matrix of rank <= r and spectral norm 1
(the infinity-norm rescaling of the spectrum pins ``max|sigma|`` to 1).
With the identity spectrum, independently parameterized frames would be
redundant - ``(U Q)(V Q)^T = U V^T`` for any orthogonal Q - so the U frame
uses the reduced (gauge-fixed) layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import householder as hh
from .errors import DomainError, ShapeError
from .spectral import SpectrumParams, init_spectrum
from .spectral import materialize_sigma  # noqa: F401  (perfbench patches it)
from .spectrum_modes import IDENTITY
from .tensortrain import ChainView

__all__ = [
    "rank_cap",
    "svdp_dof",
    "SvdpParams",
    "init_svdp_params",
    "svdp_template",
    "assemble",
    "svdp_from_matrix",
    "redundancy_witness",
]


def rank_cap(d_out: int, d_in: int) -> int:
    """Largest admissible rank for a d_out x d_in matrix."""
    if d_out < 1 or d_in < 1:
        raise DomainError("matrix dims must be positive")
    return min(d_out, d_in)


def _check_rank(d_out: int, d_in: int, r: int) -> None:
    cap = rank_cap(d_out, d_in)
    if not 1 <= r <= cap:
        raise DomainError(f"rank {r} violates 1 <= r <= min({d_out}, {d_in}) = {cap}")


def svdp_dof(d_out: int, d_in: int, r: int, spectrum_mode: str) -> int:
    """Free-parameter count of the parameterization.

    Learned spectrum: ``r*(d_out + d_in) - r**2`` (two full frames plus r
    spectrum values).  Identity spectrum: ``r*(d_out + d_in) - r*(3r + 1)/2``
    (reduced U frame, full V frame, no spectrum values).
    """
    _check_rank(d_out, d_in, r)
    if spectrum_mode == IDENTITY:
        return r * (d_out + d_in) - r * (3 * r + 1) // 2
    return r * (d_out + d_in) - r * r


@dataclass(frozen=True)
class SvdpParams:
    """Complete parameter set: two frame layouts plus the spectrum.

    :func:`init_svdp_params` enforces the variant rules (reduced U with an
    identity spectrum, full/full otherwise).  Direct construction skips the
    variant rule so that the gauge redundancy of full/full identity-spectrum
    parameter sets can be demonstrated; dims and rank are always validated.
    """

    d_out: int
    d_in: int
    r: int
    u_layout: hh.HouseholderLayout
    v_layout: hh.HouseholderLayout
    spectrum: SpectrumParams

    def __post_init__(self):
        _check_rank(self.d_out, self.d_in, self.r)
        if (self.u_layout.d, self.u_layout.r) != (self.d_out, self.r):
            raise ShapeError("U layout dims do not match (d_out, r)")
        if (self.v_layout.d, self.v_layout.r) != (self.d_in, self.r):
            raise ShapeError("V layout dims do not match (d_in, r)")
        if self.spectrum.r != self.r:
            raise ShapeError("spectrum length does not match rank")

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
    _check_rank(d_out, d_in, r)
    u_variant = hh.REDUCED if spectrum_mode == IDENTITY else hh.FULL
    return SvdpParams(d_out, d_in, r, hh.make_layout(d_out, r, u_variant),
                      hh.make_layout(d_in, r, hh.FULL),
                      init_spectrum(spectrum_mode, r))


def init_svdp_params(d_out: int, d_in: int, r: int, spectrum_mode: str,
                     seed: int, init_scheme: str = "noisy_identity",
                     alpha: float = 1e-4, lam: float = 0.0) -> SvdpParams:
    """Fresh parameters with the variant rules applied.

    The column signs lost by the frame encodings are folded into the
    spectrum, so the assembled matrix reproduces the initialization frames'
    product.
    """
    _check_rank(d_out, d_in, r)
    u_variant = hh.REDUCED if spectrum_mode == IDENTITY else hh.FULL
    rng = np.random.default_rng(seed)
    u_layout, su = hh.init_layout(init_scheme, d_out, r,
                                  int(rng.integers(2**32)), u_variant, alpha)
    v_layout, sv = hh.init_layout(init_scheme, d_in, r,
                                  int(rng.integers(2**32)), hh.FULL, alpha)
    spectrum = init_spectrum(spectrum_mode, r, su * sv, lam)
    return SvdpParams(d_out, d_in, r, u_layout, v_layout, spectrum)


def assemble(p: SvdpParams) -> np.ndarray:
    """Materialize W = U @ diag(sigma) @ V^T as a d_out x d_in matrix.

    The singular values of the result are ``|sigma|``; no d_out x d_out
    intermediate is formed.  This is the one-core case of
    :func:`ttspectral.sttp.assemble_sttp`.
    """
    from .sttp import assemble_sttp  # sttp imports this module

    return assemble_sttp(p)


def svdp_from_matrix(target: np.ndarray, r: int, spectrum_mode: str = "learned",
                     lam: float = 0.0) -> tuple[SvdpParams, float]:
    """Parameters reproducing the best rank-r approximation, up to scale.

    Returns ``(params, scale)`` with ``scale * assemble(params)`` equal to
    the truncated SVD of ``target``.  Because the learned spectrum is
    rescaled to ``max|sigma| = 1``, the parameterization itself reaches the
    approximation exactly only when its top singular value is 1; the returned
    scale is that top singular value.
    """
    from .dense import svd_full

    target = np.asarray(target, dtype=np.float64)
    d_out, d_in = target.shape
    _check_rank(d_out, d_in, r)
    if spectrum_mode == IDENTITY:
        raise DomainError("constructive fit needs a learned spectrum")
    u_full, s, v_full = svd_full(target)
    u_layout, su = hh.encode(u_full[:, :r])
    v_layout, sv = hh.encode(v_full[:, :r])
    scale = float(s[0]) if s[0] > 0 else 1.0
    spectrum = SpectrumParams(spectrum_mode, r, (s[:r] / scale) * su * sv,
                              None, lam)
    return SvdpParams(d_out, d_in, r, u_layout, v_layout, spectrum), scale


def redundancy_witness(p: SvdpParams, q: np.ndarray) -> SvdpParams:
    """Rotate both frames of a full/full identity-spectrum parameter set.

    For any orthogonal r x r matrix ``q`` the returned parameters assemble
    to the same matrix while holding different frames - the over-
    parameterization that the reduced U layout removes.
    """
    if p.spectrum.mode != IDENTITY:
        raise DomainError("redundancy witness applies to the identity spectrum")
    if p.u_layout.variant != hh.FULL or p.v_layout.variant != hh.FULL:
        raise DomainError("redundancy witness needs full/full layouts")
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (p.r, p.r):
        raise ShapeError(f"rotation must be {p.r} x {p.r}, got {q.shape}")
    if np.linalg.norm(q.T @ q - np.eye(p.r)) > 1e-10:
        raise DomainError("witness rotation is not orthogonal")
    u = hh.decode(p.u_layout)
    v = hh.decode(p.v_layout) * p.spectrum.signs  # absorb signs into V
    u_layout, su = hh.encode(u @ q)
    v_layout, sv = hh.encode(v @ q)
    spectrum = SpectrumParams(IDENTITY, p.r, None, su * sv)
    return SvdpParams(p.d_out, p.d_in, p.r, u_layout, v_layout, spectrum)
