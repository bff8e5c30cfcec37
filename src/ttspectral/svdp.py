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
count, template and initializer are the chain's, and a parameter set reads
its core shapes and fixed heads from its chain's
:class:`~ttspectral.sttp.ChainStructure` record, as an sttp set does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import attrgetter

import numpy as np

from . import householder as hh
from .errors import DomainError, ShapeError
from .spectral import SpectrumParams
from .spectral import materialize_sigma  # noqa: F401  (perfbench patches it)
from .spectrum_modes import IDENTITY
from .sttp import (
    ChainStructure,
    assemble_sttp,
    chain_structure,
    check_chain,
    init_params,
    rank_cap,
    template_params,
    unpack_chain,
)

__all__ = [
    "rank_cap",
    "svdp_structure",
    "svdp_dof",
    "SvdpParams",
    "init_svdp_params",
    "unpack_svdp",
    "svdp_template",
    "assemble",
    "redundancy_witness",
]


def svdp_structure(d_out: int, d_in: int, r: int, spectrum_mode: str
                   ) -> ChainStructure:
    """:func:`~.sttp.chain_structure` of the one-core chain."""
    return chain_structure((d_out,), (d_in,), r, spectrum_mode)


def svdp_dof(d_out: int, d_in: int, r: int, spectrum_mode: str) -> int:
    """Free-parameter count of the parameterization.

    Learned spectrum: ``r*(d_out + d_in) - r**2`` (two full frames plus r
    spectrum values).  Identity spectrum: ``r*(d_out + d_in) - r*(3r + 1)/2``
    (reduced U frame, full V frame, no spectrum values).
    """
    return svdp_structure(d_out, d_in, r, spectrum_mode).dof


@dataclass(frozen=True, eq=False)
class SvdpParams:
    """Complete parameter set: two frame layouts plus the spectrum.

    The constructor looks up the one-core :func:`~.sttp.chain_structure`,
    keeps it as the read-only attribute ``structure`` and runs
    :func:`~.sttp.check_chain` against it, as :class:`~.sttp.SttpParams`
    does, gauge rule included (reduced U with an identity spectrum,
    full/full otherwise); ``n_params`` is the record's dof,
    :func:`svdp_dof`.  A set reads as the chain through ``u_layouts`` and
    ``v_layouts``, one layout each.  Pickling and copying rebuild through
    the constructor.  Its parts memoize their frames and sigma, so ``==``
    and ``hash`` go by identity.
    """

    scheme = "svdp"

    d_out: int
    d_in: int
    r: int
    u_layout: hh.HouseholderLayout
    v_layout: hh.HouseholderLayout
    spectrum: SpectrumParams

    def __post_init__(self):
        structure = chain_structure((self.d_out,), (self.d_in,), self.r,
                                    self.spectrum.mode)
        check_chain(structure, self.u_layouts, self.v_layouts, self.spectrum)
        object.__setattr__(self, "structure", structure)  # frozen: set once

    def __reduce__(self):
        return (SvdpParams, (self.d_out, self.d_in, self.r, self.u_layout,
                             self.v_layout, self.spectrum))

    n_params = property(attrgetter("structure.dof"))
    specs = property(attrgetter("structure.specs"))
    u_layouts = property(lambda self: (self.u_layout,))
    v_layouts = property(lambda self: (self.v_layout,))
    layouts = property(attrgetter("u_layout", "v_layout"))


unpack_svdp = partial(unpack_chain, lambda d_out, d_in, r, u, v, spectrum:
                      SvdpParams(d_out, d_in, r, *u, *v, spectrum))
init_svdp_params = partial(init_params, svdp_structure, unpack_svdp)
svdp_template = partial(template_params, svdp_structure, unpack_svdp)


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
