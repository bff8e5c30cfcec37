"""Differentiable parameterizations of orthonormal frames.

A d x r frame with orthonormal columns is produced from a matrix of reflector
parameters laid out LAPACK-style: column ``j`` holds reflector ``j`` with a
structural 1 on the diagonal and structural zeros above it.  The decoded
frame is the product of the reflections applied to a truncated identity,

    Q = H(1) H(2) ... H(r) I_{d x r},      H(i) = I - 2 c_i c_i^T / |c_i|^2,

with ``c_i`` the raw ``i``-th column of the layout, never normalized.  The
product is the UT transform (compact WY) on raw Householder vectors,
``I - C T^-1 C^T``, ``T = diag(C^T C)/2 + striu(C^T C)`` (Joffrain et al.,
ACM TOMS 2006): decode and its gradient are a few batched matmuls and one
LAPACK inverse, with no reflector loop.  The sweep works on column-major
canvases (``r x d``, reflectors as contiguous rows), which the layouts'
structures and :class:`DecodePlan` scatter into and gather from directly,
so no sweep transposes a canvas.  The structural diagonal 1 keeps every
``|c_i| >= 1``, so ``T`` is triangular with diagonal at least 1/2, never
singular, and the inverse is :func:`~.dense.inv`, the LAPACK gufunc behind
``np.linalg.inv`` without the wrapper; encode's ``geqrf``
(:func:`~.dense.geqrf`) skips ``np.linalg.qr``'s wrapper the same way.
A fresh layout (:func:`init_cells`) is one ``geqrf`` of a drawn matrix.
A batch of one size is bitwise each member decoded alone, as are
same-seed reruns; a member that :func:`decode_batch` or :class:`DecodePlan`
pads to a longer canvas, and applying one reflector at a time, agree to
rounding only.

Two layout variants exist:

* ``full`` - free cells strictly below the diagonal; dof = d*r - r*(r+1)/2.
* ``reduced`` - additionally zeroes rows ``j+1..r`` of column ``j``; the
  decoded frame then has an upper-triangular leading r x r block (the
  gauge-fixed subset of frames); dof = d*r - r**2.

Layouts are immutable in fact: each holds a read-only copy of its
parameters, and :func:`decode` keeps the read-only frame it decodes on the
layout, checked orthonormal once, so decoding a layout again (as every warm
``apply_map`` does) is a lookup.  A layout without free cells shares its
structure's fixed frame.  A decoded layout costs ``d * r`` more floats,
the size of its dense canvas.  :func:`decode_batch` and the gradient
tape's :class:`DecodePlan` decode afresh every time and return writable
arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .dense import MAX_MAGNITUDE, geqrf, inv
from .errors import DomainError, ShapeError, check_integer

__all__ = [
    "HouseholderLayout",
    "FULL",
    "REDUCED",
    "layout_mask",
    "dof",
    "make_layout",
    "fixed_frame",
    "decode",
    "decode_batch",
    "DecodePlan",
    "encode",
    "init_cells",
    "check_frame",
    "INIT_SCHEMES",
]

FULL = "full"
REDUCED = "reduced"
_VARIANTS = (FULL, REDUCED)

INIT_SCHEMES = ("identity", "random_orthogonal", "noisy_identity")
INIT_ALPHA = 1e-4
"""Noise scale of the ``noisy_identity`` init, 1e-4."""
FRAME_TOL = 1e-8
"""Largest Gram residual :func:`check_frame` accepts, 1e-8."""


def layout_mask(d: int, r: int, variant: str) -> np.ndarray:
    """Boolean d x r canvas marking the free parameter cells of a layout."""
    _check_layout_dims(d, r, variant)
    mask = np.zeros((d, r), dtype=bool)
    for j in range(r):
        lo = r if variant == REDUCED else j + 1
        mask[lo:d, j] = True
    return mask


def _check_layout_dims(d, r, variant):
    check_integer("d", d)
    check_integer("r", r)
    if variant not in _VARIANTS:
        raise DomainError(f"unknown layout variant {variant!r}")
    if not (1 <= r <= d):
        raise DomainError(f"layout needs 1 <= r <= d, got d={d}, r={r}")


def dof(d: int, r: int, variant: str) -> int:
    """Number of free scalars in a layout.

    ``full`` has ``d*r - r*(r+1)/2`` (the dimension of the frame manifold);
    ``reduced`` has ``d*r - r**2``, saving ``r*(r-1)/2`` by fixing the gauge.
    """
    _check_layout_dims(d, r, variant)
    if variant == FULL:
        return d * r - r * (r + 1) // 2
    return d * r - r * r


@dataclass(frozen=True, eq=False)
class HouseholderLayout:
    """Reflector parameters for one orthonormal frame.

    ``params`` stores the free cells column-major by reflector: all free
    cells of column 0 (top to bottom), then column 1, and so on.  Instances
    are immutable; the constructor, or :func:`make_layout`, builds one with
    other ``params``.  It checks the dims and counts the free cells by
    :func:`dof`, without building the structure's index arrays, and checks
    that ``params`` holds one finite value per free cell, of magnitude at
    most ``dense.MAX_MAGNITUDE``; it keeps a read-only copy, so writing to
    the array it was given changes neither the layout nor its frame.

    :func:`decode` memoizes the read-only, checked frame on the layout,
    which then holds it (a ``d x r`` array) for as long
    as the layout lives.  Pickling or copying rebuilds the layout through its
    constructor, with a fresh read-only copy of ``params`` and no frame.
    Since a layout carries that memo, ``==`` and ``hash`` go by identity.
    """

    d: int
    r: int
    variant: str
    params: np.ndarray

    def __post_init__(self):
        n_free = dof(self.d, self.r, self.variant)
        params = np.array(self.params, dtype=np.float64).ravel()
        if params.size != n_free:
            raise ShapeError(
                f"expected {n_free} free parameters, got {params.size}")
        if not (np.abs(params) <= MAX_MAGNITUDE).all():  # NaN fails too
            raise DomainError("layout parameters must be finite and at "
                              "most 2**500 in magnitude")
        params.flags.writeable = False
        object.__setattr__(self, "params", params)

    def __reduce__(self):
        return (HouseholderLayout, (self.d, self.r, self.variant, self.params))

    @cached_property
    def _frame(self) -> np.ndarray:
        fixed = _structure(self.d, self.r, self.variant)[2]
        if fixed is not None:
            return fixed
        q = _reflect_sweep(self.dense().T[None])[0]
        check_frame(q)
        q.flags.writeable = False
        return q

    def free_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """(rows, cols) of the free cells, column-major by reflector."""
        return _structure(self.d, self.r, self.variant)[:2]

    def dense(self) -> np.ndarray:
        """Materialize the d x r canvas with structural cells.

        The result is a fresh writable array in Fortran order: the
        transpose of the C-contiguous column-major canvas the sweep takes,
        so ``dense().T`` is that canvas without a copy.
        """
        _, _, _, base, flat = _structure(self.d, self.r, self.variant)
        canvas = base.copy()
        canvas.reshape(-1)[flat] = self.params
        return canvas.T


def make_layout(d: int, r: int, variant: str = FULL, params=None
                ) -> HouseholderLayout:
    """Construct a layout; ``params`` defaults to all zeros."""
    if params is None:
        params = np.zeros(dof(d, r, variant))
    return HouseholderLayout(d, r, variant, params)


def fixed_frame(d: int, r: int, variant: str) -> np.ndarray | None:
    """The shared, read-only frame of a structure without free cells
    (square reduced, or 1 x 1), the signed identity ``-I``; None for a
    structure with free cells."""
    return _structure(d, r, variant)[2]


@lru_cache(maxsize=1024)
def _structure(d: int, r: int, variant: str):
    """``(rows, cols, frame, base, flat)`` of a structure, cached, read-only.

    ``rows``/``cols`` are the free cells.  ``base`` is the column-major
    (``r x d``) canvas with every free cell zero, and ``flat`` the free
    cells as flat indices into it.  A structure without free cells (square
    reduced, or 1 x 1) decodes to a fixed ``frame``, decoded here once;
    otherwise ``frame`` is None.
    """
    cols, rows = np.nonzero(layout_mask(d, r, variant).T)
    base = np.eye(r, d)
    frame = None
    if rows.size == 0:
        frame = _reflect_sweep(base[None])[0]
    record = (rows, cols, frame, base, cols * d + rows)
    for a in record:
        if a is not None:
            a.flags.writeable = False
    return record


@lru_cache(maxsize=256)
def _wy_constants(dp: int, rp: int):
    """Read-only W (rp x rp: 1 above the diagonal, 1/2 on it), I_{dp x rp}."""
    consts = (np.triu(np.ones((rp, rp))) - 0.5 * np.eye(rp), np.eye(dp, rp))
    for a in consts:
        a.flags.writeable = False
    return consts


def _reflect_sweep(canvases: np.ndarray, save: bool = False):
    """Apply the reflector product of each stacked canvas to E = I_{dp x rp}.

    ``canvases`` is C-contiguous, column-major: shape (batch, r_pad, d_pad),
    raw reflector ``c_j`` in row ``j``.  Each frame (batch, d_pad, r_pad) is
    ``E - C^T S``, ``S = T^-1 C[:, :r_pad]``, ``T = (C C^T) * W``.  Stacked
    BLAS and LAPACK calls run per item, so a batch of one is bitwise a
    member of a larger batch.  With ``save`` the result is ``(q, saved)``,
    ``saved`` holding the canvases, ``T^-1`` and ``S``; the canvases are
    the caller's, which must not write to them afterwards.
    """
    rp, dp = canvases.shape[1:]
    w, eye = _wy_constants(dp, rp)
    # T is triangular with diagonal |c_j|^2 / 2 >= 1/2, never singular
    m = inv((canvases @ canvases.transpose(0, 2, 1)) * w)
    s = m @ canvases[:, :, :rp]
    q = eye - canvases.transpose(0, 2, 1) @ s
    return (q, (canvases, m, s)) if save else q


def _reflect_sweep_vjp(saved: tuple, g: np.ndarray) -> np.ndarray:
    """Gradient of a saved sweep w.r.t. its canvases, given ``g`` on its q.

    ``g`` has the frame shape (batch, d_pad, r_pad), the result the
    column-major canvas shape (batch, r_pad, d_pad): with ``A = T^-T C g``
    and ``P = (A S^T) * W``, it is ``(P + P^T) C - S g^T``, less ``A`` in
    the leading ``r_pad`` columns.
    """
    c, m, s = saved
    a = m.transpose(0, 2, 1) @ (c @ g)
    p = (a @ s.transpose(0, 2, 1)) * _wy_constants(*g.shape[1:])[0]
    c_bar = (p + p.transpose(0, 2, 1)) @ c - s @ g.transpose(0, 2, 1)
    c_bar[:, :, : g.shape[2]] -= a
    return c_bar


def decode(layout: HouseholderLayout) -> np.ndarray:
    """Decode a layout into its d x r orthonormal frame, read-only.

    The frame is decoded and checked orthonormal (:func:`check_frame`) on
    the first call for a layout object and kept on it; later calls return
    that same array.  A layout without free cells returns its structure's
    shared fixed frame.
    """
    return layout._frame


def decode_batch(layouts) -> list[np.ndarray]:
    """Decode several layouts, of any sizes, in one batched sweep.

    The batch pads itself to its largest ``(d, r)`` (:func:`_padded`), and
    each layout's frame is the leading ``d x r`` block of its padded
    canvas's.  The larger canvas reorders the sums, so a padded member
    agrees with :func:`decode` to rounding, not bitwise; a batch of one
    size is bitwise ``[decode(la) for la in layouts]``.  The frames are
    fresh writable arrays.
    """
    layouts = list(layouts)
    if not layouts:
        return []
    canvases, cells = _padded([(la.d, la.r, la.variant) for la in layouts])
    canvases.reshape(-1)[cells] = np.concatenate(
        [la.params for la in layouts])
    q = _reflect_sweep(canvases)
    return [q[k, : la.d, : la.r] for k, la in enumerate(layouts)]


def _padded(dims):
    """``(base, cells)`` of layouts ``(d, r, variant)`` padded to their
    largest ``(d, r)``, ``(d_pad, r_pad)``: the stacked column-major
    canvases (``r_pad x d_pad`` each, ``eye(r_pad, d_pad)``, so the extra
    cells are structural zeros and columns ``j >= r`` reflect by their
    structural 1), and the flat index of each layout's free cells in it."""
    d_pad = max(d for d, _, _ in dims)
    r_pad = max(r for _, r, _ in dims)  # <= d_pad, as every r <= d
    base = np.tile(np.eye(r_pad, d_pad), (len(dims), 1, 1))
    cells = []
    for k, key in enumerate(dims):
        rows, cols = _structure(*key)[:2]
        cells.append((k * r_pad + cols) * d_pad + rows)
    return base, np.concatenate(cells)


# Largest d * r (canvas cells) of a canvas that DecodePlan pads into its
# rank's shared sweep.  Timed on one Xeon core (one BLAS thread, numpy
# 2.4.6, timeit minimum of 7), decode plus VJP of a 2r x r canvas beside a
# d x r one, padded into one sweep, took 0.42-0.86 of the time of two exact
# sweeps wherever d * r <= 1024, at every r from 1 to 16.  At 2048 cells it
# took 0.84-1.02, and at 4096 cells 1.02-2.04 (1.82 at 4096 x 1), so the
# cell count, not d * r * r, sets where padding stops paying.
_PAD_LIMIT = 1024


class DecodePlan:
    """The saving decode of fixed layout structures from one flat vector.

    Layout ``i``, ``dims[i] = (d, r, variant)``, reads its free cells from
    ``theta[offsets[i]:]``.  The layouts with free cells form sweep
    groups: every canvas of one rank
    ``r`` with at most ``_PAD_LIMIT`` (1024) cells, ``d * r``, joins that
    rank's group, padded to the group's largest ``d`` as in
    :func:`decode_batch` (``r`` is never padded), and each larger canvas
    joins the group of its exact ``(d, r)``.  A member's frame is the
    leading ``d`` rows of its canvas's.  A group holds the stacked
    column-major base canvases, the flat index of the free cells in that
    stack and the positions in ``theta`` they read, through which the
    gradient gathers back, read-only.  Layouts without free cells take
    their cached frame.

    An unpadded member is bitwise its layout decoded alone; a padded one
    agrees to rounding, as the longer canvas reorders its sums.
    """

    def __init__(self, dims, offsets):
        self.spans = tuple((pos, pos + dof(*key))
                           for key, pos in zip(dims, offsets))
        self.size = max((end for _, end in self.spans), default=0)
        self.fixed = tuple(fixed_frame(*key) for key in dims)
        self.rows = tuple(d for d, _, _ in dims)
        by_key: dict = {}
        for i, (d, r, _) in enumerate(dims):
            if self.fixed[i] is None:
                by_key.setdefault(r if d * r <= _PAD_LIMIT else (d, r),
                                  []).append(i)
        self.groups = []
        for members in by_key.values():
            group = (*_padded([dims[i] for i in members]), np.concatenate(
                [np.arange(*self.spans[i]) for i in members]))
            for a in group:
                a.flags.writeable = False
            self.groups.append((members, *group))

    def decode(self, theta: np.ndarray):
        """Every frame, and per group ``(members, saves)`` for :meth:`vjp`."""
        frames, sweeps = list(self.fixed), []
        for members, base, cells, src in self.groups:
            canvases = base.copy()
            canvases.reshape(-1)[cells] = theta[src]
            q, saves = _reflect_sweep(canvases, save=True)
            for k, i in enumerate(members):
                frames[i] = q[k, : self.rows[i]]
            sweeps.append((members, saves))
        return frames, sweeps

    def vjp(self, sweeps, g_frames, grad: np.ndarray) -> None:
        """Write into ``grad``, where :meth:`decode` read ``theta``, the
        gradient of a cotangent on each frame."""
        for (members, base, cells, src), (_, saves) in zip(self.groups,
                                                           sweeps):
            n, r, d_pad = base.shape
            g = np.zeros((n, d_pad, r))
            for k, i in enumerate(members):
                g[k, : self.rows[i]] = g_frames[i]
            grad[src] = _reflect_sweep_vjp(saves, g).reshape(-1)[cells]


def check_frame(q: np.ndarray) -> None:
    """Raise unless ``q`` has orthonormal columns to within ``FRAME_TOL``."""
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 2 or q.shape[0] < q.shape[1]:
        raise ShapeError(f"frame must be d x r with d >= r, got {q.shape}")
    e = (q.T @ q - np.eye(q.shape[1])).ravel()
    resid = math.sqrt(e @ e)  # np.linalg.norm's Frobenius norm, same bits
    if not resid <= FRAME_TOL:  # a NaN residual fails too
        raise DomainError(f"columns not orthonormal: Gram residual {resid:.3e}")


def encode(q: np.ndarray, variant: str = FULL
           ) -> tuple[HouseholderLayout, np.ndarray]:
    """Recover a layout of the given variant and column signs from an
    orthonormal frame.

    ``decode(layout) @ diag(signs)`` reproduces ``q`` for the full variant.
    The layout is built straight from the reflector canvas of LAPACK
    ``geqrf`` (unit-diagonal reflectors below the diagonal).  The signs are
    the diagonal of its triangular factor, which for orthonormal input is
    ``diag(+-1)``; the parameterization cannot represent them itself, so
    they are returned for the caller to absorb (e.g. into a spectrum).

    For the reduced variant the encoded gauge cells are left out: exact
    when the frame's leading block is already upper triangular (identity),
    a projection otherwise (O(INIT_ALPHA) for noisy identity).
    """
    q = np.asarray(q, dtype=np.float64)
    check_frame(q)  # finite and orthonormal, so geqrf cannot fail
    d, r = q.shape
    rows, cols = _structure(d, r, variant)[:2]
    a, tau = geqrf(q)
    return HouseholderLayout(d, r, variant, a[rows, cols]), _qr_signs(a, tau)


def _qr_signs(a: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Column signs of a ``geqrf`` result: the signs of R's diagonal, negated
    where LAPACK skipped a reflector whose subcolumn is already zero (``tau
    == 0``), as a layout's structural 1 always reflects."""
    signs = np.sign(np.diagonal(a))
    signs[tau == 0] *= -1.0
    return signs


def init_cells(scheme: str, d: int, r: int, variant: str, seed: int,
               flips: np.ndarray | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
    """Free cells and column signs of a fresh layout, one ``geqrf`` of the
    d x r matrix a scheme draws from ``seed`` (an integer >= 0): ``I``,
    standard normal (``random_orthogonal``) or ``I + INIT_ALPHA * N``, its
    rows times ``flips`` if given.  ``decode(layout) * signs`` is that
    matrix's orthonormal frame, whose :func:`encode` these are (up to
    rounding): ``M = Q R`` with R's diagonal positive moves no reflector."""
    check_integer("seed", seed, 0)
    if scheme not in INIT_SCHEMES:
        raise DomainError(f"unknown init scheme {scheme!r}")
    _check_layout_dims(d, r, variant)
    rows, cols = _structure(d, r, variant)[:2]
    m = np.eye(d, r)
    if scheme != "identity":
        noise = np.random.default_rng(seed).standard_normal((d, r))
        m = noise if scheme == "random_orthogonal" else m + INIT_ALPHA * noise
    if flips is not None:
        m *= flips[:, None]
    a, tau = geqrf(m)
    return a[rows, cols], _qr_signs(a, tau)
