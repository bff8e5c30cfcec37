"""Dense tensor substrate: element ordering, reshaping, the LAPACK kernels
the frames use, and the SVD oracle.

Dense tensors are plain ``numpy.ndarray`` objects of dtype float64 stored in
C (row-major) order.  Row-major order realizes the 1-based multi-index
linearization of :func:`multi_index`: enumerating index tuples
lexicographically walks the flat buffer front to back.  All reshaping in this
library therefore only touches metadata, never the buffer.

All functions are pure; randomness enters only through explicit seeds.

``geqrf`` and the inverse call the LAPACK gufuncs behind
``np.linalg.qr`` and ``np.linalg.inv`` (numpy's private ``_umath_linalg``)
without the wrappers: same bits, a fraction of the cost on a frame's small
matrices.  No other module touches that private API.  A numpy without
these gufuncs fails the import of this module with an ``ImportError`` that
names the requirement.  Callers check their input first, so LAPACK never
sees a matrix it can fail on.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NumericError, ShapeError, check_integers

try:
    from numpy.linalg._umath_linalg import inv as _inv
    from numpy.linalg._umath_linalg import qr_r_raw as _qr_r_raw
except ImportError as exc:
    raise ImportError(
        "ttspectral needs numpy>=2.4.6 for the LAPACK gufuncs qr_r_raw "
        "and inv in numpy.linalg._umath_linalg; numpy "
        f"{np.__version__} lacks one: {exc}") from exc

__all__ = [
    "multi_index",
    "reshape",
    "matricize_core",
    "geqrf",
    "inv",
    "svd_full",
]

MAX_MAGNITUDE = 2.0 ** 500
"""Largest free-parameter magnitude, 2**500 (about 3.3e150), that a layout,
a spectrum or a descent step accepts.  Its square times any canvas length
below 2**23 stays finite, so the Gram entries ``c_i . c_j`` of a canvas's
raw reflectors or a spectrum's ``max|s|**2`` never overflow to a different
frame or gradient."""


def _check_dims(dims) -> tuple[int, ...]:
    dims = check_integers("dimension", dims)
    if len(dims) == 0:
        raise ShapeError("dims must be non-empty")
    if any(d < 1 for d in dims):
        raise ShapeError(f"dims must all be >= 1, got {dims}")
    return dims


def multi_index(dims, idx) -> int:
    """Map a 1-based multi-index to its 1-based linear position.

    The position is ``1 + sum_p (idx_p - 1) * prod_{q > p} dims_q``, i.e.
    the last axis varies fastest.  This is a bijection between the index box
    and ``1..prod(dims)``.
    """
    dims = _check_dims(dims)
    idx = check_integers("index", idx)
    if len(idx) != len(dims):
        raise ShapeError(f"index arity {len(idx)} != tensor arity {len(dims)}")
    pos = 0
    for p, (i, d) in enumerate(zip(idx, dims)):
        if not 1 <= i <= d:
            raise DomainError(f"index {i} out of range [1, {d}] on axis {p}")
        pos = pos * d + (i - 1)
    return pos + 1


def reshape(t: np.ndarray, new_dims) -> np.ndarray:
    """Reshape without touching the buffer; element order is preserved."""
    new_dims = _check_dims(new_dims)
    if t.size != math.prod(new_dims):
        raise ShapeError(
            f"cannot reshape {t.size} elements into dims {new_dims} "
            f"({math.prod(new_dims)} elements)"
        )
    return np.ascontiguousarray(t, dtype=np.float64).reshape(new_dims)


def matricize_core(t: np.ndarray) -> np.ndarray:
    """Flatten a 3-D core (a, b, c) to the (a*b, c) matrix, fusing (a, b)."""
    if t.ndim != 3:
        raise ShapeError(f"matricize_core expects a 3-D core, got ndim={t.ndim}")
    a, b, c = t.shape
    return reshape(t, (a * b, c))


def geqrf(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK ``geqrf`` of a finite float64 matrix ``m`` (d x r, d >= r).

    Returns ``(a, tau)``: ``a`` is a copy of ``m`` (made as ``np.linalg.qr``
    makes it) overwritten with R on and above the diagonal and the
    unit-diagonal reflectors below it, ``tau`` the reflector scales.  The
    caller checks that ``m`` is finite.
    """
    a = m.astype(np.float64, copy=True)
    return a, _qr_r_raw(a, signature="d->d")


def inv(stack: np.ndarray) -> np.ndarray:
    """Inverse of each matrix of a float64 stack (LAPACK ``gesv``).

    For matrices the caller knows to be nonsingular: unlike
    ``np.linalg.inv``, a singular matrix raises nothing.
    """
    return _inv(stack, signature="d->d")


def svd_full(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition ``m = U @ diag(s) @ V.T``.

    Returns ``(U, s, V)`` with ``s`` non-negative and descending and the
    frames orthonormal; a singular value past float range raises
    :class:`NumericError`.  Serves as the test oracle and the best-rank-k
    baseline throughout the library.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError("svd_full expects a matrix")
    if not np.all(np.isfinite(m)):
        raise DomainError("svd_full requires finite entries")
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericError(f"SVD did not converge: {exc}") from exc
    if not np.isfinite(s).all():  # a spectral norm past float range
        raise NumericError("svd_full: a singular value is not finite")
    return u, s, vh.T
