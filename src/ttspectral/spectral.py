"""Spectrum parameterizations and spectral diagnostics.

The diagonal factor of an assembled weight matrix is either fixed to
``+-1`` entries (identity mode, the signs coming from frame encoding) or
learned as a free vector ``s`` rescaled by its infinity norm,
``sigma = s / max|s|``.  The rescaling pins ``max|sigma|`` to exactly 1, so
every assembled matrix has spectral norm 1 and any stack of such layers has
a product Lipschitz bound of 1.

Also here: the log-determinant style penalty that pushes singular values
away from zero, the Lipschitz bound aggregator, the stable rank read off
the spectrum, and the parameter-count compression ratio.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field
from functools import cached_property

import numpy as np

from .dense import MAX_MAGNITUDE
from .errors import DomainError, ShapeError, check_integer, check_integers
from .spectrum_modes import IDENTITY, LEARNED, LEARNED_REGULARIZED, SPECTRUM_MODES

__all__ = [
    "IDENTITY",
    "LEARNED",
    "LEARNED_REGULARIZED",
    "SPECTRUM_MODES",
    "SpectrumParams",
    "materialize_sigma",
    "normalize_spectrum",
    "d_optimal_penalty",
    "lipschitz_bound",
    "stable_rank_from_spectrum",
    "LayerBudget",
    "NetworkSummary",
    "compression_ratio",
]


@dataclass(frozen=True, eq=False)
class SpectrumParams:
    """Diagonal-factor state for one parameterized matrix.

    ``signs`` absorbs the ``+-1`` column-sign ambiguity of frame encoding.
    In identity mode the materialized diagonal is exactly ``signs`` and
    carries no free parameters; in the learned modes the free vector ``s``
    (signs already folded in at initialization) is the parameter, finite
    and at most ``dense.MAX_MAGNITUDE`` in magnitude, and ``signs`` is kept
    only as bookkeeping.  Both vectors are read-only
    float64 copies, so writing to the caller's arrays never changes the
    spectrum.

    :func:`materialize_sigma` memoizes the read-only diagonal (r floats) on
    the object.  Pickling or copying rebuilds it through its constructor,
    without the memo.  Since the object carries a memo, ``==`` and ``hash``
    go by identity: two spectra of equal values compare unequal.
    """

    mode: str
    r: int
    s: np.ndarray | None = None
    signs: np.ndarray | None = None
    lam: float = 0.0

    def __post_init__(self):
        if self.mode not in SPECTRUM_MODES:
            raise DomainError(f"unknown spectrum mode {self.mode!r}")
        check_integer("spectrum rank", self.r)
        if self.r < 1:
            raise DomainError("spectrum needs r >= 1")
        signs = np.ones(self.r) if self.signs is None else \
            np.array(self.signs, dtype=np.float64).ravel()
        if signs.size != self.r or not np.all(np.abs(signs) == 1.0):
            raise DomainError("signs must be an r-vector of +-1")
        signs.flags.writeable = False
        object.__setattr__(self, "signs", signs)
        if self.mode == IDENTITY:
            if self.s is not None:
                raise DomainError("identity spectrum carries no free vector")
        else:
            s = np.array(self.s, dtype=np.float64).ravel()
            if s.size != self.r:
                raise DomainError(f"expected {self.r} spectrum values, got {s.size}")
            if not (np.abs(s) <= MAX_MAGNITUDE).all():  # NaN fails too
                raise DomainError("spectrum values must be finite and at "
                                  "most 2**500 in magnitude")
            s.flags.writeable = False
            object.__setattr__(self, "s", s)
        if not 0.0 <= self.lam < np.inf:  # NaN fails too
            raise DomainError("regularizer weight must be finite and >= 0")

    def __reduce__(self):
        return (SpectrumParams, (self.mode, self.r, self.s, self.signs,
                                 self.lam))

    @cached_property
    def _sigma(self) -> np.ndarray:
        sigma = normalize_spectrum(self.s, self.signs)[0]
        sigma.flags.writeable = False
        return sigma

    @property
    def n_params(self) -> int:
        return 0 if self.mode == IDENTITY else self.r

    def with_s(self, s) -> "SpectrumParams":
        if self.mode == IDENTITY:
            raise DomainError("identity spectrum carries no free vector")
        return SpectrumParams(self.mode, self.r, s, self.signs, self.lam)


def init_spectrum(mode: str, r: int, signs=None, lam: float = 0.0
                  ) -> SpectrumParams:
    """Fresh spectrum: identity keeps the signs; learned starts at s = signs."""
    signs = np.ones(r) if signs is None else np.asarray(signs, dtype=np.float64)
    if mode == IDENTITY:
        return SpectrumParams(IDENTITY, r, None, signs, lam)
    return SpectrumParams(mode, r, signs.copy(), signs, lam)


def normalize_spectrum(s: np.ndarray | None, signs: np.ndarray):
    """``(sigma, save)``: ``signs`` if ``s`` is None or empty (identity),
    else ``s / max|s|``, which needs a nonzero entry and maps the largest
    magnitude ``m`` to exactly +-1.  ``save`` is None for identity, else
    ``(s, k, m)`` for the gradient tape: ``k`` indexes ``m`` (ties resolve
    to the smallest index; the tape tells a tie only when asked).
    """
    if s is None or not s.size:
        return signs.copy(), None
    mags = np.abs(s)
    k = int(mags.argmax())
    m = float(mags[k])
    if m == 0.0:
        raise DomainError("degenerate spectrum: all entries are zero")
    return s / m, (s, k, m)


def materialize_sigma(sp: SpectrumParams) -> np.ndarray:
    """The r diagonal entries: ``signs`` (identity) or ``s / max|s|``.

    The first call for a spectrum object normalizes and keeps the result on
    it, read-only; later calls return that same array.
    """
    return sp._sigma


def d_optimal_penalty(sigma) -> float:
    """``-sum_i log|sigma_i|``: zero iff all magnitudes are 1, +inf at zero."""
    sigma = np.asarray(sigma, dtype=np.float64).ravel()
    if np.any(sigma == 0.0):
        raise DomainError("penalty is infinite at a zero singular value")
    pen = float(-np.sum(np.log(np.abs(sigma))))
    if not math.isfinite(pen):
        raise DomainError("penalty needs finite singular values")
    return pen


def lipschitz_bound(sigma_max_per_layer):
    """Product of per-layer spectral norms: the feed-forward Lipschitz bound.

    Given a 2-D array with one row of per-layer norms per step, an array of
    one bound per row, each bitwise the row's alone.
    """
    vals = np.asarray(sigma_max_per_layer, dtype=np.float64)
    if vals.ndim not in (1, 2):
        raise ShapeError("lipschitz_bound takes a vector or a stack of rows")
    if not ((vals >= 0.0) & (vals < np.inf)).all():  # NaN fails too
        raise DomainError("spectral norms must be finite and non-negative")
    bounds = np.ones(vals.shape[:-1])
    for layer in vals.T:  # left to right along each row
        bounds = bounds * layer
    return bounds if vals.ndim == 2 else float(bounds)


def stable_rank_from_spectrum(sigma):
    """Exact stable rank of a parameterized matrix from its diagonal.

    Given a stack of diagonals (a 2-D array, one per row), an array of one
    stable rank per row, each bitwise the row's alone.
    """
    sigma = np.atleast_1d(np.asarray(sigma, dtype=np.float64))
    if sigma.ndim > 2:
        raise ShapeError("stable rank takes a diagonal or a stack of rows")
    if sigma.size == 0:
        raise DomainError("stable rank needs a non-empty spectrum")
    smax = np.max(np.abs(sigma), axis=-1, keepdims=True)
    if (smax == 0.0).any():
        raise DomainError("stable rank is undefined for the zero matrix")
    if not np.isfinite(smax).all():  # np.max passes a NaN on
        raise DomainError("stable rank needs a finite spectrum")
    ratios = sigma / smax  # squares of the raw values may over- or underflow
    ranks = np.sum(ratios * ratios, axis=-1)
    return ranks if sigma.ndim == 2 else float(ranks)


@dataclass(frozen=True)
class LayerBudget:
    """Parameter accounting for one layer: dims, scheme dof, extras."""

    d_out: int
    d_in: int
    dof: int
    extra: int = 0  # scalars not subject to reparameterization (bias, norms)

    def __post_init__(self):
        check_integers("layer budget entry", astuple(self))
        if min(self.d_out, self.d_in) < 1 or self.dof < 0 or self.extra < 0:
            raise DomainError("layer budget entries must be non-negative")

    @property
    def numel(self) -> int:
        return self.d_out * self.d_in


@dataclass(frozen=True)
class NetworkSummary:
    layers: tuple[LayerBudget, ...] = field(default_factory=tuple)


def compression_ratio(net: NetworkSummary) -> float:
    """Percentage of parameters kept: 100 * (sum dof + extra) / (numel + extra)."""
    layers = net.layers
    if not layers:
        raise DomainError("compression ratio of an empty network is undefined")
    kept = sum(l.dof + l.extra for l in layers)
    total = sum(l.numel + l.extra for l in layers)
    if total <= 0:
        raise DomainError("network has no parameters")
    return 100.0 * kept / total
