"""Reverse-mode gradients for the parameterization pipeline.

The pipeline layout -> frames -> (core chains) -> factors ``(u, sigma, v)``
-> loss is a static composition of a small primitive set: reflector
application, frame/core reshapes, chain matmuls, the max-magnitude spectrum
normalization, and the log-magnitude penalty.  Each primitive has a
hand-written vector-Jacobian rule.  A :class:`StepProgram`, built once per
parameter structure, runs them on a flat parameter vector: its forward
records the intermediates and its backward transits them in reverse from
cotangents on the factors, producing the gradient with respect to every
free parameter (structural layout cells receive none).  A program reads
each set's chain from its :class:`~.sttp.ChainStructure` record and its
layouts.  Each chain side starts from its fixed head, the block of its
leading cores without free cells (:attr:`~.sttp.ChainStructure.heads`,
composed once per structure); the reverse pass through the chain stops at
the first core with free cells.
The matrix ``W = (u * sigma) @ v.T`` is formed only when a caller reads
:attr:`GradTape.output`; a cotangent on ``W`` reaches the factors through
:meth:`GradTape.cotangents`.  :class:`FrobeniusLoss` hands its cotangents
to the factors directly, so a fit step never forms a ``d_out x d_in``
array.  :func:`assemble_with_tape` and :func:`vjp` run the program on one
parameter object.

Central finite differences (:func:`fd_grad`) serve as the independent
oracle, and :func:`gradcheck` compares the two.

The infinity-norm normalization is not differentiable where two spectrum
entries tie in magnitude; the rule here attributes the subgradient to the
smallest-index maximal coordinate, deterministically, and tapes flag such
points so gradcheck can skip them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import householder as hh
from .errors import DomainError, NumericError, ShapeError
from .spectral import normalize_spectrum
from .spectrum_modes import IDENTITY
from .sttp import core_specs  # noqa: F401  (perfbench/spans.py patches it)
from .tensortrain import compose_chain

__all__ = [
    "GradTape",
    "StepProgram",
    "assemble_with_tape",
    "vjp",
    "pack",
    "unpack",
    "FrobeniusLoss",
    "fd_grad",
    "gradcheck",
    "GradcheckReport",
]

PENALTY_FLOOR = 1e-12  # optimization guard inside |sigma| before the log
FD_STEP = 1e-6
"""Relative step of :func:`fd_grad`'s central differences, 1e-6."""
GRADCHECK_TOL = 1e-6
"""Largest relative gradient error :func:`gradcheck` passes, 1e-6."""
CANCELLATION_GUARD = 1e3 * np.finfo(np.float64).eps
"""Multiple of ``||target||_F^2`` at or below which :class:`FrobeniusLoss`
takes its value from the dense residual, about 2.2e-13."""


def _chain_vjp(frames, shapes, blocks, g_total, fixed_lead=False):
    """Per-frame gradients of :func:`compose_chain`, given its blocks.

    With ``fixed_lead`` the leading block is a fixed head, without free
    parameters: it gets None, and the pass stops at frame 1.
    """
    g_frames: list[np.ndarray | None] = [None] * len(frames)
    g = g_total
    for k in range(len(frames) - 1, 0, -1):
        r_left, n, r_right = shapes[k]
        b_prev = blocks[k - 1]
        g_flat = g.reshape(b_prev.shape[0], n * r_right)
        g_frames[k] = (b_prev.T @ g_flat).reshape(r_left * n, r_right)
        if k > 1 or not fixed_lead:
            g = g_flat @ frames[k].reshape(r_left, n * r_right).T
    if not fixed_lead:
        g_frames[0] = g
    return g_frames


def _sigma_vjp(save, g_sigma):
    if save is None:
        return None
    s, k, m, _ = save
    gs = g_sigma / m
    gs[k] -= np.sign(s[k]) * float(g_sigma @ s) / (m * m)
    return gs


@dataclass
class GradTape:
    """Recorded forward pass of one member of a :class:`StepProgram`.

    The saved intermediates suffice for one reverse transit.  ``frames``
    are the member's in :func:`pack` order; ``decode_saves`` covers the
    program's.  ``chains`` holds per side the frames that
    :func:`compose_chain` composed, fixed head first, and its blocks.
    """

    program: StepProgram
    sigma: np.ndarray
    u: np.ndarray
    v: np.ndarray
    decode_saves: tuple
    frames: tuple
    chains: tuple
    sigma_save: tuple | None

    @property
    def sigma_tied(self) -> bool:
        return self.sigma_save is not None and self.sigma_save[3]

    @property
    def shape(self) -> tuple[int, int]:
        return self.u.shape[0], self.v.shape[0]

    @cached_property
    def output(self) -> np.ndarray:
        """The assembled matrix ``(u * sigma) @ v.T``, formed on first read."""
        return (self.u * self.sigma) @ self.v.T

    def cotangents(self, g_w, g_sigma_extra=None):
        """``(g_u, g_sigma, g_v)`` for :meth:`StepProgram.backward` from a
        cotangent on the matrix and an optional one on the spectrum."""
        g_w = np.asarray(g_w, dtype=np.float64)
        if g_w.shape != self.shape:
            raise ShapeError(f"upstream shape {g_w.shape} != output "
                             f"shape {self.shape}")
        u, v, sigma = self.u, self.v, self.sigma
        gwv = g_w @ v
        g_sigma = (u * gwv).sum(axis=0)
        if g_sigma_extra is not None:
            g_sigma = g_sigma + g_sigma_extra
        return gwv * sigma, g_sigma, g_w.T @ (u * sigma)


class StepProgram:
    """The forward and reverse pass of parameter sets on one flat theta.

    Built once from prototype parameters, of which only the structure is
    kept: theta is their :func:`pack` vectors end to end.  The program holds
    one :class:`~ttspectral.householder.DecodePlan` over all their layouts,
    so the small canvases of one rank, of any member, share a padded
    sweep, and per member its layout range, spectrum slice and signs, and
    per side its chain from the member's record: the fixed head's block
    (:attr:`~.sttp.ChainStructure.heads`), if any, then the frames after
    the head, with their shapes.
    """

    def __init__(self, protos):
        layouts, offsets, self.members, pos = [], [], [], 0
        for params in protos:
            first, structure = len(layouts), params.structure
            sides = []
            for side_layouts, shapes, (n_head, head) in zip(
                    (params.u_layouts, params.v_layouts), structure.shapes,
                    structure.heads):
                # the head's block stands in for its first n_head cores
                skip = max(n_head - 1, 0)
                sides.append(((head,) if n_head else (), len(layouts) + n_head,
                              len(layouts) + len(side_layouts), shapes[skip:],
                              skip))
                for la in side_layouts:
                    layouts.append(la)
                    offsets.append(pos)
                    pos += la.params.size
            n_s = params.spectrum.n_params
            self.members.append((first, len(layouts), sides,
                                 slice(pos, pos + n_s), params.spectrum.signs))
            pos += n_s
        self.size, self.decode = pos, hh.DecodePlan(layouts, offsets)

    def forward(self, theta: np.ndarray) -> list[GradTape]:
        """Every member's factors ``(u, sigma, v)``; one tape per member."""
        frames, sweeps = self.decode.decode(theta)
        tapes = []
        for first, stop, sides, spectrum, signs in self.members:
            sigma, sigma_save = normalize_spectrum(theta[spectrum], signs)
            chains = []
            for lead, start, end, shapes, _ in sides:
                chain = [*lead, *frames[start:end]]
                chains.append((chain, compose_chain(chain, shapes)[1]))
            (_, u_blocks), (_, v_blocks) = chains
            tapes.append(GradTape(
                self, sigma, u_blocks[-1], v_blocks[-1], (self.decode, sweeps),
                tuple(frames[first:stop]), tuple(chains), sigma_save))
        return tapes

    def backward(self, tapes, cotangents) -> np.ndarray:
        """Flat gradient over theta given :meth:`forward`'s tapes and, per
        member, the cotangents ``(g_u, g_sigma, g_v)`` on its factors.

        ``g_sigma`` is on the materialized spectrum; a loss on the matrix
        gets them from :meth:`GradTape.cotangents`.
        """
        if len(tapes) != len(self.members):
            raise ShapeError("the reverse pass needs every member's tape")
        grad, g_frames = np.zeros(self.size), []
        for tape, (_, _, sides, spectrum, _), (g_u, g_sigma, g_v) in zip(
                tapes, self.members, cotangents):
            gs = _sigma_vjp(tape.sigma_save, g_sigma)
            if gs is not None:
                grad[spectrum] = gs
            for (lead, _, _, shapes, skip), (chain, blocks), g in zip(
                    sides, tape.chains, (g_u, g_v)):
                g_frames += [None] * skip + _chain_vjp(chain, shapes, blocks,
                                                       g, bool(lead))
        self.decode.vjp(tapes[0].decode_saves[1], g_frames, grad)
        return grad

    def loss_and_grad(self, theta: np.ndarray, loss):
        """Loss value, flat gradient and tape of a one-member program."""
        (tape,) = self.forward(theta)
        value, cotangents = loss.terms(tape)
        return value, self.backward([tape], [cotangents]), tape


def assemble_with_tape(params) -> tuple[np.ndarray, GradTape]:
    """Assemble the matrix while recording intermediates for :func:`vjp`."""
    (tape,) = StepProgram((params,)).forward(pack(params))
    return tape.output, tape


def vjp(tape: GradTape, upstream: np.ndarray) -> np.ndarray:
    """Pull an output cotangent back to all free parameters.

    ``upstream`` is the gradient with respect to the assembled matrix; the
    result is flat in :func:`pack` order and linear in ``upstream``.
    """
    return _vjp_full(tape, upstream, None)


def _vjp_full(tape: GradTape, g_w: np.ndarray, g_sigma_extra) -> np.ndarray:
    """:func:`vjp` plus a cotangent on the spectrum, for a tape of a
    one-member program such as :func:`assemble_with_tape`'s."""
    return tape.program.backward([tape], [tape.cotangents(g_w, g_sigma_extra)])


def pack(params) -> np.ndarray:
    """Flatten all free parameters: layouts in pipeline order, then spectrum."""
    parts = [la.params for la in params.layouts]
    if params.spectrum.mode != IDENTITY:
        parts.append(params.spectrum.s)
    return np.concatenate(parts)


def unpack(params, theta: np.ndarray, spectrum=None):
    """Rebuild a parameter object of the same structure from a flat vector,
    with the signs and weight of ``spectrum`` (same mode), or ``params``'s."""
    theta = np.asarray(theta, dtype=np.float64).ravel()
    if theta.size != params.n_params:
        raise ShapeError(
            f"expected {params.n_params} parameters, got {theta.size}"
        )
    layouts, pos = [], 0
    for la in params.layouts:
        layouts.append(la.with_params(theta[pos: pos + la.params.size]))
        pos += la.params.size
    spectrum = params.spectrum if spectrum is None else spectrum
    if spectrum.mode != IDENTITY:
        spectrum = spectrum.with_s(theta[pos:])
    return params.rebuild(layouts, spectrum)


@dataclass(frozen=True)
class FrobeniusLoss:
    """``0.5 * ||W - target||_F^2`` plus an optional spectrum penalty.

    The value and cotangents come from the factors, never from ``W``:
    the frames are orthonormal, so with ``TV = target @ v``, ``TU =
    target.T @ u`` and ``dp = diag(u.T @ TV)`` the data term is ``0.5
    (sigma.sigma - 2 sigma.dp + ||target||^2)``, and its cotangents are
    ``(u sigma - TV) sigma`` on ``u``, ``sigma - dp`` on sigma and ``(v
    sigma - TU) sigma`` on ``v``.  That value carries an absolute error of
    about ``eps ||target||^2``.  Where it is at most
    ``CANCELLATION_GUARD ||target||^2``, as near an exact fit, the value is
    taken from the dense residual instead, so a relative-change stopping
    test does not fire on rounding noise; the cotangents stay factored.

    The penalty term is ``lam * -sum log(max(|sigma_i|, floor))``; the floor
    is an optimization guard, distinct from the exact penalty definition,
    that keeps the loss finite if an entry crosses zero mid-descent.

    The constructor requires a finite real matrix ``target``, which it
    keeps as float64, and a finite ``lam >= 0``; it checks them once per
    loss, not per step.
    """

    target: np.ndarray
    lam: float = 0.0

    def __post_init__(self):
        target = np.asarray(self.target)
        if (target.dtype.kind not in "biuf" or target.ndim != 2
                or not np.isfinite(target).all()):
            raise DomainError("target must be a finite real matrix")
        if not 0.0 <= self.lam < np.inf:  # NaN fails too
            raise DomainError("regularizer weight must be finite and >= 0")
        object.__setattr__(self, "target",  # frozen: set once here
                           target.astype(np.float64, copy=False))

    @cached_property
    def _target_sq(self) -> float:
        flat = self.target.ravel(order="K")
        return float(flat @ flat)

    def terms(self, tape: GradTape):
        """Value and factor cotangents at the taped factors."""
        target = _matching(self.target, tape)
        u, v, sigma = tape.u, tape.v, tape.sigma
        tv, tu = target @ v, (u.T @ target).T
        dp = (u * tv).sum(axis=0)
        value = 0.5 * (float(sigma @ sigma) - 2.0 * float(sigma @ dp)
                       + self._target_sq)
        # a NaN value fails no comparison here, so it passes on as NaN
        if value <= CANCELLATION_GUARD * self._target_sq:
            value = _residual_value(tape, target)
        g_sigma = sigma - dp
        if self.lam > 0.0:
            pen, pen_grad = _penalty_floored(sigma)
            value += self.lam * pen
            g_sigma = g_sigma + self.lam * pen_grad
        return value, ((u * sigma - tv) * sigma, g_sigma,
                       (v * sigma - tu) * sigma)


def _penalty_floored(sigma: np.ndarray) -> tuple[float, np.ndarray]:
    mags = np.maximum(np.abs(sigma), PENALTY_FLOOR)
    value = float(-np.sum(np.log(mags)))
    grad = np.where(np.abs(sigma) > PENALTY_FLOOR, -1.0 / sigma, 0.0)
    return value, grad


def _matching(array: np.ndarray, tape: GradTape) -> np.ndarray:
    if array.shape != tape.shape:
        raise ShapeError("target shape does not match the assembled matrix")
    return array


def _residual_value(tape: GradTape, target: np.ndarray) -> float:
    resid = tape.output - target
    return 0.5 * float((resid * resid).sum())


def _loss_value(tape: GradTape, loss: FrobeniusLoss) -> float:
    """Loss value from the assembled matrix, independent of the factored
    arithmetic: the finite-difference oracle's."""
    value = _residual_value(tape, _matching(loss.target, tape))
    if loss.lam > 0.0:
        value += loss.lam * _penalty_floored(tape.sigma)[0]
    return value


def fd_grad(f, theta: np.ndarray) -> np.ndarray:
    """Central differences with ``h_i = FD_STEP * max(1, |theta_i|) *
    max(1, |f(theta)|)^(1/3)``: the rounding error, about ``eps |f| / h``,
    plus the truncation error, about ``h^2`` times the third derivative, is
    least at a step proportional to ``|f|^(1/3)``."""
    theta = np.asarray(theta, dtype=np.float64)
    f_theta = f(theta)
    if not np.isfinite(f_theta):
        raise NumericError("non-finite loss at the base point")
    step = FD_STEP * max(1.0, abs(f_theta)) ** (1.0 / 3.0)
    grad = np.empty_like(theta)
    for i in range(theta.size):
        h = step * max(1.0, abs(theta[i]))
        up = theta.copy()
        up[i] += h
        down = theta.copy()
        down[i] -= h
        f_up, f_down = f(up), f(down)
        if not (np.isfinite(f_up) and np.isfinite(f_down)):
            raise NumericError(f"non-finite loss probing coordinate {i}")
        grad[i] = (f_up - f_down) / (2.0 * h)
    return grad


@dataclass(frozen=True)
class GradcheckReport:
    max_rel_err: float
    worst_index: int
    n_params: int
    passed: bool
    sigma_tied: bool


def gradcheck(params, loss) -> GradcheckReport:
    """Compare the analytic gradient against central differences.

    Errors are relative to ``max(1, ||grad||_inf)``.  Points where the
    spectrum normalization ties are flagged and reported as skipped (the
    subgradient rule is deterministic but not a derivative there).
    """
    program, theta = StepProgram((params,)), pack(params)
    _, grad, tape = program.loss_and_grad(theta, loss)
    if tape.sigma_tied:
        return GradcheckReport(float("nan"), -1, grad.size, True, True)
    fd = fd_grad(lambda t: _loss_value(program.forward(t)[0], loss), theta)
    scale = max(1.0, float(np.max(np.abs(grad))) if grad.size else 1.0)
    err = np.abs(grad - fd) / scale
    worst = int(np.argmax(err)) if err.size else 0
    max_err = float(err[worst]) if err.size else 0.0
    return GradcheckReport(max_err, worst, grad.size, max_err <= GRADCHECK_TOL,
                           False)
