"""Reverse-mode gradients for the parameterization pipeline.

The pipeline layout -> frames -> (core chains) -> matrix -> loss is a static
composition of a small primitive set: reflector application, frame/core
reshapes, chain matmuls, the max-magnitude spectrum normalization, and the
log-magnitude penalty.  Each primitive has a hand-written vector-Jacobian
rule.  A :class:`StepProgram`, built once per parameter structure, runs
them on a flat parameter vector: its forward records the intermediates and
its backward transits them in reverse, producing the gradient with respect
to every free parameter (structural layout cells receive none).
:func:`assemble_with_tape` and :func:`vjp` run it on one parameter object.

Central finite differences (:func:`fd_grad`) serve as the independent
oracle, and :func:`gradcheck` compares the two.

The infinity-norm normalization is not differentiable where two spectrum
entries tie in magnitude; the rule here attributes the subgradient to the
smallest-index maximal coordinate, deterministically, and tapes flag such
points so gradcheck can skip them.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    "replay",
    "vjp",
    "pack",
    "unpack",
    "FrobeniusLoss",
    "InnerProductLoss",
    "loss_value_and_grad",
    "frame_grad",
    "fd_grad",
    "gradcheck",
    "GradcheckReport",
]

PENALTY_FLOOR = 1e-12  # optimization guard inside |sigma| before the log
FD_STEP = 1e-6
"""Relative step of :func:`fd_grad`'s central differences, 1e-6."""
GRADCHECK_TOL = 1e-6
"""Largest relative gradient error :func:`gradcheck` passes, 1e-6."""


def _chain_vjp(frames, shapes, blocks, g_total):
    """Per-frame gradients of :func:`compose_chain`, given its blocks."""
    g_frames: list[np.ndarray | None] = [None] * len(frames)
    g = g_total
    for k in range(len(frames) - 1, 0, -1):
        r_left, n, r_right = shapes[k]
        b_prev = blocks[k - 1]
        g_flat = g.reshape(b_prev.shape[0], n * r_right)
        g_frames[k] = (b_prev.T @ g_flat).reshape(r_left * n, r_right)
        g = g_flat @ frames[k].reshape(r_left, n * r_right).T
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
    """Recorded forward pass of member ``index`` of a :class:`StepProgram`.

    Replaying ``theta`` reproduces the recorded output bitwise; the saved
    intermediates suffice for one reverse transit.  ``frames`` are the
    member's in :func:`pack` order; ``decode_saves`` covers the program's.
    """

    program: StepProgram
    theta: np.ndarray
    index: int
    output: np.ndarray
    sigma: np.ndarray
    u: np.ndarray
    v: np.ndarray
    decode_saves: tuple
    frames: tuple
    chain_blocks: tuple
    sigma_save: tuple | None

    @property
    def sigma_tied(self) -> bool:
        return self.sigma_save is not None and self.sigma_save[3]


class StepProgram:
    """The forward and reverse pass of parameter sets on one flat theta.

    Built once from prototype parameters, of which only the structure is
    kept: theta is their :func:`pack` vectors end to end.  The program holds
    one :class:`~ttspectral.householder.DecodePlan` over all their layouts,
    so same-shape canvases of different members share a sweep, and per
    member its layout range, chain shapes, spectrum slice and signs.
    """

    def __init__(self, protos):
        layouts, offsets, self.members, pos = [], [], [], 0
        for params in protos:
            view, first = params.chain, len(layouts)
            for la in view.layouts:
                layouts.append(la)
                offsets.append(pos)
                pos += la.params.size
            n_s = params.spectrum.n_params
            self.members.append((first, first + len(view.u_shapes),
                                 len(layouts), view.u_shapes, view.v_shapes,
                                 slice(pos, pos + n_s), params.spectrum.signs))
            pos += n_s
        self.size, self.decode = pos, hh.DecodePlan(layouts, offsets)

    def forward(self, theta: np.ndarray) -> list[GradTape]:
        """Assemble every member's matrix; one tape per member."""
        frames, sweeps = self.decode.decode(theta)
        tapes = []
        for index, (first, mid, stop, u_shapes, v_shapes, spectrum,
                    signs) in enumerate(self.members):
            sigma, sigma_save = normalize_spectrum(theta[spectrum], signs)
            u, u_blocks = compose_chain(frames[first:mid], u_shapes)
            v, v_blocks = compose_chain(frames[mid:stop], v_shapes)
            tapes.append(GradTape(
                self, theta, index, (u * sigma) @ v.T, sigma, u, v,
                (self.decode, sweeps), tuple(frames[first:stop]),
                (u_blocks, v_blocks), sigma_save))
        return tapes

    def backward(self, tapes, g_ws, g_sigma_extras) -> np.ndarray:
        """Flat gradient over theta given :meth:`forward`'s tapes, a
        cotangent on each matrix and an optional one on each spectrum."""
        if len(tapes) != len(self.members):
            raise ShapeError("the reverse pass needs every member's tape")
        grad, g_frames = np.zeros(self.size), []
        for tape, (first, mid, _, u_shapes, v_shapes, spectrum, _), g_w, \
                g_extra in zip(tapes, self.members, g_ws, g_sigma_extras):
            g_w = np.asarray(g_w, dtype=np.float64)
            if g_w.shape != tape.output.shape:
                raise ShapeError(f"upstream shape {g_w.shape} != output "
                                 f"shape {tape.output.shape}")
            u, v, sigma = tape.u, tape.v, tape.sigma
            gv_mat = g_w.T @ (u * sigma)
            gwv = g_w @ v
            g_sigma = (u * gwv).sum(axis=0)
            if g_extra is not None:
                g_sigma = g_sigma + g_extra
            gs = _sigma_vjp(tape.sigma_save, g_sigma)
            if gs is not None:
                grad[spectrum] = gs
            (u_blocks, v_blocks), n_u = tape.chain_blocks, mid - first
            g_frames += _chain_vjp(tape.frames[:n_u], u_shapes, u_blocks,
                                   gwv * sigma)
            g_frames += _chain_vjp(tape.frames[n_u:], v_shapes, v_blocks,
                                   gv_mat)
        self.decode.vjp(tapes[0].decode_saves[1], g_frames, grad)
        return grad

    def loss_and_grad(self, theta: np.ndarray, loss):
        """Loss value, flat gradient and tape of a one-member program."""
        (tape,) = self.forward(theta)
        value, g_w, g_sigma_extra = _loss_terms(tape, loss)
        return value, self.backward([tape], [g_w], [g_sigma_extra]), tape


def assemble_with_tape(params) -> tuple[np.ndarray, GradTape]:
    """Assemble the matrix while recording intermediates for :func:`vjp`."""
    (tape,) = StepProgram((params,)).forward(pack(params))
    return tape.output, tape


def replay(tape: GradTape) -> np.ndarray:
    """Re-run the recorded forward; bitwise equal to ``tape.output``."""
    return tape.program.forward(tape.theta)[tape.index].output


def vjp(tape: GradTape, upstream: np.ndarray) -> np.ndarray:
    """Pull an output cotangent back to all free parameters.

    ``upstream`` is the gradient with respect to the assembled matrix; the
    result is flat in :func:`pack` order and linear in ``upstream``.
    """
    return _vjp_full(tape, upstream, None)


def _vjp_full(tape: GradTape, g_w: np.ndarray, g_sigma_extra) -> np.ndarray:
    """:func:`vjp` plus a cotangent on the spectrum, for a tape of a
    one-member program such as :func:`assemble_with_tape`'s."""
    return tape.program.backward([tape], [g_w], [g_sigma_extra])


def frame_grad(layout: hh.HouseholderLayout, upstream: np.ndarray
               ) -> np.ndarray:
    """Gradient of a single decoded frame against its free parameters."""
    (frame,), saves = hh.decode_layouts([layout])
    if np.asarray(upstream).shape != frame.shape:
        raise ShapeError("upstream shape does not match the decoded frame")
    return hh.decode_layouts_vjp(saves, [np.asarray(upstream, np.float64)])[0]


def pack(params) -> np.ndarray:
    """Flatten all free parameters: layouts in pipeline order, then spectrum."""
    parts = [la.params for la in params.chain.layouts]
    if params.spectrum.mode != IDENTITY:
        parts.append(params.spectrum.s)
    return np.concatenate(parts)


def unpack(params, theta: np.ndarray):
    """Rebuild a parameter object of the same structure from a flat vector."""
    theta = np.asarray(theta, dtype=np.float64).ravel()
    if theta.size != params.n_params:
        raise ShapeError(
            f"expected {params.n_params} parameters, got {theta.size}"
        )
    view = params.chain
    layouts, pos = [], 0
    for la in view.layouts:
        layouts.append(la.with_params(theta[pos: pos + la.params.size]))
        pos += la.params.size
    spectrum = params.spectrum
    if spectrum.mode != IDENTITY:
        spectrum = spectrum.with_s(theta[pos:])
    return view.rebuild(layouts, spectrum)


@dataclass(frozen=True)
class FrobeniusLoss:
    """``0.5 * ||W - target||_F^2`` plus an optional spectrum penalty.

    The penalty term is ``lam * -sum log(max(|sigma_i|, floor))``; the floor
    is an optimization guard, distinct from the exact penalty definition,
    that keeps the loss finite if an entry crosses zero mid-descent.
    """

    target: np.ndarray
    lam: float = 0.0


@dataclass(frozen=True)
class InnerProductLoss:
    """``<weights, W>``, the generic linear probe."""

    weights: np.ndarray


def _penalty_floored(sigma: np.ndarray) -> tuple[float, np.ndarray]:
    mags = np.maximum(np.abs(sigma), PENALTY_FLOOR)
    value = float(-np.sum(np.log(mags)))
    grad = np.where(np.abs(sigma) > PENALTY_FLOOR, -1.0 / sigma, 0.0)
    return value, grad


def _loss_terms(tape: GradTape, loss
                ) -> tuple[float, np.ndarray, np.ndarray | None]:
    """Loss value at the taped ``W``, its cotangent on ``W``, and any extra
    cotangent on the materialized spectrum (the penalty's)."""
    w, sigma = tape.output, tape.sigma
    if isinstance(loss, FrobeniusLoss):
        target = np.asarray(loss.target, dtype=np.float64)
        if target.shape != w.shape:
            raise ShapeError("target shape does not match the assembled matrix")
        resid = w - target
        value = 0.5 * float((resid * resid).sum())
        g_sigma_extra = None
        if loss.lam > 0.0:
            pen, pen_grad = _penalty_floored(sigma)
            value += loss.lam * pen
            g_sigma_extra = loss.lam * pen_grad
        return value, resid, g_sigma_extra
    if isinstance(loss, InnerProductLoss):
        weights = np.asarray(loss.weights, dtype=np.float64)
        if weights.shape != w.shape:
            raise ShapeError("weights shape does not match the assembled matrix")
        return float(np.sum(weights * w)), weights, None
    raise DomainError(f"unknown loss spec {type(loss)!r}")


def loss_value_and_grad(params, loss) -> tuple[float, np.ndarray, GradTape]:
    """Loss value and its flat analytic gradient at the given parameters."""
    return StepProgram((params,)).loss_and_grad(pack(params), loss)


def loss_value(params, loss) -> float:
    """Loss value only, for the finite-difference oracle."""
    return _loss_terms(assemble_with_tape(params)[1], loss)[0]


def fd_grad(f, theta: np.ndarray) -> np.ndarray:
    """Central differences with ``h_i = FD_STEP * max(1, |theta_i|)``."""
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.empty_like(theta)
    for i in range(theta.size):
        h = FD_STEP * max(1.0, abs(theta[i]))
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
    fd = fd_grad(lambda t: _loss_terms(program.forward(t)[0], loss)[0], theta)
    scale = max(1.0, float(np.max(np.abs(grad))) if grad.size else 1.0)
    err = np.abs(grad - fd) / scale
    worst = int(np.argmax(err)) if err.size else 0
    max_err = float(err[worst]) if err.size else 0.0
    return GradcheckReport(max_err, worst, grad.size, max_err <= GRADCHECK_TOL,
                           False)
