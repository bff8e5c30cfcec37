"""Fitting parameterized matrices to targets, plus a small training demo.

Plain gradient descent with momentum over the free parameters.  Defaults
(momentum 0.9, learning rate 0.05 for the two-frame scheme and 0.02 for the
chain scheme) come from a coarse sweep on 16x12 rank-4 targets; they are
deliberately unsophisticated so that runs are reproducible bit for bit from
a seed.  Both fits step one :class:`~ttspectral.autodiff.StepProgram` (in
the demo, over both layers) on :func:`~ttspectral.sttp.init_chain`'s pack
vector, through one momentum loop; only a fit's result is an object.

The demo trains a two-layer network (parameterized linear, relu,
parameterized linear) on synthetic regression data whose ground-truth map
has Lipschitz constant 1.  Because every assembled layer has spectral norm
exactly 1 by construction, the per-layer norms and their product bound stay
pinned at 1 for the whole run; the demo report records them each step so
the invariant is checkable from outside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import (  # noqa: F401  (perfbench/spans.py patches the tape)
    FrobeniusLoss,
    StepProgram,
    _penalty_floored,
    _vjp_full,
    assemble_with_tape,
    pack,
    unpack,
)
from .dense import MAX_MAGNITUDE, svd_full
from .errors import (
    DivergenceError,
    DomainError,
    NumericError,
    ShapeError,
    check_integer,
)
from .schemes import SCHEMES
from .spectral import init_spectrum, lipschitz_bound, stable_rank_from_spectrum
from .spectrum_modes import LEARNED
from .sttp import decompress, init_chain, rank_cap

__all__ = [
    "FitConfig",
    "FitResult",
    "fit_matrix",
    "eckart_young_optimum",
    "TrainReport",
    "demo_train",
]

DEFAULT_LR = {"svdp": 0.05, "sttp": 0.02}
DIVERGENCE_LIMIT = 1e12


@dataclass(frozen=True)
class FitConfig:
    """Run configuration for :func:`fit_matrix` and :func:`demo_train`."""

    scheme: str = "svdp"
    rank: int = 4
    spectrum_mode: str = LEARNED
    lam: float = 0.0
    lr: float | None = None  # scheme default when None
    momentum: float = 0.9
    max_steps: int = 5000
    tol: float = 1e-14
    """Relative loss-change stop; the default is within about 10x of the
    factored loss's rounding (``eps ||T||^2``), so a fit to a target out of
    reach can stop on noise, and a change of rounding moves its stop."""
    seed: int = 0
    init_scheme: str = "noisy_identity"

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise DomainError(f"unknown scheme {self.scheme!r}")
        for name in ("rank", "max_steps"):
            check_integer(name, getattr(self, name))
        check_integer("seed", self.seed, 0)
        # each range check is written so that NaN fails it
        if self.lr is not None and not 0.0 < self.lr < np.inf:
            raise DomainError("learning rate must be finite and positive")
        if not 0.0 <= self.momentum < 1.0:
            raise DomainError("momentum must lie in [0, 1)")
        if self.max_steps < 1:
            raise DomainError("need at least one step")
        if not 0.0 < self.tol < np.inf:
            raise DomainError("tolerance must be finite and positive")
        if not 0.0 <= self.lam < np.inf:
            raise DomainError("regularizer weight must be finite and >= 0")

    @property
    def effective_lr(self) -> float:
        return DEFAULT_LR[self.scheme] if self.lr is None else self.lr


@dataclass
class FitResult:
    params: object
    trace: list[float]
    best_loss: float
    best_step: int

    def frobenius_error(self, target: np.ndarray) -> float:
        return float(np.linalg.norm(decompress(self.params) - target))


def fit_matrix(target: np.ndarray, cfg: FitConfig) -> FitResult:
    """Minimize ``0.5 ||W(theta) - target||_F^2`` (plus optional penalty).

    Returns the best-so-far parameters over the whole trace; stops early
    once the relative loss change drops below ``cfg.tol`` and raises
    :class:`DivergenceError` if the loss is not finite or blows past ``1e12``.
    """
    loss_spec = FrobeniusLoss(target, cfg.lam)  # checks the target
    d_out, d_in = loss_spec.target.shape
    scheme = SCHEMES[cfg.scheme]
    structure = scheme.structure(d_out, d_in, cfg.rank, cfg.spectrum_mode)
    theta, signs = init_chain(structure, cfg.seed, cfg.init_scheme)
    program = StepProgram((structure,), (signs,))

    def forward(theta):
        (tape,) = program.forward(theta)
        loss, cotangents = loss_spec.terms(tape)
        return loss, lambda: program.backward([tape], [cotangents]), tape

    trace: list[float] = []
    best_loss, best_theta, best_step = math.inf, None, 0
    for step, theta, loss, _ in _descend(
            theta, cfg, cfg.max_steps, forward,
            "loss {loss:.3e} diverged at step {step}; try a smaller "
            "learning rate than {lr}"):
        trace.append(loss)
        if loss < best_loss:
            best_loss, best_theta, best_step = loss, theta, step
        if step > 0 and abs(trace[-2] - loss) <= cfg.tol * max(1.0, trace[-2]):
            break
    spectrum = init_spectrum(cfg.spectrum_mode, cfg.rank, signs, cfg.lam)
    return FitResult(scheme.unpack(structure, best_theta, spectrum), trace,
                     best_loss, best_step)


def _descend(theta, cfg, steps, forward, diverged):
    """Gradient descent with momentum.  ``forward(theta)`` returns ``(loss,
    backward, tapes)``, ``backward()`` giving the gradient at theta.  Each
    step yields ``(step, theta, loss, tapes)`` after the divergence guards;
    the caller stops early by breaking.  A step's reverse pass runs when
    the next step updates theta, so the last step, and a step the caller
    stops at, skip it.  A theta entry that is not finite or exceeds
    ``MAX_MAGNITUDE`` is caught before its forward, reported as a NaN loss:
    no parameter object could hold it."""
    velocity = np.zeros_like(theta)
    lr = cfg.effective_lr
    for step in range(steps):
        if step:
            velocity = cfg.momentum * velocity + backward()
            # an overflow here is caught by the theta check below
            with np.errstate(over="ignore", invalid="ignore"):
                theta = theta - lr * velocity
        if not (np.abs(theta) <= MAX_MAGNITUDE).all():  # NaN fails too
            raise DivergenceError(diverged.format(loss=math.nan, step=step,
                                                  lr=lr))
        loss, backward, tapes = forward(theta)
        if not math.isfinite(loss) or loss > DIVERGENCE_LIMIT:
            raise DivergenceError(diverged.format(loss=loss, step=step, lr=lr))
        yield step, theta, loss, tapes


def eckart_young_optimum(target: np.ndarray, r: int) -> float:
    """Smallest possible Frobenius error of any rank-r approximation;
    ``NumericError`` when that error is past float range."""
    target = np.asarray(target, dtype=np.float64)
    if target.ndim != 2:
        raise ShapeError(f"target must be a matrix, got ndim={target.ndim}")
    check_integer("rank", r)
    cap = rank_cap(*target.shape)
    if not 1 <= r <= cap:
        raise DomainError(f"rank {r} outside [1, {cap}]")
    _, s, _ = svd_full(target)
    # Squares of the raw values may over- or underflow; a power-of-two
    # scale is exact, so results in the normal range keep their bits.
    e = int(np.frexp(np.max(s[r:], initial=0.0))[1])
    tail = np.ldexp(s[r:], -e)
    try:
        return math.ldexp(float(np.sqrt(np.sum(tail * tail))), e)
    except OverflowError:
        raise NumericError("rank-r error is past float range") from None


@dataclass
class TrainReport:
    """Per-step diagnostics of the constrained training demo."""

    losses: list[float] = field(default_factory=list)
    sigma_max: list[tuple[float, float]] = field(default_factory=list)
    stable_ranks: list[tuple[float, float]] = field(default_factory=list)
    bounds: list[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.losses[-1]


def _lipschitz_one_map(rng: np.random.Generator, d_out: int, hidden: int,
                       d_in: int):
    """A fixed random two-layer map with both factors at spectral norm 1."""
    a1 = rng.standard_normal((hidden, d_in))
    a1 /= svd_full(a1)[1][0]
    a2 = rng.standard_normal((d_out, hidden))
    a2 /= svd_full(a2)[1][0]
    return lambda x: a2 @ np.maximum(a1 @ x, 0.0)


def demo_train(cfg: FitConfig, seed: int, d_in: int = 6, hidden: int = 8,
               d_out: int = 4, n_samples: int = 64, steps: int | None = None
               ) -> TrainReport:
    """Train the two-layer demo network on synthetic regression data.

    Inputs are standard normal; targets come from a fixed random
    Lipschitz-1 map plus noise of scale 0.01.  Both linear layers are
    parameterized under ``cfg``; the report records loss, per-layer
    ``max|sigma|`` and stable ranks, and the product Lipschitz bound at
    every step.  The descent records each step's loss and keeps its two
    spectra; the other three fields are filled from those in one pass
    after the descent, each entry bitwise what its step alone would give.
    ``seed`` (an integer >= 0) seeds the data and, plus 1 and 2, the
    layers: it stands in for ``cfg.seed``, which is not read, and
    ``steps``, when given, for ``cfg.max_steps``.
    """
    check_integer("seed", seed, 0)
    steps = cfg.max_steps if steps is None else steps
    if steps < 1 or min(d_in, hidden, d_out, n_samples) < 1:
        raise DomainError("demo steps and sizes must be positive")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((d_in, n_samples))
    truth = _lipschitz_one_map(rng, d_out, hidden, d_in)
    y = truth(x) + 0.01 * rng.standard_normal((d_out, n_samples))

    structures = tuple(SCHEMES[cfg.scheme].structure(
        rows, cols, cfg.rank, cfg.spectrum_mode)
        for rows, cols in ((hidden, d_in), (d_out, hidden)))
    thetas, signs = zip(*(init_chain(structure, seed + k, cfg.init_scheme)
                          for k, structure in enumerate(structures, 1)))
    program = StepProgram(structures, signs)

    def forward(theta):
        tapes = program.forward(theta)
        w1, w2 = tapes[0].output, tapes[1].output
        pre = w1 @ x
        h = np.maximum(pre, 0.0)
        resid = w2 @ h - y
        loss = 0.5 * float((resid * resid).sum()) / n_samples
        g_sigma = [None, None]  # the penalty's gradient on each spectrum
        if cfg.lam > 0.0:
            for i, tape in enumerate(tapes):
                pen, pen_grad = _penalty_floored(tape.sigma)
                loss += cfg.lam * pen / n_samples
                g_sigma[i] = cfg.lam * pen_grad / n_samples

        def backward():
            g_out = resid / n_samples
            g_w2 = g_out @ h.T
            g_w1 = (w2.T @ g_out) * (pre > 0) @ x.T
            cotangents = [tape.cotangents(g_w, g_extra) for tape, g_w, g_extra
                          in zip(tapes, (g_w1, g_w2), g_sigma)]
            return program.backward(tapes, cotangents)

        return loss, backward, tapes

    report = TrainReport()
    spectra = ([], [])
    for _, _, loss, tapes in _descend(
            np.concatenate(thetas), cfg, steps, forward,
            "demo loss {loss:.3e} diverged at step {step}"):
        report.losses.append(loss)
        for kept, tape in zip(spectra, tapes):
            kept.append(tape.sigma)
    # one row per step, each as that step's spectra alone would give it
    sigmas = [np.array(kept) for kept in spectra]
    maxes = np.stack([np.abs(s).max(axis=1) for s in sigmas], axis=1)
    report.sigma_max = list(map(tuple, maxes.tolist()))
    report.stable_ranks = list(zip(*(
        stable_rank_from_spectrum(s).tolist() for s in sigmas)))
    report.bounds = lipschitz_bound(maxes).tolist()
    return report
