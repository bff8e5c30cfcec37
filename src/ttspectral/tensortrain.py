"""Tensor-train machinery: rank caps, schedules, contraction, core chains.

A chain of 3-D cores with shapes ``(R_{k-1}, n_k, R_k)`` represents a
``D``-dimensional tensor elementwise as the product of core slices.  Interior
ranks are bounded by ``R_k <= min(prod_{j<=k} n_j, prod_{j>k} n_j)``; the
rank policy used throughout this library caps a single hyperparameter ``r``
against those bounds, ``R_k = min(r, R_k_max)``.

Cores whose matricizations ``(R_{k-1} * n_k, R_k)`` are orthonormal frames
compose into an orthonormal frame of the full row dimension
(:func:`frames_from_cores`), and rotating adjacent interface ranks by
orthogonal matrices (:func:`gauge_transform`) changes the cores but neither
the matricization orthonormality nor the represented tensor.

:func:`compose_chain` starts from a leading block: the first core's frame,
or the fixed head of a parameter chain, its leading cores without free
parameters composed once per structure
(:attr:`~.sttp.ChainStructure.heads`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .dense import matricize_core, reshape
from .errors import DomainError, ShapeError, check_integer, check_integers

__all__ = [
    "rank_caps",
    "RankSchedule",
    "rank_schedule",
    "core_shapes_ok",
    "check_core_orthonormal",
    "tt_contract",
    "compose_chain",
    "frames_from_cores",
    "ChainView",
    "gauge_transform",
]


def rank_caps(dims) -> list[int]:
    """Maximal interior TT-ranks of a tensor with the given dims.

    Returns ``[cap_1, ..., cap_{D-1}]`` with
    ``cap_k = min(prod_{j<=k} n_j, prod_{j>k} n_j)``; the endpoint ranks are
    always 1 and are not listed.
    """
    dims = check_integers("dimension", dims)
    if not dims:
        raise DomainError("rank_caps needs at least one dimension")
    if any(n < 1 for n in dims):
        raise DomainError(f"dims must be >= 1, got {dims}")
    caps = []
    left = 1
    total = math.prod(dims)
    for n in dims[:-1]:
        left *= n
        caps.append(min(left, total // left))
    return caps


@dataclass(frozen=True)
class RankSchedule:
    """Per-junction ranks for a factored dimension list.

    ``ranks`` has length ``len(dims) + 1`` with 1 at both ends; policy-built
    schedules satisfy ``ranks[k] = min(r, cap_k)``.
    """

    dims: tuple[int, ...]
    r: int
    ranks: tuple[int, ...]

    def __post_init__(self):
        if len(self.ranks) != len(self.dims) + 1:
            raise ShapeError("schedule length must be len(dims) + 1")
        if self.ranks[0] != 1 or self.ranks[-1] != 1:
            raise DomainError("endpoint ranks must be 1")
        caps = rank_caps(self.dims)
        for k, (rank, cap) in enumerate(zip(self.ranks[1:-1], caps), start=1):
            if not 1 <= rank <= cap:
                raise DomainError(
                    f"rank {rank} at junction {k} violates cap {cap}"
                )


def rank_schedule(dims, r: int) -> RankSchedule:
    """The capped-rank policy: interior rank k is ``min(r, cap_k)``."""
    dims = check_integers("dimension", dims)
    check_integer("rank", r)
    if r < 1:
        raise DomainError("rank must be >= 1")
    caps = rank_caps(dims)
    ranks = (1, *[min(r, c) for c in caps], 1)
    return RankSchedule(dims, r, ranks)


def core_shapes_ok(cores, closed: bool = True) -> None:
    """Validate a chain: 3-D cores, matching junction ranks, rank-1 ends
    (only at the start unless ``closed``)."""
    if not cores:
        raise DomainError("empty core chain")
    for k, c in enumerate(cores):
        if np.asarray(c).ndim != 3:
            raise ShapeError(f"core {k} is not 3-D")
    if cores[0].shape[0] != 1:
        raise DomainError("chain must start with rank 1")
    if closed and cores[-1].shape[2] != 1:
        raise DomainError("chain must end with rank 1")
    for k in range(len(cores) - 1):
        if cores[k].shape[2] != cores[k + 1].shape[0]:
            raise ShapeError(
                f"rank mismatch at junction {k + 1}: "
                f"{cores[k].shape[2]} vs {cores[k + 1].shape[0]}"
            )


def check_core_orthonormal(core: np.ndarray, k: int | None = None,
                           tol: float = 1e-8) -> None:
    """Raise unless the core's matricization has orthonormal columns."""
    m = matricize_core(np.asarray(core, dtype=np.float64))
    resid = float(np.linalg.norm(m.T @ m - np.eye(m.shape[1])))
    if not resid <= tol:  # a NaN residual fails too
        where = "core" if k is None else f"core {k}"
        raise DomainError(
            f"{where} matricization not orthonormal: residual {resid:.3e}"
        )


def tt_contract(cores) -> np.ndarray:
    """Contract a rank-1-terminated chain into the full dense tensor."""
    cores = [np.asarray(c, dtype=np.float64) for c in cores]
    core_shapes_ok(cores)
    block, _ = compose_chain([c.reshape(-1, c.shape[2]) for c in cores],
                             [c.shape for c in cores])
    return reshape(block, tuple(c.shape[1] for c in cores))


def compose_chain(frames, shapes) -> tuple[np.ndarray, list[np.ndarray]]:
    """Compose matricized cores left to right.

    ``frames[k]`` is core k as its (r_left * n, r_right) matricization and
    ``shapes[k]`` its shape.  ``frames[0]`` may be any leading block whose
    column count is core 1's r_left, such as several leading cores composed
    beforehand; ``shapes[0]`` is not read.  Returns the composed block and
    the running blocks, which the gradient tape keeps for its reverse pass.
    """
    b = frames[0]
    blocks = [b]
    for frame, (r_left, n, r_right) in zip(frames[1:], shapes[1:]):
        b = (b @ frame.reshape(r_left, n * r_right)).reshape(-1, r_right)
        blocks.append(b)
    return b, blocks


def frames_from_cores(cores) -> np.ndarray:
    """Compose orthonormal cores into the (n_1*...*n_D) x r frame.

    Requires every core's matricization to be orthonormal (checked to
    1e-8 and reported per core), ``R_0 = 1``, and returns the matrix
    whose row index fuses the mode indices in storage order.
    """
    cores = [np.asarray(c, dtype=np.float64) for c in cores]
    core_shapes_ok(cores, closed=False)
    for k, core in enumerate(cores):
        check_core_orthonormal(core, k)
    return compose_chain([c.reshape(-1, c.shape[2]) for c in cores],
                         [c.shape for c in cores])[0]


def gauge_transform(cores, q_list) -> list[np.ndarray]:
    """Rotate interface ranks: slice k becomes ``Q_{k-1}^T C Q_k``.

    ``q_list`` holds one orthogonal matrix per interior junction (length
    ``len(cores) - 1``); the chain ends are left untouched, and the chain
    may end at any rank.  Matricization orthonormality and the contracted
    tensor are both preserved.
    """
    cores = [np.asarray(c, dtype=np.float64) for c in cores]
    core_shapes_ok(cores, closed=False)
    q_list = [np.asarray(q, dtype=np.float64) for q in q_list]
    if len(q_list) != len(cores) - 1:
        raise ShapeError(
            f"need {len(cores) - 1} junction rotations, got {len(q_list)}"
        )
    for k, q in enumerate(q_list):
        r = cores[k].shape[2]
        if q.shape != (r, r):
            raise ShapeError(f"rotation {k} must be {r} x {r}, got {q.shape}")
        if not np.linalg.norm(q.T @ q - np.eye(r)) <= 1e-10:  # NaN fails too
            raise DomainError(f"rotation {k} is not orthogonal")
    out = []
    for k, core in enumerate(cores):
        left = q_list[k - 1] if k > 0 else None
        right = q_list[k] if k < len(cores) - 1 else None
        new = core
        if left is not None:
            new = np.einsum("ab,bnc->anc", left.T, new)
        if right is not None:
            new = np.einsum("anb,bc->anc", new, right)
        out.append(new)
    return out


class ChainView(NamedTuple):
    """A parameter set read as two chains of Householder-parameterized cores.

    Per side, layouts run from the outer end toward the spectrum (pack
    order) with their (r_left, n, r_right) core shapes; ``ranks`` is the
    global schedule over ``out_factors`` then the reversed ``in_factors``.
    svdp is the chain with one core per side, ranks ``(1, r, 1)``.
    ``build(u_layouts, v_layouts, spectrum)`` makes a ``scheme`` parameter set.
    ``heads`` holds per side ``(n, block)``, its fixed head as in
    :attr:`~.sttp.ChainStructure.heads`; a view without one, svdp's, reads
    ``(0, None)`` on each side.
    """

    scheme: str
    out_factors: tuple[int, ...]
    in_factors: tuple[int, ...]
    ranks: tuple[int, ...]
    u_layouts: tuple
    v_layouts: tuple
    u_shapes: tuple[tuple[int, int, int], ...]
    v_shapes: tuple[tuple[int, int, int], ...]
    build: Callable
    heads: tuple = ((0, None), (0, None))

    @property
    def layouts(self) -> tuple:
        """Every layout in pack order: the U side, then the V side."""
        return self.u_layouts + self.v_layouts

    def rebuild(self, layouts, spectrum):
        """The same structure with new layouts (pack order) and spectrum."""
        n_u = len(self.u_layouts)
        return self.build(tuple(layouts[:n_u]), tuple(layouts[n_u:]), spectrum)
