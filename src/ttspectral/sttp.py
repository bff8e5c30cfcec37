"""Tensor-train parameterization of the two frames of a rank-r matrix.

Both matrix dimensions are factored (ascending primes by default), the
factored weight tensor gets a capped rank schedule over the concatenated
dimension list (output factors in order, then input factors reversed), and
every chain core is Householder-parameterized so that its matricization is
an orthonormal frame.  Composing each chain reproduces the two frames of the
plain rank-r assembly, with the diagonal spectrum between them; since the
interior interface ranks are gauge degrees of freedom, all cores except the
two adjacent to the spectrum use the reduced (gauge-fixed) layout, which
makes the free-parameter count exactly the dimension of the fixed-rank
tensor manifold:

    dof = sum_k R_{k-1} n_k R_k  -  sum_{interior k} R_k^2      (learned)

with an extra ``r*(r+1)/2`` removed for the identity spectrum (its r values
plus one more gauge fixed by reducing U's innermost core).

When every interior rank (excluding the middle r) sits at its cap, the
chain is the plain two-frame parameterization in disguise: all other cores
have square matricizations, which carry no free parameters in reduced form.

Such a core's frame is the constant ``-I`` of its structure
(:func:`~.householder.fixed_frame`), so it is structure, not parameters.
Per side, the cores before the first one with free cells are the side's
fixed head; :func:`chain_frames` and the gradient tape compose each side
from its block, whose cores they neither decode nor pull gradients into.

The factor tuples, r and the spectrum mode fix all else, one cached
:class:`ChainStructure` per structure (:func:`chain_structure`): the rank
schedule and check on r, the gauge rule, the core shapes, the dof and the
fixed heads.  The template and initializer read it (the ``chain_*``
functions and :func:`init_chain`).  svdp is the one-core chain ``(d_out,)``,
``(d_in,)``; those never go through :func:`factorize`, so a dimension of 1
works there.  Both parameter types look the record up once at construction
and run :func:`check_chain` against it, so every svdp and sttp parameter set
has exactly its scheme's dof free parameters.  They keep it as
``structure``: every reader of a set's chain (frames, tape, files, planner,
CLI) takes the chain from that record and the set's own layouts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import attrgetter

import numpy as np

from . import householder as hh
from .errors import DomainError, ShapeError, check_integer, check_integers
from .spectral import SpectrumParams, init_spectrum, materialize_sigma
from .spectrum_modes import IDENTITY
from .tensortrain import RankSchedule, compose_chain, rank_caps, rank_schedule
from .tensortrain import frames_from_cores  # noqa: F401  (perfbench patches it)

__all__ = [
    "MAX_FACTORED_DIM",
    "factorize",
    "DimFactorization",
    "rank_cap",
    "chain_structure",
    "check_chain",
    "core_specs",
    "core_size_schedule",
    "chain_dof",
    "sttp_dof",
    "SttpParams",
    "chain_template",
    "init_chain",
    "init_sttp_params",
    "sttp_template",
    "chain_frames",
    "assemble_sttp",
    "edge_case_is_svdp",
]


MAX_FACTORED_DIM = 2**32
"""Largest dimension :func:`factorize` accepts.  Trial division runs up to
the square root: the largest prime below the bound factors in about
10 ms, the prime 2**61 - 1 would take minutes."""


@lru_cache(maxsize=256, typed=True)
def factorize(d: int) -> "DimFactorization":
    """Ascending prime factorization with repetition; rejects a non-integer,
    d < 2 and d > :data:`MAX_FACTORED_DIM`.  Cached per value and type."""
    check_integer("dimension", d)
    d = int(d)
    if d < 2:
        raise DomainError(f"dimension {d} cannot be factored (needs d >= 2)")
    if d > MAX_FACTORED_DIM:
        raise DomainError(f"dimension {d} exceeds the factorization bound "
                          f"{MAX_FACTORED_DIM}")
    factors = []
    rem = d
    f = 2
    while f * f <= rem:
        while rem % f == 0:
            factors.append(f)
            rem //= f
        f += 1
    if rem > 1:
        factors.append(rem)
    return DimFactorization(d, tuple(factors))


@dataclass(frozen=True)
class DimFactorization:
    """A dimension and its ascending factor list (product equals d)."""

    d: int
    factors: tuple[int, ...]

    def __post_init__(self):
        check_integers("factored dimension", (self.d, *self.factors))
        if self.d < 2:
            raise DomainError("factored dimension must be >= 2")
        if math.prod(self.factors) != self.d:
            raise DomainError(
                f"factors {self.factors} do not multiply to {self.d}"
            )
        if any(f < 2 for f in self.factors):
            raise DomainError("factors must all be >= 2")

    def __len__(self) -> int:
        return len(self.factors)


def rank_cap(d_out: int, d_in: int) -> int:
    """Largest admissible rank for a d_out x d_in matrix."""
    if d_out < 1 or d_in < 1:
        raise DomainError("matrix dims must be positive")
    return min(d_out, d_in)


@dataclass(frozen=True)
class CoreSpec:
    """Shape and layout variant of one chain core.

    ``side`` is "u" or "v"; ``local_k`` counts from the outer end of that
    side (0-based), so the core adjacent to the spectrum has the largest
    local index.  ``shape`` is the stored (r_left, n, r_right) tensor shape
    with ``r_right`` the interface toward the spectrum; the frame is its
    matricization (r_left * n, r_right).
    """

    side: str
    local_k: int
    shape: tuple[int, int, int]
    variant: str

    @property
    def frame_dims(self) -> tuple[int, int]:
        r_left, n, r_right = self.shape
        return r_left * n, r_right


@dataclass(frozen=True)
class ChainStructure:
    """What the factor tuples, rank and spectrum mode fix in a chain, svdp's
    one-core chain too: ``out_factors`` and ``in_factors``; ``schedule``,
    the capped rank schedule over the global dims (middle rank ``r``);
    ``specs``, per side (U, then V) the core specs from the outer
    (dimension) end toward the spectrum, under the gauge rule: all cores
    are reduced except the one adjacent to the spectrum on each side; with
    the identity spectrum, U's adjacent core is reduced as well;
    ``shapes``, per side the specs' core shapes; and ``dof``, the
    free-parameter count (:func:`chain_dof`)."""

    out_factors: tuple[int, ...]
    in_factors: tuple[int, ...]
    schedule: RankSchedule
    specs: tuple[tuple[CoreSpec, ...], tuple[CoreSpec, ...]]
    shapes: tuple[tuple[tuple[int, int, int], ...], ...]
    dof: int

    @cached_property
    def heads(self) -> tuple[tuple[int, np.ndarray | None], ...]:
        """Per side (U, then V), ``(n, block)``: the side's first ``n`` cores
        have no free cells, and ``block`` is their frames composed by
        :func:`compose_chain` (read-only; None when ``n`` is 0).  Those
        frames are the fixed ``-I`` of each structure, so the block is the
        composed frame of any layouts of these cores.  Composed on first
        read, so counting the dof never allocates it."""
        heads = []
        for side, shapes in zip(self.specs, self.shapes):
            frames = []
            for spec in side:
                frame = hh.fixed_frame(*spec.frame_dims, spec.variant)
                if frame is None:
                    break
                frames.append(frame)
            block = None
            if frames:
                block = compose_chain(frames, shapes)[0]
                block.flags.writeable = False
            heads.append((len(frames), block))
        return tuple(heads)


def chain_structure(out_factors: tuple[int, ...], in_factors: tuple[int, ...],
                    r: int, spectrum_mode: str) -> ChainStructure:
    """The cached record of the chain over the given factor tuples.  Each
    factor must be an integer >= 1 and r an integer, checked before the
    cache so that it never holds a key a rejected call made; then ``1 <= r
    <= min(d_out, d_in)``."""
    for value in (*out_factors, *in_factors):
        check_integer("factor", value, 1)
    check_integer("rank", r)
    return _chain_structure(tuple(map(int, out_factors)),
                            tuple(map(int, in_factors)), int(r), spectrum_mode)


@lru_cache(maxsize=256)
def _chain_structure(out_factors, in_factors, r, spectrum_mode):
    d_out, d_in = math.prod(out_factors), math.prod(in_factors)
    cap = rank_cap(d_out, d_in)
    if not 1 <= r <= cap:
        raise DomainError(
            f"rank {r} violates 1 <= r <= min({d_out}, {d_in}) = {cap}")
    sched = rank_schedule(out_factors + in_factors[::-1], r)
    ranks = sched.ranks
    assert ranks[len(out_factors)] == r  # the middle cap is >= r
    u_last = hh.REDUCED if spectrum_mode == IDENTITY else hh.FULL
    # V-side local ranks mirror the tail of the global schedule.
    sides = (("u", out_factors, ranks[:len(out_factors) + 1], u_last),
             ("v", in_factors, ranks[len(out_factors):][::-1], hh.FULL))
    specs = tuple(
        tuple(CoreSpec(side, k, (side_ranks[k], n, side_ranks[k + 1]),
                       last if k == len(factors) - 1 else hh.REDUCED)
              for k, n in enumerate(factors))
        for side, factors, side_ranks, last in sides)
    dims = sched.dims
    dof = sum(ranks[k] * n * ranks[k + 1] for k, n in enumerate(dims))
    dof -= sum(ranks[k] ** 2 for k in range(1, len(dims)))
    if spectrum_mode == IDENTITY:
        dof -= r * (r + 1) // 2
    return ChainStructure(
        out_factors, in_factors, sched, specs,
        tuple(tuple(spec.shape for spec in side) for side in specs), dof)


def check_chain(structure: ChainStructure, u_layouts, v_layouts,
                spectrum) -> None:
    """Structure check of a chain parameter set, svdp's too: per side the
    layout count and each core's ``(d, r, variant)`` against the record's
    specs (the gauge rule), then the spectrum length."""
    for name, layouts, side in zip("UV", (u_layouts, v_layouts),
                                   structure.specs):
        if len(layouts) != len(side):
            raise ShapeError(f"{name} side expects {len(side)} layouts")
        for layout, spec in zip(layouts, side):
            got = (layout.d, layout.r, layout.variant)
            if got != (*spec.frame_dims, spec.variant):
                raise ShapeError(f"{name} core {spec.local_k}: layout {got} "
                                 f"!= {spec.frame_dims}, {spec.variant}")
    if spectrum.r != structure.schedule.r:
        raise ShapeError("spectrum length does not match rank")


def core_specs(out_fac: DimFactorization, in_fac: DimFactorization, r: int,
               spectrum_mode: str
               ) -> tuple[tuple[CoreSpec, ...], tuple[CoreSpec, ...]]:
    """The structure record's specs of two factorizations.  Their factors
    are integers already, so only the rank is checked before the cache, and
    a Python int skips the call: warm ``apply_map`` calls this every time."""
    if type(r) is not int:
        check_integer("rank", r)
        r = int(r)
    return _chain_structure(out_fac.factors, in_fac.factors, r,
                            spectrum_mode).specs


def core_size_schedule(out_fac: DimFactorization, in_fac: DimFactorization,
                       r: int, spectrum_mode: str = "learned"
                       ) -> list[tuple[int, int, str]]:
    """Matricized (rows, cols, variant) of every core, U side then V side.

    The V side is listed from the spectrum outward, matching the left-to-
    right order of the assembled chain.
    """
    u_specs, v_specs = chain_structure(out_fac.factors, in_fac.factors, r,
                                       spectrum_mode).specs
    return [(*spec.frame_dims, spec.variant)
            for spec in (*u_specs, *reversed(v_specs))]


def chain_dof(out_factors: tuple[int, ...], in_factors: tuple[int, ...],
              r: int, spectrum_mode: str) -> int:
    """Free-parameter count of the chain over the given factor tuples.

    Learned spectrum: ``sum_k R_{k-1} n_k R_k - sum_{interior} R_k^2`` over
    the global schedule, the dimension of the fixed-rank tensor manifold.
    Identity spectrum: ``r*(r+1)/2`` less (r spectrum values plus the
    ``r*(r-1)/2`` gauge parameters removed from U's innermost core).
    """
    return chain_structure(out_factors, in_factors, r, spectrum_mode).dof


def sttp_dof(d_out: int, d_in: int, r: int, spectrum_mode: str) -> int:
    """:func:`chain_dof` over the prime factorizations of the dims."""
    return chain_dof(factorize(d_out).factors, factorize(d_in).factors, r,
                     spectrum_mode)


@dataclass(frozen=True, eq=False)
class SttpParams:
    """Complete chain parameter set over the prime factorizations of the dims.

    The fields are those of :class:`~.svdp.SvdpParams` with one layout per
    core: ``u_layouts`` and ``v_layouts`` run from the outer end of each
    side toward the spectrum.  The constructor derives the read-only
    attributes ``out_fac``, ``in_fac`` (:func:`factorize`) and
    ``structure`` (:func:`chain_structure`, looked up once) from the dims,
    rank and spectrum mode, and runs :func:`check_chain` against it;
    ``n_params`` is the record's dof, :func:`sttp_dof`, and ``schedule`` is
    the record's.  Pickling and copying rebuild through the constructor.
    Its parts memoize their frames and sigma, so ``==`` and ``hash`` go by
    identity.
    """

    scheme = "sttp"

    d_out: int
    d_in: int
    r: int
    u_layouts: tuple[hh.HouseholderLayout, ...]
    v_layouts: tuple[hh.HouseholderLayout, ...]
    spectrum: SpectrumParams

    def __post_init__(self):
        out_fac, in_fac = factorize(self.d_out), factorize(self.d_in)
        structure = chain_structure(out_fac.factors, in_fac.factors, self.r,
                                    self.spectrum.mode)
        check_chain(structure, self.u_layouts, self.v_layouts, self.spectrum)
        object.__setattr__(self, "out_fac", out_fac)  # frozen: set once here
        object.__setattr__(self, "in_fac", in_fac)
        object.__setattr__(self, "structure", structure)

    def __reduce__(self):
        return (SttpParams, (self.d_out, self.d_in, self.r, self.u_layouts,
                             self.v_layouts, self.spectrum))

    n_params = property(attrgetter("structure.dof"))
    schedule = property(attrgetter("structure.schedule"))

    @property
    def specs(self) -> tuple[tuple[CoreSpec, ...], tuple[CoreSpec, ...]]:
        """The record's specs, read through :func:`core_specs` on each call.

        A warm ``apply_map`` reads them once, in :func:`chain_frames`: that
        call is the ``sttp.core_specs`` span which the benchmark self-test
        ``test_traced_calls_run_the_library_and_are_restored`` asserts,
        until the library owns its spans (ROADMAP item 1b)."""
        return core_specs(self.out_fac, self.in_fac, self.r,
                          self.spectrum.mode)

    @property
    def layouts(self) -> tuple[hh.HouseholderLayout, ...]:
        """Every layout in pack order: the U side, then the V side."""
        return self.u_layouts + self.v_layouts

    def rebuild(self, layouts, spectrum) -> "SttpParams":
        """The same structure with new layouts (pack order) and spectrum."""
        n_u = len(self.u_layouts)
        return SttpParams(self.d_out, self.d_in, self.r, tuple(layouts[:n_u]),
                          tuple(layouts[n_u:]), spectrum)


def chain_template(out_factors: tuple[int, ...], in_factors: tuple[int, ...],
                   r: int, spectrum_mode: str):
    """``(u_layouts, v_layouts, spectrum)`` of the given structure with
    all-zero layouts and spectrum ones."""
    u_layouts, v_layouts = (
        tuple(hh.make_layout(*spec.frame_dims, spec.variant) for spec in specs)
        for specs in chain_structure(out_factors, in_factors, r,
                                     spectrum_mode).specs)
    return u_layouts, v_layouts, init_spectrum(spectrum_mode, r)


def sttp_template(d_out: int, d_in: int, r: int, spectrum_mode: str
                  ) -> SttpParams:
    """Parameters of the given structure with all-zero layouts and spectrum
    ones, as a template for :meth:`SttpParams.rebuild`."""
    return SttpParams(d_out, d_in, r, *chain_template(
        factorize(d_out).factors, factorize(d_in).factors, r, spectrum_mode))


def _encode_chain(frames, specs) -> tuple[tuple, np.ndarray]:
    """Encode a chain of target core frames, carrying encode signs inward.

    Each encoding loses per-column signs; flipping the next core's rows by
    the carried signs is an (orthogonal, diagonal) gauge rotation, so the
    composed chain reproduces the intended frame product up to a final
    column-sign vector, which is returned for absorption into the spectrum.
    """
    layouts = []
    carry = np.ones(1)
    for frame, spec in zip(frames, specs):
        flipped = frame * np.repeat(carry, spec.shape[1])[:, None]
        layout, carry = hh.encode_as(flipped, spec.variant)
        layouts.append(layout)
    return tuple(layouts), carry


def init_chain(out_factors: tuple[int, ...], in_factors: tuple[int, ...],
               r: int, spectrum_mode: str, seed: int,
               init_scheme: str = "noisy_identity", lam: float = 0.0):
    """Fresh ``(u_layouts, v_layouts, spectrum)``: each core frame drawn by
    the init scheme and encoded, the lost column signs folded into the
    spectrum, so the assembled matrix is the drawn frames' product.
    ``seed`` is an integer >= 0."""
    check_integer("seed", seed, 0)
    specs = chain_structure(out_factors, in_factors, r, spectrum_mode).specs
    rng = np.random.default_rng(seed)
    frames = [[hh.init_frame(init_scheme, *spec.frame_dims,
                             int(rng.integers(2**32)))
               for spec in side] for side in specs]
    (u_layouts, su), (v_layouts, sv) = map(_encode_chain, frames, specs)
    return u_layouts, v_layouts, init_spectrum(spectrum_mode, r, su * sv, lam)


def init_sttp_params(d_out: int, d_in: int, r: int, spectrum_mode: str,
                     seed: int, init_scheme: str = "noisy_identity",
                     lam: float = 0.0) -> SttpParams:
    """Fresh chain parameters; per-core frames follow the init scheme."""
    return SttpParams(d_out, d_in, r, *init_chain(
        factorize(d_out).factors, factorize(d_in).factors, r, spectrum_mode,
        seed, init_scheme, lam))


def chain_frames(p) -> tuple[np.ndarray, np.ndarray]:
    """The d_out x r frame U and d_in x r frame V of any parameter set.

    A one-core side is its decoded frame (:func:`~.householder.decode`,
    checked orthonormal once).  Any other side is its fixed head's block
    (:attr:`ChainStructure.heads`), or its decoded first core when it has
    none, composed afresh by :func:`compose_chain` with the decoded cores
    after it, as the tape does.
    """
    # p.specs, not the record's shapes: one core_specs call (SttpParams.specs)
    (u_head, v_head), (u_specs, v_specs) = p.structure.heads, p.specs
    return (_side_frame(p.u_layouts, u_specs, *u_head),
            _side_frame(p.v_layouts, v_specs, *v_head))


def _side_frame(layouts, specs, n_head, head):
    if len(layouts) == 1:
        return hh.decode(layouts[0])
    if head is None:
        n_head, head = 1, hh.decode(layouts[0])
    return compose_chain([head, *[hh.decode(la) for la in layouts[n_head:]]],
                         [spec.shape for spec in specs[n_head - 1:]])[0]


def assemble_sttp(p) -> np.ndarray:
    """Materialize the d_out x d_in matrix of any parameter set (svdp's too).

    ``(u * sigma) @ v.T`` over the :func:`chain_frames`; the singular values
    of the result are ``|sigma|``.
    """
    u, v = chain_frames(p)
    return (u * materialize_sigma(p.spectrum)) @ v.T


def edge_case_is_svdp(d_out: int, d_in: int, r: int) -> tuple[bool, dict]:
    """Whether the capped schedule saturates every cap away from the middle.

    When it does, the chain spans the same rank-r manifold as the plain
    two-frame parameterization; the witness maps the free parameters onto
    the two spectrum-adjacent cores (all others are square, hence empty in
    reduced form) and shows the parameter counts agree.
    """
    out_fac, in_fac = factorize(d_out), factorize(d_in)
    sched = chain_structure(out_fac.factors, in_fac.factors, r,
                            "learned").schedule
    dims = sched.dims
    caps = rank_caps(dims)
    middle = len(out_fac)
    saturated = all(sched.ranks[k] == caps[k - 1]
                    for k in range(1, len(dims)) if k != middle)
    sizes = core_size_schedule(out_fac, in_fac, r)
    square = [rows == cols for rows, cols, _ in sizes]
    witness = {
        "ranks": sched.ranks,
        "caps": (1, *caps, 1),
        "square_cores": square,
        "sigma_adjacent_frames": (sizes[middle - 1][:2], sizes[middle][:2]),
        "sttp_dof": sttp_dof(d_out, d_in, r, "learned"),
        "svdp_dof": chain_dof((d_out,), (d_in,), r, "learned"),
    }
    return saturated, witness
