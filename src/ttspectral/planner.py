"""Tensor diagrams and FLOP-optimal pairwise contraction plans.

A diagram is a set of tensor nodes whose axes are either joined pairwise by
edges (summed over) or left open (output dims).  A plan is an ordered binary
tree of pairwise contractions executing the diagram; its cost model charges
``2 * prod(distinct axis sizes across both operands)`` per step (one multiply
and one add per inner-product term), except that contracting a diagonal
matrix node is a pure scaling and costs only the size of its result.

The planner runs one dynamic program over splits of node sets, costing
each set once.  For diagrams of at most ``EXHAUSTIVE_NODES`` (8) nodes it
tries every split of every node set, so it covers every binary contraction
tree, outer products included, and the plan has minimal total cost under
the model.  Larger diagrams are the library's chains of cores, and for
them it tries only runs of consecutive nodes, each with or without the
last node (the input ``x``): the interval program of matrix-chain
ordering, as used for tensor-train contraction orders (Oseledets, SIAM J.
Sci. Comput. 2011).  On every library chain diagram checked against the
search over all subsets (9 to 12 nodes) the plans are the same, and the
tests pin the plans of sttp chains of up to 26 nodes.  Any diagram gets a
valid plan, but above 8 nodes one whose node order does not follow its
edges may get a costly one.  Ties break toward the lexicographically
smallest step sequence.  Plans depend only on the diagram, not on bound
data, and are cached per diagram shape.

The search yields only a split sequence; :func:`_compile` walks it once
into the plan's steps, costs and program: per step the transposes and
reshapes of each operand that are not no-ops, then one BLAS ``matmul``, or,
where a diagonal leaf joins along one axis, a broadcast scaling by its
diagonal vector.  :func:`execute` runs that program without any einsum.

:func:`sttp_diagram` draws a map ``y = W x`` as the chain of cores, with
the input tensorized along the factored input dimension; the CLI ``plan``
command plans it.
:func:`apply_map` composes each side into its frame first and applies
every parameter set through the four-node one-core :func:`sttp_diagram`,
whose cached plan is that of the named :func:`svdp_diagram`.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .errors import BindingError, DomainError, ShapeError, check_integers
from .spectral import materialize_sigma
from .sttp import chain_frames, decompress
from .sttp import core_specs  # noqa: F401  (perfbench/spans.py patches it)

__all__ = [
    "DiagramNode",
    "TensorDiagram",
    "PlanStep",
    "ContractionPlan",
    "plan",
    "execute",
    "svdp_diagram",
    "sttp_diagram",
    "naive_flops",
    "apply_map",
    "decompress",
]

EXHAUSTIVE_NODES = 8  # diagrams up to this size search every binary tree
PLAN_CACHE_SIZE = 128  # plans kept, least recently used dropped first


@dataclass(frozen=True)
class DiagramNode:
    """One tensor in a diagram; diagonal nodes are square diagonal matrices."""

    dims: tuple[int, ...]
    diagonal: bool = False
    name: str = ""

    def __post_init__(self):
        check_integers("node dimension", self.dims)
        if not self.dims or any(d < 1 for d in self.dims):
            raise ShapeError(f"node dims must be positive, got {self.dims}")
        if self.diagonal and (len(self.dims) != 2 or self.dims[0] != self.dims[1]):
            raise ShapeError("diagonal nodes must be square matrices")


class TensorDiagram:
    """Nodes, pairwise edges, and the declared output-leg order.

    ``edges`` are ``(node_a, axis_a, node_b, axis_b)`` joining two distinct
    nodes with matching sizes; each axis joins at most one edge.  Every axis
    not on an edge must appear exactly once in ``output_legs``, whose order
    fixes the output dims.  The diagram must be connected.  Diagrams are
    read-only: the :meth:`signature` that keys the plan cache is computed
    once, here.
    """

    def __init__(self, nodes, edges, output_legs):
        self.nodes: tuple[DiagramNode, ...] = tuple(nodes)
        self.edges: tuple[tuple[int, int, int, int], ...] = tuple(
            tuple(int(v) for v in e) for e in edges
        )
        self.output_legs: tuple[tuple[int, int], ...] = tuple(
            (int(n), int(a)) for n, a in output_legs
        )
        self._validate()
        self._assign_axes()
        self._signature = (
            tuple((node.dims, node.diagonal) for node in self.nodes),
            self.edges,
            self.output_legs,
        )

    def _validate(self):
        n = len(self.nodes)
        if n == 0:
            raise ShapeError("diagram has no nodes")
        seen: set[tuple[int, int]] = set()
        for na, aa, nb, ab in self.edges:
            if na == nb:
                raise ShapeError(f"edge joins two axes of node {na}")
            for node, axis in ((na, aa), (nb, ab)):
                if not (0 <= node < n and 0 <= axis < len(self.nodes[node].dims)):
                    raise ShapeError(f"edge endpoint ({node}, {axis}) out of range")
                if (node, axis) in seen:
                    raise ShapeError(
                        f"axis ({node}, {axis}) participates in more than one edge"
                    )
                seen.add((node, axis))
            if self.nodes[na].dims[aa] != self.nodes[nb].dims[ab]:
                raise ShapeError(
                    f"edge ({na},{aa})-({nb},{ab}) joins unequal sizes "
                    f"{self.nodes[na].dims[aa]} != {self.nodes[nb].dims[ab]}"
                )
        open_expected = {
            (i, a)
            for i, node in enumerate(self.nodes)
            for a in range(len(node.dims))
            if (i, a) not in seen
        }
        if set(self.output_legs) != open_expected or \
                len(self.output_legs) != len(open_expected):
            raise ShapeError(
                "output_legs must list each non-edge axis exactly once"
            )
        # connectivity
        adj = {i: set() for i in range(n)}
        for na, _, nb, _ in self.edges:
            adj[na].add(nb)
            adj[nb].add(na)
        frontier = {0}
        reached = set()
        while frontier:
            i = frontier.pop()
            reached.add(i)
            frontier |= adj[i] - reached
        if len(reached) != n:
            raise ShapeError("diagram is not connected")

    def _assign_axes(self):
        axis_of: dict[tuple[int, int], int] = {}
        sizes: list[int] = []
        for na, aa, nb, ab in self.edges:
            axis_of[(na, aa)] = axis_of[(nb, ab)] = len(sizes)
            sizes.append(self.nodes[na].dims[aa])
        for node, axis in self.output_legs:
            axis_of[(node, axis)] = len(sizes)
            sizes.append(self.nodes[node].dims[axis])
        self.axis_sizes: tuple[int, ...] = tuple(sizes)
        self.node_axis_ids: tuple[tuple[int, ...], ...] = tuple(
            tuple(axis_of[(i, a)] for a in range(len(node.dims)))
            for i, node in enumerate(self.nodes)
        )
        self.output_axis_ids: tuple[int, ...] = tuple(
            axis_of[leg] for leg in self.output_legs
        )

    def signature(self):
        return self._signature


@dataclass(frozen=True)
class PlanStep:
    """One pairwise contraction: operands named by their leaf node sets."""

    left: tuple[int, ...]
    right: tuple[int, ...]
    result_dims: tuple[int, ...]
    flops: int
    result_axes: tuple[int, ...]
    scaling: bool


@dataclass(frozen=True)
class ContractionPlan:
    """Ordered contraction steps for a diagram, with cost accounting.

    The search finds the split sequence and :func:`_compile` walks it once
    into everything here.  ``program`` is what :func:`execute` runs: one
    compiled step per plan step, a ``matmul`` or, where a diagonal leaf
    joins along one axis, a scaling by its vector.  ``vector_shapes`` holds
    per node the shape a diagonal node's vector is bound as, and None for a
    diagonal bound as its dense matrix and for every other node.
    ``output_perm`` moves the axes of the last step's result into the
    declared output order, None when they already are.
    """

    diagram: TensorDiagram
    steps: tuple[PlanStep, ...]
    total_flops: int
    peak_intermediate: int
    program: tuple = field(repr=False, compare=False)
    vector_shapes: tuple = field(repr=False, compare=False)
    output_perm: tuple[int, ...] | None = field(repr=False, compare=False)


_PLAN_CACHE: OrderedDict[tuple, ContractionPlan] = OrderedDict()


def _bits(mask: int) -> tuple[int, ...]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def _pairs_by_size(n: int) -> list[list[tuple[int, int]]]:
    """The splits the search tries, as ``(a, b)`` node-set masks with ``a``
    holding the smaller node, listed under the size of their union.

    Up to ``EXHAUSTIVE_NODES`` nodes that is every pair of disjoint node
    sets.  Above that it is every split of a run of consecutive nodes
    ``i..j`` into ``i..k`` and ``k+1..j``, either side optionally joined by
    the last node, and each run joined by the last node alone.
    """
    buckets: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    if n <= EXHAUSTIVE_NODES:
        for s in range(1, 1 << n):
            bucket = buckets[s.bit_count()]
            rest = s ^ (s & -s)  # b never takes the smallest node
            b = rest
            while b:
                bucket.append((s ^ b, b))
                b = (b - 1) & rest
        return buckets
    last = 1 << (n - 1)
    for i in range(n - 1):
        for j in range(i, n - 1):
            run, size = (2 << j) - (1 << i), j - i + 1
            buckets[size + 1].append((run, last))
            for k in range(i, j):
                left = (2 << k) - (1 << i)
                right = run ^ left
                buckets[size].append((left, right))
                buckets[size + 1] += [(left | last, right),
                                      (left, right | last)]
    return buckets


def plan(diagram: TensorDiagram) -> ContractionPlan:
    """FLOP-minimal contraction plan, by dynamic programming over splits.

    Up to ``EXHAUSTIVE_NODES`` nodes every split of every node set is
    tried, so the plan is exact over all binary trees, outer products
    included; above that only runs of consecutive nodes, each with or
    without the last node, are (see :func:`_pairs_by_size`).  Cost ties
    resolve to the lexicographically smallest step sequence (operands keyed
    by their sorted leaf ids, left operand holding the smaller minimum).
    The last ``PLAN_CACHE_SIZE`` plans used are cached per diagram
    signature.
    """
    key = diagram.signature()
    cached = _PLAN_CACHE.get(key)
    if cached is not None:
        _PLAN_CACHE.move_to_end(key)
        return cached

    n = len(diagram.nodes)
    sizes = diagram.axis_sizes

    prod_memo: dict[int, int] = {0: 1}

    def mask_prod(mask: int) -> int:
        got = prod_memo.get(mask)
        if got is None:
            low = mask & -mask
            got = sizes[low.bit_length() - 1] * mask_prod(mask ^ low)
            prod_memo[mask] = got
        return got

    # per node set: open axes and the product of their sizes,
    # best cost, best step sequence, sorted leaf ids
    open_mask: dict[int, int] = {}
    open_size: dict[int, int] = {}
    cost: dict[int, int] = {}
    steps: dict[int, tuple] = {}
    leaves: dict[int, tuple[int, ...]] = {}
    for i, ids in enumerate(diagram.node_axis_ids):
        m = 0
        for aid in ids:
            m |= 1 << aid
        open_mask[1 << i], open_size[1 << i] = m, mask_prod(m)
        cost[1 << i], steps[1 << i], leaves[1 << i] = 0, (), (i,)
    diag_singletons = {
        1 << i for i, node in enumerate(diagram.nodes) if node.diagonal
    }

    for bucket in _pairs_by_size(n):
        for a, b in bucket:  # a holds the smaller node: the left operand
            s = a | b
            oa, ob = open_mask[a], open_mask[b]
            shared = oa & ob
            inner = mask_prod(shared)
            outer = open_size[a] * open_size[b] // inner  # over oa | ob
            if shared and (a in diag_singletons or b in diag_singletons):
                c = outer // inner
            else:
                c = 2 * outer
            total = cost[a] + cost[b] + c
            best = cost.get(s)
            if best is None or total <= best:
                cand = steps[a] + steps[b] + ((leaves[a], leaves[b]),)
                if best is None or total < best or cand < steps[s]:
                    cost[s], steps[s] = total, cand
                    if best is None:
                        open_mask[s] = oa ^ ob
                        open_size[s] = outer // inner
                        leaves[s] = _bits(s)

    result = _compile(diagram, steps[(1 << n) - 1])
    _PLAN_CACHE[key] = result
    if len(_PLAN_CACHE) > PLAN_CACHE_SIZE:
        _PLAN_CACHE.popitem(last=False)
    return result


def _compile(diagram: TensorDiagram, splits) -> ContractionPlan:
    """Walk a split sequence once into its plan.

    ``splits`` are ``(left, right)`` pairs of sorted leaf ids, the left
    holding the smaller node; a result takes the slot of its smallest leaf,
    so the last lands in slot 0.  A program step ``(a, perm_a, shape_a, b,
    perm_b, shape_b, op, dims)`` views the left operand as a matrix over
    (its free axes, the shared ones) and the right over (the shared axes,
    its free ones), each group in increasing axis id, and applies ``op``;
    the product, viewed with ``dims``, carries the left's free axes then
    the right's.  A ``None`` perm, shape or dims is a no-op and is skipped.

    ``op`` is BLAS ``matmul``, except where a diagonal leaf joins along
    exactly one shared axis: that step is a scaling, whose leaf is bound as
    its diagonal vector shaped to broadcast over the other operand's matrix
    view.  Any other diagonal leaf (an outer product, or one sharing both
    axes) is bound as its dense diagonal matrix; a step that consumes one
    along a shared axis still costs as a scaling.
    """
    sizes = diagram.axis_sizes
    nodes = diagram.nodes
    axes = list(diagram.node_axis_ids)  # per slot: its axes in memory order
    vector_shapes = [None] * len(nodes)

    def view(ids, order, shape):  # transpose and reshape, None if no-ops
        perm = tuple(map(ids.index, order))
        return (None if perm == tuple(range(len(perm))) else perm,
                None if tuple(sizes[aid] for aid in order) == shape else shape)

    steps, program, peak = [], [], 0
    for left, right in splits:
        a, b = left[0], right[0]
        ia, ib = axes[a], axes[b]
        shared = sorted(set(ia) & set(ib))
        free_a = sorted(set(ia) - set(ib))
        free_b = sorted(set(ib) - set(ia))
        m, k, n = (math.prod(sizes[aid] for aid in group)
                   for group in (free_a, shared, free_b))
        diagonal = [len(leaves) == 1 and nodes[leaves[0]].diagonal
                    for leaves in (left, right)]
        scaling = bool(shared) and any(diagonal)
        result_axes = tuple(sorted(free_a + free_b))
        steps.append(PlanStep(left, right,
                              tuple(sizes[aid] for aid in result_axes),
                              m * n if scaling else 2 * m * k * n,
                              result_axes, scaling))
        peak = max(peak, m * n)
        view_a = view(ia, free_a + shared, (m, k))
        view_b = view(ib, shared + free_b, (k, n))
        op = np.matmul
        if len(shared) == 1 and any(diagonal):
            op = _scale
            if diagonal[0]:  # the vector scales the right's rows
                vector_shapes[a], view_a = (k, 1), (None, None)
            else:  # the vector scales the left's columns
                vector_shapes[b], view_b = (k,), (None, None)
        axes[a] = tuple(free_a + free_b)
        dims = tuple(sizes[aid] for aid in axes[a])
        program.append((a, *view_a, b, *view_b, op,
                        None if dims == (m, n) else dims))
    perm = tuple(axes[0].index(aid) for aid in diagram.output_axis_ids)
    return ContractionPlan(diagram, tuple(steps),
                           sum(step.flops for step in steps), peak,
                           tuple(program), tuple(vector_shapes),
                           None if perm == tuple(range(len(perm))) else perm)


def _scale(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """A scaling step: the broadcast product, laid out in C order like the
    ``matmul`` it stands for, so later steps hand BLAS the same strides."""
    return np.multiply(x, y, order="C")


def _bind(cplan: ContractionPlan, data) -> list[np.ndarray]:
    arrays = []
    for i, node in enumerate(cplan.diagram.nodes):
        try:
            arr = data[i]
        except (KeyError, IndexError):
            raise BindingError(
                f"no data bound for node {i} ({node.name!r})") from None
        arr = np.asarray(arr, dtype=np.float64)
        if node.diagonal:
            if arr.shape != (node.dims[0],):
                raise BindingError(
                    f"node {i} is diagonal; bind its diagonal vector of "
                    f"length {node.dims[0]}, got shape {arr.shape}"
                )
            shape = cplan.vector_shapes[i]
            arr = np.diag(arr) if shape is None else arr.reshape(shape)
        elif arr.shape != node.dims:
            raise BindingError(
                f"node {i} ({node.name!r}) expects shape {node.dims}, "
                f"got {arr.shape}"
            )
        arrays.append(arr)
    return arrays


def execute(cplan: ContractionPlan, data) -> np.ndarray:
    """Run a plan on bound node data; diagonal nodes bind their diagonals.

    ``data`` maps node index to an array of the node's declared dims, as a
    mapping or as a sequence in node order.  The
    result carries the diagram's output legs in declared order.  Each step
    is the plan's compiled step: the transposes and reshapes it kept (views
    where the layout allows), then one BLAS ``matmul``, or for a diagonal
    leaf joining along one axis a broadcast scaling by its vector.
    """
    slots = _bind(cplan, data)
    for a, perm_a, shape_a, b, perm_b, shape_b, op, dims in cplan.program:
        x, y = slots[a], slots[b]
        if perm_a:
            x = x.transpose(perm_a)
        if shape_a:
            x = x.reshape(shape_a)
        if perm_b:
            y = y.transpose(perm_b)
        if shape_b:
            y = y.reshape(shape_b)
        x = op(x, y)
        slots[a] = x if dims is None else x.reshape(dims)
        slots[b] = None
    out = slots[0]
    return out if cplan.output_perm is None else out.transpose(cplan.output_perm)


def svdp_diagram(d_out: int, d_in: int, r: int, d_x: int) -> TensorDiagram:
    """Four-node map diagram: frame, diagonal spectrum, frame, input; the
    one-core :func:`sttp_diagram`, with the nodes named u, sigma, v, x."""
    chain = sttp_diagram((d_out,), (d_in,), (1, r, 1), d_x)
    nodes = [replace(node, name=name)
             for node, name in zip(chain.nodes, ("u", "sigma", "v", "x"))]
    return TensorDiagram(nodes, chain.edges, chain.output_legs)


def sttp_diagram(out_factors, in_factors, ranks, d_x: int) -> TensorDiagram:
    """Chain-of-cores map diagram with the input tensorized along d_in.

    ``ranks`` is the global schedule over (out factors, reversed in
    factors).  Node order: U cores outer-to-spectrum, the spectrum, V cores
    spectrum-to-outer, then the tensorized input.  Rank-1 end legs are
    dropped.  Diagrams are cached per shape; treat them as read-only.
    """
    return _chain_diagram(tuple(out_factors), tuple(in_factors), tuple(ranks),
                          d_x)


@lru_cache(maxsize=256)
def _chain_diagram(out_factors, in_factors, ranks, d_x) -> TensorDiagram:
    # the cache compares keys by value, so only a miss converts them to int
    out_factors, in_factors, ranks = (tuple(map(int, key)) for key in
                                      (out_factors, in_factors, ranks))
    d_x = int(d_x)
    for side, factors in (("out_factors", out_factors),
                          ("in_factors", in_factors)):
        if not factors:
            raise ShapeError(f"{side} is empty: each side needs a core")
    d_out_len, d_in_len = len(out_factors), len(in_factors)
    if len(ranks) != d_out_len + d_in_len + 1:
        raise ShapeError("rank schedule length mismatch")
    # per node in chain order: its three-leg dims, name, and the axes that
    # join the node before and the node after it; a V core keeps its stored
    # (rho_{j-1}, n, rho_j) order, so its last axis faces the spectrum
    chain = [((ranks[k], n, ranks[k + 1]), f"u_core_{k + 1}", 0, 2)
             for k, n in enumerate(out_factors)]
    chain.append(((ranks[d_out_len],) * 2, "sigma", 0, 1))
    chain += [((ranks[-j - 1], in_factors[j], ranks[-j - 2]),
               f"v_core_{j + 1}", 2, 0) for j in reversed(range(d_in_len))]
    x_id = len(chain)
    nodes, edges, output = [], [], []
    for i, (dims, name, back, fore) in enumerate(chain):
        # the outer cores lose their rank-1 leg, by position: at r = 1 the
        # interior rank legs are 1 as well and stay
        drop = i in (0, x_id - 1)
        nodes.append(DiagramNode(dims[drop:], i == d_out_len, name))
        if i:
            edges.append((i - 1, prev_fore, i, back - drop))
        prev_fore = fore - drop
        if i < d_out_len:  # a U core's n leg is an output leg
            output.append((i, 1 - drop))
        elif i > d_out_len:  # a V core's n leg joins its axis of x
            edges.append((i, 1 - drop, x_id, x_id - 1 - i))
    nodes.append(DiagramNode((*in_factors, d_x), name="x"))
    output.append((x_id, d_in_len))
    return TensorDiagram(nodes, edges, output)


def naive_flops(params, d_x: int) -> int:
    """Cost of decompressing the matrix first, then multiplying densely.

    ``params`` is a parameter set or its :class:`~.sttp.ChainStructure`
    record; the cost reads only the record.  This includes composing both
    chains left to right (nothing for svdp's one-core chains); the final
    two factors are always scaling the cheaper frame by the spectrum
    (``r * min(d_out, d_in)``), the rank-r frame product (``2 r d_out
    d_in``), and the dense apply (``2 d_out d_in d_x``).
    """
    structure = getattr(params, "structure", params)
    chain = 0
    for shapes in structure.shapes:
        rows = shapes[0][1]
        for r_left, n, r_right in shapes[1:]:
            chain += 2 * rows * r_left * n * r_right
            rows *= n
    d_out = math.prod(structure.out_factors)
    d_in = math.prod(structure.in_factors)
    r = structure.schedule.r
    return (chain + r * min(d_out, d_in) + 2 * r * d_out * d_in
            + 2 * d_out * d_in * d_x)


def apply_map(params, x: np.ndarray) -> np.ndarray:
    """Apply ``y = W x = U (sigma * (V^T x))``, never forming W.

    ``x`` must be a finite real d_in x d_x matrix.  The composed frames
    (:func:`~.sttp.chain_frames`), sigma and ``x`` are bound into the
    four-node diagram, whose plan is FLOP-minimal and cached per shape; the
    value equals the decompress-then-multiply path to floating-point
    accuracy.  An input with no columns gives an empty d_out x 0 result
    without planning.
    """
    x = np.asarray(x)
    if x.dtype.kind not in "biuf":
        raise DomainError("apply_map input must be real")
    x = x.astype(np.float64, copy=False)
    if x.ndim != 2:
        raise ShapeError("apply_map expects a d_in x d_x matrix")
    if x.shape[0] != params.d_in:
        raise ShapeError(
            f"input rows {x.shape[0]} != d_in = {params.d_in}"
        )
    if not np.isfinite(x).all():
        raise DomainError("apply_map input must be finite")
    d_x = x.shape[1]
    if d_x == 0:
        return np.zeros((params.d_out, 0))
    u, v = chain_frames(params)
    sigma = materialize_sigma(params.spectrum)
    diagram = sttp_diagram((params.d_out,), (params.d_in,), (1, params.r, 1),
                           d_x)
    return execute(plan(diagram), (u, sigma, v, x))
