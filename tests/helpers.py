"""Shared test oracles: exhaustive contraction-tree search, the subset-DP
planner, random diagrams, Householder QR, orthonormalize, encode and the
orthonormalize-then-encode init through ``np.linalg.qr``, the one-QR
init through ``np.linalg.qr(mode="raw")``, the sequential reflector sweep,
the row-major
closed-form sweep, the chain composition and its VJP over every core, the
per-frame gradient tape, and the fit loops over parameter objects; and the
random layout fixture."""

import itertools
import math

import numpy as np

from ttspectral import autodiff as ad
from ttspectral import fit as ft
from ttspectral import householder as hh
from ttspectral import planner as pl
from ttspectral import sttp
from ttspectral.dense import MAX_MAGNITUDE
from ttspectral.schemes import SCHEMES
from ttspectral.errors import DivergenceError, DomainError, ShapeError
from ttspectral.spectral import (
    init_spectrum,
    lipschitz_bound,
    normalize_spectrum,
    stable_rank_from_spectrum,
)
from ttspectral.sttp import core_specs
from ttspectral.svdp import SvdpParams


def brute_force_min_cost(diagram):
    """Enumerate every binary contraction tree and return the minimal cost."""
    n = len(diagram.nodes)
    sizes = diagram.axis_sizes
    node_mask = []
    for ids in diagram.node_axis_ids:
        m = 0
        for a in ids:
            m |= 1 << a
        node_mask.append(m)

    def mask_prod(mask):
        p, i = 1, 0
        while mask:
            if mask & 1:
                p *= sizes[i]
            mask >>= 1
            i += 1
        return p

    diag = {i for i, nd in enumerate(diagram.nodes) if nd.diagonal}
    best = [math.inf]

    def rec(items, acc):
        if len(items) == 1:
            best[0] = min(best[0], acc)
            return
        if acc >= best[0]:
            return
        for i, j in itertools.combinations(range(len(items)), 2):
            (la, oa), (lb, ob) = items[i], items[j]
            shared = oa & ob
            if shared and (
                (len(la) == 1 and next(iter(la)) in diag)
                or (len(lb) == 1 and next(iter(lb)) in diag)
            ):
                c = mask_prod(oa ^ ob)
            else:
                c = 2 * mask_prod(oa | ob)
            rest = [items[k] for k in range(len(items)) if k not in (i, j)]
            rest.append((la | lb, oa ^ ob))
            rec(rest, acc + c)

    rec([(frozenset({i}), node_mask[i]) for i in range(n)], 0)
    return best[0]


def subset_dp_plan(diagram):
    """Exact plan by dynamic programming over every node subset, O(3^n).

    Returns ``(total_flops, steps)`` with ``steps`` the ``(left, right)``
    leaf-id pairs of the optimal step sequence, under the planner's cost
    model and tie-break (lexicographically smallest step sequence, left
    operand holding the smaller minimum).
    """
    n = len(diagram.nodes)
    sizes = diagram.axis_sizes
    node_mask = []
    for ids in diagram.node_axis_ids:
        m = 0
        for aid in ids:
            m |= 1 << aid
        node_mask.append(m)

    def bits(mask):
        return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)

    prod_memo = {0: 1}

    def mask_prod(mask):
        got = prod_memo.get(mask)
        if got is None:
            low = mask & -mask
            got = sizes[low.bit_length() - 1] * mask_prod(mask ^ low)
            prod_memo[mask] = got
        return got

    full = (1 << n) - 1
    open_mask = [0] * (full + 1)
    cost = [0] * (full + 1)
    steps = [()] * (full + 1)
    for i in range(n):
        open_mask[1 << i] = node_mask[i]
    diag_singletons = {
        1 << i for i, node in enumerate(diagram.nodes) if node.diagonal
    }
    for s in range(1, full + 1):
        low = s & (s - 1)
        if low:
            open_mask[s] = open_mask[low] ^ open_mask[s & -s]
        if s.bit_count() < 2:
            continue
        best_cost = -1
        best_steps = None
        a = (s - 1) & s
        while a:
            b = s ^ a
            if a < b:
                oa, ob = open_mask[a], open_mask[b]
                if oa & ob and (a in diag_singletons or b in diag_singletons):
                    c = mask_prod(oa ^ ob)
                else:
                    c = 2 * mask_prod(oa | ob)
                total = cost[a] + cost[b] + c
                if best_steps is None or total <= best_cost:
                    left, right = (a, b) if (a & -a) < (b & -b) else (b, a)
                    cand = steps[left] + steps[right] + (
                        (bits(left), bits(right)),
                    )
                    if (best_steps is None or total < best_cost
                            or cand < best_steps):
                        best_cost, best_steps = total, cand
            a = (a - 1) & s
        cost[s], steps[s] = best_cost, best_steps
    return cost[full], steps[full]


def random_chain_diagram(rng, n_nodes, with_diagonal=False):
    """A random connected diagram: a chain plus random extra open legs."""
    nodes = []
    edges = []
    sizes = [int(rng.integers(1, 5)) for _ in range(n_nodes - 1)]
    for i in range(n_nodes):
        dims = []
        if i > 0:
            dims.append(sizes[i - 1])
        if i < n_nodes - 1:
            dims.append(sizes[i])
        for _ in range(int(rng.integers(0, 2)) + (not dims)):
            dims.append(int(rng.integers(1, 5)))
        nodes.append(pl.DiagramNode(tuple(dims)))
    if with_diagonal and n_nodes >= 3:
        k = int(rng.integers(1, n_nodes - 1))
        size = sizes[k - 1]
        sizes[k] = size
        nodes[k] = pl.DiagramNode((size, size), diagonal=True)
        dims = list(nodes[k + 1].dims)
        dims[0] = size
        nodes[k + 1] = pl.DiagramNode(tuple(dims), nodes[k + 1].diagonal)
    for i in range(n_nodes - 1):
        left_axis = 1 if i > 0 else 0
        edges.append((i, left_axis, i + 1, 0))
    taken = {(a, b) for e in edges for a, b in ((e[0], e[1]), (e[2], e[3]))}
    output = [
        (i, a)
        for i, node in enumerate(nodes)
        for a in range(len(node.dims))
        if (i, a) not in taken
    ]
    return pl.TensorDiagram(nodes, edges, output)


def one_shot_einsum(diagram, data):
    """Single-expression contraction of a whole diagram (dense oracle)."""
    operands = []
    for i, node in enumerate(diagram.nodes):
        arr = np.asarray(data[i], dtype=np.float64)
        if node.diagonal:
            arr = np.diag(arr)
        operands.append(arr)
        operands.append(list(diagram.node_axis_ids[i]))
    operands.append(list(diagram.output_axis_ids))
    return np.einsum(*operands, optimize=True)


def unit_top_target(shape, seed):
    """Standard-normal matrix rescaled so its top singular value is 1."""
    from ttspectral.dense import svd_full

    rng = np.random.default_rng(seed)
    t = rng.standard_normal(shape)
    return t / svd_full(t)[1][0]


def householder_qr(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Householder QR of a d x r matrix with d >= r.

    Returns ``(reflectors, R)`` where column ``i`` of ``reflectors`` is the
    unit reflector vector of step ``i`` (zero above row ``i``) and ``R`` is
    upper triangular.  The cancellation-avoiding sign is used, so
    ``R[i, i] = -sign(x_1) * ||x||`` at each step ``i`` (``sign(0)`` taken as
    ``+1``).  A zero subcolumn yields a zero reflector column, read as "no
    reflection"; this keeps the factorization defined for rank-deficient
    input.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError("householder_qr expects a matrix")
    d, r = m.shape
    if d < r:
        raise DomainError(f"householder_qr needs d >= r, got {d} x {r}")
    a = m.copy()
    reflectors = np.zeros((d, r))
    for i in range(r):
        x = a[i:, i]
        norm_x = float(np.linalg.norm(x))
        if norm_x == 0.0:
            continue  # zero reflector, R[i, i] stays 0
        sign = -1.0 if x[0] < 0 else 1.0
        alpha = -sign * norm_x
        v = x.copy()
        v[0] -= alpha
        norm_v = float(np.linalg.norm(v))
        if norm_v == 0.0:
            continue
        u = v / norm_v
        a[i:, :] -= 2.0 * np.outer(u, u @ a[i:, :])
        a[i, i] = alpha  # exact by construction of the reflector
        a[i + 1 :, i] = 0.0
        reflectors[i:, i] = u
    return reflectors, np.triu(a[:r, :])


def layout_from_dense(mat, d, r, variant=hh.FULL):
    """The layout holding the free cells of a raw canvas of at least
    ``d x r``; structural cells are ignored."""
    layout = hh.make_layout(d, r, variant)
    return layout.with_params(np.asarray(mat, dtype=np.float64)[
        layout.free_cells()])


def memory_layouts(m):
    """``m`` C-ordered, F-ordered and as a strided view (every other row
    and column of a NaN-filled array twice its size), by name."""
    m = np.ascontiguousarray(m, dtype=np.float64)
    big = np.full((2 * m.shape[0], 2 * m.shape[1]), np.nan)
    big[::2, ::2] = m
    return {"C": m, "F": np.asfortranarray(m), "strided": big[::2, ::2]}


def reference_orthonormalize(m):
    """Sign-fixed orthonormalization through ``np.linalg.qr``."""
    q, rmat = np.linalg.qr(np.asarray(m, dtype=np.float64))
    return q * np.where(np.diag(rmat) < 0, -1.0, 1.0)


def reference_encode_as(q, variant=hh.FULL):
    """Encode through ``np.linalg.qr(mode="raw")``: the full layout of the
    geqrf canvas, re-gathered into a reduced one through its dense canvas."""
    q = np.asarray(q, dtype=np.float64)
    hh.check_frame(q)
    d, r = q.shape
    cells, signs = reference_qr_cells(q, variant)
    return hh.make_layout(d, r, variant, cells), signs


def reference_draw(init_scheme, d, r, seed):
    """The d x r matrix an init scheme draws from a per-core seed."""
    m = np.eye(d, r)
    if init_scheme == "random_orthogonal":
        return np.random.default_rng(seed).standard_normal((d, r))
    if init_scheme == "noisy_identity":
        m = m + hh.INIT_ALPHA * np.random.default_rng(seed).standard_normal(
            (d, r))
    return m


def reference_qr_cells(m, variant=hh.FULL):
    """Free cells and column signs of one ``np.linalg.qr(mode="raw")`` of
    ``m``, gathered through a full layout."""
    d, r = m.shape
    h, tau = np.linalg.qr(m, mode="raw")  # geqrf; h.T is its output
    signs = np.sign(np.diag(h.T))
    signs[tau == 0] *= -1.0
    layout = layout_from_dense(h.T, d, r, hh.FULL)
    if variant == hh.REDUCED:
        layout = layout_from_dense(layout.dense(), d, r, hh.REDUCED)
    return layout.params, signs


def reference_init_params(scheme, d_out, d_in, r, mode, seed,
                          init_scheme="noisy_identity", one_qr=True):
    """``init_svdp_params``/``init_sttp_params`` through ``np.linalg.qr``:
    each core's drawn matrix, rows flipped by the carried signs, taken
    through one :func:`reference_qr_cells` (``one_qr``), or orthonormalized
    by :func:`reference_orthonormalize` first (the identity is a frame
    already) and the frame encoded by :func:`reference_encode_as`, the
    orthonormalize-then-encode route."""
    structure = SCHEMES[scheme].structure(d_out, d_in, r, mode)
    rng = np.random.default_rng(seed)
    sides = []
    for specs in structure.specs:
        layouts, carry = [], np.ones(1)
        for spec in specs:
            m = reference_draw(init_scheme, *spec.frame_dims,
                               int(rng.integers(2**32)))
            if not one_qr and init_scheme != "identity":
                m = reference_orthonormalize(m)
            flipped = m * np.repeat(carry, spec.shape[1])[:, None]
            if one_qr:
                cells, carry = reference_qr_cells(flipped, spec.variant)
                layout = hh.make_layout(*spec.frame_dims, spec.variant, cells)
            else:
                layout, carry = reference_encode_as(flipped, spec.variant)
            layouts.append(layout)
        sides.append((tuple(layouts), carry))
    (u_layouts, su), (v_layouts, sv) = sides
    spectrum = init_spectrum(mode, r, su * sv)
    if scheme == "svdp":
        return SvdpParams(d_out, d_in, r, *u_layouts, *v_layouts, spectrum)
    return sttp.SttpParams(d_out, d_in, r, u_layouts, v_layouts, spectrum)


def reflectors_to_frame(reflectors: np.ndarray, r: int | None = None) -> np.ndarray:
    """Apply the reflector product to a truncated identity, giving Q (d x r)."""
    d, k = reflectors.shape
    if r is None:
        r = k
    q = np.eye(d, r)
    for i in range(k - 1, -1, -1):
        u = reflectors[:, i]
        if not u.any():
            continue
        q -= 2.0 * np.outer(u, u @ q)
    return q


def padded_canvas(layout, d_pad, r_pad):
    """The row-major canvas of ``layout`` padded by hand to ``d_pad x
    r_pad``: ``eye(d_pad, r_pad)`` plus its free cells, the canvas
    ``decode_batch`` sweeps for a member of a batch whose largest dims are
    ``(d_pad, r_pad)``."""
    canvas = np.eye(d_pad, r_pad)
    canvas[layout.free_cells()] = layout.params
    return canvas


def decode_fwd(layout, pad=None):
    """Sequential reflector sweep of one layout, on its canvas padded to
    ``pad = (d_pad, r_pad)`` when given, one reflector at a time, saving
    per-reflector intermediates: the reference for the library's
    closed-form decode."""
    mat = padded_canvas(layout, *(pad or (layout.d, layout.r)))
    dp, rp = mat.shape
    q = np.eye(dp, rp)
    saves = []
    for j in range(rp - 1, -1, -1):
        h = mat[:, j]
        norm_h = np.sqrt(np.sum(h * h))
        u = h / norm_h
        saves.append((j, u, norm_h, q))
        q = q - 2.0 * u[:, None] * (u[None, :] @ q)
    return q[: layout.d, : layout.r], saves


def decode_vjp(layout, saves, g_frame):
    """Gradient of one decoded frame w.r.t. the layout's free parameters."""
    dp, rp = saves[0][1].size, len(saves)  # one save per canvas column
    g = np.zeros((dp, rp))
    g[: layout.d, : layout.r] = g_frame
    g_canvas = np.zeros((dp, rp))
    for j, u, norm_h, x in reversed(saves):
        xu = x.T @ u
        gu = -2.0 * (g @ xu + x @ (g.T @ u))
        g_canvas[:, j] = (gu - u * (u @ gu)) / norm_h
        g = g - 2.0 * u[:, None] * (u[None, :] @ g)
    rows, cols = layout.free_cells()
    return g_canvas[rows, cols]


def rowmajor_reflect_sweep(canvases, save=False):
    """The closed-form sweep on raw reflector rows, taking row-major
    (batch, d, r) canvases, transposing them itself and inverting ``T =
    (C C^T) * W`` through ``np.linalg.inv``: the reference for the
    library's column-major kernel, which must equal it bitwise."""
    w, eye = hh._wy_constants(*canvases.shape[1:])
    cols = np.ascontiguousarray(canvases.transpose(0, 2, 1))
    m = np.linalg.inv((cols @ cols.transpose(0, 2, 1)) * w)
    s = m @ cols[:, :, : eye.shape[1]]
    q = eye - cols.transpose(0, 2, 1) @ s
    return (q, (cols, m, s)) if save else q


def rowmajor_reflect_sweep_vjp(saved, g):
    """Gradient of :func:`rowmajor_reflect_sweep`, row-major like its
    canvases."""
    cols, m, s = saved
    w = hh._wy_constants(*g.shape[1:])[0]
    a = m.transpose(0, 2, 1) @ (cols @ g)
    p = (a @ s.transpose(0, 2, 1)) * w
    c_bar = (p + p.transpose(0, 2, 1)) @ cols - s @ g.transpose(0, 2, 1)
    c_bar[:, :, : g.shape[2]] -= a
    return c_bar.transpose(0, 2, 1)


def make_random_layout(d, r, variant, rng):
    """A layout with a standard normal in every free cell."""
    layout = hh.make_layout(d, r, variant)
    return layout.with_params(rng.standard_normal(layout.params.size))


def sweep_groups(layouts):
    """The layout indices of each sweep a :class:`DecodePlan` over
    ``layouts`` runs, in order: the layouts with free cells, one group per
    rank ``r`` for canvases of at most 1024 cells (``d * r``, padded to
    the group's largest ``d``) and one per exact ``(d, r)`` for larger
    ones."""
    groups = {}
    for i, la in enumerate(layouts):
        if la.params.size:
            key = la.r if la.d * la.r <= 1024 else (la.d, la.r)
            groups.setdefault(key, []).append(i)
    return list(groups.values())


def plan_vjp(plan, sweeps, g_frames):
    """Per-layout free-parameter gradients of a :class:`DecodePlan`'s
    decode, given a cotangent on each frame."""
    grad = np.zeros(plan.size)
    plan.vjp(sweeps, g_frames, grad)
    return [grad[start:end] for start, end in plan.spans]


def layout_dims(layouts):
    """The ``(d, r, variant)`` of each layout, as :class:`DecodePlan`
    takes them."""
    return [(la.d, la.r, la.variant) for la in layouts]


def step_program(*params):
    """The :class:`~ttspectral.autodiff.StepProgram` over parameter sets:
    their structure records and spectrum signs."""
    return ad.StepProgram([p.structure for p in params],
                          [p.spectrum.signs for p in params])


def decode_packed(layouts):
    """A :class:`DecodePlan` over layouts packed end to end, and its frames
    and sweeps at the layouts' own parameters."""
    ends = list(itertools.accumulate(la.params.size for la in layouts))
    plan = hh.DecodePlan(layout_dims(layouts), [0, *ends[:-1]])
    frames, sweeps = plan.decode(
        np.concatenate([np.zeros(0), *(la.params for la in layouts)]))
    return plan, frames, sweeps


def library_decode_fwd(layout):
    """The library's saving decode of one layout on its own."""
    plan, (q,), sweeps = decode_packed([layout])
    return q, (plan, sweeps)


def library_decode_vjp(layout, saves, g_frame):
    """The library's decode gradient of one layout on its own."""
    return plan_vjp(*saves, [g_frame])[0]


def reference_compose_chain(frames, shapes):
    """Compose every core's frame left to right, fixed ones included: the
    composed block and the running blocks."""
    b = frames[0]
    blocks = [b]
    for frame, (r_left, n, r_right) in zip(frames[1:], shapes[1:]):
        b = (b @ frame.reshape(r_left, n * r_right)).reshape(-1, r_right)
        blocks.append(b)
    return b, blocks


def reference_chain_vjp(frames, shapes, blocks, g_total):
    """Per-frame gradients of :func:`reference_compose_chain`, down to
    frame 0 whether it has free cells or not."""
    g_frames = [None] * len(frames)
    g = g_total
    for k in range(len(frames) - 1, 0, -1):
        r_left, n, r_right = shapes[k]
        b_prev = blocks[k - 1]
        g_flat = g.reshape(b_prev.shape[0], n * r_right)
        g_frames[k] = (b_prev.T @ g_flat).reshape(r_left * n, r_right)
        g = g_flat @ frames[k].reshape(r_left, n * r_right).T
    g_frames[0] = g
    return g_frames


def reference_frames(params):
    """``(u, v)`` of any parameter set: every layout decoded, each side
    composed by :func:`reference_compose_chain`."""
    return tuple(reference_compose_chain([hh.decode(la) for la in layouts],
                                         shapes)[0]
                 for layouts, shapes in zip((params.u_layouts,
                                             params.v_layouts),
                                            params.structure.shapes))


def per_frame_tape(params, g_w, fwd=decode_fwd, vjp=decode_vjp):
    """Assembly and gradient with every layout decoded and pulled back alone,
    through ``fwd``/``vjp`` (the sequential sweep by default).

    Each side is composed, and pulled back, over every core by
    :func:`reference_compose_chain` and :func:`reference_chain_vjp`.
    Returns ``(w, frames, grad)``: the matrix, every frame in pack order, and
    the flat gradient of ``<g_w, W>``.
    """
    if isinstance(params, SvdpParams):
        sides = [([params.u_layout], [None]), ([params.v_layout], [None])]
    else:
        specs = core_specs(params.out_fac, params.in_fac, params.r,
                           params.spectrum.mode)
        sides = [(layouts, [spec.shape for spec in side_specs])
                 for layouts, side_specs
                 in zip((params.u_layouts, params.v_layouts), specs)]
    sp = params.spectrum
    sigma, sigma_save = normalize_spectrum(sp.s, sp.signs)
    decoded = [[fwd(la) for la in layouts] for layouts, _ in sides]
    chains = [reference_compose_chain([q for q, _ in side], shapes)
              for side, (_, shapes) in zip(decoded, sides)]
    (u, _), (v, _) = chains
    w = (u * sigma) @ v.T
    gv_mat = g_w.T @ (u * sigma)
    gwv = g_w @ v
    gu_mat = gwv * sigma
    g_sigma = np.sum(u * gwv, axis=0)
    parts = []
    for (layouts, shapes), side, (_, blocks), g in zip(
            sides, decoded, chains, (gu_mat, gv_mat)):
        g_frames = reference_chain_vjp([q for q, _ in side], shapes, blocks,
                                       g)
        parts.extend(vjp(la, saves, gf)
                     for la, (_, saves), gf in zip(layouts, side, g_frames))
    gs = ad._sigma_vjp(sigma_save, g_sigma)
    if gs is not None:
        parts.append(gs)
    frames = [q for side in decoded for q, _ in side]
    return w, frames, np.concatenate(parts)


def reference_fit_matrix(target, cfg):
    """:func:`ttspectral.fit.fit_matrix` as a loop over parameter objects:
    each step unpacks theta and tapes the new parameters."""
    target = np.asarray(target, dtype=np.float64)
    params = SCHEMES[cfg.scheme].init(*target.shape, cfg.rank,
                                      cfg.spectrum_mode, cfg.seed,
                                      cfg.init_scheme, cfg.lam)
    loss_spec = ad.FrobeniusLoss(target, cfg.lam)
    theta = ad.pack(params)
    velocity = np.zeros_like(theta)
    lr = cfg.effective_lr
    trace = []
    best_loss, best_theta, best_step = math.inf, theta.copy(), 0
    for step in range(cfg.max_steps):
        if (np.abs(theta) <= MAX_MAGNITUDE).all():
            p = ad.unpack(params, theta)
            loss, grad, _ = step_program(p).loss_and_grad(ad.pack(p),
                                                          loss_spec)
        else:  # no parameter object holds it
            loss = math.nan
        trace.append(loss)
        if not math.isfinite(loss) or loss > ft.DIVERGENCE_LIMIT:
            raise DivergenceError(
                f"loss {loss:.3e} diverged at step {step}; try a smaller "
                f"learning rate than {lr}"
            )
        if loss < best_loss:
            best_loss, best_theta, best_step = loss, theta.copy(), step
        if step > 0 and abs(trace[-2] - loss) <= cfg.tol * max(1.0, trace[-2]):
            break
        velocity = cfg.momentum * velocity + grad
        theta = theta - lr * velocity
    return ft.FitResult(ad.unpack(params, best_theta), trace, best_loss,
                        best_step)


def reference_demo_train(cfg, seed, d_in=6, hidden=8, d_out=4, n_samples=64,
                         steps=None):
    """:func:`ttspectral.fit.demo_train` as a loop over parameter objects:
    each step unpacks and tapes each layer and pulls it back on its own."""
    steps = cfg.max_steps if steps is None else steps
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((d_in, n_samples))
    truth = ft._lipschitz_one_map(rng, d_out, hidden, d_in)
    y = truth(x) + 0.01 * rng.standard_normal((d_out, n_samples))
    protos = [SCHEMES[cfg.scheme].init(rows, cols, cfg.rank, cfg.spectrum_mode,
                                       seed + k, cfg.init_scheme, cfg.lam)
              for k, (rows, cols) in enumerate(((hidden, d_in),
                                                (d_out, hidden)), 1)]
    theta = [ad.pack(p) for p in protos]
    velocity = [np.zeros_like(t) for t in theta]
    lr = cfg.effective_lr
    report = ft.TrainReport()
    for step in range(steps):
        if not all((np.abs(t) <= MAX_MAGNITUDE).all() for t in theta):
            # no parameter object holds it
            raise DivergenceError(
                f"demo loss {math.nan:.3e} diverged at step {step}")
        w1, tape1 = ad.assemble_with_tape(ad.unpack(protos[0], theta[0]))
        w2, tape2 = ad.assemble_with_tape(ad.unpack(protos[1], theta[1]))
        pre = w1 @ x
        h = np.maximum(pre, 0.0)
        resid = w2 @ h - y
        loss = 0.5 * float(np.sum(resid * resid)) / n_samples
        g_out = resid / n_samples
        g_w2 = g_out @ h.T
        g_w1 = (w2.T @ g_out) * (pre > 0) @ x.T
        g_sigma = [None, None]
        if cfg.lam > 0.0:
            for i, tape in enumerate((tape1, tape2)):
                pen, pen_grad = ad._penalty_floored(tape.sigma)
                loss += cfg.lam * pen / n_samples
                g_sigma[i] = cfg.lam * pen_grad / n_samples
        grads = [ad._vjp_full(tape1, g_w1, g_sigma[0]),
                 ad._vjp_full(tape2, g_w2, g_sigma[1])]
        report.losses.append(loss)
        s1, s2 = np.abs(tape1.sigma), np.abs(tape2.sigma)
        report.sigma_max.append((float(s1.max()), float(s2.max())))
        report.stable_ranks.append((
            stable_rank_from_spectrum(tape1.sigma),
            stable_rank_from_spectrum(tape2.sigma),
        ))
        report.bounds.append(lipschitz_bound([s1.max(), s2.max()]))
        if not math.isfinite(loss) or loss > ft.DIVERGENCE_LIMIT:
            raise DivergenceError(
                f"demo loss {loss:.3e} diverged at step {step}"
            )
        for i in range(2):
            velocity[i] = cfg.momentum * velocity[i] + grads[i]
            theta[i] = theta[i] - lr * velocity[i]
    return report
