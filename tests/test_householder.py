"""Frame parameterizations: layouts, decode/encode, batching, initialization."""

import copy
import dataclasses
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ttspectral import householder as hh
from ttspectral.autodiff import pack
from ttspectral.dense import MAX_MAGNITUDE, inv
from ttspectral.errors import DomainError, ShapeError
from ttspectral.schemes import SCHEMES
from ttspectral.spectrum_modes import IDENTITY, LEARNED

from helpers import (
    decode_fwd,
    decode_packed,
    decode_vjp,
    householder_qr,
    layout_dims,
    layout_from_dense,
    library_decode_fwd,
    library_decode_vjp,
    make_random_layout,
    memory_layouts,
    padded_canvas,
    plan_vjp,
    reference_encode,
    reference_orthonormalize,
    reference_qr_cells,
    rowmajor_reflect_sweep,
    rowmajor_reflect_sweep_vjp,
)


def gram_residual(q):
    return np.linalg.norm(q.T @ q - np.eye(q.shape[1]))


COUNT_SHAPES = [(d, r, variant) for d, r in [(4, 2), (8, 3), (16, 16), (5, 1)]
                for variant in (hh.FULL, hh.REDUCED)]


def _unpack_builder(scheme, mode):
    """A set of ``scheme`` made now, and the call that unpacks it again."""
    p = SCHEMES[scheme].random(16, 72, 4, mode, 0)
    return lambda: SCHEMES[scheme].unpack(p.structure, pack(p), p.spectrum)


# each entry prepares, then returns the call that builds layouts
LAYOUT_BUILDERS = {
    "make_layout": lambda: lambda: [hh.make_layout(*key)
                                    for key in COUNT_SHAPES],
    "constructor": lambda: lambda: [
        hh.HouseholderLayout(*key, np.ones(hh.dof(*key)))
        for key in COUNT_SHAPES],
    **{f"SCHEMES[{scheme!r}].unpack-{mode}":
       lambda scheme=scheme, mode=mode: _unpack_builder(scheme, mode)
       for scheme in SCHEMES for mode in (LEARNED, IDENTITY)},
}


class TestLayoutCounts:
    @pytest.mark.parametrize("name", sorted(LAYOUT_BUILDERS))
    def test_building_counts_cells_without_the_structure_cache(self, name):
        build = LAYOUT_BUILDERS[name]()
        hh._structure.cache_clear()
        assert build()
        info = hh._structure.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)

    @pytest.mark.parametrize("d,r", [(4, 2), (8, 3), (16, 16), (5, 1)])
    def test_dof_matches_mask(self, d, r):
        for variant in (hh.FULL, hh.REDUCED):
            assert hh.dof(d, r, variant) == int(
                hh.layout_mask(d, r, variant).sum()
            )

    def test_full_4x2(self):
        # count shaded cells by hand: col 1 rows 2..4, col 2 rows 3..4
        assert hh.dof(4, 2, hh.FULL) == 5

    def test_reduced_4x2(self):
        # col 1 rows 3..4, col 2 rows 3..4
        assert hh.dof(4, 2, hh.REDUCED) == 4

    @pytest.mark.parametrize("r", [1, 2, 3, 5, 8])
    def test_square_frames(self, r):
        assert hh.dof(r, r, hh.FULL) == r * (r - 1) // 2
        assert hh.dof(r, r, hh.REDUCED) == 0

    def test_r_exceeds_d(self):
        with pytest.raises(DomainError):
            hh.dof(2, 3, hh.FULL)

    def test_param_order_column_major(self):
        layout = hh.make_layout(4, 2, hh.FULL,
                                params=[10.0, 20.0, 30.0, 40.0, 50.0])
        canvas = layout.dense()
        assert list(canvas[1:, 0]) == [10.0, 20.0, 30.0]
        assert list(canvas[2:, 1]) == [40.0, 50.0]


class TestDecode:
    def test_single_reflector_zero_params(self):
        layout = hh.make_layout(3, 1, hh.FULL)
        q = hh.decode(layout)
        assert np.allclose(q, [[-1.0], [0.0], [0.0]])

    def test_single_reflector_hand_case(self):
        # h = (1, 1, 0): u = h/sqrt(2); q = e1 - 2 u (u . e1) = (0, -1, 0)
        layout = hh.make_layout(3, 1, hh.FULL, params=[1.0, 0.0])
        q = hh.decode(layout)
        assert np.allclose(q, [[0.0], [-1.0], [0.0]], atol=1e-15)

    def test_all_zero_params_composes_sign_flips(self):
        # every reflector is a coordinate flip: Q = -I_{3x2}
        layout = hh.make_layout(3, 2, hh.FULL)
        assert np.allclose(hh.decode(layout), -np.eye(3, 2), atol=1e-15)

    @pytest.mark.parametrize("d,r", [(4, 2), (8, 3), (16, 8), (12, 12)])
    @pytest.mark.parametrize("variant", [hh.FULL, hh.REDUCED])
    def test_orthonormal_for_random_params(self, d, r, variant):
        rng = np.random.default_rng(d * 100 + r)
        for _ in range(20):
            layout = make_random_layout(d, r, variant, rng)
            assert gram_residual(hh.decode(layout)) <= 1e-10

    def test_reduced_leading_block_upper_triangular(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            layout = make_random_layout(9, 4, hh.REDUCED, rng)
            q = hh.decode(layout)
            below = q[:4, :4][np.tril_indices(4, -1)]
            assert np.max(np.abs(below)) <= 1e-12

    def test_structural_cells_ignore_garbage(self):
        # adversarial canvas: nonzero values in every structural cell are
        # discarded at construction, so they cannot leak into the frame
        canvas = np.random.default_rng(3).standard_normal((5, 2)) * 10
        layout = layout_from_dense(canvas, 5, 2, hh.FULL)
        structural = ~hh.layout_mask(5, 2, hh.FULL)
        assert np.array_equal(layout.dense()[structural],
                              np.eye(5, 2)[structural])
        assert gram_residual(hh.decode(layout)) <= 1e-10

    def test_frame_norm_constant(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            layout = make_random_layout(7, 3, hh.FULL, rng)
            q = hh.decode(layout)
            assert np.linalg.norm(q) ** 2 == pytest.approx(3.0, abs=1e-12)

    def test_locally_injective_jacobian_full_rank(self):
        # finite-difference Jacobian has column rank == dof
        from ttspectral.dense import svd_full

        for d, r, variant in [(6, 3, hh.FULL), (8, 4, hh.REDUCED),
                              (5, 2, hh.FULL)]:
            rng = np.random.default_rng(d + r)
            layout = make_random_layout(d, r, variant, rng)
            n = layout.params.size
            jac = np.empty((d * r, n))
            h = 1e-6
            for i in range(n):
                up = layout.params.copy()
                up[i] += h
                down = layout.params.copy()
                down[i] -= h
                diff = hh.decode(hh.make_layout(d, r, variant, up)) - \
                    hh.decode(hh.make_layout(d, r, variant, down))
                jac[:, i] = diff.ravel() / (2 * h)
            _, s, _ = svd_full(jac)
            assert s[-1] > 1e-7 * s[0]


class TestDecodePlan:
    def test_dense_copies_the_cached_base(self):
        rng = np.random.default_rng(30)
        layout = make_random_layout(7, 3, hh.FULL, rng)
        canvas = layout.dense()
        expected = np.eye(7, 3)
        expected[layout.free_cells()] = layout.params
        assert np.array_equal(canvas, expected)
        canvas[:] = 5.0  # a fresh writable array; the cache is untouched
        assert np.array_equal(layout.dense(), expected)

    def test_reads_theta_at_offsets_and_writes_the_gradient_back(self):
        # two layouts of one shape and one of another, at scattered offsets
        rng = np.random.default_rng(31)
        layouts = [make_random_layout(9, 3, hh.FULL, rng),
                   make_random_layout(6, 2, hh.REDUCED, rng),
                   make_random_layout(9, 3, hh.FULL, rng),
                   hh.make_layout(4, 4, hh.REDUCED)]
        offsets = [50, 2, 20, 40]
        theta = np.full(80, np.nan)
        for la, pos in zip(layouts, offsets):
            theta[pos: pos + la.params.size] = la.params
        plan = hh.DecodePlan(layout_dims(layouts), offsets)
        frames, sweeps = plan.decode(theta)
        assert len(sweeps) == 2
        for frame, la in zip(frames, layouts):
            assert np.array_equal(frame, hh.decode(la))
        g_frames = [rng.standard_normal(f.shape) for f in frames]
        grad = np.full(80, np.nan)
        plan.vjp(sweeps, g_frames, grad)
        packed, _, packed_sweeps = decode_packed(layouts)
        per_layout = plan_vjp(packed, packed_sweeps, g_frames)
        for g, la, pos in zip(per_layout, layouts, offsets):
            assert np.array_equal(grad[pos: pos + la.params.size], g)
        assert np.count_nonzero(~np.isnan(grad)) == \
            sum(la.params.size for la in layouts)

    def test_empty_layout_list(self):
        plan = hh.DecodePlan([], [])
        frames, sweeps = plan.decode(np.zeros(0))
        assert frames == [] and plan_vjp(plan, sweeps, []) == []


class TestImmutableLayout:
    def test_source_arrays_do_not_alias_the_layout(self):
        rng = np.random.default_rng(40)
        theta = rng.standard_normal(hh.dof(5, 2, hh.FULL))
        q = reference_orthonormalize(rng.standard_normal((5, 2)))
        built = {  # encode first: the loop shifts q off orthonormal
            "encode": lambda: hh.encode(q, hh.FULL)[0],
            "make_layout": lambda: hh.make_layout(5, 2, hh.FULL, theta),
        }
        for name, build in built.items():
            layout = build()
            params, frame = layout.params.copy(), hh.decode(layout).copy()
            theta += 1.0
            q += 1.0
            assert np.array_equal(layout.params, params), name
            assert np.array_equal(hh.decode(layout), frame), name
            assert np.array_equal(hh.decode(hh.make_layout(
                5, 2, hh.FULL, layout.params)), frame), name

    def test_params_are_read_only(self):
        layout = make_random_layout(6, 3, hh.REDUCED,
                                    np.random.default_rng(41))
        assert not layout.params.flags.writeable
        with pytest.raises(ValueError):
            layout.params[0] = 1.0

    @pytest.mark.parametrize("variant", [hh.FULL, hh.REDUCED])
    def test_decode_memoizes_the_read_only_frame(self, variant):
        layout = make_random_layout(7, 3, variant, np.random.default_rng(42))
        q = hh.decode(layout)
        assert hh.decode(layout) is q
        assert not q.flags.writeable
        fresh = hh._reflect_sweep(layout.dense().T[None])[0]
        assert q.shape == fresh.shape == (7, 3)
        assert q.tobytes() == fresh.tobytes()
        with pytest.raises(ValueError):
            q[0, 0] = 0.0

    @pytest.mark.parametrize("clone", [
        lambda la: pickle.loads(pickle.dumps(la)), copy.deepcopy, copy.copy],
        ids=["pickle", "deepcopy", "copy"])
    def test_pickle_and_copy_rebuild_through_the_constructor(self, clone):
        layout = make_random_layout(8, 3, hh.FULL, np.random.default_rng(43))
        q = hh.decode(layout)
        twin = clone(layout)
        assert "_frame" not in vars(twin)
        assert not twin.params.flags.writeable
        assert twin.params.tobytes() == layout.params.tobytes()
        assert [f.name for f in dataclasses.fields(twin)] == [
            "d", "r", "variant", "params"]
        assert (twin.d, twin.r, twin.variant) == (8, 3, hh.FULL)
        got = hh.decode(twin)
        assert not got.flags.writeable
        assert got.tobytes() == q.tobytes()

    def test_decode_checks_a_swept_frame_once(self, monkeypatch):
        checked = []
        check = hh.check_frame
        monkeypatch.setattr(hh, "check_frame",
                            lambda q: checked.append(q) or check(q))
        layout = make_random_layout(7, 3, hh.FULL, np.random.default_rng(45))
        q = hh.decode(layout)
        assert hh.decode(layout) is q
        assert len(checked) == 1 and checked[0] is q

    def test_decode_rejects_a_swept_frame_that_is_not_orthonormal(
            self, monkeypatch):
        sweep = hh._reflect_sweep
        monkeypatch.setattr(hh, "_reflect_sweep",
                            lambda canvases: 1.5 * sweep(canvases))
        layout = make_random_layout(7, 3, hh.FULL, np.random.default_rng(46))
        with pytest.raises(DomainError, match="not orthonormal"):
            hh.decode(layout)

    @pytest.mark.parametrize("d,r,variant", [
        (4, 4, hh.REDUCED), (1, 1, hh.FULL), (1, 1, hh.REDUCED)])
    def test_decode_without_free_cells_shares_the_fixed_frame(
            self, d, r, variant):
        layout = hh.make_layout(d, r, variant)
        fixed = hh._structure(d, r, variant)[2]
        assert hh.decode(layout) is fixed
        assert hh.decode(hh.make_layout(d, r, variant)) is fixed
        fresh = hh._reflect_sweep(layout.dense().T[None])[0]
        assert fixed.tobytes() == fresh.tobytes()

    def test_decode_batch_frames_stay_fresh_and_writable(self):
        layout = make_random_layout(6, 2, hh.FULL, np.random.default_rng(44))
        q = hh.decode(layout)
        first, second = hh.decode_batch([layout, layout])
        for frame in (first, second):
            assert frame.flags.writeable
            assert frame is not q
            assert np.array_equal(frame, q)
        first *= -1.0
        assert np.array_equal(second, q)
        assert np.array_equal(hh.decode(layout), second)


class TestClosedFormDecode:
    """The UT-transform decode against the sequential reflector sweep."""

    @staticmethod
    def library_padded(layout, pad, g_frame):
        """Frame and free-cell gradient of the library's sweep kernels on
        the layout's canvas padded by hand to ``pad``."""
        d, r = layout.d, layout.r
        cols = np.ascontiguousarray(padded_canvas(layout, *pad).T)[None]
        q, saved = hh._reflect_sweep(cols, save=True)
        g = np.zeros(q.shape)
        g[0, :d, :r] = g_frame
        grad = hh._reflect_sweep_vjp(saved, g)[0].T
        return q[0, :d, :r], grad[layout.free_cells()]

    def check_against_sweep(self, layout, g_frame, pad=None):
        if pad is None:
            q, saves = library_decode_fwd(layout)
            grad = library_decode_vjp(layout, saves, g_frame)
        else:
            q, grad = self.library_padded(layout, pad, g_frame)
        q_ref, saves_ref = decode_fwd(layout, pad)
        grad_ref = decode_vjp(layout, saves_ref, g_frame)
        assert gram_residual(q) <= 1e-12
        assert np.max(np.abs(q - q_ref)) <= 1e-13
        assert np.max(np.abs(grad - grad_ref), initial=0.0) \
            <= 1e-12 * np.max(np.abs(grad_ref), initial=0.0)
        return q

    @given(d=st.integers(1, 40), r_frac=st.floats(0.0, 1.0),
           variant=st.sampled_from([hh.FULL, hh.REDUCED]),
           d_extra=st.integers(0, 3), r_extra=st.integers(0, 3),
           log_scale=st.floats(-3.0, 6.0), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_sequential_sweep(self, d, r_frac, variant, d_extra,
                                      r_extra, log_scale, seed):
        r = 1 + int(r_frac * (d - 1))
        d_pad = d + d_extra
        r_pad = min(r + r_extra, d_pad)
        rng = np.random.default_rng(seed)
        layout = hh.make_layout(d, r, variant, 10.0 ** log_scale
                                * rng.standard_normal(hh.dof(d, r, variant)))
        if (d_pad, r_pad) == (d, r):
            q = self.check_against_sweep(layout, rng.standard_normal((d, r)))
            assert np.array_equal(q, hh.decode(layout))
        else:
            # decode_batch pads the layout so next to a d_pad x r_pad member
            q = self.check_against_sweep(layout, rng.standard_normal((d, r)),
                                         (d_pad, r_pad))
            batch = [layout, hh.make_layout(d_pad, r_pad)]
            assert np.array_equal(q, hh.decode_batch(batch)[0])

    @pytest.mark.parametrize("c", [1e2, 1e3, 1e4, 1e5, 1e6])
    def test_nearly_parallel_reflectors(self, c):
        # every free cell one large constant: the unit reflectors are nearly
        # parallel and T is far from its diagonal
        canvas = np.eye(64, 16)
        canvas[np.tril_indices(64, -1, 16)] = c
        layout = layout_from_dense(canvas, 64, 16)
        rng = np.random.default_rng(int(np.log10(c)))
        self.check_against_sweep(layout, rng.standard_normal((64, 16)))


class TestMagnitudeBound:
    """Decode and its gradient at the layout's magnitude bound, where the
    Gram entries ``c_i . c_j`` of the raw reflectors reach about ``d *
    2**1000``, against the sequential sweep."""

    @staticmethod
    def filled_layout(d, r, variant, fill, rng):
        """Every free cell ``+-MAX_MAGNITUDE`` (``max``), or reflector ``j``
        uniform in ``+-2**k_j``, ``k_j`` uniform in [-60, 500] (``scales``)."""
        cols = hh.make_layout(d, r, variant).free_cells()[1]
        if fill == "max":
            return hh.make_layout(d, r, variant, MAX_MAGNITUDE
                                  * rng.choice([-1.0, 1.0], cols.size))
        scales = 2.0 ** rng.uniform(-60.0, 500.0, r)
        return hh.make_layout(d, r, variant, rng.uniform(-1.0, 1.0, cols.size)
                              * scales[cols])

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("fill", ["max", "scales"])
    @pytest.mark.parametrize("d,r,variant", [
        (4096, 16, hh.FULL), (64, 8, hh.REDUCED), (5, 5, hh.FULL)])
    def test_frames_and_gradients_match_the_sequential_sweep(
            self, d, r, variant, fill, seed):
        rng = np.random.default_rng([d, r, seed])
        layout = self.filled_layout(d, r, variant, fill, rng)
        g = rng.standard_normal((d, r))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = hh.decode(layout)
            q_plan, saves = library_decode_fwd(layout)
            grad = library_decode_vjp(layout, saves, g)
        q_ref, saves_ref = decode_fwd(layout)
        grad_ref = decode_vjp(layout, saves_ref, g)
        assert np.isfinite(q).all() and np.isfinite(grad).all()
        assert q_plan.tobytes() == q.tobytes()
        assert gram_residual(q) <= 1e-10
        assert np.max(np.abs(q - q_ref)) <= 1e-12
        # a canvas gradient's first-order scale, |g| over the shortest
        # reflector; at the bound a gradient far below it loses relative
        # accuracy once T^-1 (about |c|^-2) times the rest underflows
        scale = np.linalg.norm(g) / np.linalg.norm(layout.dense(),
                                                   axis=0).min()
        assert np.max(np.abs(grad - grad_ref)) <= 1e-12 * scale


class TestColumnMajorSweep:
    """The kernel takes column-major canvases and inverts T through the
    LAPACK gufunc directly; the row-major ``np.linalg.inv`` sweep is its
    oracle, forward and backward, bit for bit."""

    @pytest.mark.parametrize("batch", [1, 2, 3])
    @pytest.mark.parametrize("d,r,variant,pad", [
        (7, 3, hh.FULL, None), (7, 3, hh.REDUCED, None),
        (9, 1, hh.FULL, None), (5, 5, hh.FULL, None),
        (6, 6, hh.REDUCED, None), (7, 3, hh.FULL, (10, 5)),
        (12, 4, hh.REDUCED, (12, 8)), (40, 8, hh.FULL, None)])
    @pytest.mark.parametrize("nan", [False, True])
    def test_bitwise_equal_to_the_row_major_oracle(self, d, r, variant, pad,
                                                   batch, nan):
        rng = np.random.default_rng(d * 100 + r * 10 + batch)
        d_pad, r_pad = pad or (d, r)
        rows = np.stack([padded_canvas(make_random_layout(d, r, variant, rng),
                                       d_pad, r_pad)
                         for _ in range(batch)])
        if nan:
            rows[-1, d - 1, 0] = np.nan
        cols = np.ascontiguousarray(rows.transpose(0, 2, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q, saved = hh._reflect_sweep(cols, save=True)
        q_ref, saved_ref = rowmajor_reflect_sweep(rows, save=True)
        assert q.tobytes() == q_ref.tobytes()
        assert hh._reflect_sweep(cols).tobytes() == q.tobytes()
        for got, want in zip(saved, saved_ref):
            assert got.tobytes() == want.tobytes()
        g = rng.standard_normal(q.shape)
        grad = hh._reflect_sweep_vjp(saved, g)
        assert grad.shape == cols.shape
        assert grad.tobytes() == np.ascontiguousarray(
            rowmajor_reflect_sweep_vjp(saved_ref, g).transpose(0, 2, 1)
        ).tobytes()
        assert np.isnan(q[-1]).any() == nan

    @pytest.mark.parametrize("batch,r", [(1, 1), (1, 4), (3, 4), (2, 8),
                                         (5, 16)])
    def test_lapack_inverse_equals_np_linalg_inv(self, batch, r):
        # the stacked T = (C C^T) * W the sweep inverts, on raw rows C
        rng = np.random.default_rng(batch * 10 + r)
        rows = rng.standard_normal((batch, r, 3 * r))
        t = (rows @ rows.transpose(0, 2, 1)) * hh._wy_constants(3 * r, r)[0]
        got = inv(t)
        assert got.tobytes() == np.linalg.inv(t).tobytes()


# mixed batches, each as (d, r, variant) per member
MIXED_BATCHES = {
    "5x2 3x3": [(5, 2, hh.FULL), (3, 3, hh.FULL)],
    "5x2 8x4": [(5, 2, hh.FULL), (8, 4, hh.REDUCED)],
    "7x3 9x4 7x3": [(7, 3, hh.FULL), (9, 4, hh.REDUCED), (7, 3, hh.REDUCED)],
    "3x3 fixed 6x1": [(3, 3, hh.REDUCED), (6, 1, hh.FULL)],
    "1x1 12x4 9x6 4x2": [(1, 1, hh.FULL), (12, 4, hh.FULL),
                         (9, 6, hh.REDUCED), (4, 2, hh.FULL)],
    "72x3 12x3": [(72, 3, hh.FULL), (12, 3, hh.REDUCED)],
}


def mixed_batch(case, seed):
    return [make_random_layout(d, r, variant, np.random.default_rng(seed + k))
            for k, (d, r, variant) in enumerate(MIXED_BATCHES[case])]


class TestDecodeBatch:
    @pytest.mark.parametrize("case", sorted(MIXED_BATCHES))
    def test_mixed_batch_equals_the_row_major_oracle(self, case):
        # the oracle sweeps canvases padded by hand to the batch's largest
        # (d, r): eye(d_pad, r_pad) plus each member's free cells
        layouts = mixed_batch(case, 10)
        d_pad = max(la.d for la in layouts)
        r_pad = max(la.r for la in layouts)
        want = rowmajor_reflect_sweep(np.stack(
            [padded_canvas(la, d_pad, r_pad) for la in layouts]))
        got = hh.decode_batch(layouts)
        for k, (q, la) in enumerate(zip(got, layouts)):
            assert q.shape == (la.d, la.r)
            assert q.tobytes() == want[k, : la.d, : la.r].tobytes()

    @pytest.mark.parametrize("case", sorted(MIXED_BATCHES))
    def test_mixed_batch_frames_are_orthonormal_and_close_to_decode(self,
                                                                    case):
        # padding reorders the Gram sums, so a padded member
        # agrees with its own decode to rounding, not bitwise
        layouts = mixed_batch(case, 20)
        for q, la in zip(hh.decode_batch(layouts), layouts):
            assert gram_residual(q) <= 1e-10
            assert np.max(np.abs(q - hh.decode(la))) <= 1e-13
            if la.variant == hh.REDUCED:
                below = q[: la.r, : la.r][np.tril_indices(la.r, -1)]
                assert np.max(np.abs(below), initial=0.0) <= 1e-12

    @pytest.mark.parametrize("d", [3, 5, 7, 9, 12])
    def test_padded_to_72_rows_agrees_to_rounding(self, d):
        rng = np.random.default_rng(d)
        for variant in (hh.FULL, hh.REDUCED):
            plain = make_random_layout(d, 3, variant, rng)
            q, _ = hh.decode_batch([plain, hh.make_layout(72, 3)])
            assert np.max(np.abs(q - hh.decode(plain))) <= 1e-15

    def test_batch_bitwise_equals_sequential(self):
        rng = np.random.default_rng(6)
        layouts = [make_random_layout(6, 3, v, rng)
                   for v in (hh.FULL, hh.REDUCED, hh.FULL, hh.REDUCED)]
        batch = hh.decode_batch(layouts)
        for la, q in zip(layouts, batch):
            assert np.array_equal(q, hh.decode(la))

    def test_batch_of_one(self):
        rng = np.random.default_rng(7)
        layout = make_random_layout(4, 2, hh.FULL, rng)
        (q,) = hh.decode_batch([layout])
        assert np.array_equal(q, hh.decode(layout))

    def test_empty_batch(self):
        assert hh.decode_batch([]) == []

    def test_frames_without_free_cells_are_writable(self):
        layouts = [hh.make_layout(3, 3, hh.REDUCED) for _ in range(2)]
        qa, qb = hh.decode_batch(layouts)
        qa *= np.array([1.0, -1.0, 1.0])
        assert np.array_equal(qb, hh.decode(layouts[1]))
        assert np.array_equal(hh.decode_batch(layouts)[0], qb)


class TestEncode:
    def test_identity_frame(self):
        layout, signs = hh.encode(np.eye(5, 3))
        assert np.allclose(hh.decode(layout) * signs, np.eye(5, 3), atol=1e-12)

    def test_negated_first_axis(self):
        # hand case d=2, r=1, q = -e1: reflector is e1, R = +1
        layout, signs = hh.encode(np.array([[-1.0], [0.0]]))
        assert signs[0] == 1.0
        assert np.allclose(hh.decode(layout) * signs, [[-1.0], [0.0]])

    @pytest.mark.parametrize("seed", range(20))
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        layout = make_random_layout(9, 4, hh.FULL, rng)
        signs = np.where(rng.integers(0, 2, 4) == 0, -1.0, 1.0)
        q = hh.decode(layout) * signs
        back, back_signs = hh.encode(q)
        assert np.linalg.norm(hh.decode(back) * back_signs - q) <= 1e-10
        assert set(np.unique(back_signs)) <= {-1.0, 1.0}

    def test_non_orthonormal_rejected(self):
        with pytest.raises(DomainError):
            hh.encode(np.ones((4, 2)))

    @given(d=st.integers(1, 40), r_frac=st.floats(0.0, 1.0),
           axis_frac=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_python_qr_oracle(self, d, r_frac, axis_frac, seed):
        # a random frame with random column signs whose columns in ``axes``
        # are exact +-e_j (LAPACK then skips reflector j; the layout's
        # structural 1 reflects it)
        r = 1 + int(r_frac * (d - 1))
        rng = np.random.default_rng(seed)
        axes = rng.random(r) < axis_frac
        rest = np.ones(d, dtype=bool)
        rest[np.flatnonzero(axes)] = False
        q = np.eye(d, r)
        if not axes.all():
            q[np.ix_(rest, ~axes)] = reference_orthonormalize(
                rng.standard_normal((rest.sum(), r - axes.sum())))
        q *= np.where(rng.integers(0, 2, r) == 0, -1.0, 1.0)
        layout, signs = hh.encode(q)
        reflectors, rmat = householder_qr(q)
        assert np.max(np.abs(layout.dense() - reflectors
                             / np.diag(reflectors))) <= 1e-14
        assert np.array_equal(signs, np.sign(np.diag(rmat)))
        assert np.max(np.abs(hh.decode(layout) * signs - q)) <= 1e-14
        with pytest.raises(DomainError):
            hh.encode(q * np.r_[1.0 + 1e-6, np.ones(r - 1)])
        q[rng.integers(d), rng.integers(r)] = np.nan
        with pytest.raises(DomainError):
            hh.encode(q)

    @given(d=st.integers(1, 40), r_frac=st.floats(0.0, 1.0),
           log_eps=st.floats(-16.0, -7.5), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_accepted_frames_have_unit_pivots(self, d, r_frac, log_eps, seed):
        # every frame the check accepts has |R_ii| within 1e-7 of 1, so
        # encode never meets a vanishing pivot
        r = 1 + int(r_frac * (d - 1))
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal((d, r))
        q = reference_orthonormalize(rng.standard_normal((d, r)))
        q = q * (1.0 + 10.0 ** log_eps * rng.standard_normal(r)) \
            + 10.0 ** log_eps * noise / np.linalg.norm(noise)
        try:
            hh.check_frame(q)
        except DomainError:
            assume(False)
        h, _ = np.linalg.qr(q, mode="raw")
        assert np.max(np.abs(np.abs(np.diag(h.T)) - 1.0)) <= 1e-7
        _, signs = hh.encode(q)
        assert set(np.unique(signs)) <= {-1.0, 1.0}

    def test_nan_frame_rejected(self):
        # a NaN residual must fail the check, not slip past ``resid > tol``
        nan_diag = np.eye(4, 2) + np.nan * np.eye(4, 2)
        for q in (np.full((4, 2), np.nan), nan_diag):
            with pytest.raises(DomainError):
                hh.check_frame(q)

    def test_reduced_frame_encodes_with_zero_gauge_cells(self):
        rng = np.random.default_rng(33)
        layout = make_random_layout(8, 3, hh.REDUCED, rng)
        q = hh.decode(layout)
        full, _ = hh.encode(q)
        gauge_cells = hh.layout_mask(8, 3, hh.FULL) & ~hh.layout_mask(
            8, 3, hh.REDUCED
        )
        assert np.max(np.abs(full.dense()[gauge_cells])) <= 1e-12


class TestEncodeMatchesNumpyQr:
    """encode calls the geqrf gufunc and gathers each variant straight from
    its canvas; the ``np.linalg.qr(mode="raw")`` encode that
    re-gathers through a full layout is its oracle, bit for bit."""

    @staticmethod
    def frames(d, r, rng):
        perm = np.eye(d)[rng.permutation(d)][:, :r]
        block = np.zeros((d, r))
        block[: max(r, d - 2)] = reference_orthonormalize(
            rng.standard_normal((max(r, d - 2), r)))
        return (np.eye(d, r), np.eye(d, r) * np.where(np.arange(r) % 2, -1.0,
                                                      1.0),
                perm, block,
                reference_orthonormalize(rng.standard_normal((d, r))),
                reference_orthonormalize(np.eye(d, r) + hh.INIT_ALPHA
                                         * rng.standard_normal((d, r))))

    @pytest.mark.parametrize("order", ["C", "F", "strided"])
    @pytest.mark.parametrize("d,r", [(1, 1), (2, 1), (5, 5), (6, 3), (9, 1),
                                     (16, 4), (72, 4)])
    def test_bits_equal_np_linalg_qr(self, d, r, order):
        rng = np.random.default_rng(d * 100 + r)
        for q in self.frames(d, r, rng):
            q = memory_layouts(q)[order]
            for variant in (hh.FULL, hh.REDUCED):
                layout, signs = hh.encode(q, variant)
                ref, ref_signs = reference_encode(q, variant)
                assert layout.variant == variant
                assert layout.params.tobytes() == ref.params.tobytes()
                assert signs.tobytes() == ref_signs.tobytes()
            layout, signs = hh.encode(q)
            ref, ref_signs = reference_encode(q)
            assert layout.variant == hh.FULL
            assert layout.params.tobytes() == ref.params.tobytes()
            assert signs.tobytes() == ref_signs.tobytes()

    def test_unknown_variant_rejected(self):
        with pytest.raises(DomainError, match="variant"):
            hh.encode(np.eye(4, 2), "upper")


class TestInitLayout:
    """The per-core init: one geqrf of the drawn matrix."""

    def test_identity_scheme(self):
        cells, signs = hh.init_cells("identity", 6, 3, hh.FULL, 0)
        layout = hh.make_layout(6, 3, hh.FULL, cells)
        assert np.allclose(hh.decode(layout) * signs, np.eye(6, 3), atol=1e-10)

    def test_random_orthogonal(self):
        cells, signs = hh.init_cells("random_orthogonal", 10, 4, hh.FULL, 1)
        layout = hh.make_layout(10, 4, hh.FULL, cells)
        assert gram_residual(hh.decode(layout)) <= 1e-10
        # the frame is the draw's orthonormalization, sign-fixed
        m = np.random.default_rng(1).standard_normal((10, 4))
        assert np.max(np.abs(hh.decode(layout) * signs
                             - reference_orthonormalize(m))) <= 1e-14

    def test_noisy_identity_stays_near_identity(self):
        alpha = 1e-4
        for seed in range(50):
            cells, signs = hh.init_cells("noisy_identity", 8, 3, hh.FULL, seed)
            frame = hh.decode(hh.make_layout(8, 3, hh.FULL, cells)) * signs
            assert np.linalg.norm(frame - np.eye(8, 3)) <= 10 * alpha * \
                np.sqrt(8 * 3)

    def test_deterministic(self):
        a = hh.init_cells("noisy_identity", 7, 2, hh.FULL, 42)
        b = hh.init_cells("noisy_identity", 7, 2, hh.FULL, 42)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))

    def test_reduced_variant(self):
        cells, _ = hh.init_cells("identity", 6, 3, hh.REDUCED, 0)
        layout = hh.make_layout(6, 3, hh.REDUCED, cells)
        assert layout.variant == hh.REDUCED
        assert gram_residual(hh.decode(layout)) <= 1e-10

    @pytest.mark.parametrize("scheme", hh.INIT_SCHEMES)
    @pytest.mark.parametrize("variant", [hh.FULL, hh.REDUCED])
    def test_flipped_rows_bitwise_one_numpy_qr(self, scheme, variant):
        rng = np.random.default_rng(7)
        flips = np.where(rng.integers(0, 2, 9) == 0, -1.0, 1.0)
        cells, signs = hh.init_cells(scheme, 9, 3, variant, 5, flips)
        m = np.eye(9, 3)
        if scheme != "identity":
            noise = np.random.default_rng(5).standard_normal((9, 3))
            m = noise if scheme == "random_orthogonal" else \
                m + hh.INIT_ALPHA * noise
        ref_cells, ref_signs = reference_qr_cells(m * flips[:, None], variant)
        assert cells.tobytes() == ref_cells.tobytes()
        assert signs.tobytes() == ref_signs.tobytes()

    def test_unknown_scheme(self):
        with pytest.raises(DomainError, match="init scheme"):
            hh.init_cells("xavier", 4, 2, hh.FULL, 0)

    def test_bad_dims_and_variant(self):
        with pytest.raises(DomainError, match="variant"):
            hh.init_cells("identity", 4, 2, "upper", 0)
        with pytest.raises(DomainError, match="1 <= r <= d"):
            hh.init_cells("identity", 2, 4, hh.FULL, 0)
        with pytest.raises(DomainError, match="must be an integer"):
            hh.init_cells("identity", 4.0, 2, hh.FULL, 0)

    @pytest.mark.parametrize("scheme", hh.INIT_SCHEMES)
    def test_negative_seed_is_named(self, scheme):
        with pytest.raises(DomainError, match="seed must be >= 0, got -1"):
            hh.init_cells(scheme, 4, 2, hh.FULL, -1)
        with pytest.raises(DomainError, match="seed must be an integer"):
            hh.init_cells(scheme, 4, 2, hh.FULL, 1.0)
        for got, want in zip(hh.init_cells(scheme, 4, 2, hh.FULL, np.uint8(3)),
                             hh.init_cells(scheme, 4, 2, hh.FULL, 3)):
            assert got.tobytes() == want.tobytes()


class TestFixedFrame:
    @pytest.mark.parametrize("d,variant", [(1, hh.FULL), (1, hh.REDUCED),
                                           (4, hh.REDUCED), (9, hh.REDUCED)])
    def test_no_free_cells_is_minus_identity(self, d, variant):
        frame = hh.fixed_frame(d, d, variant)
        # -1 on the diagonal, +0.0 (not -0.0) off it
        minus_eye = np.where(np.eye(d, dtype=bool), -1.0, 0.0)
        assert frame.tobytes() == minus_eye.tobytes()
        assert not frame.flags.writeable
        layout = hh.make_layout(d, d, variant)
        assert hh.decode(layout) is frame
        # padded in a batch, it sweeps to the same bits
        padded, _ = hh.decode_batch([layout, hh.make_layout(d + 3, d + 1)])
        assert padded.tobytes() == frame.tobytes()

    @pytest.mark.parametrize("d,r,variant", [
        (2, 2, hh.FULL), (3, 2, hh.REDUCED), (5, 1, hh.FULL)])
    def test_free_cells_have_none(self, d, r, variant):
        assert hh.fixed_frame(d, r, variant) is None


class TestValidation:
    def test_bad_param_count(self):
        with pytest.raises(ShapeError):
            hh.make_layout(4, 2, hh.FULL, params=[1.0])

    def test_constructor_checks_the_param_count(self):
        with pytest.raises(ShapeError, match="expected 5 free parameters"):
            hh.HouseholderLayout(4, 2, hh.FULL, np.zeros(4))
        with pytest.raises(ShapeError, match="expected 0 free parameters"):
            hh.HouseholderLayout(3, 3, hh.REDUCED, np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_params_rejected(self, bad):
        theta = np.ones(hh.dof(6, 3, hh.FULL))
        theta[4] = bad
        canvas = np.zeros((6, 3))
        canvas[5, 2] = bad
        for build in (lambda: hh.make_layout(6, 3, hh.FULL, theta),
                      lambda: hh.HouseholderLayout(6, 3, hh.FULL, theta),
                      lambda: layout_from_dense(canvas, 6, 3)):
            with pytest.raises(DomainError, match="finite"):
                build()

    @pytest.mark.parametrize("field", ["d", "r"])
    @pytest.mark.parametrize("bad", [6.0, True])
    def test_non_integer_dims_rejected_ahead_of_the_cache(self, field, bad):
        # the int structure is cached, and a float key would hit it
        hh.make_layout(6, 3)
        dims = {"d": 6, "r": 3, field: bad}
        with pytest.raises(DomainError, match=f"{field} must be an integer"):
            hh.HouseholderLayout(variant=hh.FULL, params=np.zeros(12), **dims)
        with pytest.raises(DomainError, match=f"{field} must be an integer"):
            hh.make_layout(dims["d"], dims["r"], hh.FULL)
