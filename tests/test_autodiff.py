"""Tapes, vector-Jacobian rules, the finite-difference oracle, gradcheck."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttspectral import autodiff as ad
from ttspectral import householder as hh
from ttspectral.errors import DomainError, NumericError, ShapeError
from ttspectral.planner import decompress
from ttspectral.sampling import random_sttp_params, random_svdp_params
from ttspectral.schemes import SCHEMES
from ttspectral.spectrum_modes import IDENTITY, LEARNED, LEARNED_REGULARIZED
from ttspectral.sttp import sttp_dof
from ttspectral.svdp import svdp_dof

from helpers import (
    decode_packed,
    library_decode_fwd,
    library_decode_vjp,
    make_random_layout,
    padded_canvas,
    per_frame_tape,
    plan_vjp,
    rowmajor_reflect_sweep,
    rowmajor_reflect_sweep_vjp,
    sweep_groups,
)


class TestFdGrad:
    def test_quadratic_exact(self):
        a = np.array([2.0, -1.0, 0.5])

        def f(x):
            return float(x @ (a * x))

        x0 = np.array([1.0, 2.0, -3.0])
        fd = ad.fd_grad(f, x0)
        assert np.allclose(fd, 2 * a * x0, atol=1e-9 * np.max(np.abs(x0)))

    def test_linear_exact(self):
        a = np.array([3.0, -2.0, 7.0])
        fd = ad.fd_grad(lambda x: float(a @ x), np.zeros(3))
        assert np.allclose(fd, a, atol=1e-10)

    def test_non_finite_names_coordinate(self):
        def f(x):
            return float("nan") if x[1] > 0.5 else 0.0

        with pytest.raises(NumericError, match="coordinate 1"):
            ad.fd_grad(f, np.array([0.0, 0.5, 0.0]))


class TestTape:
    def test_tape_output_matches_plain_assembly(self):
        from ttspectral.planner import decompress

        p = random_svdp_params(7, 4, 2, LEARNED, 2)
        w, _ = ad.assemble_with_tape(p)
        assert np.allclose(w, decompress(p), atol=1e-14)

    def test_tape_output_is_decompress_bitwise(self):
        for p in (random_svdp_params(6, 5, 3, LEARNED, 0),
                  random_sttp_params(8, 6, 2, LEARNED, 1)):
            w, _ = ad.assemble_with_tape(p)
            assert np.array_equal(w, decompress(p))

    def test_pack_unpack_round_trip(self):
        for p in (random_svdp_params(6, 5, 3, IDENTITY, 3),
                  random_sttp_params(16, 12, 4, LEARNED, 4)):
            theta = ad.pack(p)
            p2 = ad.unpack(p, theta)
            assert np.array_equal(ad.pack(p2), theta)
            w1, _ = ad.assemble_with_tape(p)
            w2, _ = ad.assemble_with_tape(p2)
            assert np.array_equal(w1, w2)


class TestVjp:
    def test_linearity(self):
        rng = np.random.default_rng(0)
        p = random_svdp_params(6, 5, 3, LEARNED, 5)
        _, tape = ad.assemble_with_tape(p)
        g1 = rng.standard_normal((6, 5))
        g2 = rng.standard_normal((6, 5))
        a, b = 0.7, -2.3
        lhs = ad.vjp(tape, a * g1 + b * g2)
        rhs = a * ad.vjp(tape, g1) + b * ad.vjp(tape, g2)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1, np.linalg.norm(rhs))

    def test_gradient_length_equals_dof(self):
        cases = [
            (random_svdp_params(8, 6, 3, IDENTITY, 0), svdp_dof(8, 6, 3, IDENTITY)),
            (random_svdp_params(8, 6, 3, LEARNED, 1), svdp_dof(8, 6, 3, LEARNED)),
            (random_sttp_params(16, 72, 4, LEARNED, 2), sttp_dof(16, 72, 4, LEARNED)),
            (random_sttp_params(16, 72, 4, IDENTITY, 3), sttp_dof(16, 72, 4, IDENTITY)),
        ]
        for p, dof in cases:
            w, tape = ad.assemble_with_tape(p)
            grad = ad.vjp(tape, np.ones_like(w))
            assert grad.size == dof == ad.pack(p).size

    def test_frame_norm_gradient_vanishes(self):
        # ||decode(theta)||_F^2 == r identically, so its gradient is ~0
        rng = np.random.default_rng(6)
        for variant in (hh.FULL, hh.REDUCED):
            layout = make_random_layout(9, 4, variant, rng)
            q, saves = library_decode_fwd(layout)
            grad = library_decode_vjp(layout, saves, 2.0 * q)
            assert np.max(np.abs(grad)) <= 1e-6

    def test_inner_product_loss_matches_fd(self):
        rng = np.random.default_rng(7)
        p = random_svdp_params(6, 5, 2, LEARNED, 8)
        g = rng.standard_normal((6, 5))
        grad = ad.vjp(ad.assemble_with_tape(p)[1], g)
        fd = ad.fd_grad(lambda t: np.sum(g * decompress(ad.unpack(p, t))),
                        ad.pack(p))
        scale = max(1.0, float(np.max(np.abs(grad))))
        assert np.max(np.abs(grad - fd)) / scale <= 1e-6

    def test_penalty_gradient_through_normalization(self):
        # pure penalty: data term weighted to zero via a zero-target trick
        p = random_svdp_params(5, 4, 3, LEARNED, 9)
        s = p.spectrum.s
        lam = 1.0
        w, tape = ad.assemble_with_tape(p)
        _, pen_grad = ad._penalty_floored(tape.sigma)
        grad = ad._vjp_full(tape, np.zeros_like(w), lam * pen_grad)

        def f(t):
            q = ad.unpack(p, t)
            wq, tq = ad.assemble_with_tape(q)
            return lam * ad._penalty_floored(tq.sigma)[0]

        fd = ad.fd_grad(f, ad.pack(p))
        scale = max(1.0, float(np.max(np.abs(grad))))
        assert np.max(np.abs(grad - fd)) / scale <= 1e-6
        # layout parameters do not influence the penalty
        n_layout = grad.size - s.size
        assert np.max(np.abs(grad[:n_layout])) <= 1e-12


class TestBatchedTape:
    """One decode per canvas shape against per-frame decoding."""

    CASES = [("svdp", 16, 72, 4), ("svdp", 32, 32, 4),
             ("sttp", 16, 72, 4), ("sttp", 256, 256, 8)]

    @staticmethod
    def make(scheme, d_out, d_in, r, mode, seed):
        make = random_svdp_params if scheme == "svdp" else random_sttp_params
        return make(d_out, d_in, r, mode, seed)

    def tape_and_oracle(self, scheme, d_out, d_in, r, mode, **decoders):
        p = self.make(scheme, d_out, d_in, r, mode, 20)
        g_w = np.random.default_rng(21).standard_normal((d_out, d_in))
        w, tape = ad.assemble_with_tape(p)
        w_ref, frames_ref, grad_ref = per_frame_tape(p, g_w, **decoders)
        assert len(tape.frames) == len(frames_ref)
        return (w, tape.frames, ad.vjp(tape, g_w)), (w_ref, frames_ref,
                                                     grad_ref)

    @pytest.mark.parametrize("mode", [LEARNED, IDENTITY])
    @pytest.mark.parametrize("scheme,d_out,d_in,r", CASES)
    def test_bitwise_equal_to_per_frame_oracle(self, scheme, d_out, d_in, r,
                                               mode):
        # batching layouts of one canvas shape changes no bit
        (w, frames, grad), (w_ref, frames_ref, grad_ref) = \
            self.tape_and_oracle(scheme, d_out, d_in, r, mode,
                                 fwd=library_decode_fwd,
                                 vjp=library_decode_vjp)
        assert np.array_equal(w, w_ref)
        for q, q_ref in zip(frames, frames_ref):
            assert np.array_equal(q, q_ref)
        assert np.array_equal(grad, grad_ref)

    @pytest.mark.parametrize("mode", [LEARNED, IDENTITY])
    @pytest.mark.parametrize("scheme,d_out,d_in,r", CASES)
    def test_close_to_sequential_sweep(self, scheme, d_out, d_in, r, mode):
        # the closed-form decode agrees to rounding with one reflector at a
        # time
        (w, frames, grad), (w_ref, frames_ref, grad_ref) = \
            self.tape_and_oracle(scheme, d_out, d_in, r, mode)
        assert np.max(np.abs(w - w_ref)) <= 1e-14
        for q, q_ref in zip(frames, frames_ref):
            assert np.max(np.abs(q - q_ref)) <= 1e-14
        assert np.max(np.abs(grad - grad_ref)) \
            <= 1e-13 * np.max(np.abs(grad_ref))

    @pytest.mark.parametrize("d_out,d_in,r,n_fixed",
                             [(16, 72, 4, 4), (256, 256, 8, 6)])
    def test_parameter_free_cores_skip_the_sweeps(self, d_out, d_in, r,
                                                  n_fixed):
        # square reduced cores carry no parameters: they get a cached frame,
        # join no sweep and contribute an empty gradient slice; the cores
        # with free cells sweep in the plan's groups
        p = random_sttp_params(d_out, d_in, r, LEARNED, 22)
        w, tape = ad.assemble_with_tape(p)
        layouts = p.u_layouts + p.v_layouts
        free = [la.params.size for la in layouts]
        assert free.count(0) == n_fixed
        _, sweeps = tape.decode_saves
        swept = sorted(i for members, _ in sweeps for i in members)
        assert swept == [i for i, n in enumerate(free) if n]
        assert [members for members, _ in sweeps] == sweep_groups(layouts)
        assert len(sweeps) == 1  # every core with free cells is small
        grads = plan_vjp(*tape.decode_saves,
                         [np.ones_like(q) for q in tape.frames])
        assert [g.size for g in grads] == free
        grad = ad.vjp(tape, np.ones_like(w))
        assert grad.size == sttp_dof(d_out, d_in, r, LEARNED) \
            == ad.pack(p).size


class TestPaddedSweeps:
    """A step's plan pads the small canvases of one rank into one sweep."""

    # the parameter sets whose layouts one plan decodes, packed end to end
    CASES = {
        "svdp 16x72 r4": lambda mode: (random_svdp_params(16, 72, 4, mode,
                                                          50),),
        "sttp 16x72 r4": lambda mode: (random_sttp_params(16, 72, 4, mode,
                                                          51),),
        "demo svdp": lambda mode: (random_svdp_params(8, 6, 3, mode, 52),
                                   random_svdp_params(4, 8, 3, mode, 53)),
        "demo sttp": lambda mode: (random_sttp_params(8, 6, 3, mode, 54),
                                   random_sttp_params(4, 8, 3, mode, 55)),
    }

    @staticmethod
    def plan_case(case, mode):
        layouts = [la for p in TestPaddedSweeps.CASES[case](mode)
                   for la in p.layouts]
        return layouts, *decode_packed(layouts)

    @pytest.mark.parametrize("mode", [LEARNED, IDENTITY])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_groups_equal_decode_batch_and_the_row_major_oracle(self, case,
                                                                mode):
        # per group: the frames are decode_batch's of the group's layouts,
        # and frames and gradient are the row-major sweep's on canvases
        # padded by hand to the group's longest, bit for bit
        layouts, plan, frames, sweeps = self.plan_case(case, mode)
        groups = sweep_groups(layouts)
        assert [members for members, _ in sweeps] == groups
        assert len(groups) == 1
        rng = np.random.default_rng(56)
        g_frames = [rng.standard_normal(q.shape) for q in frames]
        grads = plan_vjp(plan, sweeps, g_frames)
        for members in groups:
            group = [layouts[i] for i in members]
            d_pad, r = max(la.d for la in group), group[0].r
            q_ref, saved = rowmajor_reflect_sweep(
                np.stack([padded_canvas(la, d_pad, r) for la in group]),
                save=True)
            g = np.zeros(q_ref.shape)
            for k, la in enumerate(group):
                g[k, : la.d] = g_frames[members[k]]
            g_ref = rowmajor_reflect_sweep_vjp(saved, g)
            batch = hh.decode_batch(group)
            for k, (i, la) in enumerate(zip(members, group)):
                assert frames[i].shape == (la.d, r)
                assert frames[i].tobytes() == batch[k].tobytes() \
                    == q_ref[k, : la.d].tobytes()
                assert grads[i].tobytes() \
                    == g_ref[k][la.free_cells()].tobytes()

    @pytest.mark.parametrize("mode", [LEARNED, IDENTITY])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_padded_frames_are_orthonormal_and_close_to_decode(self, case,
                                                               mode):
        layouts, _, frames, _ = self.plan_case(case, mode)
        for q, la in zip(frames, layouts):
            assert np.max(np.abs(q - hh.decode(la))) <= 1e-15
            assert np.linalg.norm(q.T @ q - np.eye(la.r)) <= 1e-10

    @pytest.mark.parametrize("d_out,d_in,r", [(64, 1024, 16), (1024, 64, 16),
                                              (8, 4096, 4)])
    def test_lopsided_svdp_keeps_one_sweep_per_exact_shape(self, d_out, d_in,
                                                           r):
        # a canvas of more than 1024 cells is not padded, nor padded into;
        # the small one beside it sweeps alone
        layouts = list(random_svdp_params(d_out, d_in, r, LEARNED,
                                          57).layouts)
        _, frames, sweeps = decode_packed(layouts)
        assert [members for members, _ in sweeps] == [[0], [1]]
        for q, la in zip(frames, layouts):
            assert np.array_equal(q, hh.decode(la))


class TestStepProgram:
    @pytest.mark.parametrize("maker", [random_svdp_params, random_sttp_params])
    @pytest.mark.parametrize("mode", [LEARNED, IDENTITY])
    def test_members_share_sweeps_and_match_their_own_tapes(self, maker,
                                                            mode):
        # the demo's two layers: 8x6 and 4x8, rank 3
        ps = (maker(8, 6, 3, mode, 40), maker(4, 8, 3, mode, 41))
        program = ad.StepProgram(ps)
        theta = np.concatenate([ad.pack(p) for p in ps])
        tapes = program.forward(theta)
        # every canvas has rank 3 and at most 24 cells: one padded sweep
        _, sweeps = tapes[0].decode_saves
        layouts = [la for p in ps for la in p.layouts]
        assert [members for members, _ in sweeps] \
            == sweep_groups(layouts) == [[i for i, la in enumerate(layouts)
                                          if la.params.size]]
        assert len(sweeps) < sum(len(sweep_groups(p.layouts))
                                 for p in ps)
        rng = np.random.default_rng(42)
        g_ws = [rng.standard_normal(t.output.shape) for t in tapes]
        grad = program.backward(tapes, [t.cotangents(g_w)
                                        for t, g_w in zip(tapes, g_ws)])
        pos = 0
        for p, tape, g_w in zip(ps, tapes, g_ws):
            w, own = ad.assemble_with_tape(p)
            assert np.array_equal(tape.output, w)
            assert np.array_equal(grad[pos: pos + p.n_params],
                                  ad.vjp(own, g_w))
            pos += p.n_params
        with pytest.raises(ShapeError, match="every member"):
            ad.vjp(tapes[1], g_ws[1])


def dense_value_and_grad(tape, loss):
    """The Frobenius loss through the assembled matrix: its value, and the
    dense cotangent ``W - T`` pulled back with the penalty's."""
    extra = None
    if loss.lam > 0.0:
        extra = loss.lam * ad._penalty_floored(tape.sigma)[1]
    return ad._loss_value(tape, loss), ad._vjp_full(
        tape, tape.output - loss.target, extra)


class TestFactoredFrobenius:
    """FrobeniusLoss from the factors against the dense matrix path."""

    @given(scheme=st.sampled_from(sorted(SCHEMES)),
           d_out=st.integers(1, 64), d_in=st.integers(1, 64),
           r_frac=st.floats(0.0, 1.0),
           mode=st.sampled_from([IDENTITY, LEARNED, LEARNED_REGULARIZED]),
           lam=st.sampled_from([0.0, 0.05]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_dense_path(self, scheme, d_out, d_in, r_frac, mode,
                                    lam, seed):
        if scheme == "sttp":  # sttp factors dims >= 2
            d_out, d_in = max(d_out, 2), max(d_in, 2)
        r = 1 + int(r_frac * (min(d_out, d_in) - 1))
        p = SCHEMES[scheme].random(d_out, d_in, r, mode, seed, lam)
        target = np.random.default_rng(seed).standard_normal((d_out, d_in))
        loss = ad.FrobeniusLoss(target, lam)
        value, grad, tape = ad.StepProgram((p,)).loss_and_grad(ad.pack(p),
                                                               loss)
        want_value, want_grad = dense_value_and_grad(tape, loss)
        assert abs(value - want_value) <= 1e-12 * max(1.0, abs(want_value))
        scale = max(1.0, float(np.max(np.abs(want_grad), initial=0.0)))
        assert np.max(np.abs(grad - want_grad), initial=0.0) <= 1e-12 * scale

    @pytest.mark.parametrize("maker", [random_svdp_params, random_sttp_params])
    def test_exact_rank_target_takes_the_dense_value(self, maker,
                                                     monkeypatch):
        # the target lies in the frames' span, so the loss is about 1e-18
        # ||T||^2: far below the factored value's rounding noise
        p = maker(16, 72, 4, LEARNED, 3)
        target = decompress(p) * (1.0 + 1e-9)
        loss = ad.FrobeniusLoss(target)
        program, theta = ad.StepProgram((p,)), ad.pack(p)
        value, grad, tape = program.loss_and_grad(theta, loss)
        dense = ad._loss_value(tape, loss)
        assert value == dense == pytest.approx(
            0.5e-18 * np.sum(target * target), rel=1e-6)
        monkeypatch.setattr(ad, "CANCELLATION_GUARD", -np.inf)
        factored, factored_grad, _ = program.loss_and_grad(theta, loss)
        assert abs(factored - dense) > dense
        # the guard swaps the value only; the gradient stays factored
        assert np.array_equal(factored_grad, grad)

    @pytest.mark.parametrize("target, lam", [
        pytest.param(np.zeros((6, 5)), -1.0, id="negative-lam"),
        pytest.param(np.zeros((6, 5)), np.nan, id="nan-lam"),
        pytest.param(np.zeros((6, 5)), np.inf, id="inf-lam"),
        pytest.param(np.where(np.eye(6, 5), np.nan, 0.0), 0.0,
                     id="nan-target"),
        pytest.param(np.where(np.eye(6, 5), -np.inf, 0.0), 0.0,
                     id="inf-target"),
        pytest.param(np.zeros((6, 5)) + 0j, 0.0, id="complex-target"),
        pytest.param(np.zeros(30), 0.0, id="vector-target"),
    ])
    def test_bad_target_or_weight_rejected_at_construction(self, target,
                                                           lam):
        with pytest.raises(DomainError):
            ad.FrobeniusLoss(target, lam)

    def test_warm_step_allocates_no_matrix(self):
        # svdp 1024^2 rank 16: one d_out x d_in float64 array is 8 MB
        d, r = 1024, 16
        p = SCHEMES["svdp"].init(d, d, r, LEARNED, 0, "noisy_identity")
        program = ad.StepProgram((p,))
        theta = ad.pack(p)
        loss = ad.FrobeniusLoss(
            np.random.default_rng(0).standard_normal((d, d)))
        program.loss_and_grad(theta, loss)
        tracemalloc.start()
        try:
            _, _, tape = program.loss_and_grad(theta, loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "output" not in vars(tape)  # the tape never assembled W
        assert peak < d * d * 8 // 2


class TestGradcheck:
    @pytest.mark.parametrize("mode", [IDENTITY, LEARNED, LEARNED_REGULARIZED])
    def test_svdp_modes(self, mode):
        rng = np.random.default_rng(10)
        lam = 0.1 if mode == LEARNED_REGULARIZED else 0.0
        p = random_svdp_params(8, 6, 3, mode, 11, lam)
        report = ad.gradcheck(p, ad.FrobeniusLoss(rng.standard_normal((8, 6)),
                                                  lam))
        assert report.passed and not report.sigma_tied
        assert report.max_rel_err <= 1e-6
        assert report.n_params == svdp_dof(8, 6, 3, mode)

    # 64x64 r8 sweeps one 6-member rank-8 group, 128x96 r8 one of 7
    @pytest.mark.parametrize("d_out,d_in,r,mode", [
        pytest.param(16, 72, 4, mode, id=mode)
        for mode in (IDENTITY, LEARNED, LEARNED_REGULARIZED)] + [
        pytest.param(d_out, d_in, 8, mode, id=f"{d_out}x{d_in}r8-{mode}")
        for d_out, d_in in ((64, 64), (128, 96))
        for mode in (LEARNED, IDENTITY)])
    def test_sttp_worked_shapes(self, d_out, d_in, r, mode):
        rng = np.random.default_rng(12)
        lam = 0.1 if mode == LEARNED_REGULARIZED else 0.0
        p = random_sttp_params(d_out, d_in, r, mode, 13, lam)
        report = ad.gradcheck(p, ad.FrobeniusLoss(
            rng.standard_normal((d_out, d_in)), lam))
        assert report.passed and report.max_rel_err <= 1e-6
        assert report.n_params == sttp_dof(d_out, d_in, r, mode)

    @pytest.mark.parametrize("maker", [random_svdp_params, random_sttp_params])
    @pytest.mark.parametrize("mode", [IDENTITY, LEARNED, LEARNED_REGULARIZED])
    def test_two_member_program_of_the_demo_pair(self, maker, mode):
        # one padded sweep decodes both layers' canvases; gradcheck's rule
        # on the program's flat theta
        lam = 0.1 if mode == LEARNED_REGULARIZED else 0.0
        ps = (maker(8, 6, 3, mode, 16, lam), maker(4, 8, 3, mode, 17, lam))
        rng = np.random.default_rng(18)
        losses = [ad.FrobeniusLoss(rng.standard_normal((8, 6)), lam),
                  ad.FrobeniusLoss(rng.standard_normal((4, 8)), lam)]
        program = ad.StepProgram(ps)
        theta = np.concatenate([ad.pack(p) for p in ps])
        tapes = program.forward(theta)
        assert len(tapes[0].decode_saves[1]) == 1
        assert not any(t.sigma_tied for t in tapes)
        grad = program.backward(tapes, [loss.terms(t)[1]
                                        for t, loss in zip(tapes, losses)])
        fd = ad.fd_grad(lambda t: sum(
            ad._loss_value(tape, loss)
            for tape, loss in zip(program.forward(t), losses)), theta)
        scale = max(1.0, float(np.max(np.abs(grad))))
        assert np.max(np.abs(grad - fd)) / scale <= ad.GRADCHECK_TOL

    def test_tie_detected_and_skipped(self):
        p = random_svdp_params(5, 4, 2, LEARNED, 14)
        tied = p.spectrum.with_s(np.array([0.75, -0.75]))
        from dataclasses import replace

        p = replace(p, spectrum=tied)
        report = ad.gradcheck(p, ad.FrobeniusLoss(np.zeros((5, 4))))
        assert report.sigma_tied and report.passed
        assert np.isnan(report.max_rel_err)

    def test_smallest_index_tie_rule_is_deterministic(self):
        from dataclasses import replace

        p = random_svdp_params(5, 4, 2, LEARNED, 15)
        p = replace(p, spectrum=p.spectrum.with_s(np.array([0.5, -0.5])))
        loss = ad.FrobeniusLoss(np.ones((5, 4)))
        _, g1, _ = ad.StepProgram((p,)).loss_and_grad(ad.pack(p), loss)
        _, g2, _ = ad.StepProgram((p,)).loss_and_grad(ad.pack(p), loss)
        assert np.array_equal(g1, g2)
