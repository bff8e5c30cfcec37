"""Gradient-descent fitting and the constrained training demo."""

import warnings

import numpy as np
import pytest

from ttspectral import fit as ft
from ttspectral import householder as hh
from ttspectral.autodiff import pack
from ttspectral.dense import svd_full
from ttspectral.errors import (
    DivergenceError,
    DomainError,
    NumericError,
    ShapeError,
)
from ttspectral.planner import decompress
from ttspectral.sampling import random_sttp_params, random_svdp_params
from ttspectral.schemes import SCHEMES
from ttspectral.spectral import materialize_sigma
from ttspectral.spectrum_modes import IDENTITY, LEARNED, LEARNED_REGULARIZED
from ttspectral.sttp import SttpParams
from ttspectral.svdp import SvdpParams

from helpers import reference_demo_train, reference_fit_matrix


def unit_top_target(shape, seed):
    rng = np.random.default_rng(seed)
    t = rng.standard_normal(shape)
    return t / svd_full(t)[1][0]


class TestEckartYoungOptimum:
    @pytest.mark.parametrize("r", [2.5, 2.0, True])
    def test_non_integer_rank_rejected(self, r):
        with pytest.raises(DomainError, match="must be an integer"):
            ft.eckart_young_optimum(np.diag([3.0, 2.0, 1.0]), r)

    def test_truncated_diagonal(self):
        assert ft.eckart_young_optimum(np.diag([3.0, 2.0, 1.0]), 2) == \
            pytest.approx(1.0)

    def test_full_rank_is_zero(self):
        rng = np.random.default_rng(0)
        t = rng.standard_normal((5, 4))
        assert ft.eckart_young_optimum(t, 4) == pytest.approx(0.0, abs=1e-12)

    def test_matches_explicit_truncation(self):
        rng = np.random.default_rng(1)
        t = rng.standard_normal((6, 5))
        u, s, v = svd_full(t)
        resid = np.linalg.norm(t - (u[:, :2] * s[:2]) @ v[:, :2].T)
        assert abs(ft.eckart_young_optimum(t, 2) - resid) <= 1e-10

    @pytest.mark.parametrize("r", [-1, 0])
    def test_rank_outside_range_rejected(self, r):
        with pytest.raises(DomainError, match="rank"):
            ft.eckart_young_optimum(np.eye(4), r)

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2)])
    def test_non_matrix_rejected(self, shape):
        with pytest.raises(ShapeError, match="matrix"):
            ft.eckart_young_optimum(np.ones(shape), 1)

    def test_spectral_norm_past_float_range_raises(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="not finite"):
                ft.eckart_young_optimum(np.full((4, 4), 1e308), 1)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_squares_past_float_range(self, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ft.eckart_young_optimum(np.diag([scale] * 3), 1)
        assert got == pytest.approx(np.sqrt(2.0) * scale, rel=1e-15)

    def test_error_past_float_range_raises(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="past float range"):
                ft.eckart_young_optimum(np.diag([1.5e308] * 3), 1)


class TestFitMatrix:
    def test_config_validation(self):
        with pytest.raises(DomainError):
            ft.FitConfig(momentum=1.0)
        with pytest.raises(DomainError):
            ft.FitConfig(lr=-0.1)
        with pytest.raises(DomainError):
            ft.FitConfig(scheme="cp")
        for lam in (-0.1, np.nan, np.inf):
            with pytest.raises(DomainError):
                ft.FitConfig(lam=lam)
        for bad in ({"lr": 0.0}, {"lr": np.nan}, {"lr": np.inf},
                    {"tol": 0.0}, {"tol": -1e-14}, {"tol": np.nan},
                    {"tol": np.inf}):
            with pytest.raises(DomainError):
                ft.FitConfig(**bad)
        assert ft.FitConfig(lr=1e308, tol=1e-300).tol == 1e-300

    @pytest.mark.parametrize("field", ["rank", "max_steps", "seed"])
    @pytest.mark.parametrize("value", [2.5, 2.0, True])
    def test_non_integer_config_rejected(self, field, value):
        with pytest.raises(DomainError, match=f"{field} must be an integer"):
            ft.FitConfig("svdp", **{field: value})

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError, match="seed must be >= 0, got -1"):
            ft.FitConfig("svdp", seed=-1)

    def test_numpy_integer_config_accepted(self):
        cfg = ft.FitConfig("svdp", np.int64(2), LEARNED, max_steps=np.int32(3),
                           seed=np.uint8(4))
        assert len(ft.fit_matrix(unit_top_target((8, 6), 2), cfg).trace) <= 3

    def test_complex_target_rejected(self):
        t = unit_top_target((8, 6), 2) + 0j
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no ComplexWarning either
            with pytest.raises(DomainError, match="real"):
                ft.fit_matrix(t, ft.FitConfig("svdp", 2, LEARNED, seed=0))

    def test_best_so_far_is_trace_minimum(self):
        t = unit_top_target((8, 6), 2)
        cfg = ft.FitConfig("svdp", 2, LEARNED, seed=0, max_steps=400)
        res = ft.fit_matrix(t, cfg)
        assert res.best_loss == min(res.trace)

    @pytest.mark.parametrize("max_steps,tol", [(4, 1e-300), (5000, 1e-14)],
                             ids=["last-step", "tol-stop"])
    def test_reverse_pass_only_for_a_step_taken(self, monkeypatch, max_steps,
                                                tol):
        # the step that ends a fit, at max_steps or by the tol test,
        # updates nothing, so its gradient is never formed
        calls = []
        real = ft.StepProgram.backward
        monkeypatch.setattr(ft.StepProgram, "backward",
                            lambda *args: calls.append(1) or real(*args))
        cfg = ft.FitConfig("svdp", 2, LEARNED, seed=0, max_steps=max_steps,
                           tol=tol)
        res = ft.fit_matrix(unit_top_target((8, 6), 2), cfg)
        assert 1 < len(res.trace) <= max_steps
        assert len(calls) == len(res.trace) - 1

    def test_divergence_guard(self):
        # assembled matrices are norm-bounded, so only a huge target can
        # push the loss past the cap; the guard must still fire
        t = 1e7 * unit_top_target((8, 6), 3)
        cfg = ft.FitConfig("svdp", 2, LEARNED, seed=0, max_steps=400)
        with pytest.raises(DivergenceError, match="learning rate"):
            ft.fit_matrix(t, cfg)

    def test_divergence_guard_catches_non_finite_loss(self):
        # a huge step turns the loss into NaN, which never exceeds the cap
        t = unit_top_target((8, 6), 3)
        cfg = ft.FitConfig("svdp", 2, LEARNED, lr=1e308, seed=0, max_steps=50)
        with np.errstate(all="ignore"), \
                pytest.raises(DivergenceError, match="learning rate"):
            ft.fit_matrix(t, cfg)

    @pytest.mark.parametrize("run", [
        lambda: ft.fit_matrix(unit_top_target((8, 6), 3), ft.FitConfig(
            "svdp", 2, LEARNED, lr=1e308, seed=0, max_steps=50)),
        lambda: ft.demo_train(ft.FitConfig("svdp", 2, LEARNED, lr=1e308), 0,
                              steps=20)])
    def test_non_finite_theta_stops_before_its_forward(self, run):
        # the step that overflows theta raises; no decode or normalization
        # runs on it, so none of them warns of an invalid division
        with warnings.catch_warnings(record=True) as caught, \
                pytest.raises(DivergenceError, match="loss nan diverged"):
            warnings.simplefilter("always")
            run()
        assert not [w for w in caught
                    if "invalid value encountered in divide" in str(w.message)]

    @pytest.mark.parametrize("scheme", ["svdp", "sttp"])
    def test_overflowing_step_diverges_without_a_warning(self, scheme):
        # lr 1e308 times a gradient entry above about 1.8 overflows theta;
        # the next step's theta check reports it, and nothing warns
        t = np.random.default_rng(0).standard_normal((16, 72))
        cfg = ft.FitConfig(scheme, 4, LEARNED, lr=1e308, seed=0,
                           max_steps=50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError,
                               match="loss nan diverged at step 1; "):
                ft.fit_matrix(t, cfg)

    def test_rank_cap_enforced(self):
        with pytest.raises(DomainError):
            ft.fit_matrix(np.zeros((4, 3)), ft.FitConfig("svdp", 4))

    def test_deterministic(self):
        t = unit_top_target((6, 5), 4)
        cfg = ft.FitConfig("svdp", 2, LEARNED, seed=7, max_steps=50)
        a = ft.fit_matrix(t, cfg)
        b = ft.fit_matrix(t, cfg)
        assert a.trace == b.trace

    def test_random_target_reaches_near_optimum(self):
        t = unit_top_target((16, 12), 5)
        opt = ft.eckart_young_optimum(t, 4)
        cfg = ft.FitConfig("svdp", 4, LEARNED, seed=0, max_steps=5000)
        res = ft.fit_matrix(t, cfg)
        err = res.frobenius_error(t)
        assert err <= 1.05 * opt
        assert err >= opt - 1e-8

    def test_realizable_svdp_target_recovered(self):
        t = decompress(random_svdp_params(16, 12, 4, LEARNED, 300))
        cfg = ft.FitConfig("svdp", 4, LEARNED, lr=0.2, seed=0,
                           max_steps=40000, tol=1e-16)
        res = ft.fit_matrix(t, cfg)
        assert res.frobenius_error(t) <= 1e-6 * np.linalg.norm(t)

    def test_realizable_sttp_target_recovered(self):
        t = decompress(random_sttp_params(4, 6, 2, LEARNED, 500))
        cfg = ft.FitConfig("sttp", 2, LEARNED, lr=0.1, seed=0,
                           max_steps=20000, tol=1e-16)
        res = ft.fit_matrix(t, cfg)
        assert res.frobenius_error(t) <= 1e-6 * np.linalg.norm(t)

    def test_rank_deficient_span_target(self):
        rng = np.random.default_rng(6)
        u, s, v = svd_full(rng.standard_normal((9, 7)))
        t = (u[:, :3] * (s[:3] / s[0])) @ v[:, :3].T
        cfg = ft.FitConfig("svdp", 3, LEARNED, lr=0.2, seed=1,
                           max_steps=40000, tol=1e-16)
        res = ft.fit_matrix(t, cfg)
        assert res.frobenius_error(t) <= 1e-6 * np.linalg.norm(t)

    def test_truncated_chain_never_beats_optimum(self):
        t = unit_top_target((16, 12), 7)
        opt = ft.eckart_young_optimum(t, 2)
        cfg = ft.FitConfig("sttp", 2, LEARNED, seed=0, max_steps=2000)
        res = ft.fit_matrix(t, cfg)
        assert res.frobenius_error(t) >= opt - 1e-8

    def test_regularized_fit_keeps_sigma_away_from_zero(self):
        t = decompress(random_svdp_params(16, 12, 4, LEARNED, 600))
        cfg = ft.FitConfig("svdp", 4, LEARNED_REGULARIZED, lam=0.1, lr=0.2,
                           seed=0, max_steps=5000)
        res = ft.fit_matrix(t, cfg)
        sigma = materialize_sigma(res.params.spectrum)
        assert np.min(np.abs(sigma)) >= 0.01


class TestSaturatedEquivalence:
    def test_chain_matches_two_frame_error(self):
        from ttspectral.sttp import edge_case_is_svdp

        saturated, witness = edge_case_is_svdp(4, 6, 2)
        assert saturated
        assert witness["sttp_dof"] == witness["svdp_dof"]
        t = decompress(random_sttp_params(4, 6, 2, LEARNED, 501))
        norm = np.linalg.norm(t)
        errs = {}
        for scheme, lr in (("svdp", 0.2), ("sttp", 0.1)):
            cfg = ft.FitConfig(scheme, 2, LEARNED, lr=lr, seed=1,
                               max_steps=20000, tol=1e-16)
            errs[scheme] = ft.fit_matrix(t, cfg).frobenius_error(t)
        assert abs(errs["svdp"] - errs["sttp"]) <= 1e-6 * norm


class TestDemoTrain:
    def test_identity_spectrum_bound_is_exactly_one(self):
        cfg = ft.FitConfig("svdp", 3, "identity")
        report = ft.demo_train(cfg, 0, steps=200)
        assert all(b == 1.0 for b in report.bounds)
        assert all(max(pair) == 1.0 for pair in report.sigma_max)

    def test_learned_spectrum_constraint_every_step(self):
        cfg = ft.FitConfig("svdp", 3, LEARNED)
        report = ft.demo_train(cfg, 0, steps=500)
        assert all(max(pair) <= 1.0 + 1e-10 for pair in report.sigma_max)
        assert all(b <= 1.0 + 1e-9 for b in report.bounds)

    def test_loss_halves_with_seed_zero_defaults(self):
        cfg = ft.FitConfig("svdp", 3, LEARNED)
        report = ft.demo_train(cfg, 0, steps=2000)
        assert report.losses[-1] < 0.5 * report.losses[0]

    def test_report_lengths(self):
        cfg = ft.FitConfig("svdp", 3, LEARNED)
        report = ft.demo_train(cfg, 0, steps=50)
        assert len(report.losses) == len(report.sigma_max) == 50
        assert len(report.stable_ranks) == len(report.bounds) == 50

    def test_divergence_guard_catches_non_finite_loss(self):
        cfg = ft.FitConfig("svdp", 2, LEARNED, lr=1e308)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError):
            ft.demo_train(cfg, 0, steps=20)

    def test_rank_cap_checked(self):
        cfg = ft.FitConfig("svdp", 5, LEARNED)
        with pytest.raises(DomainError):
            ft.demo_train(cfg, 0, steps=10)

    @pytest.mark.parametrize("scheme", ["svdp", "sttp"])
    def test_penalty_rides_on_the_data_vjp(self, scheme, monkeypatch):
        # with lam > 0 each step pulls both cotangents back in one VJP per
        # layer, which is linear in the pair (g_w, g_sigma_extra)
        maker = random_svdp_params if scheme == "svdp" else random_sttp_params
        p = maker(8, 6, 2, LEARNED_REGULARIZED, 4, 0.05)
        w, tape = ft.assemble_with_tape(p)
        rng = np.random.default_rng(5)
        g = rng.standard_normal(w.shape)
        extra = rng.standard_normal(p.r)
        both = ft._vjp_full(tape, g, extra)
        split = ft._vjp_full(tape, g, None) + \
            ft._vjp_full(tape, np.zeros_like(w), extra)
        assert np.max(np.abs(both - split)) <= 1e-13

        # one reverse pass of the step program per update covers both
        # layers; the last step updates nothing, so it runs none
        calls = []
        real = ft.StepProgram.backward
        monkeypatch.setattr(ft.StepProgram, "backward",
                            lambda *args: calls.append(1) or real(*args))
        cfg = ft.FitConfig(scheme, 2, LEARNED_REGULARIZED, 0.05)
        ft.demo_train(cfg, 0, steps=3)
        assert len(calls) == 2

    @pytest.mark.parametrize("kwargs", [
        {"steps": 0}, {"steps": -3}, {"n_samples": 0}, {"d_in": 0},
        {"hidden": -1}, {"d_out": 0}])
    def test_bad_sizes_rejected(self, kwargs):
        cfg = ft.FitConfig("svdp", 1, LEARNED)
        with pytest.raises(DomainError, match="must be positive"):
            ft.demo_train(cfg, 0, **{"steps": 5, **kwargs})

    def test_negative_seed_rejected(self):
        # the demo's seed seeds the data, and plus 1 and 2 the layers
        cfg = ft.FitConfig("svdp", 1, LEARNED)
        with pytest.raises(DomainError, match="seed must be >= 0, got -1"):
            ft.demo_train(cfg, -1, steps=5)
        with pytest.raises(DomainError, match="seed must be an integer"):
            ft.demo_train(cfg, 1.0, steps=5)


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


MODES = [(LEARNED, 0.0), (IDENTITY, 0.0), (LEARNED_REGULARIZED, 0.01)]


class TestStepProgramMatchesObjectLoops:
    """The fits over flat theta against loops that rebuild parameter
    objects every step: traces, results and reports agree bitwise."""

    @staticmethod
    def assert_fits_equal(target, cfg):
        res, ref = ft.fit_matrix(target, cfg), reference_fit_matrix(target,
                                                                     cfg)
        assert bits(res.trace) == bits(ref.trace)
        assert res.best_step == ref.best_step
        assert bits(res.best_loss) == bits(ref.best_loss)
        assert bits(pack(res.params)) == bits(pack(ref.params))
        return res

    @pytest.mark.parametrize("mode,lam", MODES)
    @pytest.mark.parametrize("scheme,d_out,d_in,r", [
        ("svdp", 16, 72, 4), ("sttp", 16, 72, 4), ("svdp", 256, 256, 8),
        ("sttp", 256, 256, 8), ("svdp", 12, 18, 3), ("sttp", 12, 18, 3),
        ("svdp", 1, 5, 1), ("svdp", 5, 1, 1)])
    def test_fit(self, scheme, d_out, d_in, r, mode, lam):
        cfg = ft.FitConfig(scheme, r, mode, lam=lam, seed=3, max_steps=20,
                           tol=1e-300)
        self.assert_fits_equal(unit_top_target((d_out, d_in), d_out + d_in),
                               cfg)

    def test_early_stop(self):
        cfg = ft.FitConfig("svdp", 2, LEARNED, seed=0, max_steps=5000)
        res = self.assert_fits_equal(unit_top_target((8, 6), 2), cfg)
        assert 1 < len(res.trace) < cfg.max_steps

    @pytest.mark.parametrize("scale,lr", [(1e7, None), (1.0, 1e308)])
    def test_divergence(self, scale, lr):
        t = scale * unit_top_target((8, 6), 3)
        cfg = ft.FitConfig("svdp", 2, LEARNED, lr=lr, seed=0, max_steps=50)
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError) as ref:
                reference_fit_matrix(t, cfg)
            with pytest.raises(DivergenceError, match="learning rate") as got:
                ft.fit_matrix(t, cfg)
        assert str(got.value) == str(ref.value)

    @pytest.mark.parametrize("mode,lam", [(LEARNED, 0.0), ("identity", 0.0),
                                          (LEARNED_REGULARIZED, 0.05)])
    @pytest.mark.parametrize("scheme,r,sizes", [
        pytest.param("svdp", 3, {}, id="svdp"),
        pytest.param("sttp", 3, {}, id="sttp"),
        # r >= 9: each per-row sum of the report runs numpy's pairwise blocks
        pytest.param("sttp", 9, {"d_in": 12, "hidden": 16, "d_out": 10},
                     id="sttp-r9")])
    def test_demo(self, scheme, r, sizes, mode, lam):
        cfg = ft.FitConfig(scheme, r, mode, lam=lam)
        report = ft.demo_train(cfg, 5, steps=30, **sizes)
        ref = reference_demo_train(cfg, 5, steps=30, **sizes)
        for name in ("losses", "sigma_max", "stable_ranks", "bounds"):
            assert bits(getattr(report, name)) == bits(getattr(ref, name))
        assert len(report.losses) == 30

    def test_demo_divergence(self):
        cfg = ft.FitConfig("svdp", 2, LEARNED, lr=1e308)
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError) as ref:
                reference_demo_train(cfg, 0, steps=20)
            with pytest.raises(DivergenceError) as got:
                ft.demo_train(cfg, 0, steps=20)
        assert str(got.value) == str(ref.value)


class TestFitsRunOnTheta:
    """A fit starts from the init's pack vector and builds no parameter
    object before its result; the demo builds none."""

    @staticmethod
    def count_constructions(monkeypatch):
        built = []
        for cls in (SvdpParams, SttpParams, hh.HouseholderLayout):
            check = cls.__post_init__
            monkeypatch.setattr(
                cls, "__post_init__",
                lambda obj, check=check: built.append(obj) or check(obj))
        return built

    @staticmethod
    def stepped_thetas(monkeypatch):
        thetas, forward = [], ft.StepProgram.forward
        monkeypatch.setattr(
            ft.StepProgram, "forward",
            lambda program, theta: thetas.append(theta.copy())
            or forward(program, theta))
        return thetas

    @pytest.mark.parametrize("scheme", ["svdp", "sttp"])
    def test_fit_builds_only_its_result(self, monkeypatch, scheme):
        built = self.count_constructions(monkeypatch)
        cfg = ft.FitConfig(scheme, 3, LEARNED, seed=4, max_steps=5)
        res = ft.fit_matrix(unit_top_target((12, 18), 9), cfg)
        # the result's layouts, then the result itself
        assert built == [*res.params.layouts, res.params]

    @pytest.mark.parametrize("scheme", ["svdp", "sttp"])
    def test_demo_builds_no_parameter_object(self, monkeypatch, scheme):
        built = self.count_constructions(monkeypatch)
        ft.demo_train(ft.FitConfig(scheme, 3, LEARNED), 2, steps=3)
        assert built == []

    @pytest.mark.parametrize("mode,lam", MODES)
    @pytest.mark.parametrize("scheme", ["svdp", "sttp"])
    def test_first_theta_is_the_packed_init(self, monkeypatch, scheme, mode,
                                            lam):
        thetas = self.stepped_thetas(monkeypatch)
        cfg = ft.FitConfig(scheme, 4, mode, lam=lam, seed=6, max_steps=2,
                           init_scheme="random_orthogonal")
        ft.fit_matrix(unit_top_target((16, 72), 1), cfg)
        want = pack(SCHEMES[scheme].init(16, 72, 4, mode, 6,
                                         "random_orthogonal", lam))
        assert bits(thetas[0]) == bits(want)

    @pytest.mark.parametrize("scheme", ["svdp", "sttp"])
    def test_demo_first_theta_packs_both_layers(self, monkeypatch, scheme):
        thetas = self.stepped_thetas(monkeypatch)
        ft.demo_train(ft.FitConfig(scheme, 3, IDENTITY), 7, steps=2)
        want = [pack(SCHEMES[scheme].init(rows, cols, 3, IDENTITY, seed))
                for rows, cols, seed in ((8, 6, 8), (4, 8, 9))]
        assert bits(thetas[0]) == bits(np.concatenate(want))

    def test_programs_share_what_their_records_fix(self):
        # built once per tuple of records: a second fit's program reuses it
        structure = SCHEMES["sttp"].structure(16, 72, 4, LEARNED)
        a = ft.StepProgram((structure,), (np.ones(4),))
        b = ft.StepProgram((structure,), (-np.ones(4),))
        assert a.decode is b.decode and a.members is b.members
        for _, base, cells, src in a.decode.groups:
            assert not (base.flags.writeable or cells.flags.writeable
                        or src.flags.writeable)
