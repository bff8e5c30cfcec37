"""Spectrum materialization, penalty, Lipschitz bound, stable rank, budgets."""

import copy
import math
import pickle

import numpy as np
import pytest

from ttspectral import spectral as sp
from ttspectral.errors import DomainError, ShapeError


class TestMaterializeSigma:
    def test_learned_normalizes_by_max_magnitude(self):
        spec = sp.SpectrumParams(sp.LEARNED, 3, np.array([2.0, -1.0, 0.5]))
        assert np.allclose(sp.materialize_sigma(spec), [1.0, -0.5, 0.25])

    def test_identity_is_signs(self):
        spec = sp.SpectrumParams(sp.IDENTITY, 3, None, np.array([1.0, 1.0, 1.0]))
        assert np.allclose(sp.materialize_sigma(spec), [1.0, 1.0, 1.0])
        spec = sp.SpectrumParams(sp.IDENTITY, 2, None, np.array([-1.0, 1.0]))
        assert np.allclose(sp.materialize_sigma(spec), [-1.0, 1.0])

    def test_all_zero_rejected(self):
        spec = sp.SpectrumParams(sp.LEARNED, 2, np.zeros(2))
        with pytest.raises(DomainError):
            sp.materialize_sigma(spec)

    def test_max_magnitude_exactly_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = rng.standard_normal(5) * rng.uniform(0.1, 100)
            if not np.any(s):
                continue
            spec = sp.SpectrumParams(sp.LEARNED, 5, s)
            sigma = sp.materialize_sigma(spec)
            assert np.max(np.abs(sigma)) == 1.0
            assert np.all(np.abs(sigma) <= 1.0)

    def test_bad_signs_rejected(self):
        with pytest.raises(DomainError):
            sp.SpectrumParams(sp.IDENTITY, 2, None, np.array([2.0, 1.0]))

    @pytest.mark.parametrize("lam", [-0.1, np.nan, np.inf])
    def test_bad_regularizer_weight_rejected(self, lam):
        with pytest.raises(DomainError):
            sp.SpectrumParams(sp.LEARNED, 2, np.ones(2), None, lam)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_s_rejected(self, bad):
        with pytest.raises(DomainError, match="finite"):
            sp.SpectrumParams(sp.LEARNED, 3, [bad, 1.0, 1.0])
        spectrum = sp.SpectrumParams(sp.LEARNED_REGULARIZED, 3, np.ones(3))
        with pytest.raises(DomainError, match="finite"):
            spectrum.with_s([1.0, bad, 1.0])


class TestImmutableSpectrum:
    @pytest.mark.parametrize("mode, r, s", [
        (sp.IDENTITY, 2.5, None), (sp.IDENTITY, True, None),
        (sp.LEARNED, 2.0, [1.0, 0.5]),
    ])
    def test_non_integer_rank_rejected(self, mode, r, s):
        with pytest.raises(DomainError, match="must be an integer"):
            sp.SpectrumParams(mode, r, s)

    def test_writes_to_the_source_s_do_not_reach_the_spectrum(self):
        s = np.array([2.0, -1.0, 0.5])
        spec = sp.SpectrumParams(sp.LEARNED, 3, s)
        sigma = sp.materialize_sigma(spec)
        s[0] = 4.0
        assert spec.s.tolist() == [2.0, -1.0, 0.5]
        assert sp.materialize_sigma(spec).tobytes() == sigma.tobytes()

    def test_writes_to_the_source_signs_do_not_reach_the_spectrum(self):
        signs = np.array([1.0, -1.0, 1.0])
        spec = sp.SpectrumParams(sp.IDENTITY, 3, None, signs)
        signs[1] = 1.0
        assert spec.signs.tolist() == [1.0, -1.0, 1.0]
        assert sp.materialize_sigma(spec).tolist() == [1.0, -1.0, 1.0]

    def test_with_s_keeps_its_own_copy(self):
        spec = sp.SpectrumParams(sp.LEARNED, 2, np.array([1.0, 0.5]))
        s = np.array([0.25, -1.0])
        twin = spec.with_s(s)
        s[1] = 8.0
        assert twin.s.tolist() == [0.25, -1.0]
        assert not twin.s.flags.writeable
        assert spec.s.tolist() == [1.0, 0.5]

    @pytest.mark.parametrize("mode", [sp.LEARNED, sp.IDENTITY])
    def test_vectors_are_read_only(self, mode):
        s = None if mode == sp.IDENTITY else np.array([3.0, -1.0])
        for signs in (None, np.array([1.0, -1.0])):
            spec = sp.SpectrumParams(mode, 2, s, signs)
            held = [spec.signs] if s is None else [spec.s, spec.signs]
            for vec in held:
                assert vec.dtype == np.float64
                assert not vec.flags.writeable
                with pytest.raises(ValueError):
                    vec[0] = 1.0

    @pytest.mark.parametrize("clone", [
        lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy, copy.copy],
        ids=["pickle", "deepcopy", "copy"])
    @pytest.mark.parametrize("mode", [sp.LEARNED, sp.IDENTITY])
    def test_pickle_and_copy_rebuild_through_the_constructor(self, clone,
                                                            mode):
        s = None if mode == sp.IDENTITY else np.array([0.5, -2.0, 1.0])
        spec = sp.SpectrumParams(mode, 3, s, np.array([-1.0, 1.0, 1.0]),
                                 0.25)
        twin = clone(spec)
        assert (twin.mode, twin.r, twin.lam) == (mode, 3, 0.25)
        assert not twin.signs.flags.writeable
        assert twin.signs.tobytes() == spec.signs.tobytes()
        if s is None:
            assert twin.s is None
        else:
            assert not twin.s.flags.writeable
            assert twin.s.tobytes() == spec.s.tobytes()
        assert sp.materialize_sigma(twin).tobytes() == \
            sp.materialize_sigma(spec).tobytes()


class TestSigmaMemo:
    @staticmethod
    def spectrum(mode):
        s = None if mode == sp.IDENTITY else np.array([0.5, -2.0, 1.0])
        return sp.SpectrumParams(mode, 3, s, np.array([-1.0, 1.0, 1.0]))

    @pytest.mark.parametrize("mode", [sp.LEARNED, sp.IDENTITY])
    def test_second_call_returns_the_same_read_only_array(self, mode):
        spec = self.spectrum(mode)
        sigma = sp.materialize_sigma(spec)
        assert sp.materialize_sigma(spec) is sigma
        assert not sigma.flags.writeable
        with pytest.raises(ValueError):
            sigma[0] = 0.25
        want = sp.normalize_spectrum(spec.s, spec.signs)[0]
        assert sigma.dtype == np.float64
        assert sigma.tobytes() == want.tobytes()

    @pytest.mark.parametrize("clone", [
        lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy, copy.copy],
        ids=["pickle", "deepcopy", "copy"])
    @pytest.mark.parametrize("mode", [sp.LEARNED, sp.IDENTITY])
    def test_clones_carry_no_memo(self, clone, mode):
        spec = self.spectrum(mode)
        sigma = sp.materialize_sigma(spec)
        twin = clone(spec)
        assert "_sigma" not in vars(twin)
        got = sp.materialize_sigma(twin)
        assert got is not sigma
        assert not got.flags.writeable
        assert got.tobytes() == sigma.tobytes()

    def test_with_s_normalizes_its_own_vector(self):
        spec = self.spectrum(sp.LEARNED)
        sp.materialize_sigma(spec)
        twin = spec.with_s(np.array([4.0, 1.0, -2.0]))
        assert "_sigma" not in vars(twin)
        assert sp.materialize_sigma(twin).tolist() == [1.0, 0.25, -0.5]
        assert sp.materialize_sigma(spec).tolist() == [0.25, -1.0, 0.5]


class TestDOptimalPenalty:
    def test_all_ones_is_zero(self):
        assert sp.d_optimal_penalty([1.0, 1.0, 1.0]) == 0.0

    def test_halves(self):
        # independent arithmetic: -2 ln(1/2)
        assert sp.d_optimal_penalty([0.5, 0.5]) == pytest.approx(
            2.0 * math.log(2.0), rel=1e-12
        )
        assert sp.d_optimal_penalty([0.5, 0.5]) == pytest.approx(1.386294, abs=1e-6)

    def test_sign_invariance(self):
        assert sp.d_optimal_penalty([-1.0, 1.0]) == 0.0
        assert sp.d_optimal_penalty([-0.3, 0.7]) == \
            sp.d_optimal_penalty([0.3, -0.7])

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            sp.d_optimal_penalty([1.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError, match="finite"):
            sp.d_optimal_penalty([0.5, bad])

    def test_nonnegative_inside_unit_box_zero_only_at_ones(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            sigma = rng.uniform(0.05, 1.0, 4) * rng.choice([-1.0, 1.0], 4)
            pen = sp.d_optimal_penalty(sigma)
            assert pen >= 0.0
            if not np.allclose(np.abs(sigma), 1.0):
                assert pen > 0.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        sigma = rng.uniform(0.2, 1.0, 5) * rng.choice([-1.0, 1.0], 5)
        h = 1e-7
        for i in range(5):
            up, down = sigma.copy(), sigma.copy()
            up[i] += h
            down[i] -= h
            fd = (sp.d_optimal_penalty(up) - sp.d_optimal_penalty(down)) / (2 * h)
            assert fd == pytest.approx(-1.0 / sigma[i], rel=1e-6)


class TestLipschitzBound:
    @pytest.mark.parametrize("vals,expected", [
        ([0.5, 2.0], 1.0),
        ([1.0, 1.0, 1.0], 1.0),
        ([1.0, 1.0, 3.0], 3.0),
    ])
    def test_products(self, vals, expected):
        assert sp.lipschitz_bound(vals) == expected

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            sp.lipschitz_bound([1.0, -2.0])

    @pytest.mark.parametrize("layers", [1, 2, 5])
    def test_stack_is_each_row_alone(self, layers):
        rows = np.random.default_rng(layers).uniform(0.0, 3.0, (40, layers))
        got = sp.lipschitz_bound(rows)
        expected = np.array([math.prod(row.tolist()) for row in rows])
        assert got.tobytes() == expected.tobytes()
        assert [sp.lipschitz_bound(row) for row in rows] == expected.tolist()
        rows[7, -1] = np.nan
        with pytest.raises(DomainError, match="finite"):
            sp.lipschitz_bound(rows)

    def test_vector_or_stack_only(self):
        assert sp.lipschitz_bound([]) == 1.0
        with pytest.raises(ShapeError):
            sp.lipschitz_bound(2.0)
        with pytest.raises(ShapeError):
            sp.lipschitz_bound(np.ones((2, 2, 2)))

    @pytest.mark.parametrize("vals", [[1.0, np.nan], [np.inf, 1.0],
                                      [np.inf, 0.0]])
    def test_non_finite_rejected(self, vals):
        with pytest.raises(DomainError, match="finite"):
            sp.lipschitz_bound(vals)


class TestStableRank:
    def test_from_spectrum(self):
        # (1 + 0.25) / 1 by independent arithmetic
        assert sp.stable_rank_from_spectrum([1.0, 0.5]) == pytest.approx(1.25)

    def test_identity(self):
        assert sp.stable_rank_from_spectrum(np.ones(3)) == 3.0

    def test_rank_one_diag(self):
        assert sp.stable_rank_from_spectrum([1.0, 0.0]) == 1.0

    def test_signs_do_not_count(self):
        assert sp.stable_rank_from_spectrum([-1.0, 0.5]) == \
            sp.stable_rank_from_spectrum([1.0, -0.5])

    def test_between_one_and_the_rank(self):
        rng = np.random.default_rng(5)
        for r in range(1, 8):
            value = sp.stable_rank_from_spectrum(rng.standard_normal(r))
            assert 1.0 <= value <= r * (1 + 1e-15)

    def test_zero_matrix_rejected(self):
        with pytest.raises(DomainError, match="zero matrix"):
            sp.stable_rank_from_spectrum(np.zeros(2))

    @pytest.mark.parametrize("r", [1, 3, 8, 9, 17, 200])
    def test_stack_is_each_row_alone(self, r):
        # from r = 8 on, numpy sums a row in pairwise blocks
        rows = np.random.default_rng(r).standard_normal((30, r))
        got = sp.stable_rank_from_spectrum(rows)
        ratios = [row / np.max(np.abs(row)) for row in rows]
        expected = np.array([np.sum(q * q) for q in ratios])
        assert got.tobytes() == expected.tobytes()
        assert [sp.stable_rank_from_spectrum(row) for row in rows] == \
            expected.tolist()
        rows[4] = 0.0
        with pytest.raises(DomainError, match="zero matrix"):
            sp.stable_rank_from_spectrum(rows)
        rows[4, 0] = np.nan
        with pytest.raises(DomainError, match="finite"):
            sp.stable_rank_from_spectrum(rows)

    def test_diagonal_or_stack_only(self):
        assert sp.stable_rank_from_spectrum(-2.0) == 1.0
        with pytest.raises(ShapeError):
            sp.stable_rank_from_spectrum(np.ones((2, 2, 2)))

    @pytest.mark.parametrize("scale", [1e200, 1e-300])
    def test_scale_free(self, scale):
        # squares of the values over- or underflow; the ratio does not
        sigma = np.random.default_rng(4).uniform(0.1, 1.0, 5)
        assert sp.stable_rank_from_spectrum(scale * np.ones(3)) == 3.0
        assert sp.stable_rank_from_spectrum(scale * sigma) == pytest.approx(
            sp.stable_rank_from_spectrum(sigma), rel=1e-12)

    def test_two_paths_agree(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            sigma = rng.uniform(0.1, 1.0, 4)
            sigma[0] = 1.0
            u = np.linalg.qr(rng.standard_normal((8, 4)))[0]
            v = np.linalg.qr(rng.standard_normal((6, 4)))[0]
            w = (u * sigma) @ v.T
            a = np.sum(w * w) / np.linalg.norm(w, 2) ** 2
            b = sp.stable_rank_from_spectrum(sigma)
            assert a == pytest.approx(b, rel=1e-8)

    def test_empty_spectrum_rejected(self):
        with pytest.raises(DomainError, match="non-empty"):
            sp.stable_rank_from_spectrum([])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_spectrum_rejected(self, bad):
        with pytest.raises(DomainError, match="finite"):
            sp.stable_rank_from_spectrum([1.0, bad])


class TestCompressionRatio:
    @pytest.mark.parametrize("entries", [
        (6.5, 5, 3), (6, 5.0, 3), (6, 5, True), (6, 5, 3, 0.5),
    ])
    def test_non_integer_budget_entry_rejected(self, entries):
        with pytest.raises(DomainError, match="must be an integer"):
            sp.LayerBudget(*entries)

    def test_unparameterized_is_100(self):
        net = sp.NetworkSummary((
            sp.LayerBudget(4, 5, dof=20),
            sp.LayerBudget(3, 3, dof=9, extra=7),
        ))
        assert sp.compression_ratio(net) == pytest.approx(100.0)

    def test_two_layer_toy_network(self):
        # parameter-counting oracle: (336 + 16 + 80 + 8) / (1152 + 16 + 128 + 8)
        from ttspectral.svdp import svdp_dof

        dof1 = svdp_dof(16, 72, 4, "learned")
        dof2 = svdp_dof(8, 16, 4, "learned")
        assert (dof1, dof2) == (336, 80)
        net = sp.NetworkSummary((
            sp.LayerBudget(16, 72, dof=dof1, extra=16),
            sp.LayerBudget(8, 16, dof=dof2, extra=8),
        ))
        kept = dof1 + 16 + dof2 + 8
        total = 16 * 72 + 16 + 8 * 16 + 8
        assert kept / total == pytest.approx(440 / 1304)
        assert sp.compression_ratio(net) == pytest.approx(33.74, abs=0.01)

    def test_single_layer_chain_case(self):
        from ttspectral.sttp import sttp_dof

        dof = sttp_dof(16, 72, 4, "learned")
        net = sp.NetworkSummary((sp.LayerBudget(16, 72, dof=dof, extra=16),))
        assert sp.compression_ratio(net) == pytest.approx(100 * 144 / 1168,
                                                          rel=1e-12)
        assert sp.compression_ratio(net) == pytest.approx(12.33, abs=0.01)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            sp.compression_ratio(sp.NetworkSummary(()))
