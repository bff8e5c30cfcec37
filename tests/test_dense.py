"""Dense substrate: ordering, reshaping, QR, SVD oracle."""

import importlib.util
import itertools
import math
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttspectral import dense
from ttspectral.errors import DomainError, NumericError, ShapeError

from helpers import (
    householder_qr,
    reference_orthonormalize,
    reflectors_to_frame,
)


def enumerate_positions(dims):
    """Independent ordering oracle: lexicographic enumeration of the box."""
    return {
        idx: pos + 1
        for pos, idx in enumerate(
            itertools.product(*(range(1, d + 1) for d in dims))
        )
    }


class TestMultiIndex:
    @pytest.mark.parametrize("dims, idx", [
        ((2.9, 3), (2, 1)), ((2, 3), (1.5, 1)), ((True, 3), (1, 1)),
    ])
    def test_non_integer_dims_and_indices_rejected(self, dims, idx):
        with pytest.raises(DomainError, match="must be an integer"):
            dense.multi_index(dims, idx)

    def test_first_element(self):
        assert dense.multi_index((2, 3), (1, 1)) == 1

    def test_last_element(self):
        assert dense.multi_index((2, 3), (2, 3)) == 6

    def test_enumeration_oracle_2x3(self):
        oracle = enumerate_positions((2, 3))
        assert oracle[(2, 1)] == 4
        assert dense.multi_index((2, 3), (2, 1)) == 4
        for idx, pos in oracle.items():
            assert dense.multi_index((2, 3), idx) == pos

    def test_out_of_range_names_axis(self):
        with pytest.raises(DomainError, match="axis 1"):
            dense.multi_index((2, 3), (1, 4))

    def test_arity_mismatch(self):
        with pytest.raises(ShapeError):
            dense.multi_index((2, 3), (1, 1, 1))

    @given(
        st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=5)
    )
    @settings(max_examples=80, deadline=None)
    def test_bijection(self, dims):
        total = math.prod(dims)
        if total > 10_000:
            return
        seen = [
            dense.multi_index(dims, idx)
            for idx in itertools.product(*(range(1, d + 1) for d in dims))
        ]
        assert sorted(seen) == list(range(1, total + 1))

    def test_inverse(self):
        # numpy's C order also varies the last axis fastest
        dims = (3, 4, 2)
        for pos in range(1, 25):
            idx = np.unravel_index(pos - 1, dims)
            assert dense.multi_index(dims, [i + 1 for i in idx]) == pos


class TestReshape:
    def test_metadata_only(self):
        t = np.arange(6.0)
        r = dense.reshape(t, (2, 3))
        assert r.shape == (2, 3)
        assert np.array_equal(r.ravel(), t)

    def test_transposed_dims_follow_ordering(self):
        t = np.arange(6.0).reshape(2, 3)
        r = dense.reshape(t, (3, 2))
        # element at multi-index (i, j) of the new dims sits at the same
        # linear position as before
        for i in range(1, 4):
            for j in range(1, 3):
                pos = dense.multi_index((3, 2), (i, j))
                assert r[i - 1, j - 1] == t.ravel()[pos - 1]

    def test_count_mismatch(self):
        with pytest.raises(ShapeError):
            dense.reshape(np.zeros(4), (5,))

    @given(st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_bitwise(self, a, b, c):
        rng = np.random.default_rng(a * 16 + b * 4 + c)
        t = rng.standard_normal((a, b, c))
        back = dense.reshape(dense.reshape(t, (a * b * c,)), (a, b, c))
        assert np.array_equal(back, t)


class TestMatricizeCore:
    def test_unit_leading_axis(self):
        core = np.arange(6.0).reshape(1, 3, 2)
        m = dense.matricize_core(core)
        assert m.shape == (3, 2)
        assert np.array_equal(m.ravel(), core.ravel())

    def test_fused_enumeration(self):
        # independent oracle: fuse (i, j) by explicit enumeration
        core = np.arange(1.0, 5.0).reshape(2, 2, 1)
        m = dense.matricize_core(core)
        assert m.shape == (4, 1)
        expected = np.empty((4, 1))
        for i in range(1, 3):
            for j in range(1, 3):
                row = dense.multi_index((2, 2), (i, j))
                expected[row - 1, 0] = core[i - 1, j - 1, 0]
        assert np.array_equal(m, expected)
        assert np.array_equal(m[:, 0], [1.0, 2.0, 3.0, 4.0])

    def test_wrong_arity(self):
        with pytest.raises(ShapeError):
            dense.matricize_core(np.zeros((2, 3)))


class TestHouseholderQr:
    def test_identity_input(self):
        _, r = householder_qr(np.eye(4))
        assert np.allclose(np.abs(np.diag(r)), 1.0)
        assert np.allclose(r, np.diag(np.diag(r)))

    def test_orthonormal_input_gives_diagonal_sign_r(self):
        rng = np.random.default_rng(0)
        q = reference_orthonormalize(rng.standard_normal((6, 4)))
        _, r = householder_qr(q)
        off = r - np.diag(np.diag(r))
        assert np.linalg.norm(off) < 1e-12
        assert np.allclose(np.abs(np.diag(r)), 1.0, atol=1e-12)

    def test_sign_choice(self):
        # R_ii = -sign(x_1) * ||x|| at the first step
        m = np.array([[2.0, 1.0], [0.0, 1.0], [0.0, 3.0]])
        _, r = householder_qr(m)
        assert r[0, 0] == pytest.approx(-2.0)

    @pytest.mark.parametrize("shape", [(5, 3), (8, 8), (12, 2), (7, 7)])
    def test_reconstruction(self, shape):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            m = rng.standard_normal(shape)
            reflectors, r = householder_qr(m)
            q = reflectors_to_frame(reflectors, shape[1])
            err = np.linalg.norm(q @ r - m)
            assert err <= 1e-12 * np.linalg.norm(m)

    def test_rank_deficient_column(self):
        m = np.zeros((4, 2))
        m[:, 1] = [1.0, 2.0, 3.0, 4.0]
        reflectors, r = householder_qr(m)
        assert not reflectors[:, 0].any()  # zero reflector, documented
        q = reflectors_to_frame(reflectors, 2)
        assert np.linalg.norm(q @ r - m) <= 1e-12 * np.linalg.norm(m)

    def test_wide_matrix_rejected(self):
        with pytest.raises(DomainError):
            householder_qr(np.zeros((2, 3)))


class TestLapackGufuncs:
    def test_numpy_without_them_fails_at_import(self, monkeypatch):
        # a numpy whose private linalg module lacks the QR gufuncs
        fake = types.ModuleType("numpy.linalg._umath_linalg")
        fake.inv = np.linalg.inv
        monkeypatch.setitem(sys.modules, fake.__name__, fake)
        spec = importlib.util.spec_from_file_location(
            "ttspectral._dense_without_gufuncs", dense.__file__)
        with pytest.raises(ImportError, match=r"numpy>=2\.4\.6.*qr_r_raw"):
            spec.loader.exec_module(importlib.util.module_from_spec(spec))


class TestSvdFull:
    def test_diagonal(self):
        _, s, _ = dense.svd_full(np.diag([3.0, 2.0, 1.0]))
        assert np.allclose(s, [3.0, 2.0, 1.0])

    def test_zero(self):
        _, s, _ = dense.svd_full(np.zeros((4, 3)))
        assert np.all(s == 0.0)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(17)
        m = rng.standard_normal((6, 4))
        u, s, v = dense.svd_full(m)
        assert np.linalg.norm(u @ np.diag(s) @ v.T - m) <= 1e-10 * np.linalg.norm(m)
        assert np.linalg.norm(u.T @ u - np.eye(4)) <= 1e-10
        assert np.linalg.norm(v.T @ v - np.eye(4)) <= 1e-10
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            dense.svd_full(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_named(self, bad):
        m = np.eye(3)
        m[2, 1] = bad
        with pytest.raises(DomainError, match="finite"):
            dense.svd_full(m)

    def test_singular_value_past_float_range_raises(self):
        # every entry is finite, but the spectral norm 4e308 is not
        with pytest.raises(NumericError, match="not finite"):
            dense.svd_full(np.full((4, 4), 1e308))

    def test_identity(self):
        u, s, v = dense.svd_full(np.eye(4))
        assert np.array_equal(s, np.ones(4))
        assert np.allclose(u @ v.T, np.eye(4), atol=1e-15)

    def test_top_value_is_the_spectral_norm(self):
        m = np.random.default_rng(7).standard_normal((8, 5))
        _, s, _ = dense.svd_full(m)
        assert s[0] == pytest.approx(np.linalg.norm(m, 2), rel=1e-12)

    def test_deterministic(self):
        m = np.random.default_rng(3).standard_normal((6, 6))
        for a, b in zip(dense.svd_full(m), dense.svd_full(m)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("shape", [(3, 5), (5, 3)])
    def test_thin_factors(self, shape):
        m = np.random.default_rng(2).standard_normal(shape)
        u, s, v = dense.svd_full(m)
        k = min(shape)
        assert (u.shape, s.shape, v.shape) == ((shape[0], k), (k,),
                                               (shape[1], k))

    @pytest.mark.parametrize("exponent", [-1000, -3, 0, 1, 700])
    def test_power_of_two_scaling(self, exponent):
        # at the extremes the squares of the entries over- or underflow
        m = np.random.default_rng(8).standard_normal((7, 4))
        _, s, _ = dense.svd_full(m)
        _, scaled, _ = dense.svd_full(np.ldexp(m, exponent))
        assert np.allclose(scaled / np.ldexp(s, exponent), 1.0, rtol=0,
                           atol=1e-14)

    def test_large_entries(self):
        _, s, _ = dense.svd_full(1e200 * np.eye(3))
        assert np.allclose(s, 1e200, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("seed", range(5))
    def test_eckart_young_identity(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((9, 7))
        u, s, v = dense.svd_full(m)
        for k in range(1, 7):
            mk = (u[:, :k] * s[:k]) @ v[:, :k].T
            resid_sq = np.linalg.norm(m - mk) ** 2
            tail_sq = float(np.sum(s[k:] ** 2))
            assert resid_sq == pytest.approx(tail_sq, rel=1e-9)
