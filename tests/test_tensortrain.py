"""Chain machinery: caps, schedules, contraction, frame composition, gauge."""

import itertools
import math

import numpy as np
import pytest

from ttspectral import householder as hh
from ttspectral import tensortrain as tt
from ttspectral.errors import DomainError, ShapeError

from helpers import make_random_layout, reference_orthonormalize


def contract_oracle(cores):
    """Literal elementwise summation of the chain product."""
    dims = tuple(c.shape[1] for c in cores)
    ranks = [c.shape[0] for c in cores] + [cores[-1].shape[2]]
    out = np.zeros(dims)
    for idx in itertools.product(*(range(n) for n in dims)):
        total = 0.0
        for betas in itertools.product(*(range(r) for r in ranks)):
            term = 1.0
            for k, core in enumerate(cores):
                term *= core[betas[k], idx[k], betas[k + 1]]
            total += term
        out[idx] = total
    return out


def random_orthonormal_chain(dims, ranks, seed):
    """Cores whose matricizations are orthonormal frames, via decode."""
    rng = np.random.default_rng(seed)
    cores = []
    for k, n in enumerate(dims):
        rows, cols = ranks[k] * n, ranks[k + 1]
        layout = make_random_layout(rows, cols, hh.FULL, rng)
        cores.append(hh.decode(layout).reshape(ranks[k], n, ranks[k + 1]))
    return cores


class TestRankCaps:
    @pytest.mark.parametrize("name, args", [
        ("rank_caps", ((2.5, 4),)), ("rank_caps", ((2, True),)),
        ("rank_schedule", ((2, 2, 2), 2.5)),
        ("rank_schedule", ((2, 2, 2), True)),
        ("rank_schedule", ((2, 2.0, 2), 2)),
    ])
    def test_non_integer_sizes_rejected(self, name, args):
        with pytest.raises(DomainError, match="must be an integer"):
            getattr(tt, name)(*args)

    def test_4_3_2(self):
        # independent product enumeration: cap_k = min(prefix, suffix)
        dims = (4, 3, 2)
        expected = []
        for k in range(1, 3):
            expected.append(min(math.prod(dims[:k]), math.prod(dims[k:])))
        assert expected == [4, 2]
        assert tt.rank_caps(dims) == [4, 2]

    def test_single_factor(self):
        assert tt.rank_caps((2,)) == []
        sched = tt.rank_schedule((2,), 5)
        assert sched.ranks == (1, 1)

    def test_worked_schedule(self):
        dims = (2, 2, 2, 2, 3, 3, 2, 2, 2)
        sched = tt.rank_schedule(dims, 4)
        assert sched.ranks == (1, 2, 4, 4, 4, 4, 4, 4, 2, 1)

    def test_caps_policy(self):
        dims = (3, 5, 2, 4)
        caps = tt.rank_caps(dims)
        for r in range(1, 9):
            sched = tt.rank_schedule(dims, r)
            assert all(
                rank == min(r, cap)
                for rank, cap in zip(sched.ranks[1:-1], caps)
            )

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            tt.rank_caps(())

    def test_schedule_violating_caps_rejected(self):
        with pytest.raises(DomainError):
            tt.RankSchedule((2, 2), 4, (1, 4, 1))


class TestContract:
    def test_single_core(self):
        core = np.arange(4.0).reshape(1, 4, 1)
        assert np.array_equal(tt.tt_contract([core]), np.arange(4.0))

    def test_all_ones_two_cores(self):
        # hand sum over the rank-2 junction: every element is 2
        a = np.ones((1, 2, 2))
        b = np.ones((2, 2, 1))
        assert np.array_equal(tt.tt_contract([a, b]), 2.0 * np.ones((2, 2)))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_nested_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        dims = (2, 3, 2, 3)
        ranks = (1, 2, 3, 2, 1)
        cores = [rng.standard_normal((ranks[k], dims[k], ranks[k + 1]))
                 for k in range(4)]
        got = tt.tt_contract(cores)
        want = contract_oracle(cores)
        assert np.linalg.norm(got - want) <= 1e-12 * max(
            1.0, np.linalg.norm(want)
        )

    @pytest.mark.parametrize("dims,ranks", [
        ((4,), (1, 1)),
        ((2, 2), (1, 1, 1)),
        ((1, 3, 1), (1, 2, 2, 1)),
        ((3, 1, 2, 2), (1, 3, 3, 2, 1)),
        ((5, 4), (1, 4, 1)),
    ])
    def test_oracle_on_varied_shapes(self, dims, ranks):
        rng = np.random.default_rng(sum(dims) + sum(ranks))
        cores = [rng.standard_normal((ranks[k], dims[k], ranks[k + 1]))
                 for k in range(len(dims))]
        got = tt.tt_contract(cores)
        want = contract_oracle(cores)
        assert got.shape == dims
        assert np.linalg.norm(got - want) <= 1e-12 * max(
            1.0, np.linalg.norm(want)
        )

    def test_rank_mismatch_names_junction(self):
        a = np.ones((1, 2, 2))
        b = np.ones((3, 2, 1))
        with pytest.raises(ShapeError, match="junction 1"):
            tt.tt_contract([a, b])


class TestFramesFromCores:
    def test_single_core_is_its_matricization(self):
        rng = np.random.default_rng(0)
        layout = make_random_layout(6, 2, hh.FULL, rng)
        core = hh.decode(layout).reshape(1, 6, 2)
        assert np.array_equal(tt.frames_from_cores([core]),
                              hh.decode(layout))

    def test_two_core_gram(self):
        cores = random_orthonormal_chain((2, 2), (1, 2, 2), 3)
        u = tt.frames_from_cores(cores)
        assert u.shape == (4, 2)
        assert np.linalg.norm(u.T @ u - np.eye(2)) <= 1e-10

    def test_worked_u_side_chain(self):
        cores = random_orthonormal_chain((2, 2, 2, 2), (1, 2, 4, 4, 4), 5)
        u = tt.frames_from_cores(cores)
        assert u.shape == (16, 4)
        assert np.linalg.norm(u.T @ u - np.eye(4)) <= 1e-10

    def test_orthonormality_violation_names_core(self):
        cores = random_orthonormal_chain((2, 2), (1, 2, 2), 1)
        cores[1] = cores[1] * 1.5
        with pytest.raises(DomainError, match="core 1"):
            tt.frames_from_cores(cores)

    def test_nan_core_rejected(self):
        # a NaN residual must fail the check, not slip past ``resid > tol``
        core = np.full((1, 3, 2), np.nan)
        with pytest.raises(DomainError):
            tt.check_core_orthonormal(core)
        with pytest.raises(DomainError, match="core 0"):
            tt.frames_from_cores([core])

    @pytest.mark.parametrize("seed", range(20))
    def test_composition_gram_residual(self, seed):
        dims = (2, 3, 2)
        ranks = (1, 2, 4, 3)
        cores = random_orthonormal_chain(dims, ranks, seed)
        u = tt.frames_from_cores(cores)
        assert np.linalg.norm(u.T @ u - np.eye(3)) <= 1e-10


class TestGaugeTransform:
    def _rotations(self, cores, seed):
        rng = np.random.default_rng(seed)
        qs = []
        for core in cores[:-1]:
            r = core.shape[2]
            qs.append(reference_orthonormalize(rng.standard_normal((r, r))))
        return qs

    def test_identity_rotations_noop(self):
        cores = random_orthonormal_chain((2, 2, 3), (1, 2, 2, 1), 0)
        out = tt.gauge_transform(cores, [np.eye(2), np.eye(2)])
        for a, b in zip(out, cores):
            assert np.allclose(a, b, atol=1e-14)

    @pytest.mark.parametrize("seed", range(10))
    def test_preserves_contraction_and_orthonormality(self, seed):
        dims = (2, 2, 2, 2)
        ranks = (1, 2, 4, 2, 1)
        cores = random_orthonormal_chain(dims, ranks, seed)
        out = tt.gauge_transform(cores, self._rotations(cores, seed + 100))
        for k, core in enumerate(out):
            tt.check_core_orthonormal(core, k, tol=1e-10)
        a = tt.tt_contract(cores)
        b = tt.tt_contract(out)
        assert np.linalg.norm(a - b) <= 1e-10 * max(1.0, np.linalg.norm(a))

    def test_frame_chain_invariance(self):
        # chains ending at rank r: the composed frame is preserved
        dims = (2, 2, 2, 2)
        ranks = (1, 2, 4, 4, 4)
        cores = random_orthonormal_chain(dims, ranks, 7)
        qs = self._rotations(cores, 8)
        out = tt.gauge_transform(cores, qs)
        u0 = tt.frames_from_cores(cores)
        u1 = tt.frames_from_cores(out)
        assert np.linalg.norm(u0 - u1) <= 1e-10

    def test_permutation_rotations(self):
        cores = random_orthonormal_chain((2, 3, 2), (1, 2, 2, 1), 9)
        perm = np.eye(2)[[1, 0]]
        out = tt.gauge_transform(cores, [perm, perm])
        a = tt.tt_contract(cores)
        b = tt.tt_contract(out)
        assert np.linalg.norm(a - b) <= 1e-10 * max(1.0, np.linalg.norm(a))
        assert not np.allclose(out[0], cores[0])

    def test_non_orthogonal_rejected(self):
        cores = random_orthonormal_chain((2, 2), (1, 2, 1), 10)
        with pytest.raises(DomainError):
            tt.gauge_transform(cores, [np.array([[1.0, 1.0], [0.0, 1.0]])])

    def test_nan_rotation_rejected(self):
        cores = random_orthonormal_chain((2, 2), (1, 2, 1), 12)
        with pytest.raises(DomainError, match="rotation 0 is not orthogonal"):
            tt.gauge_transform(cores, [np.full((2, 2), np.nan)])

    def test_wrong_count_rejected(self):
        cores = random_orthonormal_chain((2, 2), (1, 2, 1), 11)
        with pytest.raises(ShapeError):
            tt.gauge_transform(cores, [])

    @pytest.mark.parametrize("cores, q_list, error, message", [
        ([np.ones((2, 2))], [], ShapeError, "core 0 is not 3-D"),
        ([], [], DomainError, "empty core chain"),
        ([np.ones((1, 2, 3)), np.ones((2, 2, 1))], [np.eye(3)], ShapeError,
         "rank mismatch at junction 1: 3 vs 2"),
    ])
    def test_malformed_chain_rejected(self, cores, q_list, error, message):
        with pytest.raises(error, match=message):
            tt.gauge_transform(cores, q_list)
