"""Chain parameterization: factorization, schedules, dof, assembly, edge case."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttspectral import fileio
from ttspectral import householder as hh
from ttspectral import sttp
from ttspectral.autodiff import pack, unpack
from ttspectral.dense import svd_full
from ttspectral.errors import DomainError, ShapeError
from ttspectral.planner import decompress
from ttspectral.sampling import random_sttp_params
from ttspectral.spectral import init_spectrum, materialize_sigma
from ttspectral.spectrum_modes import IDENTITY, LEARNED, SPECTRUM_MODES
from ttspectral.schemes import SCHEMES
from ttspectral.svdp import SvdpParams, init_svdp_params, svdp_dof
from ttspectral.tensortrain import tt_contract

from helpers import reference_init_params


def schedule_of(d_out, d_in, r):
    """The rank schedule of the record of the learned-spectrum chain."""
    return sttp.chain_structure(sttp.factorize(d_out).factors,
                                sttp.factorize(d_in).factors, r,
                                LEARNED).schedule


def layout_cell_count(params) -> int:
    total = sum(la.params.size for la in params.u_layouts)
    total += sum(la.params.size for la in params.v_layouts)
    return total + params.spectrum.n_params


class TestFactorize:
    def test_72(self):
        assert sttp.factorize(72).factors == (2, 2, 2, 3, 3)

    def test_prime(self):
        assert sttp.factorize(17).factors == (17,)

    def test_16(self):
        assert sttp.factorize(16).factors == (2, 2, 2, 2)

    def test_ascending(self):
        for d in range(2, 200):
            factors = sttp.factorize(d).factors
            assert list(factors) == sorted(factors)
            assert np.prod(factors) == d

    def test_too_small(self):
        with pytest.raises(DomainError):
            sttp.factorize(1)

    @pytest.mark.parametrize("d", [16.0, True, np.float64(16), "16"])
    def test_non_integer_rejected(self, d):
        with pytest.raises(DomainError, match="dimension must be an integer"):
            sttp.factorize(d)
        assert type(sttp.factorize(16).d) is int

    def test_cached(self):
        assert sttp.factorize(72) is sttp.factorize(72)

    @pytest.mark.parametrize("d", [sttp.MAX_FACTORED_DIM + 1, 2**61 - 1,
                                   10**40])
    def test_above_the_bound_rejected(self, d):
        with pytest.raises(DomainError, match="exceeds the factorization"):
            sttp.factorize(d)


class TestSchedule:
    def test_worked_instance(self):
        sched = schedule_of(16, 72, 4)
        assert sched.dims == (2, 2, 2, 2, 3, 3, 2, 2, 2)
        assert sched.ranks == (1, 2, 4, 4, 4, 4, 4, 4, 2, 1)

    def test_middle_rank_equals_r(self):
        for d_out, d_in, r in ((16, 72, 4), (6, 35, 5), (8, 8, 3)):
            sched = schedule_of(d_out, d_in, r)
            assert sched.ranks[len(sttp.factorize(d_out))] == r

    def test_rank_cap_enforced(self):
        with pytest.raises(DomainError):
            schedule_of(4, 6, 5)


class TestCoreSizeSchedule:
    def test_worked_multiset(self):
        sizes = sttp.core_size_schedule(sttp.factorize(16), sttp.factorize(72),
                                        4)
        multiset = sorted((rows, cols) for rows, cols, _ in sizes)
        assert multiset == sorted(
            [(2, 2)] * 2 + [(4, 4)] * 2 + [(8, 4)] * 3 + [(12, 4)] * 2
        )

    def test_small_square_instance(self):
        # hand application of the schedule rules for 4x4, r=2
        sizes = sttp.core_size_schedule(sttp.factorize(4), sttp.factorize(4), 2)
        assert [(rows, cols) for rows, cols, _ in sizes] == \
            [(2, 2), (4, 2), (4, 2), (2, 2)]

    def test_cap_saturation_when_r_large(self):
        sched = schedule_of(8, 8, 8)
        from ttspectral.tensortrain import rank_caps

        caps = rank_caps(sched.dims)
        assert all(rank == cap
                   for rank, cap in zip(sched.ranks[1:-1], caps))

    def test_variants(self):
        sizes = sttp.core_size_schedule(sttp.factorize(16), sttp.factorize(72),
                                        4, LEARNED)
        variants = [v for _, _, v in sizes]
        # spectrum-adjacent cores (positions 3 and 4 of the 9) are full
        assert variants[3] == hh.FULL and variants[4] == hh.FULL
        assert all(v == hh.REDUCED for i, v in enumerate(variants)
                   if i not in (3, 4))
        sizes_id = sttp.core_size_schedule(sttp.factorize(16),
                                           sttp.factorize(72), 4, IDENTITY)
        variants_id = [v for _, _, v in sizes_id]
        assert variants_id[3] == hh.REDUCED and variants_id[4] == hh.FULL


class TestDof:
    def test_worked_instance_learned(self):
        # independent evaluation of the schedule sums: 232 - 104
        sched = schedule_of(16, 72, 4)
        total = sum(
            sched.ranks[k] * sched.dims[k] * sched.ranks[k + 1]
            for k in range(len(sched.dims))
        )
        interior = sum(sched.ranks[k] ** 2
                       for k in range(1, len(sched.dims)))
        assert (total, interior) == (232, 104)
        assert sttp.sttp_dof(16, 72, 4, LEARNED) == 128
        # cross-check against the layout cell count
        p = random_sttp_params(16, 72, 4, LEARNED, 0)
        assert layout_cell_count(p) == 128

    def test_worked_instance_vs_two_frame(self):
        assert svdp_dof(16, 72, 4, LEARNED) == 336
        assert sttp.sttp_dof(16, 72, 4, LEARNED) < svdp_dof(16, 72, 4, LEARNED)

    def test_identity_variant(self):
        p = random_sttp_params(16, 72, 4, IDENTITY, 1)
        assert sttp.sttp_dof(16, 72, 4, IDENTITY) == layout_cell_count(p) == 118

    def test_single_factor_sides_equal_two_frame(self):
        # prime dims: one core per side, so the chain is the plain two-frame
        # form, with the same counting and the same fixed-seed parameters
        for (d_out, d_in, r), mode, scheme in itertools.product(
                [(7, 5, 3), (2, 13, 2), (11, 11, 4), (3, 2, 1)],
                SPECTRUM_MODES, hh.INIT_SCHEMES):
            assert sttp.sttp_dof(d_out, d_in, r, mode) == \
                svdp_dof(d_out, d_in, r, mode)
            chain, plain = (
                init(d_out, d_in, r, mode, 11, scheme, lam=0.01)
                for init in (sttp.init_sttp_params, init_svdp_params))
            for a, b in zip(chain.layouts, plain.layouts, strict=True):
                assert (a.d, a.r, a.variant) == (b.d, b.r, b.variant)
                assert a.params.tobytes() == b.params.tobytes()
            sa, sb = chain.spectrum, plain.spectrum
            assert sa.signs.tobytes() == sb.signs.tobytes()
            assert (sa.s is None) == (sb.s is None)
            assert sa.s is None or sa.s.tobytes() == sb.s.tobytes()
            assert pack(chain).tobytes() == pack(plain).tobytes()
            assert decompress(chain).tobytes() == decompress(plain).tobytes()

    @pytest.mark.parametrize("d_out,d_in", [(12, 18), (16, 16), (9, 32),
                                            (25, 8)])
    def test_cell_count_equality(self, d_out, d_in):
        for r in range(1, min(8, d_out, d_in) + 1):
            for mode in (LEARNED, IDENTITY):
                p = random_sttp_params(d_out, d_in, r, mode, r)
                assert sttp.sttp_dof(d_out, d_in, r, mode) == \
                    layout_cell_count(p)

    def test_logarithmic_growth(self):
        # doubling the matrix size adds at most (max factor + 1) * r^2 per
        # new factor at fixed rank
        r = 4
        prev = sttp.sttp_dof(16, 16, r, LEARNED)
        for d in (32, 64, 128, 256):
            cur = sttp.sttp_dof(d, d, r, LEARNED)
            assert cur - prev <= 2 * (2 + 1) * r * r
            prev = cur

    def test_rank_violation(self):
        with pytest.raises(DomainError):
            sttp.sttp_dof(4, 4, 5, LEARNED)


class TestAssemble:
    def test_identity_spectrum_unit_singular_values(self):
        p = sttp.init_sttp_params(16, 72, 4, IDENTITY, 0, "identity")
        w = sttp.assemble_sttp(p)
        _, s, _ = svd_full(w)
        assert np.allclose(s[:4], 1.0, atol=1e-10)
        assert np.all(s[4:] <= 1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_rank_bounded_by_r(self, seed):
        p = random_sttp_params(16, 72, 4, LEARNED, seed)
        _, s, _ = svd_full(sttp.assemble_sttp(p))
        assert np.all(s[4:] <= 1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_singular_values_match_sigma(self, seed):
        p = random_sttp_params(12, 18, 3, LEARNED, seed)
        sigma = materialize_sigma(p.spectrum)
        _, s, _ = svd_full(sttp.assemble_sttp(p))
        assert np.allclose(s[:3], np.sort(np.abs(sigma))[::-1], atol=1e-9)

    def test_matches_full_chain_contraction(self):
        # merge the spectrum into U's last core and contract the whole chain;
        # the chain lists the input-side factors outward from the spectrum,
        # so those axes reverse before fusing back to matrix columns
        p = random_sttp_params(4, 6, 2, LEARNED, 7)
        u_cores, v_cores = ([hh.decode(la).reshape(shape)
                             for la, shape in zip(layouts, shapes)]
                            for layouts, shapes in zip(
                                (p.u_layouts, p.v_layouts),
                                p.structure.shapes))
        sigma = materialize_sigma(p.spectrum)
        u_cores[-1] = u_cores[-1] * sigma  # scale the spectrum-facing rank
        chain = u_cores + [np.transpose(c, (2, 1, 0))
                           for c in reversed(v_cores)]
        full = tt_contract(chain)
        n_out = len(p.out_fac)
        n_in = len(p.in_fac)
        order = list(range(n_out)) + list(
            range(n_out + n_in - 1, n_out - 1, -1)
        )
        w = np.transpose(full, order).reshape(p.d_out, p.d_in)
        assert np.allclose(w, sttp.assemble_sttp(p), atol=1e-12)

    def test_identity_init_is_truncated_identity(self):
        p = sttp.init_sttp_params(16, 12, 4, LEARNED, 0, "identity")
        w = sttp.assemble_sttp(p)
        assert np.allclose(w, np.eye(16, 4) @ np.eye(12, 4).T, atol=1e-10)

    def test_noisy_identity_init_stays_close(self):
        p = sttp.init_sttp_params(16, 12, 4, LEARNED, 3, "noisy_identity")
        w = sttp.assemble_sttp(p)
        target = np.eye(16, 4) @ np.eye(12, 4).T
        assert np.linalg.norm(w - target) <= 1e-2


class TestCrossPathConsistency:
    @pytest.mark.parametrize("shape", [(4, 6, 2), (16, 12, 4), (9, 8, 3),
                                       (7, 5, 3), (25, 27, 5)])
    def test_three_independent_paths_agree(self, shape):
        # chain composition, planned diagram execution, and the autodiff
        # forward are separate implementations of the same map
        from ttspectral.autodiff import assemble_with_tape
        from ttspectral.planner import apply_map

        d_out, d_in, r = shape
        for mode in (LEARNED, IDENTITY):
            p = random_sttp_params(d_out, d_in, r, mode, d_out + d_in)
            w_chain = sttp.assemble_sttp(p)
            w_tape, _ = assemble_with_tape(p)
            assert np.allclose(w_tape, w_chain, atol=1e-13, rtol=0)
            w_applied = apply_map(p, np.eye(d_in))
            assert np.linalg.norm(w_applied - w_chain) <= \
                1e-10 * max(1.0, np.linalg.norm(w_chain))


class TestJacobianNonRedundancy:
    @staticmethod
    def _jacobian(p):
        from ttspectral.autodiff import pack, unpack

        theta = pack(p)
        n = theta.size
        jac = np.empty((p.d_out * p.d_in, n))
        h = 1e-6
        for i in range(n):
            up, down = theta.copy(), theta.copy()
            up[i] += h
            down[i] -= h
            diff = sttp.assemble_sttp(unpack(p, up)) - \
                sttp.assemble_sttp(unpack(p, down))
            jac[:, i] = diff.ravel() / (2 * h)
        return jac

    def test_identity_spectrum_full_column_rank(self):
        # with the gauge-fixed layouts every parameter moves W independently
        for seed in range(3):
            p = random_sttp_params(4, 6, 2, IDENTITY, seed)
            jac = self._jacobian(p)
            assert jac.shape[1] == sttp.sttp_dof(4, 6, 2, IDENTITY)
            _, s, _ = svd_full(jac)
            assert s[-1] > 1e-7 * s[0]

    def test_learned_spectrum_kernel_is_exactly_the_radial_direction(self):
        # the max-magnitude rescaling of the spectrum is invariant along s,
        # so the map has corank exactly 1 with kernel span(s); every single
        # parameter perturbation still changes W at first order
        for seed in range(3):
            p = random_sttp_params(4, 6, 2, LEARNED, seed)
            jac = self._jacobian(p)
            n = jac.shape[1]
            assert n == sttp.sttp_dof(4, 6, 2, LEARNED)
            _, s, v = svd_full(jac)
            assert s[-2] > 1e-7 * s[0]
            assert s[-1] <= 1e-7 * s[0]
            radial = np.zeros(n)
            sv = p.spectrum.s
            radial[-sv.size:] = sv / np.linalg.norm(sv)
            assert abs(v[:, -1] @ radial) > 1.0 - 1e-6
            col_norms = np.linalg.norm(jac, axis=0)
            assert np.all(col_norms > 1e-8)


class TestEdgeCase:
    def test_square_rank_saturated(self):
        saturated, witness = sttp.edge_case_is_svdp(4, 4, 4)
        assert saturated
        assert witness["sttp_dof"] == witness["svdp_dof"] == 16

    def test_worked_instance_not_saturated(self):
        saturated, witness = sttp.edge_case_is_svdp(16, 72, 4)
        assert not saturated
        assert witness["sttp_dof"] == 128 and witness["svdp_dof"] == 336

    def test_rank_one_prime_dims(self):
        saturated, witness = sttp.edge_case_is_svdp(7, 11, 1)
        assert saturated
        assert witness["sttp_dof"] == witness["svdp_dof"]

    def test_saturated_interior_cores_are_square(self):
        _, witness = sttp.edge_case_is_svdp(4, 4, 4)
        middle = len(sttp.factorize(4))
        squares = witness["square_cores"]
        assert all(sq for i, sq in enumerate(squares)
                   if i not in (middle - 1, middle))


class TestParamsValidation:
    def test_structure_derived_from_dims(self):
        p = random_sttp_params(16, 72, 4, LEARNED, 0)
        q = sttp.SttpParams(16, 72, 4, p.u_layouts, p.v_layouts, p.spectrum)
        out_fac, in_fac = sttp.factorize(16), sttp.factorize(72)
        assert (q.out_fac, q.in_fac) == (out_fac, in_fac)
        assert q.structure is sttp.chain_structure(
            out_fac.factors, in_fac.factors, 4, LEARNED)
        assert q.schedule == schedule_of(16, 72, 4)
        assert q.n_params == sttp.sttp_dof(16, 72, 4, LEARNED)
        with pytest.raises(dataclasses.FrozenInstanceError):
            q.schedule = schedule_of(16, 72, 3)
        small = random_sttp_params(4, 6, 2, LEARNED, 0)
        with pytest.raises(DomainError, match="rank 5 violates"):
            sttp.SttpParams(4, 6, 5, small.u_layouts, small.v_layouts,
                            small.spectrum)

    @pytest.mark.parametrize("dims", [(16.0, 72, 4), (16, 72.0, 4),
                                      (16, 72, 4.0), (16, 72, True)])
    def test_non_integer_dims_rejected(self, dims):
        p = random_sttp_params(16, 72, 4, LEARNED, 0)
        with pytest.raises(DomainError, match="must be an integer"):
            sttp.SttpParams(*dims, p.u_layouts, p.v_layouts, p.spectrum)

    def test_variant_rules_enforced(self):
        p = random_sttp_params(16, 72, 4, LEARNED, 0)
        from ttspectral.errors import ShapeError

        bad_layouts = (p.u_layouts[0],) * len(p.u_layouts)
        with pytest.raises(ShapeError):
            sttp.SttpParams(p.d_out, p.d_in, p.r, bad_layouts, p.v_layouts,
                            p.spectrum)

    @pytest.mark.parametrize("field, message", [
        ("u_layouts", "U side expects 4 layouts"),
        ("v_layouts", "V side expects 5 layouts"),
        ("spectrum", "spectrum length does not match rank"),
    ])
    def test_wrong_part_rejected(self, field, message):
        p = random_sttp_params(16, 72, 4, LEARNED, 0)
        parts = {"u_layouts": p.u_layouts, "v_layouts": p.v_layouts,
                 "spectrum": p.spectrum}
        parts[field] = (parts[field][:-1] if field != "spectrum" else
                        random_sttp_params(16, 72, 3, LEARNED, 0).spectrum)
        with pytest.raises(ShapeError, match=message):
            sttp.SttpParams(16, 72, 4, **parts)


class TestStructureRecord:
    @pytest.mark.parametrize("scheme", ["svdp", "sttp"])
    def test_one_lookup_and_one_check_per_construction(self, scheme,
                                                       monkeypatch):
        p = SCHEMES[scheme].random(16, 72, 4, LEARNED, 0)
        checked = []
        monkeypatch.setattr(sttp, "check_integer",
                            lambda name, *_: checked.append(name))
        before = sttp._chain_structure.cache_info()
        q = SCHEMES[scheme].unpack(p.structure, pack(p), p.spectrum)
        after = sttp._chain_structure.cache_info()
        assert type(q) is type(p)
        assert after.hits + after.misses == before.hits + before.misses + 1
        n_factors = len(p.structure.out_factors) + len(p.structure.in_factors)
        assert checked == ["factor"] * n_factors + ["rank"]

    def test_counting_the_dof_composes_no_head(self, monkeypatch):
        # 2**32 is 32 factors of 2: an eager U head would be a 2**31 x 2**31
        # block
        def composed(*args):
            raise AssertionError("a head was composed")

        monkeypatch.setattr(hh, "fixed_frame", composed)
        sttp._chain_structure.cache_clear()
        tracemalloc.start()
        try:
            dof = sttp.sttp_dof(2**32, 2**32, 2**31, LEARNED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dof == 13835058055282163712
        assert peak < 2**16
        record = sttp.chain_structure((2,) * 32, (2,) * 32, 2**31, LEARNED)
        assert "heads" not in vars(record)


def _read_back(path, scheme, *shape):
    fileio.write_params(path, SCHEMES[scheme].random(*shape, seed=3))
    return fileio.read_params(path)


def _constructed(scheme, d_out, d_in, r, mode):
    structure = SCHEMES[scheme].structure(d_out, d_in, r, mode)
    theta, signs = sttp.init_chain(structure, 5)
    _, _, _, u, v, spectrum = sttp.unpack_chain(
        lambda *parts: parts, structure, theta, init_spectrum(mode, r, signs))
    if scheme == "svdp":
        return SvdpParams(d_out, d_in, r, *u, *v, spectrum)
    return sttp.SttpParams(d_out, d_in, r, u, v, spectrum)


PARAM_MAKERS = {
    "init": lambda path, scheme, *shape: SCHEMES[scheme].init(*shape, seed=1),
    "template": lambda path, scheme, *shape: SCHEMES[scheme].template(*shape),
    "random": lambda path, scheme, *shape: SCHEMES[scheme].random(*shape,
                                                                  seed=2),
    "read": _read_back,
    "unpack": lambda path, scheme, *shape: unpack(
        SCHEMES[scheme].template(*shape),
        pack(SCHEMES[scheme].random(*shape, seed=4))),
    "constructor": lambda path, scheme, *shape: _constructed(scheme, *shape),
}


class TestEveryMaker:
    @pytest.mark.parametrize("mode", [LEARNED, IDENTITY])
    @pytest.mark.parametrize("shape", [
        ("sttp", 7, 11, 2), ("sttp", 16, 72, 4), ("sttp", 12, 18, 3),
        ("sttp", 256, 256, 8), ("svdp", 16, 72, 4), ("svdp", 9, 7, 3),
        ("svdp", 1, 5, 1), ("svdp", 5, 1, 1)])
    @pytest.mark.parametrize("maker", sorted(PARAM_MAKERS))
    def test_exact_dof_and_bitwise_file_round_trip(self, tmp_path, maker,
                                                   shape, mode):
        scheme, *dims = shape
        p = PARAM_MAKERS[maker](tmp_path / "made.params", scheme, *dims, mode)
        assert isinstance(p, {"svdp": SvdpParams,
                              "sttp": sttp.SttpParams}[scheme])
        assert p.n_params == p.structure.dof == SCHEMES[scheme].dof(*dims,
                                                                    mode)
        a, b = tmp_path / "a.params", tmp_path / "b.params"
        fileio.write_params(a, p)
        fileio.write_params(b, fileio.read_params(a))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("scheme, shape", [("svdp", (9, 7, 3)),
                                               ("sttp", (16, 72, 4))])
    def test_numpy_integer_dims_written_as_digits(self, tmp_path, scheme,
                                                  shape):
        a, b = tmp_path / "a.params", tmp_path / "b.params"
        fileio.write_params(a, SCHEMES[scheme].init(*shape, LEARNED, 1))
        fileio.write_params(b, SCHEMES[scheme].init(
            *map(np.int64, shape), LEARNED, 1))
        assert a.read_bytes() == b.read_bytes()


INIT_SHAPES = [("svdp", 16, 72, 4), ("sttp", 16, 72, 4), ("sttp", 256, 256, 8),
               ("sttp", 16, 16, 4), ("svdp", 4, 4, 4), ("svdp", 6, 5, 1),
               ("sttp", 12, 18, 1), ("svdp", 1, 5, 1), ("svdp", 5, 1, 1)]


class TestInitMatchesNumpyQr:
    """Init through the QR gufunc against init through one
    ``np.linalg.qr(mode="raw")`` per core of the row-flipped draw: the same
    pack vector and spectrum signs, bit for bit.  The shapes take in square
    reduced cores (sttp 16x16 r4, svdp 4x4 r4 with the identity spectrum),
    r = 1, and svdp 1x5 and 5x1."""

    @pytest.mark.parametrize("init_scheme", hh.INIT_SCHEMES)
    @pytest.mark.parametrize("mode", [LEARNED, IDENTITY])
    @pytest.mark.parametrize("shape", INIT_SHAPES)
    def test_pack_and_signs_bitwise(self, shape, mode, init_scheme):
        scheme, *dims = shape
        for seed in (0, 11):
            got = SCHEMES[scheme].init(*dims, mode, seed, init_scheme)
            ref = reference_init_params(scheme, *dims, mode, seed,
                                        init_scheme)
            assert pack(got).tobytes() == pack(ref).tobytes()
            assert got.spectrum.signs.tobytes() == \
                ref.spectrum.signs.tobytes()


class TestInitMatchesOrthonormalizeThenEncode:
    """One QR per core against the route that orthonormalizes each draw and
    encodes the frame (a second QR).  ``geqrf(D M)`` and ``geqrf(D Q)``
    have the same reflectors when ``M = Q R`` with a positive R diagonal,
    so the spectrum signs agree bit for bit, the identity init entirely,
    and every layout to rounding: within 1e-15 of its largest cell."""

    @pytest.mark.parametrize("init_scheme", hh.INIT_SCHEMES)
    @pytest.mark.parametrize("mode", [LEARNED, IDENTITY])
    @pytest.mark.parametrize("shape", INIT_SHAPES + [
        ("sttp", 1024, 1024, 16), ("svdp", 256, 256, 8)])
    def test_signs_bitwise_and_layouts_to_rounding(self, shape, mode,
                                                   init_scheme):
        scheme, *dims = shape
        for seed in range(20):
            got = SCHEMES[scheme].init(*dims, mode, seed, init_scheme)
            ref = reference_init_params(scheme, *dims, mode, seed,
                                        init_scheme, one_qr=False)
            assert got.spectrum.signs.tobytes() == \
                ref.spectrum.signs.tobytes()
            if init_scheme == "identity":
                assert pack(got).tobytes() == pack(ref).tobytes()
            for la, want in zip(got.layouts, ref.layouts):
                scale = np.max(np.abs(want.params), initial=0.0)
                assert np.max(np.abs(la.params - want.params),
                              initial=0.0) <= 1e-15 * scale


def _clear_structure_caches():
    for cache in (sttp._chain_structure, hh._structure):
        cache.cache_clear()


# each entry takes a dimension and a rank; d >= 2 so that sttp_dof factors it
INTEGER_ENTRIES = {
    "chain_structure": lambda d, r: sttp.chain_structure((d,), (5,), r,
                                                         LEARNED),
    "core_specs": lambda d, r: sttp.core_specs(sttp.factorize(d),
                                               sttp.factorize(5), r, LEARNED),
    "chain_structure.heads": lambda d, r: sttp.chain_structure(
        (2, d), (5,), r, IDENTITY).heads,
    "chain_structure.dof": lambda d, r: sttp.chain_structure(
        (d,), (2, 3), r, LEARNED).dof,
    "svdp_dof": lambda d, r: svdp_dof(d, 5, r, LEARNED),
    "sttp_dof": lambda d, r: sttp.sttp_dof(d, 6, r, IDENTITY),
    "make_layout": lambda d, r: hh.make_layout(d, r, hh.REDUCED),
    "householder.dof": lambda d, r: hh.dof(d, r, hh.FULL),
}


class TestIntegerInputsBeforeCaches:
    @given(entry=st.sampled_from(sorted(INTEGER_ENTRIES)),
           d=st.integers(2, 7), r_frac=st.floats(0.0, 1.0),
           bad_arg=st.sampled_from(("d", "r")),
           bad=st.sampled_from(("float", "true", "false", "negative")))
    @settings(max_examples=200, deadline=None)
    def test_rejected_call_leaves_the_int_call_alone(self, entry, d, r_frac,
                                                     bad_arg, bad):
        # a float, a bool or a negative value raises DomainError before any
        # cache is filled; a numpy integer passes
        call = INTEGER_ENTRIES[entry]
        r = 1 + int(r_frac * (min(d, 5) - 1))
        _clear_structure_caches()
        want = repr(call(d, r))
        _clear_structure_caches()
        value = {"d": d, "r": r}[bad_arg]
        args = {"d": d, "r": r,
                bad_arg: {"float": float(value), "true": True, "false": False,
                          "negative": -value}[bad]}
        with pytest.raises(DomainError):
            call(args["d"], args["r"])
        assert repr(call(d, r)) == want
        call(np.int64(d), np.int32(r))
        assert repr(call(d, r)) == want

    def test_factorizations_hold_python_ints(self):
        with pytest.raises(DomainError, match="factored dimension"):
            sttp.DimFactorization(16, (2.0, 8))
        fac = sttp.factorize(np.int64(20))
        assert fac == sttp.DimFactorization(20, (2, 2, 5))
        assert all(type(n) is int for n in (fac.d, *fac.factors))


class TestNegativeSeed:
    @pytest.mark.parametrize("init", [
        lambda seed: sttp.init_chain(
            sttp.chain_structure((4,), (2, 3), 2, LEARNED), seed),
        lambda seed: init_svdp_params(4, 6, 2, LEARNED, seed),
        lambda seed: sttp.init_sttp_params(4, 6, 2, IDENTITY, seed)],
        ids=["init_chain", "init_svdp_params", "init_sttp_params"])
    def test_init_rejects_a_negative_seed(self, init):
        with pytest.raises(DomainError, match="seed must be >= 0, got -1"):
            init(-1)
        init(np.uint8(3))

    @pytest.mark.parametrize("scheme", ["svdp", "sttp"])
    def test_random_params_reject_a_negative_seed(self, scheme):
        with pytest.raises(DomainError, match="seed must be >= 0, got -1"):
            SCHEMES[scheme].random(4, 6, 2, LEARNED, -1)
        SCHEMES[scheme].random(4, 6, 2, LEARNED, np.uint8(3))
