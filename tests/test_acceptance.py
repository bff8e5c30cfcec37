"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, not configurable.
"""

import time

import numpy as np
import pytest

from ttspectral import autodiff as ad
from ttspectral import fileio
from ttspectral import fit as ft
from ttspectral import householder as hh
from ttspectral import planner as pl
from ttspectral import sttp as stt
from ttspectral import svdp as svd
from ttspectral import tensortrain as tt
from ttspectral.sampling import random_sttp_params, random_svdp_params
from ttspectral.spectral import (
    LayerBudget,
    NetworkSummary,
    compression_ratio,
    materialize_sigma,
)
from ttspectral.spectrum_modes import IDENTITY, LEARNED, LEARNED_REGULARIZED

from helpers import (
    brute_force_min_cost,
    make_random_layout,
    one_shot_einsum,
    random_chain_diagram,
    reference_orthonormalize,
    unit_top_target,
)

SHAPE_FAMILIES = [(64, 16), (32, 8), (17, 5), (9, 9)]


def test_criterion_01_orthonormality_suite():
    start = time.monotonic()
    for seed in range(200):
        rng = np.random.default_rng(seed)
        for d, r in SHAPE_FAMILIES:
            for variant in (hh.FULL, hh.REDUCED):
                plain = make_random_layout(d, r, variant, rng)
                # the plain frame, and the frame decode_batch gives it
                # padded to (d + 5, r + 3) by a member of those dims
                padded, _ = hh.decode_batch(
                    [plain, hh.make_layout(d + 5, r + 3)])
                for q in (hh.decode(plain), padded):
                    gram = np.linalg.norm(q.T @ q - np.eye(r))
                    assert gram <= 1e-10, (d, r, variant, seed, gram)
                    if variant == hh.REDUCED:
                        below = q[:r, :r][np.tril_indices(r, -1)]
                        assert np.max(np.abs(below), initial=0.0) <= 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"orthonormality suite took {elapsed:.1f}s"
    print(f"\nCRITERION 1 PASS orthonormality suite "
          f"(200 seeds x {len(SHAPE_FAMILIES)} shapes x full/reduced/padded, "
          f"{elapsed:.1f}s)")


def test_criterion_02_chain_orthonormality_and_gauge():
    start = time.monotonic()
    chain_shapes = [
        ((2, 2, 2, 2), (1, 2, 4, 4, 4)),  # the 16 x 4 worked chain
        ((2, 3, 2), (1, 2, 4, 3)),
        ((4, 2, 3), (1, 3, 3, 2)),
        ((2, 2), (1, 2, 2)),
        ((3, 3, 2, 2), (1, 2, 2, 4, 1)),
    ]
    for case in range(100):
        dims, ranks = chain_shapes[case % len(chain_shapes)]
        rng = np.random.default_rng(1000 + case)
        cores = []
        for k, n in enumerate(dims):
            layout = make_random_layout(ranks[k] * n, ranks[k + 1], hh.FULL,
                                        rng)
            cores.append(hh.decode(layout).reshape(ranks[k], n, ranks[k + 1]))
        frame = tt.frames_from_cores(cores)
        r = ranks[-1]
        gram = np.linalg.norm(frame.T @ frame - np.eye(r))
        assert gram <= 1e-10, (case, gram)
        rotations = []
        for core in cores[:-1]:
            m = core.shape[2]
            rotations.append(reference_orthonormalize(
                rng.standard_normal((m, m))))
        rotated = tt.gauge_transform(cores, rotations)
        for k, core in enumerate(rotated):
            tt.check_core_orthonormal(core, k, tol=1e-10)
        frame2 = tt.frames_from_cores(rotated)
        assert np.linalg.norm(frame - frame2) <= 1e-10
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"chain suite took {elapsed:.1f}s"
    print(f"\nCRITERION 2 PASS orthonormal composition and gauge invariance "
          f"(100 chains, {elapsed:.1f}s)")


def test_criterion_03_dof_exactness():
    mask_count_cache = {}

    def cells(d, r, variant):
        key = (d, r, variant)
        if key not in mask_count_cache:
            mask_count_cache[key] = int(hh.layout_mask(d, r, variant).sum())
        return mask_count_cache[key]

    for d_out in range(2, 65):
        for d_in in range(2, 65):
            for r in range(1, min(8, d_out, d_in) + 1):
                learned = cells(d_out, r, hh.FULL) + cells(d_in, r, hh.FULL) + r
                assert svd.svdp_dof(d_out, d_in, r, LEARNED) == learned
                ident = cells(d_out, r, hh.REDUCED) + cells(d_in, r, hh.FULL)
                assert svd.svdp_dof(d_out, d_in, r, IDENTITY) == ident
                for mode in (LEARNED, IDENTITY):
                    out_fac = stt.factorize(d_out)
                    in_fac = stt.factorize(d_in)
                    sizes = stt.core_size_schedule(out_fac, in_fac, r, mode)
                    count = sum(cells(rows, cols, variant)
                                for rows, cols, variant in sizes)
                    if mode == LEARNED:
                        count += r
                    assert stt.sttp_dof(d_out, d_in, r, mode) == count, (
                        d_out, d_in, r, mode
                    )
    assert stt.sttp_dof(16, 72, 4, LEARNED) == 128
    assert svd.svdp_dof(16, 72, 4, LEARNED) == 336
    sizes = stt.core_size_schedule(stt.factorize(16), stt.factorize(72), 4)
    multiset = sorted((rows, cols) for rows, cols, _ in sizes)
    assert multiset == sorted([(2, 2)] * 2 + [(4, 4)] * 2 + [(8, 4)] * 3
                              + [(12, 4)] * 2)
    print("\nCRITERION 3 PASS dof exactness (all dims <= 64, r <= 8; "
          "worked instance 128/336 and core-size multiset)")


def test_criterion_04_planner():
    diagram = pl.svdp_diagram(16, 72, 4, 1)
    assert pl.plan(diagram).total_flops == 708
    reference = random_svdp_params(16, 72, 4, LEARNED, 0)
    assert pl.naive_flops(reference, 1) == 11584
    # exhaustive minimality on small diagrams
    for seed in range(30):
        rng = np.random.default_rng(2000 + seed)
        n = int(rng.integers(3, 7))
        small = random_chain_diagram(rng, n, with_diagonal=seed % 3 == 0)
        assert pl.plan(small).total_flops == brute_force_min_cost(small)
    for d_x in (1, 5):
        small = pl.svdp_diagram(6, 9, 2, d_x)
        assert pl.plan(small).total_flops == brute_force_min_cost(small)
    # execution against the dense one-shot oracle
    for seed in range(50):
        rng = np.random.default_rng(3000 + seed)
        diagram = random_chain_diagram(rng, int(rng.integers(3, 7)),
                                       with_diagonal=seed % 4 == 0)
        data = {}
        for i, node in enumerate(diagram.nodes):
            if node.diagonal:
                data[i] = rng.standard_normal(node.dims[0])
            else:
                data[i] = rng.standard_normal(node.dims)
        got = pl.execute(pl.plan(diagram), data)
        want = one_shot_einsum(diagram, data)
        scale = max(1.0, float(np.linalg.norm(want)))
        assert np.linalg.norm(got - want) <= 1e-10 * scale
    print("\nCRITERION 4 PASS planner (708 vs 11584; exhaustive minimality; "
          "50 executions vs dense oracle)")


def test_criterion_05_apply_decompress_equivalence():
    shapes = {
        "svdp": [(16, 72, 4), (9, 7, 3)],
        "sttp": [(16, 12, 4), (12, 18, 3)],
    }
    makers = {"svdp": random_svdp_params, "sttp": random_sttp_params}
    for scheme in ("svdp", "sttp"):
        for seed in range(50):
            d_out, d_in, r = shapes[scheme][seed % 2]
            mode = LEARNED if seed % 3 else IDENTITY
            params = makers[scheme](d_out, d_in, r, mode, 4000 + seed)
            dense = pl.decompress(params)
            rng = np.random.default_rng(5000 + seed)
            for d_x in (1, 7, 64):
                x = rng.standard_normal((d_in, d_x))
                got = pl.apply_map(params, x)
                want = dense @ x
                assert np.linalg.norm(got - want) <= \
                    1e-10 * max(1.0, np.linalg.norm(want))
    print("\nCRITERION 5 PASS apply/decompress equivalence "
          "(2 schemes x 50 parameter sets x d_x in {1, 7, 64})")


def test_criterion_06_gradcheck():
    start = time.monotonic()
    cases = [
        ("svdp", (8, 6, 3), random_svdp_params, svd.svdp_dof),
        ("sttp", (16, 72, 4), random_sttp_params, stt.sttp_dof),
    ]
    for scheme, (d_out, d_in, r), maker, dof_fn in cases:
        for mode in (IDENTITY, LEARNED, LEARNED_REGULARIZED):
            lam = 0.1 if mode == LEARNED_REGULARIZED else 0.0
            for seed in range(20):
                params = maker(d_out, d_in, r, mode, 6000 + seed, lam)
                rng = np.random.default_rng(7000 + seed)
                loss = ad.FrobeniusLoss(rng.standard_normal((d_out, d_in)),
                                        lam)
                report = ad.gradcheck(params, loss)
                assert not report.sigma_tied, (scheme, mode, seed)
                assert report.passed, (scheme, mode, seed, report.max_rel_err)
                assert report.max_rel_err <= 1e-6
                assert report.n_params == dof_fn(d_out, d_in, r, mode)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"gradcheck suite took {elapsed:.1f}s"
    print(f"\nCRITERION 6 PASS gradcheck (2 schemes x 3 modes x 20 seeds, "
          f"max rel err <= 1e-6, {elapsed:.1f}s)")


def test_criterion_07_eckart_young_fitting():
    start = time.monotonic()
    # random targets with unit top singular value: within 1.05x of optimal
    for seed in range(10):
        target = unit_top_target((16, 12), 100 + seed)
        opt = ft.eckart_young_optimum(target, 4)
        cfg = ft.FitConfig("svdp", 4, LEARNED, seed=seed, max_steps=5000)
        res = ft.fit_matrix(target, cfg)
        err = res.frobenius_error(target)
        assert err <= 1.05 * opt, (seed, err / opt)
        assert err >= opt - 1e-8
    # realizable targets reach 1e-6 relative error
    for seed in range(2):
        target = pl.decompress(random_svdp_params(16, 12, 4, LEARNED,
                                                  300 + seed))
        cfg = ft.FitConfig("svdp", 4, LEARNED, lr=0.2, seed=seed,
                           max_steps=40000, tol=1e-16)
        res = ft.fit_matrix(target, cfg)
        assert res.frobenius_error(target) <= 1e-6 * np.linalg.norm(target)
    target = pl.decompress(random_sttp_params(4, 6, 2, LEARNED, 500))
    cfg = ft.FitConfig("sttp", 2, LEARNED, lr=0.1, seed=0, max_steps=20000,
                       tol=1e-16)
    res = ft.fit_matrix(target, cfg)
    assert res.frobenius_error(target) <= 1e-6 * np.linalg.norm(target)
    # saturated-cap chains match the two-frame fit on identical targets
    saturated, witness = stt.edge_case_is_svdp(4, 6, 2)
    assert saturated and witness["sttp_dof"] == witness["svdp_dof"]
    target = pl.decompress(random_sttp_params(4, 6, 2, LEARNED, 501))
    errs = {}
    for scheme, lr in (("svdp", 0.2), ("sttp", 0.1)):
        cfg = ft.FitConfig(scheme, 2, LEARNED, lr=lr, seed=1, max_steps=20000,
                           tol=1e-16)
        errs[scheme] = ft.fit_matrix(target, cfg).frobenius_error(target)
    assert abs(errs["svdp"] - errs["sttp"]) <= 1e-6 * np.linalg.norm(target)
    # rank-truncated chains never beat the unconstrained optimum
    target = unit_top_target((16, 12), 7)
    opt = ft.eckart_young_optimum(target, 2)
    cfg = ft.FitConfig("sttp", 2, LEARNED, seed=0, max_steps=2000)
    res = ft.fit_matrix(target, cfg)
    assert res.frobenius_error(target) >= opt - 1e-8
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"fitting suite took {elapsed:.1f}s"
    print(f"\nCRITERION 7 PASS fitting (10 near-optimal random fits, "
          f"realizable recovery to 1e-6, saturated equivalence, "
          f"{elapsed:.1f}s)")


def test_criterion_08_spectral_control():
    cfg = ft.FitConfig("svdp", 3, LEARNED)
    report = ft.demo_train(cfg, 0, steps=2000)
    assert len(report.losses) == 2000
    for pair in report.sigma_max:
        assert max(pair) <= 1.0 + 1e-10
    for bound in report.bounds:
        assert bound <= 1.0 + 1e-9
    # regularized realizable fits keep every singular value off zero
    for seed in range(2):
        target = pl.decompress(random_svdp_params(16, 12, 4, LEARNED,
                                                  600 + seed))
        cfg = ft.FitConfig("svdp", 4, LEARNED_REGULARIZED, lam=0.1, lr=0.2,
                           seed=seed, max_steps=5000)
        res = ft.fit_matrix(target, cfg)
        sigma = materialize_sigma(res.params.spectrum)
        assert np.min(np.abs(sigma)) >= 0.01
    print("\nCRITERION 8 PASS spectral control (2000-step demo bound <= 1; "
          "regularized |sigma| >= 0.01)")


def test_criterion_09_compression_arithmetic():
    two_layer = NetworkSummary((
        LayerBudget(16, 72, dof=svd.svdp_dof(16, 72, 4, LEARNED), extra=16),
        LayerBudget(8, 16, dof=svd.svdp_dof(8, 16, 4, LEARNED), extra=8),
    ))
    assert compression_ratio(two_layer) == pytest.approx(33.74, abs=0.01)
    single = NetworkSummary((
        LayerBudget(16, 72, dof=stt.sttp_dof(16, 72, 4, LEARNED), extra=16),
    ))
    assert compression_ratio(single) == pytest.approx(12.33, abs=0.01)
    dense_net = NetworkSummary((LayerBudget(6, 7, dof=42, extra=3),))
    assert compression_ratio(dense_net) == 100.0
    print("\nCRITERION 9 PASS compression arithmetic (33.74, 12.33, 100)")


def test_criterion_10_round_trips(tmp_path):
    # encode/decode with signs
    for seed in range(25):
        rng = np.random.default_rng(8000 + seed)
        layout = make_random_layout(11, 4, hh.FULL, rng)
        signs = np.where(rng.integers(0, 2, 4) == 0, -1.0, 1.0)
        q = hh.decode(layout) * signs
        back, back_signs = hh.encode(q)
        assert np.linalg.norm(hh.decode(back) * back_signs - q) <= 1e-10
    # file round-trips, bit identical
    rng = np.random.default_rng(9000)
    m = rng.standard_normal((9, 5))
    mpath = tmp_path / "m.mat"
    fileio.write_matrix(mpath, m)
    assert np.array_equal(fileio.read_matrix(mpath), m)
    mpath2 = tmp_path / "m2.mat"
    fileio.write_matrix(mpath2, fileio.read_matrix(mpath))
    assert mpath.read_bytes() == mpath2.read_bytes()
    for params in (random_svdp_params(6, 5, 3, LEARNED, 1),
                   random_sttp_params(16, 72, 4, IDENTITY, 2)):
        a, b = tmp_path / "a.params", tmp_path / "b.params"
        fileio.write_params(a, params)
        fileio.write_params(b, fileio.read_params(a))
        assert a.read_bytes() == b.read_bytes()
    # batch decode bitwise equals sequential decode
    rng = np.random.default_rng(9100)
    layouts = [make_random_layout(7, 3, v, rng)
               for v in (hh.FULL, hh.REDUCED, hh.FULL)]
    for q, layout in zip(hh.decode_batch(layouts), layouts):
        assert np.array_equal(q, hh.decode(layout))
    print("\nCRITERION 10 PASS round-trips (encode/decode, files bitwise, "
          "batch decode bitwise)")
