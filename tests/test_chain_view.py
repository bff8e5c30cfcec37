"""Both parameter types read as one chain view; svdp is the one-core chain."""

import numpy as np
import pytest

from ttspectral import autodiff as ad
from ttspectral import fileio
from ttspectral import householder as hh
from ttspectral import planner as pl
from ttspectral.fit import FitConfig, fit_matrix
from ttspectral.sampling import random_sttp_params, random_svdp_params
from ttspectral.schemes import SCHEMES
from ttspectral.spectral import SpectrumParams
from ttspectral.spectrum_modes import IDENTITY, LEARNED
from ttspectral.sttp import SttpParams, core_specs, init_sttp_params
from ttspectral.svdp import SvdpParams, init_svdp_params


class TestView:
    @pytest.mark.parametrize("mode", [LEARNED, IDENTITY])
    def test_svdp_is_the_one_core_chain(self, mode):
        p = random_svdp_params(16, 72, 4, mode, 0)
        view = p.chain
        assert view.scheme == "svdp"
        assert (view.out_factors, view.in_factors) == ((16,), (72,))
        assert view.ranks == (1, 4, 1)
        assert view.u_layouts == (p.u_layout,)
        assert view.v_layouts == (p.v_layout,)
        assert view.u_shapes == ((1, 16, 4),)
        assert view.v_shapes == ((1, 72, 4),)

    def test_sttp_view_follows_core_specs(self):
        p = random_sttp_params(16, 72, 4, LEARNED, 0)
        view = p.chain
        u_specs, v_specs = core_specs(p.out_fac, p.in_fac, p.r, LEARNED)
        assert view.scheme == "sttp"
        assert view.ranks == p.schedule.ranks
        assert view.layouts == p.u_layouts + p.v_layouts
        assert view.u_shapes == tuple(spec.shape for spec in u_specs)
        assert view.v_shapes == tuple(spec.shape for spec in v_specs)

    @pytest.mark.parametrize("maker", [random_svdp_params, random_sttp_params])
    def test_rebuild_keeps_type_and_structure(self, maker):
        p = maker(12, 18, 3, LEARNED, 1)
        q = p.chain.rebuild(list(p.chain.layouts), p.spectrum)
        assert type(q) is type(p)
        assert isinstance(q, SvdpParams) == (maker is random_svdp_params)
        assert np.array_equal(ad.pack(q), ad.pack(p))

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_template_has_the_scheme_structure(self, scheme):
        template = SCHEMES[scheme].template(16, 72, 4, LEARNED)
        random = SCHEMES[scheme].random(16, 72, 4, LEARNED, 0)
        assert template.chain.u_shapes == random.chain.u_shapes
        assert template.chain.v_shapes == random.chain.v_shapes
        assert template.n_params == SCHEMES[scheme].dof(16, 72, 4, LEARNED)
        assert not np.any(ad.pack(template)[: -4])

    @pytest.mark.parametrize("maker", [random_svdp_params, random_sttp_params])
    def test_decode_layouts_is_bitwise_per_layout_decode(self, maker):
        p = maker(16, 72, 4, LEARNED, 2)
        saved, _ = hh.decode_layouts(p.chain.layouts)
        for grouped, layout in zip(saved, p.chain.layouts):
            assert np.array_equal(grouped, hh.decode(layout))

    @pytest.mark.parametrize("maker,calls", [(random_svdp_params, 2),
                                             (random_sttp_params, 9)])
    def test_apply_decodes_each_layout_with_free_cells(self, maker, calls,
                                                       monkeypatch):
        # every layout goes through decode once, the 4 square reduced cores
        # of sttp 16x72 r4 (no free cells) too
        p = maker(16, 72, 4, LEARNED, 3)
        seen = []
        decode = hh.decode
        monkeypatch.setattr(hh, "decode",
                            lambda la: seen.append(la) or decode(la))
        pl.apply_map(p, np.ones((72, 2)))
        assert len(seen) == calls
        assert seen == list(p.chain.layouts)

    @pytest.mark.parametrize("maker,lookups", [(random_svdp_params, 0),
                                               (random_sttp_params, 0)])
    def test_warm_apply_looks_up_structures_only_for_fixed_frames(
            self, maker, lookups):
        # a decoded layout, fixed frame or not, keeps its frame: no lookups
        p = maker(16, 72, 4, LEARNED, 4)
        x = np.ones((72, 2))
        pl.apply_map(p, x)
        before = hh._structure.cache_info()
        pl.apply_map(p, x)
        after = hh._structure.cache_info()
        assert after.hits - before.hits == lookups
        assert after.misses == before.misses

    def test_parameter_types_stay_distinct(self):
        assert not isinstance(random_sttp_params(4, 6, 2, LEARNED, 0),
                              SvdpParams)
        assert isinstance(random_sttp_params(4, 6, 2, LEARNED, 0), SttpParams)


class TestUnitDimSvdp:
    """svdp accepts d = 1, which ``factorize`` rejects; the chain view must
    not route svdp dims through it."""

    @pytest.mark.parametrize("mode", [LEARNED, IDENTITY])
    @pytest.mark.parametrize("d_out,d_in", [(1, 5), (5, 1)])
    def test_end_to_end(self, tmp_path, d_out, d_in, mode):
        p = init_svdp_params(d_out, d_in, 1, mode, 3)
        a, b = tmp_path / "a.params", tmp_path / "b.params"
        fileio.write_params(a, p)
        back = fileio.read_params(a)
        assert isinstance(back, SvdpParams)
        fileio.write_params(b, back)
        assert a.read_bytes() == b.read_bytes()

        x = np.random.default_rng(0).standard_normal((d_in, 3))
        want = pl.decompress(back) @ x
        got = pl.apply_map(back, x)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        assert pl.naive_flops(back, 3) > 0

        target = np.random.default_rng(1).standard_normal((d_out, d_in))
        cfg = FitConfig("svdp", 1, mode, max_steps=5, tol=1e-300, seed=2)
        result = fit_matrix(target, cfg)
        assert len(result.trace) == 5
        assert np.all(np.isfinite(result.trace))
        assert ad.pack(result.params).size == p.n_params


class TestIdentityEquality:
    # parameter objects memoize frames and sigma, so they compare by identity
    @pytest.mark.parametrize("make", [
        lambda: SpectrumParams(LEARNED, 2, [1.0, 0.5]),
        lambda: hh.make_layout(5, 2, hh.FULL, np.arange(7.0) / 10),
        lambda: init_svdp_params(6, 5, 2, LEARNED, 0),
        lambda: init_sttp_params(16, 72, 4, IDENTITY, 0),
    ], ids=["spectrum", "layout", "svdp", "sttp"])
    def test_equal_values_are_distinct_objects(self, make):
        p, twin = make(), make()
        assert p == p
        assert not p == twin
        assert p != twin
        assert hash(p) == hash(p)
        assert len({p, twin}) == 2
