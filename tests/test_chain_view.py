"""Both parameter types read their chain from their structure record and
their own layouts; svdp is the one-core chain."""

import copy
import pickle

import numpy as np
import pytest

from ttspectral import autodiff as ad
from ttspectral import fileio
from ttspectral import householder as hh
from ttspectral import planner as pl
from ttspectral.fit import FitConfig, fit_matrix
from ttspectral.sampling import random_sttp_params, random_svdp_params
from ttspectral.schemes import SCHEMES
from ttspectral.spectral import SpectrumParams, materialize_sigma
from ttspectral.spectrum_modes import IDENTITY, LEARNED
from ttspectral.sttp import (
    SttpParams,
    chain_frames,
    chain_structure,
    core_specs,
    init_sttp_params,
)
from ttspectral.svdp import SvdpParams, init_svdp_params

from helpers import (
    decode_packed,
    library_decode_fwd,
    library_decode_vjp,
    per_frame_tape,
    reference_chain_vjp,
    reference_frames,
)


class TestView:
    @pytest.mark.parametrize("mode", [LEARNED, IDENTITY])
    def test_svdp_is_the_one_core_chain(self, mode):
        p = random_svdp_params(16, 72, 4, mode, 0)
        s = p.structure
        assert p.scheme == "svdp"
        assert s is chain_structure((16,), (72,), 4, mode)
        assert (s.out_factors, s.in_factors) == ((16,), (72,))
        assert s.schedule.ranks == (1, 4, 1)
        assert p.u_layouts == (p.u_layout,)
        assert p.v_layouts == (p.v_layout,)
        assert p.layouts == (p.u_layout, p.v_layout)
        assert p.specs is s.specs
        assert s.shapes == (((1, 16, 4),), ((1, 72, 4),))

    def test_sttp_view_follows_core_specs(self):
        p = random_sttp_params(16, 72, 4, LEARNED, 0)
        s = p.structure
        u_specs, v_specs = core_specs(p.out_fac, p.in_fac, p.r, LEARNED)
        assert p.scheme == "sttp"
        assert (s.out_factors, s.in_factors) == ((2, 2, 2, 2), (2, 2, 2, 3, 3))
        assert p.specs is s.specs == (u_specs, v_specs)
        assert p.layouts == p.u_layouts + p.v_layouts
        assert s.shapes == (tuple(spec.shape for spec in u_specs),
                            tuple(spec.shape for spec in v_specs))

    @pytest.mark.parametrize("maker", [random_svdp_params, random_sttp_params])
    def test_rebuild_keeps_type_and_structure(self, maker):
        p = maker(12, 18, 3, LEARNED, 1)
        q = p.rebuild(list(p.layouts), p.spectrum)
        assert type(q) is type(p)
        assert isinstance(q, SvdpParams) == (maker is random_svdp_params)
        assert np.array_equal(ad.pack(q), ad.pack(p))

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_template_has_the_scheme_structure(self, scheme):
        template = SCHEMES[scheme].template(16, 72, 4, LEARNED)
        random = SCHEMES[scheme].random(16, 72, 4, LEARNED, 0)
        assert template.structure is random.structure
        assert template.n_params == SCHEMES[scheme].dof(16, 72, 4, LEARNED)
        assert not np.any(ad.pack(template)[: -4])

    @pytest.mark.parametrize("maker", [random_svdp_params, random_sttp_params])
    def test_decode_plan_is_bitwise_per_layout_decode(self, maker):
        p = maker(16, 72, 4, LEARNED, 2)
        _, saved, _ = decode_packed(p.layouts)
        for grouped, layout in zip(saved, p.layouts):
            assert np.array_equal(grouped, hh.decode(layout))

    @pytest.mark.parametrize("maker,calls", [(random_svdp_params, 2),
                                             (random_sttp_params, 5)])
    def test_apply_decodes_each_layout_with_free_cells(self, maker, calls,
                                                       monkeypatch):
        # each layout with free cells goes through decode once; the 4 square
        # reduced cores of sttp 16x72 r4 (no free cells) are its fixed heads
        p = maker(16, 72, 4, LEARNED, 3)
        seen = []
        decode = hh.decode
        monkeypatch.setattr(hh, "decode",
                            lambda la: seen.append(la) or decode(la))
        pl.apply_map(p, np.ones((72, 2)))
        assert len(seen) == calls
        assert seen == [la for la in p.layouts if la.params.size]

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


# (params, fixed head cores per side); a one-core side without free cells
# (1 x 1, or square reduced) is a head of one core, svdp's too
HEAD_CASES = {
    "svdp 1x5 r1": (lambda: init_svdp_params(1, 5, 1, LEARNED, 0), (1, 0)),
    "svdp 5x1 r1 identity": (
        lambda: init_svdp_params(5, 1, 1, IDENTITY, 0), (0, 1)),
    "svdp 4x6 r4 identity": (
        lambda: random_svdp_params(4, 6, 4, IDENTITY, 1), (1, 0)),
    "sttp 16x72 r4": (lambda: random_sttp_params(16, 72, 4, LEARNED, 2),
                      (2, 2)),
    "sttp 16x72 r4 identity": (
        lambda: random_sttp_params(16, 72, 4, IDENTITY, 3), (2, 2)),
    "sttp 256x256 r8": (lambda: random_sttp_params(256, 256, 8, LEARNED, 4),
                        (3, 3)),
    "sttp 1024x1024 r16": (
        lambda: random_sttp_params(1024, 1024, 16, LEARNED, 5), (4, 4)),
    "sttp 4x4 r4 identity": (
        lambda: random_sttp_params(4, 4, 4, IDENTITY, 6), (2, 1)),
    "sttp 72x16 r4": (lambda: random_sttp_params(72, 16, 4, LEARNED, 7),
                      (2, 2)),
}


class TestFixedHeads:
    """Each side composes from its fixed head's block, bit for bit the
    composition and VJP over every core (``tests/helpers.py``)."""

    @pytest.mark.parametrize("case", sorted(HEAD_CASES))
    def test_bitwise_equal_to_the_all_core_oracle(self, case):
        make, n_heads = HEAD_CASES[case]
        p = make()
        assert tuple(n for n, _ in p.structure.heads) == n_heads
        u_ref, v_ref = reference_frames(p)
        u, v = chain_frames(p)
        assert u.tobytes() == u_ref.tobytes()
        assert v.tobytes() == v_ref.tobytes()
        sigma = materialize_sigma(p.spectrum)
        assert pl.decompress(p).tobytes() == \
            ((u_ref * sigma) @ v_ref.T).tobytes()
        for d_x in (1, 64):
            x = np.random.default_rng(d_x).standard_normal((p.d_in, d_x))
            four = pl.plan(pl.svdp_diagram(p.d_out, p.d_in, p.r, d_x))
            want = pl.execute(four, {0: u_ref, 1: sigma, 2: v_ref, 3: x})
            assert pl.apply_map(p, x).tobytes() == want.tobytes()
        g_w = np.random.default_rng(8).standard_normal((p.d_out, p.d_in))
        _, tape = ad.assemble_with_tape(p)
        _, _, grad_ref = per_frame_tape(p, g_w, fwd=library_decode_fwd,
                                        vjp=library_decode_vjp)
        assert ad.vjp(tape, g_w).tobytes() == grad_ref.tobytes()

    def test_a_side_without_free_cells_is_its_head_block(self):
        p = random_sttp_params(4, 4, 4, IDENTITY, 6)
        (n_u, head), _ = p.structure.heads
        assert n_u == len(p.u_layouts) == 2
        assert not any(la.params.size for la in p.u_layouts)
        assert chain_frames(p)[0] is head
        assert not head.flags.writeable

    def test_a_one_core_side_is_its_decoded_frame(self):
        p = random_svdp_params(16, 72, 4, LEARNED, 0)
        u, v = chain_frames(p)
        assert u is hh.decode(p.u_layout) and v is hh.decode(p.v_layout)
        p = random_sttp_params(5, 6, 2, LEARNED, 0)  # 5 is prime: one U core
        assert chain_frames(p)[0] is hh.decode(p.u_layouts[0])

    @pytest.mark.parametrize("scheme,factors", [
        ("sttp", ((2, 2, 2, 2), (2, 2, 2, 3, 3))), ("svdp", ((16,), (72,)))])
    def test_heads_are_cached_per_structure(self, scheme, factors):
        a = SCHEMES[scheme].random(16, 72, 4, LEARNED, 0)
        b = SCHEMES[scheme].init(16, 72, 4, LEARNED, 1)
        record = chain_structure(*factors, 4, LEARNED)
        assert a.structure is b.structure is record
        assert a.structure.heads is b.structure.heads is record.heads
        # a clone rebuilds through the constructor, so it shares them too
        for clone in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a),
                      copy.copy(a)):
            assert type(clone) is type(a)
            assert clone.structure is record
            assert ad.pack(clone).tobytes() == ad.pack(a).tobytes()

    def test_the_tape_pulls_no_gradient_into_a_head(self):
        p = random_sttp_params(16, 72, 4, LEARNED, 9)
        _, tape = ad.assemble_with_tape(p)
        g_w = np.random.default_rng(1).standard_normal((16, 72))
        g_u, _, _ = tape.cotangents(g_w)
        (chain, blocks), _ = tape.chains
        assert chain[0] is p.structure.heads[0][1] and len(chain) == 3
        u_shapes = p.structure.shapes[0][1:]
        got = ad._chain_vjp(chain, u_shapes, blocks, g_u, True)
        want = reference_chain_vjp(chain, u_shapes, blocks, g_u)
        assert got[0] is None and want[0] is not None
        for a, b in zip(got[1:], want[1:]):
            assert a.tobytes() == b.tobytes()
