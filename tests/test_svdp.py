"""Two-frame assembly: dof accounting, assembly, span, gauge redundancy."""

import numpy as np
import pytest

from ttspectral import householder as hh
from ttspectral import svdp
from ttspectral.dense import svd_full
from ttspectral.errors import DomainError, ShapeError
from ttspectral.sampling import random_svdp_params
from ttspectral.spectral import SpectrumParams, materialize_sigma
from ttspectral.spectrum_modes import IDENTITY, LEARNED


class TestRankCap:
    def test_conv_first_layer(self):
        assert svdp.rank_cap(64, 27) == 27

    def test_square(self):
        assert svdp.rank_cap(5, 5) == 5

    def test_row_vector(self):
        assert svdp.rank_cap(1, 100) == 1


class TestDof:
    def test_learned_16x72_r4(self):
        # oracle: sum of layout free-cell counts plus r spectrum values
        cells = int(hh.layout_mask(16, 4, hh.FULL).sum()) + \
            int(hh.layout_mask(72, 4, hh.FULL).sum()) + 4
        assert cells == 336
        assert svdp.svdp_dof(16, 72, 4, LEARNED) == cells

    def test_identity_16x72_r4(self):
        cells = int(hh.layout_mask(16, 4, hh.REDUCED).sum()) + \
            int(hh.layout_mask(72, 4, hh.FULL).sum())
        assert cells == 326
        assert svdp.svdp_dof(16, 72, 4, IDENTITY) == cells

    def test_square_full_rank(self):
        assert svdp.svdp_dof(4, 4, 4, LEARNED) == 16

    def test_exhaustive_small_dims(self):
        for d_out in range(1, 9):
            for d_in in range(1, 9):
                for r in range(1, min(d_out, d_in) + 1):
                    learned = svdp.svdp_dof(d_out, d_in, r, LEARNED)
                    cells = (
                        int(hh.layout_mask(d_out, r, hh.FULL).sum())
                        + int(hh.layout_mask(d_in, r, hh.FULL).sum()) + r
                    )
                    assert learned == cells
                    assert learned <= d_out * d_in
                    ident = svdp.svdp_dof(d_out, d_in, r, IDENTITY)
                    assert ident == (
                        int(hh.layout_mask(d_out, r, hh.REDUCED).sum())
                        + int(hh.layout_mask(d_in, r, hh.FULL).sum())
                    )

    def test_rank_violation(self):
        with pytest.raises(DomainError):
            svdp.svdp_dof(16, 72, 100, LEARNED)

    def test_param_container_matches_dof(self):
        for mode in (IDENTITY, LEARNED):
            p = random_svdp_params(9, 7, 3, mode, 0)
            assert p.n_params == svdp.svdp_dof(9, 7, 3, mode)


class TestAssemble:
    def test_identity_init_gives_truncated_identity(self):
        p = svdp.init_svdp_params(6, 5, 3, IDENTITY, 0, "identity")
        w = svdp.assemble(p)
        assert np.allclose(w, np.eye(6, 3) @ np.eye(5, 3).T, atol=1e-10)

    def test_zero_sigma_entry_drops_rank(self):
        p = random_svdp_params(6, 5, 3, LEARNED, 1)
        s = p.spectrum.s.copy()
        s[2] = 0.0
        p = svdp.SvdpParams(6, 5, 3, p.u_layout, p.v_layout,
                            p.spectrum.with_s(s))
        _, sv, _ = svd_full(svdp.assemble(p))
        assert sv[2] <= 1e-10

    @pytest.mark.parametrize("seed", range(10))
    def test_singular_values_match_sigma(self, seed):
        p = random_svdp_params(4, 3, 2, LEARNED, seed)
        w = svdp.assemble(p)
        sigma = materialize_sigma(p.spectrum)
        _, sv, _ = svd_full(w)
        assert np.allclose(sv[:2], np.sort(np.abs(sigma))[::-1], atol=1e-9)
        assert sv[0] == pytest.approx(np.max(np.abs(sigma)), abs=1e-9)

    def test_identity_variant_rules_enforced_by_factory(self):
        p = svdp.init_svdp_params(8, 6, 3, IDENTITY, 0)
        assert p.u_layout.variant == hh.REDUCED
        assert p.v_layout.variant == hh.FULL
        p = svdp.init_svdp_params(8, 6, 3, LEARNED, 0)
        assert p.u_layout.variant == hh.FULL

    @pytest.mark.parametrize("field, message", [
        ("u_layout", r"U core 0: layout \(7, 2, 'full'\) != \(6, 3\), full"),
        ("v_layout", r"V core 0: layout \(4, 2, 'full'\) != \(5, 3\), full"),
        ("spectrum", "spectrum length does not match rank"),
    ])
    def test_wrong_part_rejected(self, field, message):
        p = random_svdp_params(6, 5, 3, LEARNED, 0)
        parts = {"u_layout": p.u_layout, "v_layout": p.v_layout,
                 "spectrum": p.spectrum}
        parts[field] = getattr(random_svdp_params(7, 4, 2, LEARNED, 0), field)
        with pytest.raises(ShapeError, match=message):
            svdp.SvdpParams(6, 5, 3, **parts)

    @pytest.mark.parametrize("mode, u_variant", [(IDENTITY, hh.FULL),
                                                 (LEARNED, hh.REDUCED)])
    def test_off_gauge_layouts_rejected(self, mode, u_variant):
        # full U with the identity spectrum would hold 30 parameters where
        # svdp_dof is 27; reduced U with a learned one 30 where it is 33
        p = svdp.init_svdp_params(8, 6, 3, mode, 0)
        u_layout = hh.make_layout(8, 3, u_variant)
        message = rf"U core 0: layout \(8, 3, '{u_variant}'\)"
        with pytest.raises(ShapeError, match=message):
            svdp.SvdpParams(8, 6, 3, u_layout, p.v_layout, p.spectrum)

    @pytest.mark.parametrize("dims", [(6.0, 5, 1), (6, 5.0, 1), (6, 5, 1.0),
                                      (True, 5, 1), (6, True, 1),
                                      (6, 5, True)])
    def test_non_integer_dims_rejected(self, dims):
        p = svdp.init_svdp_params(6, 5, 1, LEARNED, 0)
        with pytest.raises(DomainError, match="must be an integer"):
            svdp.SvdpParams(*dims, p.u_layout, p.v_layout, p.spectrum)


def from_truncated_svd(target, r):
    """Parameters whose assembly times the returned scale is the truncated
    SVD of ``target``: encode both frames, absorb their signs into a
    learned spectrum rescaled by the top singular value."""
    u, s, v = svd_full(target)
    u_layout, su = hh.encode(u[:, :r])
    v_layout, sv = hh.encode(v[:, :r])
    spectrum = SpectrumParams(LEARNED, r, (s[:r] / s[0]) * su * sv)
    d_out, d_in = target.shape
    return svdp.SvdpParams(d_out, d_in, r, u_layout, v_layout,
                           spectrum), float(s[0])


class TestSpanProperty:
    @pytest.mark.parametrize("seed", range(5))
    def test_rank_r_target_with_unit_top_value(self, seed):
        # constructive span: a rank-3 target with top singular value 1 is
        # reached exactly
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((9, 7))
        u, s, v = svd_full(raw)
        target = (u[:, :3] * (s[:3] / s[0])) @ v[:, :3].T
        params, scale = from_truncated_svd(target, 3)
        assert scale == pytest.approx(1.0, rel=1e-12)
        w = svdp.assemble(params)
        assert np.linalg.norm(w - target) <= 1e-9 * np.linalg.norm(target)

    def test_scale_reported_for_unnormalized_targets(self):
        rng = np.random.default_rng(42)
        target = 5.0 * rng.standard_normal((6, 4))
        params, scale = from_truncated_svd(target, 4)
        u, sv, v = svd_full(target)
        best = (u[:, :4] * sv[:4]) @ v[:, :4].T
        assert np.max(np.abs(materialize_sigma(params.spectrum))) == 1.0
        w = svdp.assemble(params)
        assert np.linalg.norm(scale * w - best) <= 1e-9 * np.linalg.norm(best)


class TestRedundancyWitness:
    def _rotated(self, seed, q):
        """An identity-spectrum set, its matrix, and the witness's matrix
        and U frame."""
        p = random_svdp_params(6, 5, 2, IDENTITY, seed)
        u_layout, v_layout, signs = svdp.redundancy_witness(p, q)
        assert (u_layout.variant, v_layout.variant) == (hh.FULL, hh.FULL)
        w = (hh.decode(u_layout) * signs) @ hh.decode(v_layout).T
        return p, svdp.assemble(p), w, hh.decode(u_layout)

    def test_identity_rotation_is_noop_on_w(self):
        _, w, w2, _ = self._rotated(0, np.eye(2))
        assert np.allclose(w2, w, atol=1e-10)

    def test_rotation_changes_frames_not_w(self):
        c, s = np.cos(0.7), np.sin(0.7)
        p, w, w2, u2 = self._rotated(1, np.array([[c, -s], [s, c]]))
        assert np.allclose(w2, w, atol=1e-10)
        assert not np.allclose(u2, hh.decode(p.u_layout), atol=1e-3)

    def test_reflection(self):
        _, w, w2, _ = self._rotated(2, np.diag([1.0, -1.0]))
        assert np.allclose(w2, w, atol=1e-10)

    def test_non_orthogonal_rejected(self):
        with pytest.raises(DomainError, match="not orthogonal"):
            self._rotated(3, np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_nan_rotation_rejected(self):
        with pytest.raises(DomainError,
                           match="witness rotation is not orthogonal"):
            self._rotated(4, np.full((2, 2), np.nan))
