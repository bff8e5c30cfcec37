"""Assembling rank-r weight matrices with a controlled spectrum.

W = U diag(sigma) V^T with Householder-parameterized frames. The learned
spectrum is rescaled by its largest magnitude, so sigma_max(W) is pinned to
exactly 1 - a Lipschitz-1 layer by construction.
"""

import numpy as np

from ttspectral import householder as hh
from ttspectral import svdp
from ttspectral.dense import svd_full
from ttspectral.sampling import random_svdp_params
from ttspectral.spectral import (
    LayerBudget,
    NetworkSummary,
    compression_ratio,
    materialize_sigma,
    stable_rank_from_spectrum,
)

p = random_svdp_params(16, 12, 4, "learned", seed=7)
w = svdp.assemble(p)
sigma = materialize_sigma(p.spectrum)
_, sv, _ = svd_full(w)
print("parameterized 16x12, rank 4")
print("materialized sigma:", np.round(sigma, 4))
print("singular values of W:", np.round(sv[:5], 4), "...")
print("sigma_max(W) =", sv[0], " (always exactly 1 for a learned spectrum)")
print("stable rank:", round(stable_rank_from_spectrum(sigma), 4))

# --- parameter accounting ----------------------------------------------------
dof = svdp.svdp_dof(16, 12, 4, "learned")
print(f"\nfree parameters: {dof} of {16 * 12} dense entries")
net = NetworkSummary((LayerBudget(16, 12, dof=dof, extra=16),))
print(f"single-layer compression with a 16-unit bias: "
      f"{compression_ratio(net):.2f}%")

# --- why the identity spectrum wants a gauge-fixed U -------------------------
# with sigma = I, rotating both frames by any orthogonal Q leaves W unchanged,
# so full/full layouts would be redundant; the witness rotates the frames of
# a gauge-fixed set (reduced U) and hands back full layouts of U Q and V Q
p = svdp.init_svdp_params(6, 5, 2, "identity", seed=0, init_scheme="identity")
angle = 0.7
qmat = np.array([[np.cos(angle), -np.sin(angle)],
                 [np.sin(angle), np.cos(angle)]])
u_layout, v_layout, signs = svdp.redundancy_witness(p, qmat)
rotated = (hh.decode(u_layout) * signs) @ hh.decode(v_layout).T
print("\ngauge rotation by 0.7 rad:")
print("  ||W' - W|| =", np.linalg.norm(rotated - svdp.assemble(p)))
print("  ||U' - U|| =", np.linalg.norm(hh.decode(u_layout)
                                       - hh.decode(p.u_layout)))
print("same matrix, different parameters - the redundancy the reduced "
      "layout removes")
print("dof identity vs learned:",
      svdp.svdp_dof(6, 5, 2, "identity"), "vs",
      svdp.svdp_dof(6, 5, 2, "learned"))
