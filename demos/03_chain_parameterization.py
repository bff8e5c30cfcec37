"""Tensor-train chains: frames from products of small orthonormal cores.

Factor each matrix dimension into primes, cap the interface ranks with a
single hyperparameter r, and parameterize every core as a small orthonormal
frame. The worked 16 x 72 instance shows the parameter count dropping from
336 (two plain frames) to 128.
"""

import numpy as np

from ttspectral import sttp
from ttspectral import svdp
from ttspectral.dense import svd_full
from ttspectral.sampling import random_sttp_params
from ttspectral.tensortrain import rank_caps

d_out, d_in, r = 16, 72, 4
out_fac, in_fac = sttp.factorize(d_out), sttp.factorize(d_in)
print(f"{d_out} = {' * '.join(map(str, out_fac.factors))},  "
      f"{d_in} = {' * '.join(map(str, in_fac.factors))}")

# the dims, r and the spectrum mode fix the schedule, the core specs and the
# fixed heads: one cached record per structure
structure = sttp.chain_structure(out_fac.factors, in_fac.factors, r, "learned")
sched = structure.schedule
dims = sched.dims
print("chain dims (input factors reversed):", dims)
print("rank caps:   ", (1, *rank_caps(dims), 1))
print("capped ranks:", sched.ranks, f" (every interior rank is min({r}, cap))")

print("\nmatricized core sizes and layout variants:")
for rows, cols, variant in sttp.core_size_schedule(out_fac, in_fac, r):
    tag = "  <- spectrum-adjacent, full" if variant == "full" else ""
    print(f"  {rows:3d} x {cols}  {variant}{tag}")

print(f"\nchain dof : {sttp.sttp_dof(d_out, d_in, r, 'learned'):4d}")
print(f"plain dof : {svdp.svdp_dof(d_out, d_in, r, 'learned'):4d}")
print(f"dense     : {d_out * d_in:4d}")

# --- the assembled matrix has the same controlled spectrum -------------------
p = random_sttp_params(d_out, d_in, r, "learned", seed=3)
w = sttp.assemble_sttp(p)
_, sv, _ = svd_full(w)
print("\nassembled 16x72 from chain parameters")
print("top singular values:", np.round(sv[:5], 4),
      " (rank capped at", r, "and sigma_max exactly 1)")

# --- when every cap saturates, the chain is the plain two-frame form --------
saturated, witness = sttp.edge_case_is_svdp(4, 4, 4)
print("\n4x4 at full rank: caps saturated?", saturated)
print("square interior cores:", witness["square_cores"])
print("chain dof == plain dof:",
      witness["sttp_dof"], "==", witness["svdp_dof"])
