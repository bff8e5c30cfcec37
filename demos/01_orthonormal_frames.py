"""Parameterizing orthonormal frames with Householder reflections.

A d x r matrix with orthonormal columns ("frame") is produced from a small
triangle of free reflector parameters. Walk through the two layouts, the
encode direction, and one batched decode of frames of different sizes.
"""

import numpy as np

from ttspectral import householder as hh

rng = np.random.default_rng(0)

# --- any parameters decode to an exactly orthonormal frame ------------------
d, r = 8, 3
layout = hh.make_layout(d, r, hh.FULL,
                        rng.standard_normal(hh.dof(d, r, hh.FULL)))
q = hh.decode(layout)
print(f"full layout {d}x{r}: {layout.params.size} free parameters")
print("Gram residual ||Q^T Q - I|| =", np.linalg.norm(q.T @ q - np.eye(r)))

# --- the reduced layout fixes the rotation gauge ----------------------------
# its decoded frames have an upper-triangular leading r x r block, which is
# what removes the (U Q)(V Q)^T ambiguity of two-sided products
reduced = hh.make_layout(d, r, hh.REDUCED,
                         rng.standard_normal(hh.dof(d, r, hh.REDUCED)))
q_red = hh.decode(reduced)
print(f"\nreduced layout: {reduced.params.size} free parameters "
      f"(saves r(r-1)/2 = {r * (r - 1) // 2})")
print("leading block:\n", np.round(q_red[:r, :r], 4))

# --- encode recovers parameters (plus per-column signs) ---------------------
target = np.linalg.qr(rng.standard_normal((d, r)))[0]
enc, signs = hh.encode(target)
print("\nencode round-trip error:",
      np.linalg.norm(hh.decode(enc) * signs - target))
print("column signs handed back for the caller to absorb:", signs)

# --- one batched decode covers frames of different sizes -------------------
# decode_batch pads every canvas to the batch's largest (d, r) with
# structural zeros and ones, so one sweep (I - U T^-1 U^T per canvas) covers
# them all; padding reorders the sums, so a padded frame matches its own
# decode to rounding, while a batch of one size matches it bit for bit
batch = [hh.make_layout(5, 2, hh.FULL,
                        rng.standard_normal(hh.dof(5, 2, hh.FULL))),
         hh.make_layout(8, 4, hh.REDUCED,
                        rng.standard_normal(hh.dof(8, 4, hh.REDUCED)))]
print("\nbatched decode on one 8x4 canvas stack:")
for la, qb in zip(batch, hh.decode_batch(batch)):
    gram = np.linalg.norm(qb.T @ qb - np.eye(la.r))
    gap = np.max(np.abs(qb - hh.decode(la)))
    print(f"  {la.d}x{la.r} {la.variant:7s} Gram residual {gram:.1e}, "
          f"largest gap from decode {gap:.1e}")
