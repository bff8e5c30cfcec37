"""Parameterizing orthonormal frames with Householder reflections.

A d x r matrix with orthonormal columns ("frame") is produced from a small
triangle of free reflector parameters. Walk through the three layouts, the
encode direction, and batched decoding of padded layouts.
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

# --- padded layouts batch frames of different sizes -------------------------
# everything lives on a shared canvas with structural zeros and ones, so one
# batched decode (I - U T^-1 U^T per canvas) covers all of them; results
# match per-frame decoding bit for bit
a = hh.pad_layout(hh.make_layout(5, 2, hh.FULL,
                                 rng.standard_normal(hh.dof(5, 2, hh.FULL))),
                  8, 4)
b = hh.pad_layout(hh.make_layout(8, 4, hh.REDUCED,
                                 rng.standard_normal(hh.dof(8, 4, hh.REDUCED))),
                  8, 4)
qa, qb = hh.decode_batch([a, b])
print("\nbatched decode: frames", qa.shape, "and", qb.shape,
      "from one batched 8x4 canvas decode")
print("bitwise equal to sequential decode:",
      np.array_equal(qa, hh.decode(a)) and np.array_equal(qb, hh.decode(b)))
