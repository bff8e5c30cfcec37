"""Applying y = W x without decompressing W.

The parameterized map is a tensor diagram; contracting it in the right
order is dramatically cheaper than materializing W first. The planner
runs a dynamic program over splits of node sets, under a multiply-add
cost model, and caches the optimal plan per shape. Diagrams of at most 8
nodes search every binary contraction tree; larger ones, chains of cores,
search every run of consecutive nodes with or without the input x.
"""

import numpy as np

from ttspectral import planner as pl
from ttspectral.sampling import random_sttp_params, random_svdp_params

d_out, d_in, r = 16, 72, 4

diagram = pl.svdp_diagram(d_out, d_in, r, d_x=1)
cplan = pl.plan(diagram)
print(f"two-frame map, {d_out}x{d_in}, rank {r}, single input column:")
for step in cplan.steps:
    names = [diagram.nodes[i].name for i in step.left + step.right]
    kind = "scale  " if step.scaling else "contract"
    print(f"  {kind} {names} -> dims {step.result_dims}, {step.flops} flops")
print(f"planned total : {cplan.total_flops} flops")

params = random_svdp_params(d_out, d_in, r, "learned", seed=0)
print(f"decompress+mul: {pl.naive_flops(params, 1)} flops")
print(f"speedup       : {pl.naive_flops(params, 1) / cplan.total_flops:.1f}x")

# --- with a large batch the tradeoff flips -----------------------------------
for d_x in (1, 8, 64, 512):
    total = pl.plan(pl.svdp_diagram(d_out, d_in, r, d_x)).total_flops
    naive = pl.naive_flops(params, d_x)
    print(f"  d_x={d_x:4d}: planned {total:9d}  decompress-first {naive:9d}")

# --- the chain diagram tensorizes the input ----------------------------------
chain = random_sttp_params(16, 72, 4, "learned", seed=1)
diagram = pl.sttp_diagram(chain.out_fac.factors, chain.in_fac.factors,
                          chain.schedule.ranks, d_x=1)
cplan = pl.plan(diagram)
print(f"\nchain map diagram: {len(diagram.nodes)} nodes, planned "
      f"{cplan.total_flops} flops, peak intermediate {cplan.peak_intermediate}")

# apply_map composes each chain into its frame, then runs the four-node plan
rng = np.random.default_rng(2)
x = rng.standard_normal((72, 5))
y_fast = pl.apply_map(chain, x)
y_ref = pl.decompress(chain) @ x
print("apply_map vs decompress-then-multiply:",
      np.linalg.norm(y_fast - y_ref) / np.linalg.norm(y_ref))
