"""From the gauge action to the reduced observable algebra.

Walks the full reduction chain on a U(1) triangle: Gauss generators cut out
the invariant subspace, the commutant collects the operators that survive
averaging, and compressing to the invariant subspace exposes a kernel whose
dimension closes the ledger  dim(commutant) = dim(kernel) + dim(invariants)^2.
"""

import numpy as np

from gaugereduce import (
    Graph,
    Truncation,
    VertexGenerator,
    commutant_basis,
    gauss_generator_block,
    invariant_basis,
    invariant_projector,
    kernel_pi_basis,
    rho_block,
    u1_charge,
    vertex_flux,
)
from gaugereduce.groups import GroupId, u1_point
from gaugereduce.lattice import GaugeElement

graph = Graph(
    ("x", "y", "z"),
    [("e", "x", "y"), ("f", "y", "z"), ("g", "z", "x")],
)
trunc = Truncation(graph, GroupId.U1, u1_charge(1))
print("U(1) triangle, charges bounded by 1:")
print(f"  {len(trunc.blocks)} blocks, total dimension {trunc.total_dim}")

print("\n== vertex flux decides which blocks carry invariants ==")
balanced = []
for i, block in enumerate(trunc.blocks):
    fluxes = tuple(vertex_flux(block, v) for v in graph.vertices)
    if all(f == 0 for f in fluxes):
        balanced.append(i)
        charges = tuple(lab.value for lab in block.labels)
        print(f"  block {i}: charges {charges} balanced at every vertex")
print(f"  {len(balanced)} balanced blocks out of {len(trunc.blocks)}")

inv = invariant_basis(trunc)
print(f"  invariant subspace dimension: {inv.dim} (one per balanced block)")

print("\n== two independent routes to the invariant projector agree ==")
worst = 0.0
for block in trunc.blocks:
    p_lie = invariant_projector(block, method="lie")
    p_quad = invariant_projector(block, method="quadrature")
    worst = max(worst, np.abs(p_lie - p_quad).max())
print(f"  null-space route vs Haar quadrature: largest entry gap {worst:.2e}")

print("\n== invariant vectors are annihilated by every Gauss generator ==")
block = trunc.blocks[balanced[-1]]
gen = gauss_generator_block(block, VertexGenerator("y", 0))
col = invariant_projector(block, method="lie")[:, 0]
col = col / np.linalg.norm(col)
print(f"  |X_y v| on an invariant vector: {np.linalg.norm(gen @ col):.2e}")
g = GaugeElement(graph, (u1_point(0.3), u1_point(-1.1), u1_point(2.5)))
print(f"  |rho(g) v - v| for a random gauge transformation: "
      f"{np.linalg.norm(rho_block(block, g) @ col - col):.2e}")

print("\n== the dimension ledger ==")
space = commutant_basis(trunc)
ker = kernel_pi_basis(space, inv)
q, h = space.dim, inv.dim
print(f"  commutant dimension        q  = {q}")
print(f"  invariant dimension        h  = {inv.dim}")
print(f"  rank of pi (k = q - r)     r  = {ker.rank}")
print(f"  kernel of the compression  k  = {ker.dim}")
print(f"  ledger q = k + h^2:  {q} = {ker.dim} + {h * h}  "
      f"-> {'holds' if q == ker.dim + h * h else 'BROKEN'}")
