"""Casimir energy levels and level-coarsened verification.

Each block has an exact rational energy: the sum over edges of the quadratic
Casimir eigenvalue of that edge's label.  Blocks sharing an energy can be
merged into one summed generator per power and level without changing the
averaged ideal, because the block projectors already commute with the gauge
action.  The merged run reports one generator group per level, but it
averages the same per-block generators as the unmerged one: a block's
averaged generator lives on its own block pair, and its roundoff is cut
before a level sums them.  So the two ideals are equal by construction.
Both are sums of whole commutant components, compared as masks over the
commutant coordinates.
"""

import numpy as np


from gaugereduce import (
    Graph,
    Truncation,
    block_energy,
    coarsened_verify,
    eigenspace_grouping,
    su2_spin,
    u1_charge,
    verify_ideal,
)
from gaugereduce.groups import GroupId

print("== SU(2) loop, spins bounded by 1: exact rational energies ==")
loop = Graph(("v",), [("e", "v", "v")])
trunc = Truncation(loop, GroupId.SU2, su2_spin(1))
for block, dim in zip(trunc.blocks, trunc.dims):
    two_j = block.labels[0].value
    print(f"  2j = {two_j}: energy {block_energy(block)}  (block dim {dim})")

grouping = eigenspace_grouping(trunc)
print(f"  {grouping.n_levels} levels: "
      + ", ".join(f"E={e} (dim {d})" for e, d in zip(grouping.energies, grouping.dims)))

print("\n== U(1) triangle, charges bounded by 1: levels merge many blocks ==")
tri = Graph(("x", "y", "z"), [("e", "x", "y"), ("f", "y", "z"), ("g", "z", "x")])
tri_trunc = Truncation(tri, GroupId.U1, u1_charge(1))
tri_grouping = eigenspace_grouping(tri_trunc)
print(f"  {len(tri_trunc.blocks)} blocks fall into {tri_grouping.n_levels} levels:")
for e, g, d in zip(tri_grouping.energies, tri_grouping.groups, tri_grouping.dims):
    print(f"    energy {e}: {len(g)} blocks, total dim {d}")

print("\n== merged and unmerged generators reach the same ideal ==")
fine = verify_ideal(tri_trunc, n_max=2)
coarse = coarsened_verify(tri_trunc, n_max=2)
same = np.array_equal(fine.final_ideal.mask, coarse.final_ideal.mask)
print(f"  per-block run:  {fine.n_groups} generator groups, "
      f"final ideal dim {fine.rows[-1].dim_ideal}, "
      f"{'PASS' if fine.passed else 'FAIL'}")
print(f"  per-level run:  {coarse.n_groups} generator groups, "
      f"final ideal dim {coarse.rows[-1].dim_ideal}, "
      f"{'PASS' if coarse.passed else 'FAIL'}")
print(f"  the two final ideals hold the same commutant elements: {same}")
