"""Casimir energy levels, reported next to one verification.

Each block has an exact rational energy: the sum over edges of the quadratic
Casimir eigenvalue of that edge's label.  Blocks sharing an energy can be
merged into one summed generator per power and level without changing the
averaged ideal, because the block projectors already commute with the gauge
action.  So the grouping is a label on the one verification: ``spectrum``
and ``verify --coarse`` report it next to the per-block ideal.  Below, each
level's generator powers are summed by hand and cut after summing, and the
components they touch are exactly those of the verified ideal.
"""

import numpy as np


from gaugereduce import (
    Graph,
    Truncation,
    block_energy,
    block_generators,
    commutant_basis,
    eigenspace_grouping,
    ideal_closure,
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

print("\n== summing each level's generators reaches the same ideal ==")
fine = verify_ideal(tri_trunc, n_max=2)
space = commutant_basis(tri_trunc)
seeds = []
for members in tri_grouping.groups:
    # a U(1) block is one-dimensional: its generators are scalars, and a
    # scalar power is the coordinate of its one commutant element
    own = [space.by_pair[(i, i)][0] for i in members]
    gens = np.array([block_generators(tri_trunc.blocks[i])[:, 0, 0] for i in members])
    for n in (1, 2):
        for power in (gens**n).T:  # one vertex generator, summed over the level
            w = np.zeros(space.dim, dtype=complex)
            w[own] = power
            w[np.abs(w) <= 1e-10 * np.linalg.norm(w)] = 0  # cut after summing
            seeds.append(w)
merged = ideal_closure(space, np.array(seeds))
print(f"  verified ideal:      dim {fine.rows[-1].dim_ideal}, "
      f"{'PASS' if fine.passed else 'FAIL'}")
print(f"  level-summed ideal:  dim {merged.dim}")
same = np.array_equal(merged.mask, fine.final_ideal.mask)
print(f"  the two hold the same commutant elements: {same}")
