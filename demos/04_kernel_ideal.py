"""The kernel of the invariant compression equals the averaged-power ideal.

The headline check of the package.  For each power n we average the n-th
power of every Gauss generator over the gauge group, close the results into
a two-sided ideal inside the commutant, and compare against the kernel of
the compression onto invariants.  On an SU(2) loop the first power averages
to zero (the generators are traceless), so n = 1 genuinely fails and n = 2
is needed - the dual behaviour worth seeing once in full.
"""

import numpy as np

from gaugereduce import (
    GeneratorSpec,
    Graph,
    Truncation,
    commutant_basis,
    generator_op,
    su2_spin,
    u1_charge,
    verify_ideal,
)
from gaugereduce.groups import GroupId

loop = Graph(("v",), [("e", "v", "v")])
trunc = Truncation(loop, GroupId.SU2, su2_spin(0.5))


def show(report):
    print(f"  commutant dim {report.dim_ak}, invariants {report.dim_hk}, "
          f"kernel {report.dim_ker_pi}")
    for row in report.rows:
        print(f"  n <= {row.n}: ideal dim {row.dim_ideal:>3}  "
              f"containment {row.containment_residual:.1e}  "
              f"distance to kernel {row.distance:.3e}")
    print(f"  verdict: {'PASS' if report.passed else 'FAIL'}")


print("== SU(2) loop, spins bounded by 1/2 ==")
print("first power only (traceless generators average to nothing):")
show(verify_ideal(trunc, n_max=1))

print("\nup to the second power:")
show(verify_ideal(trunc, n_max=2))

print("\n== the second-power average on the spin-1/2 block, exactly ==")
# One loop edge at spin 1/2 gives a 4-dimensional block.  Averaging the
# squared Gauss generator lands on -(2/3) times the projector onto the
# complement of the invariant line, for every Lie direction.  A rotation at
# the vertex carries one direction to another, and the Haar average does not
# see it, so all three averages agree: this is why the pass in reduction.py
# reads only J_z, whose powers are diagonal on the block's copies.
vec_id = np.eye(2).reshape(-1, 1).astype(complex)
p1 = np.eye(4) - vec_id @ vec_id.conj().T / 2
for k in range(3):
    op = generator_op(trunc, GeneratorSpec(block=1, vertex="v", lie_index=k, power=2))
    gap = np.abs(op - (-2.0 / 3.0) * p1).max()
    print(f"  Lie direction {k}: |avg(X^2) + (2/3) P| = {gap:.2e}")

print("\n== U(1) triangle, charges bounded by 1: first powers already suffice ==")
tri = Graph(("x", "y", "z"), [("e", "x", "y"), ("f", "y", "z"), ("g", "z", "x")])
show(verify_ideal(Truncation(tri, GroupId.U1, u1_charge(1)), n_max=2))

print("\nAveraging a commuting U(1) generator just multiplies each block by")
print("(i * flux)^n, so any block with unbalanced flux is hit at n = 1;")
print("SU(2) needs n = 2 because odd powers of traceless generators vanish.")
