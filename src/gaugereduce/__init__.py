"""Gauge reduction of truncated lattice observables on finite graphs.

The field space of a compact structure group on an oriented graph splits
into isotypical blocks under two-sided edge translations.  This package
builds those blocks up to a truncation bound, the gauge action and its
vertex generators, the invariant subspace, the commutant algebra, and the
two-sided ideal generated by Haar-averaged powers of the generators -- and
checks that the ideal coincides with the kernel of the compression onto the
invariant subspace.
"""

from .blocks import BlockLabel, Truncation, enumerate_blocks, regular_action_block
from .config import ConfigError, RunConfig, parse_config
from .graphs import Edge, Graph
from .groups import (
    GroupId,
    GroupPoint,
    HaarScheme,
    IrrepLabel,
    casimir_eigenvalue,
    exp_point,
    haar_scheme,
    identity_point,
    inverse,
    irrep_generator,
    irrep_matrix,
    labels_within,
    multiply,
    random_point,
    required_band,
    su2_point,
    su2_spin,
    u1_charge,
    u1_point,
)
from .ideal import (
    GeneratorSpec,
    IdealMask,
    IdealReport,
    IdealRow,
    conjugation_band,
    containment_residual,
    generator_coords,
    generator_op,
    ideal_closure,
    subspace_distance,
    verify_ideal,
)
from .lattice import (
    Connection,
    GaugeElement,
    VertexGenerator,
    basis_values,
    block_generators,
    gauss_generator_block,
    rho_block,
    vertex_flux,
)
from .reduction import (
    BandError,
    EquivariantSpace,
    PiKernel,
    SubspaceBasis,
    commutant_basis,
    invariant_basis,
    invariant_projector,
    kernel_pi_basis,
    pi_matrix,
    projector_band,
)
from .spectrum import (
    EnergyGrouping,
    block_energy,
    eigenspace_grouping,
    label_energy,
)

__version__ = "0.1.0"
