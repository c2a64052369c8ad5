"""Casimir energies, level grouping, and coarsened verification."""

from fractions import Fraction

import numpy as np
import pytest

from gaugereduce import (
    block_energy,
    coarsened_verify,
    eigenspace_grouping,
    label_energy,
    su2_spin,
    u1_charge,
    verify_ideal,
)
from gaugereduce.blocks import BlockLabel

from .systems import CANON, SMALL, build, triangle_graph


def test_label_energies_are_exact_rationals():
    assert label_energy(u1_charge(2)) == Fraction(4)
    assert label_energy(u1_charge(-3)) == Fraction(9)
    assert label_energy(su2_spin(0.5)) == Fraction(3, 4)
    assert label_energy(su2_spin(1)) == Fraction(2)
    assert label_energy(su2_spin(1.5)) == Fraction(15, 4)


def test_block_energy_adds_over_edges():
    g = triangle_graph()
    block = BlockLabel(g, (u1_charge(1), u1_charge(-2), u1_charge(0)))
    assert block_energy(block) == Fraction(5)


def test_triangle_levels():
    trunc = build("u1-triangle-b1")
    grouping = eigenspace_grouping(trunc)
    assert grouping.energies == (Fraction(0), Fraction(1), Fraction(2), Fraction(3))
    assert tuple(len(g) for g in grouping.groups) == (1, 6, 12, 8)
    assert grouping.dims == (1, 6, 12, 8)


def test_su2_loop_levels():
    trunc = build("su2-loop-j2")
    grouping = eigenspace_grouping(trunc)
    assert grouping.energies == (Fraction(0), Fraction(3, 4), Fraction(2))
    assert grouping.dims == (1, 4, 9)
    assert grouping.n_levels == 3


@pytest.mark.parametrize("name", list(CANON))
def test_grouping_partitions_the_blocks(name):
    trunc = build(name)
    grouping = eigenspace_grouping(trunc)
    seen = sorted(i for g in grouping.groups for i in g)
    assert seen == list(range(len(trunc.blocks)))
    assert list(grouping.energies) == sorted(grouping.energies)
    # within a level every block really has that energy
    for e, members in zip(grouping.energies, grouping.groups):
        for i in members:
            assert block_energy(trunc.blocks[i]) == e


@pytest.mark.parametrize("name", SMALL)
def test_coarsened_ideal_equals_fine_ideal(name):
    trunc = build(name)
    sat = CANON[name][6]
    fine = verify_ideal(trunc, n_max=sat)
    coarse = coarsened_verify(trunc, n_max=sat)
    assert coarse.passed == fine.passed
    assert coarse.coarse and not fine.coarse
    assert coarse.n_groups == eigenspace_grouping(trunc).n_levels
    assert np.array_equal(fine.final_ideal.mask, coarse.final_ideal.mask)
    assert [r.dim_ideal for r in coarse.rows] == [r.dim_ideal for r in fine.rows]


def test_coarse_run_reports_one_group_per_level():
    trunc = build("u1-triangle-b1")
    coarse = coarsened_verify(trunc, n_max=1)
    fine = verify_ideal(trunc, n_max=1)
    assert coarse.n_groups == 4 < fine.n_groups == 27
    assert coarse.passed
