"""Casimir energies, level grouping, and the ideal summed over levels."""

import json
from fractions import Fraction

import numpy as np
import pytest

from gaugereduce import (
    block_energy,
    commutant_basis,
    eigenspace_grouping,
    label_energy,
    su2_spin,
    u1_charge,
    verify_ideal,
)
from gaugereduce.blocks import BlockLabel
from gaugereduce.cli import main
from gaugereduce.groups import GroupId

from .oracles import level_summed_masks
from .systems import CANON, SMALL, build, triangle_graph
from .test_cli import U1_TRIANGLE, write_cfg


def test_label_energies_are_exact_rationals():
    assert label_energy(u1_charge(2)) == Fraction(4)
    assert label_energy(u1_charge(-3)) == Fraction(9)
    assert label_energy(su2_spin(0.5)) == Fraction(3, 4)
    assert label_energy(su2_spin(1)) == Fraction(2)
    assert label_energy(su2_spin(1.5)) == Fraction(15, 4)


def test_block_energy_adds_over_edges():
    g = triangle_graph()
    block = BlockLabel(g, GroupId.U1, (u1_charge(1), u1_charge(-2), u1_charge(0)))
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
    # summing each level's coordinates before the roundoff cut reaches the
    # per-block ideal at every power
    trunc = build(name)
    sat = CANON[name][6]
    fine = verify_ideal(trunc, n_max=sat)
    groups = eigenspace_grouping(trunc).groups
    masks = level_summed_masks(commutant_basis(trunc), groups, sat)
    assert fine.passed
    assert np.array_equal(masks[-1], fine.final_ideal.mask)
    assert masks.sum(axis=1).tolist() == [r.dim_ideal for r in fine.rows]


def test_coarse_run_reports_one_group_per_level(tmp_path, capsys):
    cfg = write_cfg(tmp_path, U1_TRIANGLE)
    reports = []
    for flags in (["--coarse"], []):
        assert main(["verify", "--config", cfg, "--nmax", "1", *flags]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    coarse, fine = reports
    assert (coarse["coarse"], coarse["n_groups"]) == (True, 4)
    assert (fine["coarse"], fine["n_groups"]) == (False, 27)
    # the grouping is a label: everything else in the report is the same
    for report in reports:
        del report["coarse"], report["n_groups"]
    assert coarse == fine
