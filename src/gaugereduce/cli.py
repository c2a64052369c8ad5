"""Command line front end.

Three subcommands work from the same run description file:

* ``decompose``  -- enumerate the truncated blocks, their dimensions,
  energies and invariant-vector counts.
* ``verify``     -- compare the kernel of the invariant compression with
  the averaged-generator ideal power by power; exit 0 when they agree at
  the final power, 1 when they do not.
* ``spectrum``   -- list the energy levels and rerun the comparison with
  one summed generator per level, reporting the distance to the
  ungrouped ideal.

Malformed run files and quadrature bands too small for their integrands
exit with status 2.  Reports are JSON with sorted keys; the ``seconds``
field is quantized to whole minutes so that repeated runs of the same
input produce byte-identical output (exact wall time goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from .blocks import Truncation
from .config import METHODS, ConfigError, RunConfig, parse_config
from .groups import IrrepLabel
from .ideal import IdealReport, subspace_distance, verify_ideal
from .reduction import BandError, commutant_basis, invariant_basis
from .spectrum import block_energy, coarsened_verify, eigenspace_grouping


def _quantize_seconds(elapsed: float) -> float:
    return math.floor(elapsed / 60.0) * 60.0


def _round(x: float) -> float:
    return round(float(x), 9) + 0.0


def _graph_json(cfg: RunConfig) -> dict:
    return {
        "vertices": list(cfg.graph.vertices),
        "edges": [[e.id, e.source, e.target] for e in cfg.graph.edges],
    }


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_json(cfg: RunConfig, report: IdealReport) -> dict:
    return {
        "group": report.group.value,
        "graph": _graph_json(cfg),
        "bound": report.bound,
        "blocks": [list(labels) for labels in report.block_labels],
        "method": report.method,
        "tolerance": report.tolerance,
        "coarse": report.coarse,
        "n_groups": report.n_groups,
        "dim_HK": report.dim_hk,
        "dim_AK": report.dim_ak,
        "dim_ker_pi": report.dim_ker_pi,
        "per_nmax": [
            {
                "n": row.n,
                "dim_ideal": row.dim_ideal,
                "containment_residual": _round(row.containment_residual),
                "distance": _round(row.distance),
            }
            for row in report.rows
        ],
        "pass": report.passed,
        "seconds": _quantize_seconds(report.seconds),
    }


def _truncation(cfg: RunConfig) -> Truncation:
    return Truncation(cfg.graph, cfg.group, IrrepLabel(cfg.group, cfg.bound))


def _verify_settings(cfg: RunConfig, args) -> dict:
    n_max = args.nmax if args.nmax is not None else cfg.n_max
    tol = args.tol if args.tol is not None else cfg.tol
    method = args.method if args.method is not None else cfg.method
    band = args.band if args.band is not None else cfg.band
    return {
        "n_max": n_max,
        "tol": tol if tol is not None else 1e-8,
        "method": METHODS[method or "lie"],
        "band": IrrepLabel(cfg.group, band) if band is not None else None,
    }


def cmd_decompose(cfg: RunConfig, args) -> int:
    t0 = time.perf_counter()
    trunc = _truncation(cfg)
    inv = invariant_basis(trunc)
    space = commutant_basis(trunc)
    blocks = []
    off = trunc.offsets
    for i, block in enumerate(trunc.blocks):
        # the basis rows are orthonormal and each lies in one block, so the
        # squared norm of a block's columns counts its invariant vectors
        inv_dim = round(np.linalg.norm(inv.vectors[:, off[i] : off[i + 1]]) ** 2)
        blocks.append(
            {
                "labels": [lab.value for lab in block.labels],
                "dim": trunc.dims[i],
                "invariant_dim": inv_dim,
                "energy": str(block_energy(block)),
            }
        )
    elapsed = time.perf_counter() - t0
    payload = {
        "group": cfg.group.value,
        "graph": _graph_json(cfg),
        "bound": cfg.bound,
        "blocks": blocks,
        "dim_total": trunc.total_dim,
        "dim_HK": inv.dim,
        "dim_AK": space.dim,
        "seconds": _quantize_seconds(elapsed),
    }
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    _emit(payload, args.out or cfg.out)
    return 0


def cmd_verify(cfg: RunConfig, args) -> int:
    trunc = _truncation(cfg)
    settings = _verify_settings(cfg, args)
    coarse = args.coarse or bool(cfg.coarse)
    if coarse:
        report = coarsened_verify(trunc, **settings)
    else:
        report = verify_ideal(trunc, **settings)
    print(f"elapsed: {report.seconds:.3f}s", file=sys.stderr)
    _emit(_report_json(cfg, report), args.out or cfg.out)
    return 0 if report.passed else 1


def cmd_spectrum(cfg: RunConfig, args) -> int:
    trunc = _truncation(cfg)
    settings = _verify_settings(cfg, args)
    grouping = eigenspace_grouping(trunc)
    fine = verify_ideal(trunc, **settings)
    coarse = coarsened_verify(trunc, **settings)
    gap = subspace_distance(fine.final_ideal, coarse.final_ideal)
    elapsed = fine.seconds + coarse.seconds
    payload = _report_json(cfg, coarse)
    payload["levels"] = [
        {
            "energy": str(e),
            "blocks": list(members),
            "dim": dim,
        }
        for e, members, dim in zip(grouping.energies, grouping.groups, grouping.dims)
    ]
    payload["merged_vs_unmerged_distance"] = _round(gap)
    payload["pass"] = bool(
        coarse.passed and fine.passed and gap <= settings["tol"]
    )
    payload["seconds"] = _quantize_seconds(elapsed)
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    _emit(payload, args.out or cfg.out)
    return 0 if payload["pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaugereduce",
        description="Gauge reduction of truncated lattice observables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("decompose", cmd_decompose),
        ("verify", cmd_verify),
        ("spectrum", cmd_spectrum),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="run description file")
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        p.set_defaults(fn=fn)
        if name == "decompose":
            continue
        p.add_argument("--nmax", type=int, help="largest generator power")
        p.add_argument("--tol", type=float, help="acceptance tolerance")
        p.add_argument(
            "--method",
            choices=("lie", "quad"),
            help="invariants and averages via generators or Haar quadrature",
        )
        p.add_argument("--band", type=int, help="override the quadrature band")
        if name == "verify":
            p.add_argument(
                "--coarse",
                action="store_true",
                help="sum the generators over each energy level",
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.command in ("verify", "spectrum"):
            nmax = args.nmax if args.nmax is not None else None
            if nmax is not None and nmax < 1:
                raise ConfigError("nmax must be at least 1")
        return args.fn(cfg, args)
    except (ConfigError, BandError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())
