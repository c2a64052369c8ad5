"""Command line front end.

Three subcommands work from the same run description file:

* ``decompose``  -- enumerate the truncated blocks, their dimensions,
  energies and invariant-vector counts.
* ``verify``     -- compare the kernel of the invariant compression with
  the averaged-generator ideal power by power; exit 0 when they agree at
  the final power, 1 when they do not.
* ``spectrum``   -- list the energy levels next to the comparison.  Summing
  the generators over a level cannot change the ideal (see ``spectrum``),
  so the reported distance between the merged and unmerged ideals is 0 by
  construction; ``verify --coarse`` reports the grouping the same way.

Malformed run files, unwritable report paths and quadrature bands too
small for their integrands exit with status 2.  Reports are JSON with
sorted keys; the ``seconds`` field is quantized to whole minutes so that
repeated runs of the same input produce byte-identical output (exact wall
time goes to stderr).
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
from .ideal import DEFAULT_TOL, IdealReport, verify_ideal
from .reduction import reduce_blocks
from .spectrum import EnergyGrouping, block_energy, eigenspace_grouping


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
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"{out}: cannot write ({exc.strerror})") from exc


def _report_json(cfg: RunConfig, report: IdealReport, grouping: EnergyGrouping | None) -> dict:
    return {
        "group": report.group.value,
        "graph": _graph_json(cfg),
        "bound": report.bound,
        "blocks": [list(labels) for labels in report.block_labels],
        "method": report.method,
        "tolerance": report.tolerance,
        "coarse": grouping is not None,
        "n_groups": report.n_blocks if grouping is None else grouping.n_levels,
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
        "tol": tol if tol is not None else DEFAULT_TOL,
        "method": METHODS[method or "lie"],
        "band": IrrepLabel(cfg.group, band) if band is not None else None,
    }


def cmd_decompose(cfg: RunConfig, args) -> int:
    t0 = time.perf_counter()
    trunc = _truncation(cfg)
    space, inv, _ = reduce_blocks(trunc)
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
    grouping = eigenspace_grouping(trunc) if args.coarse or cfg.coarse else None
    report = verify_ideal(trunc, **settings)
    print(f"elapsed: {report.seconds:.3f}s", file=sys.stderr)
    _emit(_report_json(cfg, report, grouping), args.out or cfg.out)
    return 0 if report.passed else 1


def cmd_spectrum(cfg: RunConfig, args) -> int:
    trunc = _truncation(cfg)
    settings = _verify_settings(cfg, args)
    grouping = eigenspace_grouping(trunc)
    report = verify_ideal(trunc, **settings)
    payload = _report_json(cfg, report, grouping)
    payload["levels"] = [
        {
            "energy": str(e),
            "blocks": list(members),
            "dim": dim,
        }
        for e, members, dim in zip(grouping.energies, grouping.groups, grouping.dims)
    ]
    payload["merged_vs_unmerged_distance"] = 0.0  # by construction
    print(f"elapsed: {report.seconds:.3f}s", file=sys.stderr)
    _emit(payload, args.out or cfg.out)
    return 0 if report.passed else 1


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
                help="report the energy-level grouping",
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.command in ("verify", "spectrum"):
            if args.nmax is not None and args.nmax < 1:
                raise ConfigError("nmax must be at least 1")
            if args.tol is not None and not args.tol > 0:
                raise ConfigError("tol must be positive")
            if args.band is not None and args.band < 0:
                raise ConfigError("band must be at least 0")
        return args.fn(cfg, args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())
