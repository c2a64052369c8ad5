"""Command line front end.

Three subcommands work from the same run description file:

* ``decompose``  -- enumerate the truncated blocks, their dimensions,
  energies and invariant-vector counts.
* ``verify``     -- compare the kernel of the invariant compression with
  the averaged-generator ideal power by power; exit 0 when they agree at
  the final power, 1 when they do not.
* ``spectrum``   -- list the energy levels next to the comparison.  Summing
  the generators over a level cannot change the ideal (see ``spectrum``),
  so the comparison is run once, per block; ``verify --coarse`` reports
  the grouping the same way.

Malformed run files, unwritable report paths and quadrature bands too
small for their integrands exit with status 2, any other error (running out
of memory among them) with 3.  Reports are JSON with sorted keys; the
``seconds`` field is quantized to whole minutes so that repeated runs of the
same input produce byte-identical output (exact wall time goes to stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

from .blocks import Truncation
from .config import METHODS, ConfigError, RunConfig, parse_config
from .groups import IrrepLabel
from .ideal import DEFAULT_TOL, IdealReport, verify_ideal
from .reduction import reduce_blocks
from .spectrum import EnergyGrouping, eigenspace_grouping


def _quantize_seconds(elapsed: float) -> float:
    return math.floor(elapsed / 60.0) * 60.0


def _round(x: float) -> float:
    return round(float(x), 9) + 0.0


def _graph_json(cfg: RunConfig) -> dict:
    return {
        "vertices": list(cfg.graph.vertices),
        "edges": [[e.id, e.source, e.target] for e in cfg.graph.edges],
    }


def _emit(payload: dict, out: str | None, labels=None) -> None:
    """Write ``payload`` as ``json.dumps(indent=2, sort_keys=True)``; ``labels``,
    if given, goes in its first key ``"blocks"`` (``[]`` there) as the list of
    its rows would, from one template of the ``indent=2`` layout."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if labels is not None:
        row = "    [\n" + ",\n".join(["      %d"] * labels.shape[1]) + "\n    ]"
        rows = ",\n".join([row if labels.shape[1] else "    []"] * len(labels))
        rows %= tuple(labels.ravel().tolist())
        text = text.replace('{\n  "blocks": []', '{\n  "blocks": [\n' + rows + "\n  ]", 1)
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
        "blocks": [],  # the label array, written by _emit
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
    levels = eigenspace_grouping(trunc)
    energy = {i: str(e) for e, members in zip(levels.energies, levels.groups) for i in members}
    columns = trunc.labels.tolist(), trunc.dims.tolist(), inv.counts.tolist()
    blocks = [
        {"labels": labels, "dim": dim, "invariant_dim": n, "energy": energy[i]}
        for i, (labels, dim, n) in enumerate(zip(*columns))
    ]
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
    """``verify``; ``spectrum`` is the same with the grouping on and its levels listed."""
    trunc = _truncation(cfg)
    settings = _verify_settings(cfg, args)
    spectrum = args.command == "spectrum"
    grouping = eigenspace_grouping(trunc) if spectrum or args.coarse or cfg.coarse else None
    report = verify_ideal(trunc, **settings)
    payload = _report_json(cfg, report, grouping)
    if spectrum:
        payload["levels"] = [
            {"energy": str(e), "blocks": list(members), "dim": dim}
            for e, members, dim in zip(grouping.energies, grouping.groups, grouping.dims)
        ]
    print(f"elapsed: {report.seconds:.3f}s", file=sys.stderr)
    _emit(payload, args.out or cfg.out, report.block_labels)
    return 0 if report.passed else 1


@functools.cache  # one parser per process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaugereduce",
        description="Gauge reduction of truncated lattice observables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("decompose", cmd_decompose),
        ("verify", cmd_verify),
        ("spectrum", cmd_verify),
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
            help="find the invariant vectors as generator null spaces or by the Haar projector",
        )
        p.add_argument(
            "--band", type=int, help="override the quadrature band of the invariant projector"
        )
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
    except Exception as exc:  # a crash is no verdict on the equality, whose failure is 1
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    raise SystemExit(main())
