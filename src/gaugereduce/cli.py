"""Command line front end: ``decompose``, ``verify`` and ``spectrum`` (``USAGE``)
work from one run description file, whose rules check the flags too.
``verify`` compares the kernel of the invariant compression with the
averaged-generator ideal power by power and exits 0 when they agree at the
final power, 1 when they do not.  ``spectrum`` lists the energy levels next to
the comparison: summing the generators over a level cannot change the ideal
(see ``spectrum``), so the comparison is run once, per block, and ``verify
--coarse`` reports the grouping the same way.

Bad usage, malformed run files, unwritable report paths and quadrature bands
too small for their integrands exit 2, any other error (running out of memory
among them) 3.  Reports are JSON with sorted keys; the ``seconds`` field is
quantized to whole minutes so that repeated runs of the same input produce
byte-identical output (exact wall time goes to stderr).
"""

from __future__ import annotations

import json
import math
import sys
import time
from types import SimpleNamespace

from .blocks import Truncation
from .config import SETTINGS, ConfigError, RunConfig, parse_config
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
    """Flags over the run file over defaults (by the rules only a band can be 0)."""
    band = args.band if args.band is not None else cfg.band
    return {
        "n_max": args.nmax or cfg.n_max,
        "tol": args.tol or cfg.tol or DEFAULT_TOL,
        "method": args.method or cfg.method or "lie",
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


USAGE = """\
usage: gaugereduce decompose|verify|spectrum --config FILE [--out FILE] [--KEY VALUE ...]

decompose lists the blocks, verify compares ker(pi) with the averaged-generator
ideal, spectrum adds the energy levels; --out FILE writes the report there.
verify and spectrum also take, by the rules of the run file's [verify] keys,
  --nmax N  --tol X  --method lie|quad  --band N
and verify a bare --coarse.  --KEY=VALUE is --KEY VALUE.
"""

# command -> (function, the flags it takes)
_COMMANDS = {
    "decompose": (cmd_decompose, ("config", "out")),
    "verify": (cmd_verify, ("config", "out", "nmax", "tol", "method", "band", "coarse")),
    "spectrum": (cmd_verify, ("config", "out", "nmax", "tol", "method", "band")),
}


class Parser:
    """``parse_args(argv)``: ``COMMAND --KEY VALUE ...`` (or ``--KEY=VALUE``) as
    ``args.KEY``, each value by the rule of its run file key (``config.SETTINGS``;
    ``--config``, ``--out``: paths), ``--coarse`` bare; bad usage: ``ValueError``."""

    def parse_args(self, argv: list[str]) -> SimpleNamespace:
        if not argv or argv[0] not in _COMMANDS:
            got = f"unknown command {argv[0]!r}" if argv else "no command"
            raise ValueError(f"{got}: use decompose, verify or spectrum (-h for help)")
        fn, takes = _COMMANDS[argv[0]]
        flags = dict.fromkeys(_COMMANDS["spectrum"][1])  # None until given
        args = SimpleNamespace(command=argv[0], fn=fn, **flags, coarse=False)
        rest = iter(argv[1:])
        for token in rest:
            flag, eq, value = token.partition("=")
            name = flag[2:] if flag.startswith("--") else None
            if name not in takes:
                if name in _COMMANDS["verify"][1]:
                    raise ValueError(f"{argv[0]} takes no {flag}")
                raise ValueError(f"unknown argument {token!r}")
            if name == "coarse":
                if eq:
                    raise ValueError("--coarse takes no value")
                args.coarse = True
                continue
            if not eq:
                value = next(rest, None)
                if value is None or value.startswith("--"):
                    raise ValueError(f"{flag} needs a value")
            key = "path" if name in ("config", "out") else name
            setattr(args, name, SETTINGS[key][1](name, value))
        if args.config is None:
            raise ValueError(f"{argv[0]} needs --config FILE")
        return args


def build_parser() -> Parser:
    return Parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(USAGE)
        return 0
    try:
        args = build_parser().parse_args(argv)
        return args.fn(parse_config(args.config), args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash is no verdict on the equality, whose failure is 1
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    raise SystemExit(main())
