"""One benchmark sample: a fresh process running one pass of commands.

Reads a JSON spec on stdin (``mode``, ``commands``, ``mem_limit``,
``op_timeout``) and writes one JSON line per event to stdout, each starting
with ``{"bench"``:

* ``setup``: seconds to import ``gaugereduce.cli`` (with numpy and scipy),
  and facts about the numerical libraries;
* ``op``: one per command, with its status (``ok``, ``memory``,
  ``timeout``, ``signal:NAME`` or ``crash:TYPE``), exit code, counts and,
  on failure, the stage it failed in;
* ``done``: the pass's wall time, the process's peak RSS and, when traced,
  the spans.

``mode="cli"`` runs each command through ``gaugereduce.cli.main``.
``mode="replay"`` instead replays the public calls ``verify_ideal`` makes,
with a span around each call into a layer.  ``mode="peaks"`` replays the
same calls and also takes tracemalloc peaks of the commutant and closure
stages; tracemalloc slows allocation-heavy stages, so those passes give
memory figures only.

The address-space cap is set after the imports and lifted while a failure
is recorded, so a memory failure is reported instead of killing the child.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time
import traceback
import tracemalloc

# Innermost gaugereduce function on a failing traceback -> stage name.
STAGES = {
    "Truncation": "blocks.truncation",
    "block_generators": "lattice.generators",
    "gauss_generator_block": "lattice.generators",
    "rho_block": "groups.quadrature",
    "commutant_basis": "reduction.commutant",
    "invariant_basis": "reduction.invariants",
    "kernel_pi_basis": "reduction.kernel",
    "structure_maps": "reduction.structure_maps",
    "generator_coords": "ideal.seeds",
    "ideal_closure": "ideal.closure",
    "containment_residual": "ideal.distance",
    "subspace_distance": "ideal.distance",
    "eigenspace_grouping": "spectrum.grouping",
}


class OpTimeout(Exception):
    """A command ran past its time limit."""


class OpSignal(Exception):
    """A command was interrupted by a termination signal."""


def _emit(**event) -> None:
    sys.__stdout__.write(json.dumps({"bench": event.pop("bench"), **event}) + "\n")
    sys.__stdout__.flush()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_s() -> float:
    use = resource.getrusage(resource.RUSAGE_SELF)
    return use.ru_utime + use.ru_stime


def _stage(exc: BaseException) -> str | None:
    stage = None
    for frame in traceback.extract_tb(exc.__traceback__):
        if "gaugereduce" in frame.filename and frame.name in STAGES:
            stage = STAGES[frame.name]
    return stage


def _failure_kind(exc: Exception) -> str:
    # A lazy import fails when its shared object cannot be mapped under the
    # cap; that is a memory failure too.
    if isinstance(exc, MemoryError) or (
        isinstance(exc, ImportError) and "failed to map segment" in str(exc)
    ):
        return "memory"
    if isinstance(exc, OpTimeout):
        return "timeout"
    if isinstance(exc, OpSignal):
        return f"signal:{exc}"
    return f"crash:{type(exc).__name__}"


def _on_alarm(signum, frame):
    raise OpTimeout()


def _on_term(signum, frame):
    raise OpSignal(signal.Signals(signum).name)


def _blas_facts() -> dict:
    import numpy as np
    import scipy

    facts = {"numpy": np.__version__, "scipy": scipy.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        facts["blas"] = "unknown"
    facts["blas_threads"] = _openblas_threads()
    return facts


def _openblas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    import ctypes
    import glob
    import os

    import numpy as np

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for name in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _warm_blas() -> None:
    """Let OpenBLAS allocate its per-thread buffers before the cap is set.

    numpy and scipy each load their own OpenBLAS.  Under a low
    address-space cap OpenBLAS spins when a buffer allocation fails, where
    numpy raises ``MemoryError``; with the buffers in place a command over
    the cap fails with ``MemoryError``.
    """
    import numpy as np
    import scipy.linalg

    a = np.ones((256, 256))
    np.linalg.svd(a @ a)
    scipy.linalg.svd(scipy.linalg.blas.dgemm(1.0, a, a))


def _counts(report: dict) -> dict:
    return {
        "dim_AK": report["dim_AK"],
        "dim_HK": report["dim_HK"],
        "dim_ker_pi": report["dim_ker_pi"],
        "dim_ideal": report["per_nmax"][-1]["dim_ideal"],
        "pass": report["pass"],
    }


def run_cli(cmd: dict) -> dict:
    from gaugereduce import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(cmd["argv"])
    counts = _counts(json.loads(out.getvalue())) if out.getvalue() else None
    return {"exit": code, "counts": counts}


class Tracer:
    """Spans kept in memory: name, start, end, parent index, command id."""

    def __init__(self, peaks: bool):
        self.peaks = peaks
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.command: str | None = None
        self.counts: dict[str, float] = {}

    @contextlib.contextmanager
    def span(self, name: str, peak: str | None = None):
        peak = peak if self.peaks else None
        if peak:
            tracemalloc.start()
        rec = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self.stack[-1] if self.stack else None,
            "command": self.command,
        }
        self.spans.append(rec)
        self.stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self.stack.pop()
            if peak:
                mb = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                self.counts[peak] = max(self.counts.get(peak, 0.0), mb)

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


def instrument(tracer: Tracer) -> None:
    """Wrap the calls from reduction and ideal into the lattice layer's
    generator builders, so their time and count show in the trace."""
    from gaugereduce import ideal, reduction

    build_all = reduction.block_generators
    build_one = ideal.gauss_generator_block

    def block_generators(block):
        with tracer.span("lattice.generators"):
            gens = build_all(block)
        tracer.add("lattice.generator_count", len(gens))
        return gens

    def gauss_generator_block(block, gen):
        with tracer.span("lattice.generators"):
            out = build_one(block, gen)
        tracer.add("lattice.generator_count", 1)
        return out

    reduction.block_generators = block_generators
    ideal.gauss_generator_block = gauss_generator_block


def quad_points(trunc, method: str, n_max: int) -> int:
    """Quadrature points the run sweeps: sum of |S_band|^V over the
    invariant projectors and over the conjugation averages."""
    if method != "quadrature":
        return 0
    from gaugereduce.groups import haar_scheme, lie_dim
    from gaugereduce.ideal import conjugation_band
    from gaugereduce.reduction import projector_band

    nv = len(trunc.graph.vertices)
    sizes: dict[int, int] = {}

    def size(band) -> int:
        if band.value not in sizes:
            sizes[band.value] = len(haar_scheme(trunc.group, band).points) ** nv
        return sizes[band.value]

    total = sum(size(projector_band(b)) for b in trunc.blocks)
    specs = n_max * nv * lie_dim(trunc.group)
    total += specs * sum(size(conjugation_band(b)) for b in trunc.blocks if b.dim > 1)
    return total


def run_replay(cmd: dict, tracer: Tracer) -> dict:
    """``verify_ideal`` (or ``coarsened_verify``) as a sequence of public
    calls, mirroring ``cli.cmd_verify``, with a span around each layer."""
    import numpy as np

    from gaugereduce import cli
    from gaugereduce.config import parse_config
    from gaugereduce.groups import lie_dim
    from gaugereduce.ideal import (
        MINIMUM_SEED,
        GeneratorSpec,
        containment_residual,
        default_n_max,
        generator_coords,
        ideal_closure,
        subspace_distance,
    )
    from gaugereduce.reduction import commutant_basis, invariant_basis, kernel_pi_basis
    from gaugereduce.spectrum import eigenspace_grouping

    span = tracer.span
    args = cli.build_parser().parse_args(cmd["argv"])
    cfg = parse_config(args.config)
    with span("blocks.truncation"):
        trunc = cli._truncation(cfg)
    settings = cli._verify_settings(cfg, args)
    n_max = settings["n_max"] if settings["n_max"] is not None else default_n_max(trunc)
    method, tol, band = settings["method"], settings["tol"], settings["band"]
    groups = tuple((i,) for i in range(len(trunc.blocks)))
    if args.coarse or cfg.coarse:
        with span("spectrum.grouping"):
            groups = eigenspace_grouping(trunc).groups
        tracer.add("spectrum.n_levels", len(groups))
    with span("reduction.commutant", peak="reduction.commutant_peak_mb"):
        space = commutant_basis(trunc)
    with span("reduction.invariants"):
        inv = invariant_basis(trunc, method=method)
    with span("reduction.kernel"):
        kernel = kernel_pi_basis(space, inv)
    with span("reduction.structure_maps"):
        left, right = space.structure_maps()
    ideal = None
    for n in range(1, n_max + 1):
        with span("ideal.seeds"):
            seeds = []
            for members in groups:
                for v in trunc.graph.vertices:
                    for a in range(lie_dim(trunc.group)):
                        w = np.zeros(space.dim, dtype=complex)
                        for i in members:
                            w += generator_coords(
                                space, GeneratorSpec(i, v, a, n), method=method, band=band
                            )
                        seeds.append(w)
            seeds = np.array(seeds) if seeds else np.zeros((0, space.dim), complex)
        tracer.add("ideal.seed_count", seeds.shape[0])
        tracer.add("ideal.live_seeds", int(np.sum(np.linalg.norm(seeds, axis=1) > MINIMUM_SEED)))
        with span("ideal.closure", peak="ideal.closure_peak_mb"):
            ideal = ideal_closure(space, seeds, start=ideal)
        with span("ideal.distance"):
            residual = containment_residual(ideal, kernel)
            distance = subspace_distance(ideal, kernel)
    passed = distance <= tol and residual <= tol
    for key, value in (
        ("blocks.n_blocks", len(trunc.blocks)),
        ("blocks.dim_total", trunc.total_dim),
        ("groups.quad_points", quad_points(trunc, method, n_max)),
        ("reduction.structure_nnz", left.nnz + right.nnz),
        ("reduction.dim_ak", space.dim),
        ("reduction.dim_hk", inv.dim),
        ("reduction.dim_ker_pi", kernel.dim),
        ("ideal.dim_ideal", ideal.dim),
    ):
        tracer.add(key, value)
    counts = {
        "dim_AK": space.dim,
        "dim_HK": inv.dim,
        "dim_ker_pi": kernel.dim,
        "dim_ideal": ideal.dim,
        "pass": bool(passed),
    }
    return {"exit": 0 if passed else 1, "counts": counts}


def main() -> int:
    spec = json.load(sys.stdin)
    t0 = time.perf_counter()
    import gaugereduce.cli  # noqa: F401  (the import being timed)

    setup_s = time.perf_counter() - t0
    _emit(bench="setup", setup_s=setup_s, facts=_blas_facts())

    _warm_blas()
    tracer = None if spec["mode"] == "cli" else Tracer(peaks=spec["mode"] == "peaks")
    if tracer is not None:
        instrument(tracer)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = spec["mem_limit"] if hard == resource.RLIM_INFINITY else min(spec["mem_limit"], hard)
    verify_s = 0.0
    cpu0 = _cpu_s()
    for cmd in spec["commands"]:
        rec = {"id": cmd["id"], "status": "ok", "exit": None, "counts": None, "stage": None}
        if tracer is not None:
            tracer.command, tracer.counts = cmd["id"], {}
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
        signal.setitimer(signal.ITIMER_REAL, spec["op_timeout"])
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rec.update(run_cli(cmd))
            else:
                with tracer.span("command"):
                    rec.update(run_replay(cmd, tracer))
        except Exception as exc:  # any failure is a failed op, not a failed sample
            rec.update(status=_failure_kind(exc), stage=_stage(exc))
            if rec["status"].startswith("crash"):
                rec["error"] = traceback.format_exc(limit=-3)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
        rec["seconds"] = time.perf_counter() - t0
        verify_s += rec["seconds"]
        rec["peak_rss_mb"] = _peak_rss_mb()
        if tracer is not None:
            rec["layer"] = tracer.counts
        _emit(bench="op", **rec)
    _emit(
        bench="done",
        verify_s=verify_s,
        cpu_s=_cpu_s() - cpu0,
        peak_rss_mb=_peak_rss_mb(),
        spans=tracer.spans if tracer is not None else [],
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
