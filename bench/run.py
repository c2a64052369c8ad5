"""End-to-end benchmark of ``gaugereduce verify``.

Usage, from the root of a checkout::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --frontier

Every sample is one fresh child process (``bench/child.py``) that imports
``gaugereduce.cli`` and runs one pass over the workload's commands through
``cli.main``, under a 2 GB address-space cap and a per-command timeout.
Children run one at a time, from this single driver: a closed loop with one
client.  Each command's report is checked against frozen counts; a crash,
timeout, memory failure, nonzero exit or wrong count is a failed op, never a
crash of the benchmark.

``--trace 0`` reports the end-to-end metrics over the samples of the run:
medians, except peak RSS, which is the largest.  ``--trace 1`` rotates
untraced passes with two kinds of traced replay of ``verify_ideal``'s public
calls (see ``child.py``) and reports the per-layer metrics.  ``--frontier``
runs the two largest rungs once, untimed, and records how they fail.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Per-sample records,
spans and machine facts go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

MEM_LIMIT = 2 << 30  # the ROADMAP's memory frontier
OP_TIMEOUT = 30.0  # seconds per command inside a child
FRONTIER_TIMEOUT = 60.0  # the ROADMAP's time frontier

TRIANGLE = (("x", "y", "z"), (("a", "x", "y"), ("b", "y", "z"), ("c", "z", "x")))
SQUARE = (
    ("w", "x", "y", "z"),
    (("a", "w", "x"), ("b", "x", "y"), ("c", "y", "z"), ("d", "z", "w")),
)
EDGE = (("x", "y"), (("e", "x", "y"),))
PARALLEL = (("x", "y"), (("e", "x", "y"), ("f", "x", "y")))
LOOP = (("x",), (("l", "x", "x"),))

# name -> (group, graph, bound, (dim_AK, dim_HK, dim_ker_pi)).  The counts
# are frozen: U(1) ones by flux counting, SU(2) ones from the multiplicities
# m_lambda of the commutant's matrix blocks.  A passing run ends with
# dim_ideal == dim_ker_pi.
SYSTEMS = {
    "u1-edge-b1": ("u1", EDGE, 1, (3, 1, 2)),
    "u1-square-b1": ("u1", SQUARE, 1, (115, 3, 106)),
    "u1-triangle-b2": ("u1", TRIANGLE, 2, (325, 5, 300)),
    "u1-triangle-b3": ("u1", TRIANGLE, 3, (1225, 7, 1176)),
    "su2-loop-b4": ("su2", LOOP, 4, (55, 5, 30)),
    "su2-loop-j1": ("su2", LOOP, 1, (5, 2, 1)),
    "su2-edge-b1": ("su2", EDGE, 1, (2, 1, 1)),
    "su2-edge-b3": ("su2", EDGE, 3, (4, 1, 3)),
    "su2-parallel-b1": ("su2", PARALLEL, 1, (11, 2, 7)),
    "su2-triangle-b1": ("su2", TRIANGLE, 1, (26, 2, 22)),
}

# Why each workload exists is kept in BENCHMARK.json; here only the commands.
WORKLOADS = {
    "u1-closure": (("u1-triangle-b2", ()), ("u1-square-b1", ())),
    "u1-coarse": (("u1-triangle-b2", ("--coarse",)),),
    # su2-loop-b4 fails at the default n_max; it stays in as a failed op.
    # su2-edge-b1 keeps the quadrature route (with |S|^V over two vertices)
    # in the traced layers.  A rung big enough to move verify_s (su2 edge b2)
    # made the spread of verify_s too wide, alone or in this workload.
    "su2-commutant": (
        ("su2-loop-b4", ()),
        ("su2-edge-b3", ()),
        ("su2-parallel-b1", ()),
        ("su2-edge-b1", ("--method", "quad", "--nmax", "2")),
    ),
}

# Counts fixed by the system alone, whether or not the ideal converges.
STRUCTURAL = ("dim_AK", "dim_HK", "dim_ker_pi")

FRONTIER = (("u1-triangle-b3", ()), ("su2-triangle-b1", ()))

END_TO_END = {
    "verify_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ops_frac": "frac",
}

PER_LAYER = {
    "blocks.truncation_s": "s",
    "blocks.n_blocks": "count",
    "blocks.dim_total": "count",
    "lattice.generators_s": "s",
    "lattice.generator_count": "count",
    "groups.quad_points": "count",
    "reduction.commutant_s": "s",
    "reduction.commutant_peak_mb": "MB",
    "reduction.invariants_s": "s",
    "reduction.kernel_s": "s",
    "reduction.structure_maps_s": "s",
    "reduction.structure_nnz": "count",
    "reduction.dim_ak": "count",
    "reduction.dim_hk": "count",
    "reduction.dim_ker_pi": "count",
    "ideal.seeds_s": "s",
    "ideal.seed_count": "count",
    "ideal.live_seed_ratio": "ratio",
    "ideal.closure_s": "s",
    "ideal.closure_peak_mb": "MB",
    "ideal.distance_s": "s",
    "ideal.dim_ideal": "count",
    "spectrum.grouping_s": "s",
    "spectrum.n_levels": "count",
    "trace.wall_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}

# Counters the replay reports per command; summed over a pass, except peaks.
_PEAKS = ("reduction.commutant_peak_mb", "ideal.closure_peak_mb")


class HarnessError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


def run_description(system: str, rng: random.Random) -> str:
    """Run file for a system, relabelled by the seed.

    Vertex and edge declaration orders are permuted and every id renamed;
    none of this changes the frozen counts.
    """
    group, (vertices, edges), bound, _ = SYSTEMS[system]
    ids = rng.sample(range(10**6), len(vertices) + len(edges))
    vname = {v: f"v{ids[k]:06d}" for k, v in enumerate(vertices)}
    order = list(vertices)
    rng.shuffle(order)
    lines = ["[group]", f"kind = {group}", "[graph]"]
    lines.append("vertices = " + " ".join(vname[v] for v in order))
    shuffled = list(enumerate(edges))
    rng.shuffle(shuffled)
    for k, (_, src, dst) in shuffled:
        lines.append(f"edge = e{ids[len(vertices) + k]:06d} {vname[src]} {vname[dst]}")
    lines += ["[truncation]", f"bound = {bound}", ""]
    return "\n".join(lines)


def make_commands(commands, rng: random.Random, workdir: Path) -> list[dict]:
    """Write one run file per command and return the child's command specs."""
    out = []
    for k, (system, flags) in enumerate(commands):
        path = workdir / f"{k}-{system}.cfg"
        path.write_text(run_description(system, rng), encoding="utf-8")
        ak, hk, ker = SYSTEMS[system][3]
        out.append(
            {
                "id": f"{k}-{system}",
                "argv": ["verify", "--config", str(path), *flags],
                "frozen": {
                    "dim_AK": ak,
                    "dim_HK": hk,
                    "dim_ker_pi": ker,
                    "dim_ideal": ker,
                    "pass": True,
                },
            }
        )
    return out


def run_child(
    commands: list[dict],
    mode: str = "cli",
    mem_limit: int = MEM_LIMIT,
    op_timeout: float = OP_TIMEOUT,
) -> dict:
    """Run one pass in a fresh child and check every command.

    Returns ``{"ops": [...], "setup_s", "verify_s", "peak_rss_mb", ...}``.
    Every command gets an op record with ``failure`` set to ``None`` or to
    the kind of failure; a child that dies leaves the remaining commands
    failed with the signal or exit status it died of.
    """
    spec = {"mode": mode, "commands": commands, "mem_limit": mem_limit, "op_timeout": op_timeout}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py")],
        cwd=ROOT,
        env=env,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    hard = op_timeout * len(commands) + 30.0
    try:
        stdout, stderr = proc.communicate(json.dumps(spec), timeout=hard)
        died = None
    except subprocess.TimeoutExpired:
        proc.kill()
        stdout, stderr = proc.communicate()
        died = "timeout"
    events = [json.loads(line) for line in stdout.splitlines() if line.startswith('{"bench"')]
    setup = next((e for e in events if e["bench"] == "setup"), None)
    if setup is None and died is None:
        raise HarnessError(f"child failed before importing gaugereduce:\n{stderr[-2000:]}")
    if died is None and proc.returncode < 0:
        died = "signal:" + signal.Signals(-proc.returncode).name
    elif died is None and proc.returncode != 0:
        died = f"child-exit:{proc.returncode}"
    done = next((e for e in events if e["bench"] == "done"), {})
    by_id = {e["id"]: e for e in events if e["bench"] == "op"}
    ops = []
    for cmd in commands:
        op = by_id.get(cmd["id"]) or {"id": cmd["id"], "status": died or "missing"}
        op["failure"], op["mismatch"] = check_op(op, cmd["frozen"])
        ops.append(op)
    return {
        "ops": ops,
        "setup_s": setup and setup["setup_s"],
        "facts": setup and setup["facts"],
        "verify_s": done.get("verify_s"),
        "cpu_s": done.get("cpu_s"),
        "peak_rss_mb": done.get("peak_rss_mb"),
        "spans": done.get("spans", []),
        "stderr": stderr[-2000:] if died else "",
    }


def check_op(op: dict, frozen: dict) -> tuple[str | None, list[str]]:
    """Failure kind (or ``None``) and the counts that differ from frozen."""
    if op["status"] != "ok":
        return op["status"], []
    got = op["counts"] or {}
    mismatch = [k for k, v in frozen.items() if got.get(k) != v]
    if op["exit"] != 0:
        return f"exit:{op['exit']}", mismatch
    if mismatch:
        return "mismatch:" + ",".join(mismatch), mismatch
    return None, mismatch


def wrong_counts(op: dict) -> bool:
    """A report no correct program gives: an exit 0 with any count differing
    from frozen, or, whatever the exit code, a differing ``STRUCTURAL`` count.

    A run that exits nonzero because its ideal did not converge (the known
    su2-loop-b4 failure) is a failed op; it is wrong only if the counts that
    do not depend on convergence are wrong too.
    """
    if op["status"] != "ok" or not op["mismatch"]:
        return False
    if op["exit"] == 0:
        return True
    return op["counts"] is not None and any(k in STRUCTURAL for k in op["mismatch"])


def layer_metrics(sample: dict) -> dict:
    """Per-layer figures of one traced pass: span times summed by name,
    counters summed over commands (peaks: the largest)."""
    spans = sample["spans"]
    totals: dict[str, float] = {}
    for s in spans:
        totals[s["name"]] = totals.get(s["name"], 0.0) + s["end"] - s["start"]
    roots = {k for k, s in enumerate(spans) if s["parent"] is None}
    covered = sum(s["end"] - s["start"] for s in spans if s["parent"] in roots)
    wall = sum(spans[k]["end"] - spans[k]["start"] for k in roots)
    out = {name: 0.0 for name in PER_LAYER}
    for name in PER_LAYER:
        if name.endswith("_s") and name[:-2] in totals:
            out[name] = totals[name[:-2]]
    live = 0
    for op in sample["ops"]:
        layer = op.get("layer", {})
        live += layer.get("ideal.live_seeds", 0)
        for k in PER_LAYER.keys() & layer.keys():
            out[k] = max(out[k], layer[k]) if k in _PEAKS else out[k] + layer[k]
    seeds = out["ideal.seed_count"]
    out["ideal.live_seed_ratio"] = live / seeds if seeds else 0.0
    out["trace.wall_s"] = wall
    out["trace.coverage"] = covered / wall if wall else 0.0
    return out


def machine_facts(child_facts: dict | None) -> dict:
    facts = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
    }
    facts.update(child_facts or {})
    return facts


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        got = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return got.stdout.strip() if got.returncode == 0 else "unknown"


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run samples for ``seconds`` and return the result record."""
    rng = random.Random(seed)
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        modes = ("cli", "replay", "peaks") if trace else ("cli",)
        samples = {mode: [] for mode in modes}
        t0 = time.perf_counter()
        k, last = 0, 0.0
        # Start another sample while it would end, on the last one's pace,
        # no more than half a sample past the deadline.
        while k < len(modes) or time.perf_counter() - t0 + last / 2 < seconds:
            # Each sample is relabelled afresh, so a cost that depends on the
            # layout (u1-coarse's peak RSS does) varies within a run, not
            # only from seed to seed.
            order = make_commands(WORKLOADS[workload], rng, workdir)
            rng.shuffle(order)
            mode = modes[k % len(modes)]
            t1 = time.perf_counter()
            samples[mode].append(run_child(order, mode=mode))
            last = time.perf_counter() - t1
            k += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return summarize(workload, seed, seconds, samples)


def summarize(workload, seed, seconds, samples) -> dict:
    plain = samples["cli"]
    traced = samples.get("replay", []) + samples.get("peaks", [])
    ops = [op for s in plain + traced for op in s["ops"]]
    failed = [op for op in ops if op["failure"]]
    wrong = sorted({op["id"] for op in ops if wrong_counts(op)})
    cli_counts = {op["id"]: op.get("counts") for s in plain for op in s["ops"]}
    replay_mismatch = [
        op["id"]
        for s in traced
        for op in s["ops"]
        if op["status"] == "ok" and cli_counts.get(op["id"]) not in (None, op["counts"])
    ]
    correct = not wrong and not replay_mismatch

    def med(key, group):
        vals = [s[key] for s in group if s[key] is not None]
        return statistics.median(vals) if vals else 0.0

    verify_s = med("verify_s", plain)
    if traced:
        timed = [layer_metrics(s) for s in samples["replay"]]
        peaks = [layer_metrics(s) for s in samples["peaks"]]
        metrics = {
            k: statistics.median(p[k] for p in (peaks if k in _PEAKS else timed))
            for k in PER_LAYER
        }
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - verify_s
        units = PER_LAYER
    else:
        plain_ops = [op for s in plain for op in s["ops"]]
        ok = sum(1 for op in plain_ops if not op["failure"])
        metrics = {
            "verify_s": verify_s,
            "setup_s": med("setup_s", plain),
            # The largest, not the median: peak RSS takes one of two values
            # set by the command order, and the memory frontier depends on
            # the larger one.
            "peak_rss_mb": max(s["peak_rss_mb"] or 0.0 for s in plain),
            "ok_ops_frac": ok / len(plain_ops),
        }
        units = END_TO_END
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "samples": len(plain),
        "traced_samples": len(traced),
        "facts": machine_facts(next((s["facts"] for s in plain if s["facts"]), None)),
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "failures": sorted({f"{op['id']}: {op['failure']}" for op in failed}),
        "wrong_counts": wrong,
        "replay_mismatch": replay_mismatch,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "samples_detail": [
            {k: s[k] for k in ("setup_s", "verify_s", "cpu_s", "peak_rss_mb", "ops", "stderr")}
            for s in plain
        ],
        "traced_detail": [{"ops": s["ops"], "spans": s["spans"]} for s in traced],
    }


def frontier() -> dict:
    """Run the frontier rungs once each, untimed, under the 2 GB cap."""
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        commands = make_commands(FRONTIER, random.Random(0), workdir)
        rungs = [
            run_child([cmd], op_timeout=FRONTIER_TIMEOUT)["ops"][0] for cmd in commands
        ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"facts": machine_facts(None), "mem_limit": MEM_LIMIT, "rungs": rungs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--frontier", action="store_true")
    args = parser.parse_args(argv)
    if not args.frontier and args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "gaugereduce" / "cli.py").is_file():
        print(f"error: no gaugereduce sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.frontier:
            record = frontier()
            name = "frontier.json"
        else:
            record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
            name = f"{args.workload}-s{args.seed}-t{args.trace}.json"
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.frontier:
        keys = ("id", "failure", "stage", "seconds", "peak_rss_mb")
        for op in record["rungs"]:
            print(json.dumps({k: op.get(k) for k in keys}))
        return 0
    print(
        f"{args.workload}: {record['samples']} samples, {record['traced_samples']} traced; "
        f"failures {record['failures']}; facts {json.dumps(record['facts'])}",
        file=sys.stderr,
    )
    print(
        json.dumps(
            {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
