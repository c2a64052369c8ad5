"""Fast self-test of the benchmark harness, on two tiny systems.

Run from the root of a checkout: ``python3 -m pytest -q bench``.
"""

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

TINY = (("u1-edge-b1", ()), ("su2-loop-j1", ()))


def _commands(tmp_path, seed=0):
    return run.make_commands(TINY, random.Random(seed), tmp_path)


def test_frozen_counts_pass_on_any_seed(tmp_path):
    for seed in (0, 1):
        sample = run.run_child(_commands(tmp_path, seed))
        assert [op["failure"] for op in sample["ops"]] == [None, None]
        assert sample["setup_s"] > 0 and sample["verify_s"] > 0
        assert sample["facts"]["numpy"]


def test_seed_relabels_and_keeps_structure():
    a = run.run_description("u1-square-b1", random.Random(1))
    b = run.run_description("u1-square-b1", random.Random(2))
    assert a != b
    assert a == run.run_description("u1-square-b1", random.Random(1))
    assert a.count("edge = ") == b.count("edge = ") == 4


def test_wrong_frozen_count_is_a_failed_op(tmp_path):
    commands = _commands(tmp_path)
    commands[0]["frozen"]["dim_AK"] += 1
    sample = run.run_child(commands)
    ops = sample["ops"]
    assert ops[0]["failure"] == "mismatch:dim_AK"
    assert run.wrong_counts(ops[0])
    assert ops[1]["failure"] is None
    record = run.summarize("tiny", 0, 0, {"cli": [sample]})
    assert record["failed"] == 1 and record["correct"] is False
    assert record["metrics"]["ok_ops_frac"]["value"] == 0.5


def test_nonzero_exit_is_failed_and_wrong_only_on_structural_counts(tmp_path):
    # At n_max 1 every SU(2) seed vanishes, so the ideal stays empty and
    # verify exits 1 with correct dim_AK / dim_HK / dim_ker_pi.
    commands = run.make_commands(
        (("su2-loop-j1", ("--nmax", "1")),), random.Random(0), tmp_path
    )
    sample = run.run_child(commands)
    op = sample["ops"][0]
    assert op["failure"] == "exit:1"
    assert op["mismatch"] == ["dim_ideal", "pass"]
    assert not run.wrong_counts(op)
    record = run.summarize("tiny", 0, 0, {"cli": [sample]})
    assert record["failed"] == 1 and record["correct"] is True

    commands[0]["frozen"]["dim_AK"] += 1
    sample = run.run_child(commands)
    op = sample["ops"][0]
    assert op["failure"] == "exit:1"
    assert run.wrong_counts(op)
    record = run.summarize("tiny", 0, 0, {"cli": [sample]})
    assert record["correct"] is False and record["wrong_counts"] == [op["id"]]


def test_tiny_address_space_is_a_memory_failure(tmp_path):
    sample = run.run_child(_commands(tmp_path), mem_limit=1 << 20, op_timeout=20)
    assert [op["failure"] for op in sample["ops"]] == ["memory", "memory"]
    assert all(op["stage"] for op in sample["ops"])


def test_replay_matches_cli_and_covers_the_pass(tmp_path):
    commands = _commands(tmp_path)
    cli = run.run_child(commands)
    replay = run.run_child(commands, mode="replay")
    for a, b in zip(cli["ops"], replay["ops"]):
        assert a["counts"] == b["counts"]
    layers = run.layer_metrics(replay)
    assert layers["trace.coverage"] > 0.5
    assert layers["reduction.dim_ak"] == 3 + 5
    assert all(s["command"] for s in replay["spans"])
