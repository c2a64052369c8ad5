"""Run descriptions and the command line front end."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import gaugereduce.ideal
from gaugereduce.cli import main
from gaugereduce.config import ConfigError, parse_config
from gaugereduce.groups import GroupId

from .test_golden import GOLDEN
from .test_ideal import count_builds

U1_EDGE = """
    [group]
    kind = u1

    [graph]
    vertices = x y
    edge = e x y

    [truncation]
    bound = 1
"""

U1_TRIANGLE = """
    [group]
    kind = u1

    [graph]
    vertices = x y z
    edge = a x y
    edge = b y z
    edge = c z x

    [truncation]
    bound = 1
"""

SU2_LOOP = """
    [group]
    kind = su2

    [graph]
    vertices = x
    edge = l x x

    [truncation]
    bound = 2

    [verify]
    nmax = 2
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(textwrap.dedent(text).strip() + "\n")
    return str(p)


def test_parse_happy_path(tmp_path):
    cfg = parse_config(
        write_cfg(
            tmp_path,
            """
            [group]
            kind = su2

            [graph]
            vertices = x y          # two ends
            edge = e x y

            [truncation]
            bound = 2

            [verify]
            nmax = 3
            tol = 1e-9
            method = quad
            band = 4
            coarse = true

            [output]
            path = out.json
            """,
        )
    )
    assert cfg.group is GroupId.SU2
    assert cfg.graph.vertices == ("x", "y")
    assert [e.id for e in cfg.graph.edges] == ["e"]
    assert cfg.bound == 2
    assert cfg.n_max == 3
    assert cfg.tol == 1e-9
    assert cfg.method == "quadrature"
    assert cfg.band == 4
    assert cfg.coarse is True
    assert cfg.out == "out.json"


@pytest.mark.parametrize(
    "snippet,complaint",
    [
        ("[planets]\nkind = u1", "unknown section"),
        ("[group]\nflavor = u1", "unknown key"),
        ("kind = u1", "outside any section"),
        ("[group]\nkind u1", "expected key = value"),
        ("[group]\nkind = u1\nkind = su2", "duplicate key"),
        ("[group]\nkind =", "empty value"),
        ("[group]\nkind = e8", "unknown group kind"),
    ],
)
def test_parse_errors_carry_line_numbers(tmp_path, snippet, complaint):
    path = write_cfg(tmp_path, snippet, name="bad.cfg")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    message = str(err.value)
    assert complaint in message
    assert "bad.cfg:" in message
    tail = message.split("bad.cfg:", 1)[1]
    assert tail.split(":", 1)[0].isdigit()


@pytest.mark.parametrize(
    "graph_lines,complaint",
    [
        ("vertices = x x\nedge = e x x", "duplicate vertex"),
        ("vertices = x y\nedge = e x", "edge needs exactly"),
        ("vertices = x y\nedge = e x y\nedge = e y x", "duplicate edge name"),
        ("vertices = x y\nedge = e x q", "not a declared vertex"),
    ],
)
def test_graph_validation(tmp_path, graph_lines, complaint):
    text = f"[group]\nkind = u1\n\n[graph]\n{graph_lines}\n\n[truncation]\nbound = 1"
    with pytest.raises(ConfigError, match=complaint):
        parse_config(write_cfg(tmp_path, text))


def test_missing_pieces(tmp_path):
    with pytest.raises(ConfigError, match="missing 'kind'"):
        parse_config(
            write_cfg(tmp_path, "[graph]\nvertices = x y\nedge = e x y\n[truncation]\nbound = 1")
        )
    with pytest.raises(ConfigError, match="missing 'bound'"):
        parse_config(write_cfg(tmp_path, "[group]\nkind = u1\n[graph]\nvertices = x y\nedge = e x y"))
    with pytest.raises(ConfigError, match="declares no edges"):
        parse_config(
            write_cfg(tmp_path, "[group]\nkind = u1\n[graph]\nvertices = x y\n[truncation]\nbound = 1")
        )
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(str(tmp_path / "absent.cfg"))


@pytest.mark.parametrize(
    "verify_line,complaint",
    [
        ("nmax = 0", "at least 1"),
        ("nmax = two", "must be an integer"),
        ("tol = tiny", "must be a number"),
        ("tol = -1e-8", "must be positive"),
        ("method = simpson", "method must be"),
        ("coarse = maybe", "coarse must be"),
        ("band = -1", "at least 0"),
    ],
)
def test_verify_value_validation(tmp_path, verify_line, complaint):
    text = textwrap.dedent(U1_EDGE) + f"\n[verify]\n{verify_line}\n"
    with pytest.raises(ConfigError, match=complaint):
        parse_config(write_cfg(tmp_path, text))


def test_verify_exit_zero_on_pass(tmp_path, capsys):
    rc = main(["verify", "--config", write_cfg(tmp_path, U1_EDGE)])
    out = capsys.readouterr()
    assert rc == 0
    payload = json.loads(out.out)
    assert payload["pass"] is True
    assert "elapsed:" in out.err


def test_verify_exit_one_on_equality_failure(tmp_path, capsys):
    rc = main(
        ["verify", "--config", write_cfg(tmp_path, SU2_LOOP), "--nmax", "1"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert payload["pass"] is False
    assert payload["per_nmax"][0]["dim_ideal"] == 0


def test_verify_exit_two_on_bad_config(tmp_path, capsys):
    path = write_cfg(tmp_path, "[group]\nkind = e8")
    rc = main(["verify", "--config", path])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("error", [MemoryError, RuntimeError, ValueError])
def test_verify_exit_three_on_a_crash(tmp_path, capsys, monkeypatch, error):
    # running out of memory, an internal check refusing a result, or an
    # internal ValueError (not bad input), is no verdict on the equality: the
    # run exits 3, not 1 or 2, with one error line naming the exception
    def crash(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(gaugereduce.ideal, "reduce_blocks", crash)
    rc = main(["verify", "--config", write_cfg(tmp_path, SU2_LOOP)])
    assert rc == 3
    assert capsys.readouterr().err.splitlines() == [f"error: {error.__name__}: injected"]


def test_verify_exit_two_names_a_run_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"\xff\xfe[group]\nkind = u1\n")
    rc = main(["verify", "--config", str(path)])
    assert rc == 2
    assert f"error: {path}: not UTF-8 text" in capsys.readouterr().err


def test_verify_exit_two_on_band_too_small(tmp_path, capsys):
    rc = main(
        [
            "verify",
            "--config",
            write_cfg(tmp_path, SU2_LOOP),
            "--method",
            "quad",
            "--band",
            "1",
        ]
    )
    assert rc == 2
    assert "band" in capsys.readouterr().err


def test_band_is_checked_on_blocks_without_weight_zero(capsys):
    # su2 edge b1's spin-1/2 block needs band 1, and has no weight-zero
    # vector, so no invariant: the band check must not be skipped with it
    cfg = str(GOLDEN / "su2-edge-b1.cfg")
    assert main(["verify", "--config", cfg, "--method", "quad", "--band", "0"]) == 2
    assert "need at least 1" in capsys.readouterr().err


def test_band_governs_the_invariant_projector(capsys):
    # every U(1) block is one-dimensional, so the band reaches nothing but
    # the projector, and a charged block needs more than band 0
    cfg = str(GOLDEN / "u1-triangle-b2.cfg")
    assert main(["verify", "--config", cfg, "--method", "quad", "--band", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "quadrature band 0" in err


def test_band_need_not_cover_conjugation(tmp_path, capsys):
    # the seeds take no quadrature, so the spin-1 loop needs only the
    # projector's band 2, not the band 4 a conjugation average would
    cfg = write_cfg(tmp_path, SU2_LOOP)
    assert main(["verify", "--config", cfg, "--method", "quad"]) == 0
    plain = capsys.readouterr().out
    assert main(["verify", "--config", cfg, "--method", "quad", "--band", "2"]) == 0
    assert capsys.readouterr().out == plain


@pytest.mark.parametrize(
    "flags,complaint",
    [
        (("--tol", "-1"), "tol must be positive"),
        (("--tol", "nan"), "tol must be positive"),
        (("--tol", "0"), "tol must be positive"),
        # a U(1) band is a charge, whose degree is its absolute value
        (("--method", "quad", "--band", "-3"), "band must be at least 0"),
    ],
)
def test_flags_follow_the_run_file_rules(tmp_path, capsys, flags, complaint):
    rc = main(["verify", "--config", write_cfg(tmp_path, U1_EDGE), *flags])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert complaint in err


@pytest.mark.parametrize("command", ["verify", "decompose"])
def test_unwritable_out_exits_two(tmp_path, capsys, command):
    target = tmp_path / "missing" / "report.json"
    rc = main([command, "--config", write_cfg(tmp_path, U1_EDGE), "--out", str(target)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert str(target) in err


def test_report_schema_is_pinned(tmp_path, capsys):
    rc = main(["verify", "--config", write_cfg(tmp_path, U1_TRIANGLE)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {
        "group",
        "graph",
        "bound",
        "method",
        "tolerance",
        "coarse",
        "n_groups",
        "dim_HK",
        "dim_AK",
        "dim_ker_pi",
        "per_nmax",
        "pass",
        "seconds",
    }
    assert set(payload["graph"]) == {"vertices", "edges"}
    for row in payload["per_nmax"]:
        assert set(row) == {"n", "dim_ideal", "containment_residual", "distance"}
    assert payload["dim_AK"] == 45
    assert payload["dim_HK"] == 3
    assert payload["dim_ker_pi"] == 36
    assert payload["seconds"] == 0.0


def test_reports_are_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, U1_TRIANGLE)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["verify", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["verify", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_overrides_config(tmp_path, capsys):
    # config pins nmax = 2 (passes); the flag forces the failing power
    cfg = write_cfg(tmp_path, SU2_LOOP)
    assert main(["verify", "--config", cfg]) == 0
    capsys.readouterr()
    assert main(["verify", "--config", cfg, "--nmax", "1"]) == 1
    capsys.readouterr()


def test_output_path_from_config(tmp_path, capsys):
    target = tmp_path / "report.json"
    text = textwrap.dedent(U1_EDGE) + f"\n[output]\npath = {target}\n"
    rc = main(["verify", "--config", write_cfg(tmp_path, text)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["pass"] is True


def test_decompose_lists_blocks(tmp_path, capsys):
    rc = main(["decompose", "--config", write_cfg(tmp_path, U1_EDGE)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim_total"] == 3
    assert payload["dim_HK"] == 1
    assert payload["dim_AK"] == 3
    assert [b["labels"] for b in payload["blocks"]] == [[-1], [0], [1]]
    assert all(b["dim"] == 1 for b in payload["blocks"])
    assert [b["invariant_dim"] for b in payload["blocks"]] == [0, 1, 0]
    assert [b["energy"] for b in payload["blocks"]] == ["1", "0", "1"]


def test_decompose_builds_each_blocks_generators_once(tmp_path, capsys, monkeypatch):
    # every U(1) block is one-dimensional, read off one array of scalars; an
    # SU(2) block is split by its weights and ladder pieces.  decompose takes
    # no --method: a config's is ignored.  No dense generator, block action,
    # copy basis or per-element index is built
    built = count_builds(monkeypatch)
    su2 = (GOLDEN / "su2-triangle-b1.cfg").read_text()
    for text, n_blocks, big in [(U1_TRIANGLE, 27, 0), (su2, 8, 7)]:
        for method in ("lie", "quad"):
            cfg = write_cfg(tmp_path, f"{text}\n[verify]\nmethod = {method}\n")
            assert main(["decompose", "--config", cfg]) == 0
            blocks = json.loads(capsys.readouterr().out)["blocks"]
            assert (len(blocks), sum(b["dim"] > 1 for b in blocks)) == (n_blocks, big)
    assert built == []


def test_spectrum_reports_levels(tmp_path, capsys):
    rc = main(["spectrum", "--config", write_cfg(tmp_path, SU2_LOOP)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert [lv["energy"] for lv in payload["levels"]] == ["0", "3/4", "2"]
    assert [lv["dim"] for lv in payload["levels"]] == [1, 4, 9]
    assert payload["coarse"] is True
    assert payload["pass"] is True


def test_spectrum_runs_the_verification_once(tmp_path, monkeypatch):
    # every verify_ideal call makes one pass over the blocks, wherever the
    # caller imported verify_ideal from
    calls, one_pass = [], gaugereduce.ideal.reduce_blocks

    def counted(*args, **kwargs):
        calls.append(args)
        return one_pass(*args, **kwargs)

    monkeypatch.setattr(gaugereduce.ideal, "reduce_blocks", counted)
    assert main(["spectrum", "--config", write_cfg(tmp_path, SU2_LOOP)]) == 0
    assert len(calls) == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("method", ["lie", "quad"])
def test_high_powers_do_not_overflow(capsys, method):
    # on the spin-2 loop, |Gamma^n|^2 passes the largest double by n = 258: the
    # stepped powers are rescaled, so the roundoff cut never sees inf or nan
    cfg = str(GOLDEN / "su2-loop-b4.cfg")
    assert main(["verify", "--config", cfg, "--nmax", "258", "--method", method]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim_ker_pi"] == payload["per_nmax"][-1]["dim_ideal"] == 30


def test_coarse_flag(tmp_path, capsys):
    rc = main(["verify", "--config", write_cfg(tmp_path, U1_TRIANGLE), "--coarse"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["coarse"] is True
    assert payload["n_groups"] == 4


def test_bad_subcommand_usage_exits_two(capsys):
    # --config is required; main returns the status, it raises no SystemExit
    assert main(["verify"]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: verify needs --config FILE"]


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["check", "--config", "{cfg}"],
        ["verify", "--nmax", "2"],
        ["verify", "--config", "{cfg}", "--bogus", "1"],
        ["verify", "--config", "{cfg}", "stray"],
        ["verify", "--conf", "{cfg}"],  # no prefixes
        ["decompose", "--config", "{cfg}", "--nmax", "2"],
        ["spectrum", "--config", "{cfg}", "--coarse"],
        ["verify", "--config", "{cfg}", "--coarse=yes"],
        ["verify", "--config", "{cfg}", "--nmax"],
        ["verify", "--config", "{cfg}", "--tol", "--nmax", "2"],
        ["verify", "--config", "{cfg}", "--nmax", "2.5"],
    ],
    ids=[
        "no-arguments",
        "unknown-command",
        "no-config",
        "unknown-flag",
        "stray-word",
        "prefix",
        "decompose-nmax",
        "spectrum-coarse",
        "coarse-value",
        "nmax-last",
        "tol-before-flag",
        "nmax-not-integer",
    ],
)
def test_usage_errors_exit_two_with_one_error_line(tmp_path, capsys, argv):
    cfg = write_cfg(tmp_path, U1_EDGE)
    assert main([a.format(cfg=cfg) for a in argv]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert len(out.err.splitlines()) == 1
    assert out.err.startswith("error: ")
    assert "Traceback" not in out.err


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["verify", "--help"], ["bogus", "-h"]])
def test_help_exits_zero_and_names_every_flag(capsys, argv):
    assert main(argv) == 0
    out = capsys.readouterr()
    assert out.err == ""
    for word in ["decompose", "verify", "spectrum", "--KEY=VALUE"]:
        assert word in out.out
    for flag in ["--config", "--out", "--nmax", "--tol", "--method", "--band", "--coarse"]:
        assert flag in out.out


@pytest.mark.parametrize(
    "key,value",
    [
        ("nmax", "0"),
        ("nmax", "two"),
        ("tol", "tiny"),
        ("tol", "-1"),
        ("tol", "nan"),
        ("method", "simpson"),
        ("band", "-1"),
    ],
)
def test_flag_and_run_file_line_fail_alike(tmp_path, capsys, key, value):
    # the flags are checked by the run file's own rules, so both complain alike
    cfg = write_cfg(tmp_path, U1_EDGE)
    bad = write_cfg(tmp_path, f"{textwrap.dedent(U1_EDGE)}\n[verify]\n{key} = {value}\n", "bad.cfg")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    where, _, complaint = str(err.value).partition(": ")
    assert where.startswith(bad + ":")
    assert main(["verify", "--config", cfg, f"--{key}", value]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {complaint}"]


def test_flags_take_the_equals_form_and_the_run_file_values(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SU2_LOOP)
    reports = []
    for flags in (
        ["--nmax", "1", "--method", "quad"],
        ["--nmax=1", "--method=quadrature"],
        ["--method", "QUAD", "--nmax=1", "--band=2", "--band", "2"],
    ):
        assert main(["verify", "--config", cfg, *flags]) == 1
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1] == reports[2]
    assert json.loads(reports[0])["method"] == "quadrature"


def test_module_entry_point(tmp_path):
    cfg = write_cfg(tmp_path, U1_EDGE)
    proc = subprocess.run(
        [sys.executable, "-m", "gaugereduce", "verify", "--config", cfg],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"] is True


def test_commands_run_without_scipy(tmp_path):
    # The package needs only numpy at run time: a fresh process imports the
    # front end and runs every command, with both averaging routes, on a
    # small U(1) and a small SU(2) system, and scipy is never loaded.  Nor is
    # argparse: the flags are read by the run file's rules, with no parser to
    # build in every process.  Nor is numpy.ma, which a plain ``np.unique``
    # imports on its first call (about 10 ms, more than a small verify takes).
    argv = []
    for k, text in enumerate((U1_TRIANGLE, SU2_LOOP)):
        cfg = write_cfg(tmp_path, text, name=f"run{k}.cfg")
        out = str(tmp_path / f"out{k}")
        argv.append(["decompose", "--config", cfg, "--out", out + "d.json"])
        for method in ("lie", "quad"):
            for command in ("verify", "spectrum"):
                dest = f"{out}{command}{method}.json"
                argv.append([command, "--config", cfg, "--method", method, "--out", dest])
    script = textwrap.dedent(
        """
        import json, sys
        import gaugereduce.cli

        def heavy():
            names = [m for m in sys.modules if m.partition(".")[0] in ("scipy", "argparse")]
            return sorted(names + [m for m in sys.modules if m.split(".")[:2] == ["numpy", "ma"]])

        loaded, codes = [heavy()], []
        for argv in json.loads(sys.argv[1]):
            codes.append(gaugereduce.cli.main(argv))
            loaded.append(heavy())
        print(json.dumps({"codes": codes, "loaded": loaded}))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argv)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["codes"] == [0] * len(argv)
    assert got["loaded"] == [[]] * (len(argv) + 1)


def test_quadrature_leaves_numpy_polynomial_unloaded(tmp_path):
    # the Gauss-Legendre nodes come from one eigh, so a fresh process that
    # verifies by quadrature never imports numpy.polynomial
    script = textwrap.dedent(
        """
        import sys
        import gaugereduce.cli

        code = gaugereduce.cli.main(sys.argv[1:])
        print(code, "numpy.polynomial" in sys.modules)
        """
    )
    argv = ["verify", "--config", str(GOLDEN / "su2-triangle-b1.cfg"), "--method", "quad"]
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv, "--nmax", "2", "--out", str(tmp_path / "r.json")],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]
