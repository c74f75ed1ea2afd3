import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from delayreach.cli import build_parser, main
from delayreach.integrator import HistoryFn, IntegratorOptions, integrate
from delayreach.probes import escape_schedule, estimate_R
from delayreach.signals import from_json
from delayreach import systems
from delayreach.systems import DEFAULT_DELAY, make_system


NAN, INF = float("nan"), float("inf")
ONE = {"kind": "constant", "value": [1.0]}


def write_config(tmp_path, cfg) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


SUBCOMMANDS = [
    "lyapunov",
    "simulate",
    "escape",
    "estimate-r",
    "rfc-sweep",
    "es-check",
    "uga-table",
    "equiv-check",
]

EXPECTED_FLAGS = {
    "lyapunov": ["--lambda", "--constants"],
    "simulate": ["--system", "--T", "--history", "--input", "--tau", "--grid"],
    "escape": ["--dwell", "--grid"],
    "estimate-r": ["--system", "--r", "--T", "--budget"],
    "rfc-sweep": [],
    "es-check": ["--n", "--T", "--tol"],
    "uga-table": ["--r", "--eps", "--samples"],
    "equiv-check": ["--pairs"],
}


class TestHelp:
    def test_top_level_help_lists_all_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in SUBCOMMANDS:
            assert name in out
        for flag in ["--config", "--seed", "--out", "--svg"]:
            assert flag in out

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_subcommand_help_documents_flags(self, name, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([name, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in EXPECTED_FLAGS[name]:
            assert flag in out


class TestLyapunov:
    def test_json_output(self, capsys, tmp_path):
        assert main(["--out", str(tmp_path), "lyapunov", "--lambda", "0"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["P"] == [[25.0, -1.0], [-1.0, 6.3]]
        assert data["residual"] <= 1e-12

    def test_constants(self, capsys, tmp_path):
        assert main(["--out", str(tmp_path), "lyapunov", "--constants"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert 0.0 < data["capital_lambda"] < 0.05
        assert data["k"] > 1.0
        assert 0.0 < data["p"] <= 1.0


class TestSimulate:
    def test_zero_history_gives_zero_csv(self, tmp_path, capsys):
        code = main(
            ["--out", str(tmp_path), "simulate", "--system", "cascade", "--history", "zero", "--T", "5"]
        )
        assert code == 0
        lines = (tmp_path / "trajectory.csv").read_text().strip().splitlines()
        assert lines[0] == "t,x1,x2,x3"
        body = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert np.array_equal(body[:, 1:], np.zeros_like(body[:, 1:]))

    def test_constant_history_decays(self, tmp_path, capsys):
        code = main(
            [
                "--out",
                str(tmp_path),
                "simulate",
                "--system",
                "cascade",
                "--history",
                "const:0.5,0,0",
                "--T",
                "2",
                "--tau",
                "1.0",
            ]
        )
        assert code == 0
        summary = json.loads((tmp_path / "simulate_summary.json").read_text())
        assert summary["outcome"] == "completed"

    def test_cascade_run_forces_the_saturation_stops(self, tmp_path, capsys):
        # from z = 2 the feed crosses 1 at tau + ln 2, a kink of the rhs that no
        # breakpoint lists: the run steps to it, as every other cascade run does
        assert main(["--out", str(tmp_path), "simulate", "--history", "const:2,0.1,0"]) == 0
        hist = HistoryFn.constant(np.array([2.0, 0.1, 0.0]), DEFAULT_DELAY)
        stops = systems.saturation_stop_times(hist, DEFAULT_DELAY, 5.0)
        assert stops.tolist() == [DEFAULT_DELAY + math.log(2.0)]
        out = integrate(make_system("cascade"), hist, None, 5.0, IntegratorOptions(), extra_stops=stops)
        assert stops[0] in out.trajectory.ts
        rows = [(t, *out.trajectory.eval(t)) for t in np.linspace(0.0, 5.0, 200)]
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()[1:]
        assert lines == [",".join("%.17g" % float(v) for v in row) for row in rows]

    def test_positively_shifted_input_runs(self, tmp_path, capsys):
        # before its shift a time_shift reads its inner signal at 0
        inner = {"kind": "piecewise_constant", "values": [[1.0], [0.0]], "breaks": [0.5]}
        spec = tmp_path / "f.json"
        spec.write_text(json.dumps({"kind": "time_shift", "inner": inner, "shift": 0.25}))
        argv = ["--out", str(tmp_path), "simulate", "--system", "planar", "--history", "const:0.5,0"]
        assert main([*argv, "--input", str(spec)]) == 0
        cfg = write_config(tmp_path, {"input": {"kind": "time_shift", "inner": ONE, "shift": 1.0}})
        assert main(["--config", cfg, *argv]) == 0

    def test_bad_history_spec_is_config_error(self, tmp_path, capsys):
        code = main(["--out", str(tmp_path), "simulate", "--history", "garbage"])
        assert code == 2


class TestEscape:
    def test_escape_exits_zero(self, tmp_path, capsys):
        code = main(["--out", str(tmp_path), "escape"])
        assert code == 0
        summary = json.loads((tmp_path / "escape_summary.json").read_text())
        assert summary["outcome"] == "escaped"
        assert summary["t_escape"] < 20.0


class TestDeterminism:
    def test_same_seed_byte_identical_csv(self, tmp_path, capsys):
        args = ["estimate-r", "--system", "planar", "--r", "0.5", "--T", "1", "--budget", "4"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["--out", str(a), "--seed", "42", *args]) == 0
        assert main(["--out", str(b), "--seed", "42", *args]) == 0
        assert (a / "estimate_r.csv").read_bytes() == (b / "estimate_r.csv").read_bytes()

    def test_csv_has_full_precision(self, tmp_path, capsys):
        assert (
            main(
                [
                    "--out",
                    str(tmp_path),
                    "simulate",
                    "--system",
                    "planar",
                    "--history",
                    "const:0.12345678901234567,0",
                    "--T",
                    "1",
                ]
            )
            == 0
        )
        first_row = (tmp_path / "trajectory.csv").read_text().splitlines()[1]
        assert "0.12345678901234566" in first_row or "0.12345678901234567" in first_row


class TestConfig:
    def test_invalid_config_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["--config", str(bad), "--out", str(tmp_path), "lyapunov"])
        assert code == 2

    @pytest.mark.parametrize("rel_tol", ["1e-8", -1])
    def test_invalid_integrator_option_is_config_error(self, tmp_path, capsys, rel_tol):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"integrator": {"rel_tol": rel_tol}}))
        args = ["simulate", "--system", "planar", "--tau", "1", "--T", "1", "--history", "const:0.5,0"]
        assert main(["--config", str(cfg), "--out", str(tmp_path), *args]) == 2
        assert "rel_tol" in capsys.readouterr().err

    def test_gain_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"A2": [[-1.0, 0.0], [0.0, -1.0]]}))
        assert main(["--config", str(cfg), "--out", str(tmp_path), "lyapunov", "--lambda", "0"]) == 0
        data = json.loads(capsys.readouterr().out)
        # lyapunov solution of -I is I/2
        assert data["P"] == [[0.5, 0.0], [0.0, 0.5]]


class TestSvg:
    def test_escape_svg_written(self, tmp_path, capsys):
        svg = tmp_path / "plot.svg"
        assert main(["--out", str(tmp_path), "--svg", str(svg), "escape"]) == 0
        text = svg.read_text()
        assert text.startswith("<svg") and "polyline" in text

    @pytest.mark.parametrize("out, svg", [("new", "new/p.svg"), ("a/b", "a/p.svg")],
                             ids=["in_out_dir", "in_its_parent"])
    def test_svg_in_the_out_dir_to_be_made(self, tmp_path, capsys, out, svg):
        # the --out directory and its parents are made before the plot is written
        assert main(["--out", str(tmp_path / out), "--svg", str(tmp_path / svg), "escape"]) == 0
        assert (tmp_path / svg).read_text().startswith("<svg")
        assert (tmp_path / out / "escape_summary.json").is_file()


class TestBadInput:
    @pytest.mark.parametrize(
        "env, cfg, argv",
        [
            ({}, None, ["simulate", "--T", "-1"]),
            ({}, None, ["simulate", "--history", "const:a,0"]),
            ({}, None, ["simulate", "--tau", "-1"]),
            ({}, {"tau": "abc"}, ["simulate", "--system", "planar"]),
            ({}, {"tau": -1}, ["simulate", "--system", "planar"]),
            ({}, None, ["estimate-r", "--budget", "0"]),
            ({}, None, ["lyapunov", "--lambda", "2"]),
            ({}, None, ["uga-table", "--eps", "0"]),
            ({}, None, ["--seed", "-1", "lyapunov"]),
            ({"DELAYREACH_SEED": "abc"}, None, ["lyapunov"]),
            ({}, None, ["escape", "--dwell=-1e-3"]),
            ({}, None, ["escape", "--dwell", "0"]),
            ({}, {"integrator": {"h_max": 0.1}}, ["simulate", "--system", "planar"]),
            ({}, {"integrator": {"first_step": 1e-4}}, ["simulate", "--system", "planar"]),
            ({}, {"integrator": {"delay_multiples": 0}}, ["simulate", "--system", "planar"]),
            # a broken line through no knot
            ({}, {"input": {"kind": "piecewise_linear", "knots": [], "values": []}},
             ["simulate", "--system", "planar"]),
            # gains that are not 2x2
            ({}, {"A1": [[0, 2, 7], [-0.5, -0.1, 7], [7, 7, 7]]}, ["lyapunov", "--constants"]),
            ({}, {"A1": [[0, 2, 7], [-0.5, -0.1, 7], [7, 7, 7]]}, ["estimate-r"]),
            ({}, {"A2": [[-0.1, 0.5], [-2, 0], [7, 7]]}, ["lyapunov", "--constants"]),
            ({}, {"A2": [[-0.1, 0.5], [-2, 0], [7, 7]]}, ["estimate-r"]),
            # Hurwitz gains whose Lyapunov matrix overflows the floats
            ({}, {"A2": [[-1e-309, 1.0], [-1.0, 0.0]]}, ["lyapunov", "--constants"]),
        ],
    )
    def test_rejected_with_exit_2(self, tmp_path, capsys, monkeypatch, env, cfg, argv):
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        pre = ["--out", str(tmp_path)]
        if cfg is not None:
            pre += ["--config", write_config(tmp_path, cfg)]
        t0 = time.perf_counter()
        assert main(pre + argv) == 2
        assert time.perf_counter() - t0 < 5.0

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "piecewise_constant", "values": [[0.0], [1.0]], "breaks": [NAN]},
            {"kind": "piecewise_constant", "values": [[0.0], [-INF]], "breaks": [1.0]},
            {"kind": "piecewise_linear", "knots": [0.0, 1.0], "values": [[0.0], [INF]]},
            {"kind": "piecewise_linear", "knots": [0.0, INF], "values": [[0.0], [1.0]]},
            {"kind": "constant", "value": [NAN]},
            {"kind": "exponential_tail", "value": [1.0], "rate": INF},
            {"kind": "exponential_tail", "value": [1.0], "rate": 1.0, "start": NAN},
            {"kind": "concatenation", "first": ONE, "second": ONE, "t_switch": NAN},
            {"kind": "time_shift", "inner": ONE, "shift": -INF},
            {"kind": "zero_outside_interval", "inner": ONE, "lo": 0.0, "hi": INF},
            {"kind": "zero_outside_interval", "inner": ONE, "lo": -INF, "hi": 1.0},
        ],
    )
    def test_non_finite_signal_rejected(self, tmp_path, capsys, spec):
        with pytest.raises(ValueError, match="must be finite"):
            from_json(spec)
        cfg = write_config(tmp_path, {"input": spec})
        args = ["simulate", "--system", "planar", "--history", "const:0.5,0", "--T", "1"]
        assert main(["--config", cfg, "--out", str(tmp_path), *args]) == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, argv", [
        ("--out", ["--out", "{tmp}/kept", "escape"]),  # an existing file
        ("--svg", ["--out", "{tmp}/out", "--svg", "{tmp}/missing/x.svg", "escape"]),
        ("--svg", ["--out", "{tmp}/out", "--svg", "{tmp}", "escape"]),  # a directory
        ("--svg", ["--out", "{tmp}/out", "--svg", "{tmp}/out", "escape"]),  # one that mkdir makes
    ], ids=["out_is_a_file", "svg_parent_missing", "svg_is_a_directory", "svg_is_the_out_dir"])
    def test_bad_output_path_rejected_before_any_run(self, tmp_path, capsys, flag, argv):
        (tmp_path / "kept").write_text("kept")
        assert main([a.format(tmp=tmp_path) for a in argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"config error: {flag} ")
        assert [p.name for p in tmp_path.rglob("*")] == ["kept"]
        assert (tmp_path / "kept").read_text() == "kept"

    def test_rfc_sweep_tau_below_escape_bound(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"tau": 0.5})
        assert main(["--config", cfg, "--out", str(tmp_path), "rfc-sweep"]) == 2
        assert "1.5x the escape time" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["es-check", "uga-table", "rfc-sweep", "escape"])
    @pytest.mark.parametrize("key", ["A1", "A2"])
    def test_gains_rejected_where_unused(self, tmp_path, capsys, name, key):
        cfg = write_config(tmp_path, {key: [[-1.0, 0.0], [0.0, -1.0]]})
        assert main(["--config", cfg, "--out", str(tmp_path), name]) == 2
        assert key in capsys.readouterr().err


class TestConfigKeysUsed:
    @pytest.mark.parametrize(
        "cfg", [{"A2": [[-1.0, 0.0], [0.0, -1.0]]}, {"tau": 0.5}, {"integrator": {"rel_tol": 1e-3}}]
    )
    def test_estimate_r_reads_config(self, tmp_path, capsys, cfg):
        args = ["estimate-r", "--system", "cascade", "--r", "0.5", "--T", "1", "--budget", "3"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["--out", str(a), *args]) == 0
        assert main(["--config", write_config(tmp_path, cfg), "--out", str(b), *args]) == 0
        assert (a / "estimate_r.csv").read_bytes() != (b / "estimate_r.csv").read_bytes()

    def test_lyapunov_constants_read_gains(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"A2": [[-1.0, 0.0], [0.0, -1.0]]})
        assert main(["--out", str(tmp_path), "lyapunov", "--constants"]) == 0
        default = json.loads(capsys.readouterr().out)
        assert main(["--config", cfg, "--out", str(tmp_path), "lyapunov", "--constants"]) == 0
        data = json.loads(capsys.readouterr().out)
        # A(0) = -I has P0 = I/2, so c1 = c2 = 1/2: k = sqrt(2), p = min(1, 1/2)
        assert (data["k"], data["p"]) == (pytest.approx(2.0 ** 0.5), 0.5)
        assert data["capital_lambda"] != default["capital_lambda"]

    @pytest.mark.parametrize("flags", [["--constants"], ["--lambda", "0.5"]])
    def test_lyapunov_non_hurwitz_gains_are_config_errors(self, tmp_path, capsys, flags):
        # A(0) = A2 = I is not Hurwitz, so no certificate exists for these gains
        cfg = write_config(tmp_path, {"A2": [[1.0, 0.0], [0.0, 1.0]]})
        assert main(["--config", cfg, "--out", str(tmp_path), "lyapunov", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: A1/A2: NotHurwitz")

    def test_tau_flag_beats_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"tau": 0.5})
        args = ["simulate", "--history", "const:0.5,0,0", "--T", "1"]
        assert main(["--config", cfg, "--out", str(tmp_path), *args]) == 0
        assert json.loads((tmp_path / "simulate_summary.json").read_text())["tau"] == 0.5
        assert main(["--config", cfg, "--out", str(tmp_path), *args, "--tau", "0.75"]) == 0
        assert json.loads((tmp_path / "simulate_summary.json").read_text())["tau"] == 0.75


class TestNoEscapeRun:
    @pytest.fixture(autouse=True)
    def no_closed_loop(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the closed-loop escape ran")

        monkeypatch.setattr(systems, "run_switched", refuse)

    def test_nondelayed_runs_skip_the_escape_schedule(self, tmp_path, capsys):
        args = ["simulate", "--system", "planar", "--history", "const:0.5,0", "--T", "1"]
        assert main(["--out", str(tmp_path), *args]) == 0
        estimate_R("planar", 0.5, 1.0, 4)

    def test_delayed_defaults_read_the_stored_schedule(self, tmp_path, capsys):
        assert DEFAULT_DELAY == 1.5 * escape_schedule()[1]
        make_system("cascade")
        # r >= 1: the input-driven pool includes the escape schedule
        estimate_R("associated", 1.0, 0.5, 1)
        estimate_R("cascade", 1.0, 0.5, 1)
        assert main(["--out", str(tmp_path), "simulate"]) == 0


#: subcommand -> (small-size flags, artifact stem, CSV header, summary keys, run twice)
SMALL_RUNS = {
    "es-check": (
        ["--n", "3", "--T", "5"],
        "es_check",
        "k_emp,p_emp,violations",
        {"subcommand", "n_ics", "T", "fit_tol", "seed", "k", "p", "k_emp", "p_emp", "violations", "verdict"},
        True,
    ),
    "uga-table": (
        ["--r", "1", "--eps", "1", "--samples", "2"],
        "uga_table",
        "r,eps,t_theory,t_emp_max,ok",
        {"subcommand", "samples_per_cell", "seed", "cells", "verdict"},
        True,
    ),
    "equiv-check": (
        ["--pairs", "3"],
        "equiv_check",
        "pair,max_deviation,completion_deviation",
        {"subcommand", "pairs", "tau", "seed", "worst_deviation", "worst_completion_deviation",
         "tolerance", "verdict"},
        True,
    ),
    "rfc-sweep": (
        [],
        "rfc_sweep",
        "delta,peak,settle_time,history_norm",
        {"subcommand", "deltas", "peaks", "settle_times", "settle_bound", "growth_factor",
         "strictly_increasing", "settled_in_time", "verdict"},
        False,
    ),
}


class TestUgaTableSummary:
    def test_large_r_settle_times_flagged_unreliable(self, tmp_path, capsys):
        args = ["uga-table", "--r", "1", "10", "--eps", "1", "--samples", "1"]
        assert main(["--out", str(tmp_path), *args]) == 0
        cells = json.loads((tmp_path / "uga_table_summary.json").read_text())["cells"]
        assert [(c["r"], c["t_emp_reliable"]) for c in cells] == [(1.0, True), (10.0, False)]


class TestProbeCommands:
    @pytest.mark.parametrize("name", sorted(SMALL_RUNS))
    def test_small_run(self, tmp_path, capsys, name):
        flags, stem, header, keys, twice = SMALL_RUNS[name]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["--out", str(a), "--seed", "3", name, *flags]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines and all(line.startswith("PASS ") for line in lines)
        assert (a / f"{stem}.csv").read_text().splitlines()[0] == header
        assert set(json.loads((a / f"{stem}_summary.json").read_text())) == keys
        if twice:
            assert main(["--out", str(b), "--seed", "3", name, *flags]) == 0
            assert (a / f"{stem}.csv").read_bytes() == (b / f"{stem}.csv").read_bytes()


class TestSameBytesOnEveryKernel:
    """The certificate and what it feeds make no call whose rounding depends on
    the BLAS kernel: OpenBLAS's Sandybridge kernel, which has no FMA, gives the
    same bytes as the kernel OpenBLAS picks by default."""

    @pytest.mark.parametrize("argv", [["lyapunov", "--constants"],
                                      ["es-check", "--n", "20", "--T", "5"]], ids=["lyapunov", "es-check"])
    def test_sandybridge_kernel_gives_same_bytes(self, tmp_path, argv):
        src = str(Path(__file__).resolve().parent.parent / "src")
        outputs = []
        for name, kernel in (("default", {}), ("sandybridge", {"OPENBLAS_CORETYPE": "Sandybridge"})):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
            env.update(kernel, PYTHONPATH=os.pathsep.join([src, env.get("PYTHONPATH", "")]))
            out = tmp_path / name
            proc = subprocess.run([sys.executable, "-m", "delayreach.cli", "--out", str(out), *argv],
                                  env=env, capture_output=True, check=True, timeout=120)
            outputs.append((proc.stdout, {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
        assert outputs[0] == outputs[1]
