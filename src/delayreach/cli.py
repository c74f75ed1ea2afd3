"""Command-line entry point: reproduces every demonstration from one manifest.

Subcommands: lyapunov, simulate, escape, estimate-r, rfc-sweep, es-check,
uga-table, equiv-check, one entry each in COMMANDS. Global flags: --config
(JSON overrides), --seed, --out (artifact directory), --svg (optional line
plot, of the subcommands that have one). Environment variables with the
DELAYREACH_ prefix (DELAYREACH_SEED, DELAYREACH_OUT, DELAYREACH_CONFIG)
supply defaults that explicit flags override.

Escape is a reported outcome, not a failure: runs that blow up exit 0 with
outcome "escaped". Invalid flags and config keys exit 2 before any run;
exit 1 is reserved for numerical-infrastructure errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__, escape_data
from .integrator import HistoryFn, IntegratorOptions, SimOutcome, integrate
from .lyap import (Mat2, NoFeasibleLambda, NotHurwitz, SingularSystem, blend, default_certificate,
                   lyapunov_residual, solve_lyapunov, stability_constants)
from .probes import (PROBE_OPTS, TauTooShort, embedding_check, es_check, estimate_R, rfc_sweep,
                     uga_table)
from .signals import Signal, from_json
from .systems import (
    DEFAULT_DELAY,
    DEFAULT_PLANAR,
    SYSTEM_NAMES,
    PlanarParams,
    make_system,
    recorded_escape,
    saturation_stop_times,
)


class ConfigInvalid(ValueError):
    """Manifest/config file fails validation; message names the bad path."""


# ---------------------------------------------------------------------------
# artifact writers


def write_csv(path: Path, header: list[str], rows) -> None:
    """CSV at 17 significant digits so downstream readers do not lose bits."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("%.17g" % float(v) for v in row) + "\n")


def write_json(path: Path, obj: dict) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


_SVG_SIZE = (640, 400)  # width, height


def svg_line_plot(path: Path, xs, series: dict, title: str, log_y: bool = False) -> None:
    """Minimal single-axes SVG line plot; series maps label -> y array."""
    xs = np.asarray(xs, dtype=float)
    width, height = _SVG_SIZE
    margin = 50
    all_y = np.concatenate([np.asarray(ys, dtype=float) for ys in series.values()])
    if log_y:
        all_y = np.log10(np.maximum(all_y, 1e-300))
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    if y_hi - y_lo < 1e-12:
        y_hi = y_lo + 1.0
    x_lo, x_hi = float(xs.min()), float(xs.max())
    if x_hi - x_lo < 1e-12:
        x_hi = x_lo + 1.0

    def px(x):
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def py(y):
        if log_y:
            y = math.log10(max(y, 1e-300))
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
    ]
    for i, (label, ys) in enumerate(series.items()):
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        color = colors[i % len(colors)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{width - margin + 4}" y="{margin + 16 * i + 10}" '
            f'font-size="11" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# input checks: argparse exits 2 on a failed flag type, main on ConfigInvalid
# and on TauTooShort (a config tau below the bound the stored escape sets)


def _checked(conv, ok, what: str):
    """argparse type that converts with conv and accepts only ok(value)."""

    def parse(text):
        try:
            value = conv(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value

    return parse


positive = _checked(float, lambda v: 0.0 < v < math.inf, "a finite positive number")
nonnegative = _checked(float, lambda v: 0.0 <= v < math.inf, "a finite number >= 0")
fraction = _checked(float, lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]")
count = _checked(int, lambda v: v > 0, "a positive integer")
seed_int = _checked(int, lambda v: v >= 0, "an integer >= 0")


def history_spec(text: str) -> Optional[np.ndarray]:
    """'zero' gives None; 'const:v1,v2,...' gives the (finite) values."""
    if text == "zero":
        return None
    try:
        vals = np.array([float(v) for v in text.removeprefix("const:").split(",")])
    except ValueError:
        vals = None
    if not text.startswith("const:") or vals is None or not np.isfinite(vals).all():
        raise argparse.ArgumentTypeError(f"{text!r} is not 'zero' or 'const:v1,v2,...'")
    return vals


def load_config(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigInvalid(f"{path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigInvalid(f"{path}: top level must be a JSON object")
    return cfg


def params_from_config(cfg: dict) -> PlanarParams:
    try:
        a1 = Mat2.from_array(np.asarray(cfg["A1"], dtype=float)) if "A1" in cfg else DEFAULT_PLANAR.a1
        a2 = Mat2.from_array(np.asarray(cfg["A2"], dtype=float)) if "A2" in cfg else DEFAULT_PLANAR.a2
    except (ValueError, IndexError, TypeError) as exc:
        raise ConfigInvalid(f"A1/A2: {exc}") from None
    return PlanarParams(a1=a1, a2=a2)


def opts_from_config(cfg: dict, base: IntegratorOptions) -> IntegratorOptions:
    over = cfg.get("integrator", {})
    if not isinstance(over, dict):
        raise ConfigInvalid("integrator: must be an object")
    for k in over:
        if k not in base.__dataclass_fields__:
            raise ConfigInvalid(f"integrator.{k}: unknown option")
    try:
        return replace(base, **over)
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid(f"integrator: {exc}") from None


def tau_from_config(cfg: dict) -> float:
    if "tau" not in cfg:
        return DEFAULT_DELAY
    tau = cfg["tau"]
    if isinstance(tau, bool) or not isinstance(tau, (int, float)) or not 0.0 < tau < math.inf:
        raise ConfigInvalid(f"tau: must be a finite positive number, got {tau!r}")
    return float(tau)


def signal_from_config(obj) -> Signal:
    try:
        return from_json(obj)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigInvalid(f"signal: {exc}") from None


class Setup(NamedTuple):
    """The config, read once."""

    params: PlanarParams
    opts: IntegratorOptions
    tau: float
    input: Optional[Signal]


class Output(NamedTuple):
    """What a subcommand produces; `main` writes, prints and plots it."""

    csvs: list  # (file name, header, rows)
    summary: dict
    text: str
    plot: Optional[dict] = None  # keyword arguments of svg_line_plot


def _outcome_dict(out: SimOutcome) -> dict:
    return {"outcome": "escaped" if out.escaped else "completed", "t_escape": out.t_escape,
            "final_norm": out.final_norm, "flag": out.flag}


def _sample_trajectory(out: SimOutcome, grid: int):
    traj = out.trajectory
    ts = np.linspace(traj.t_start, traj.t_end, grid)
    return [(t, *traj.eval(t)) for t in ts]


def _verdict(ok: bool) -> str:
    return "PASS " if ok else "FAIL "


# ---------------------------------------------------------------------------
# subcommands


def run_lyapunov(args, s: Setup) -> Output:
    result: dict = {}
    try:
        if args.lam is not None:
            a = blend(s.params.a1, s.params.a2, args.lam)
            p = solve_lyapunov(a)
            result.update({"lambda": args.lam, "P": [[p.p11, p.p12], [p.p12, p.p22]], "c1": p.c1,
                           "c2": p.c2, "residual": lyapunov_residual(a, p)})
        if args.constants or args.lam is None:
            a1, a2 = s.params.a1, s.params.a2
            cert = stability_constants(solve_lyapunov(blend(a1, a2, 0.0)), a1, a2)
            result.update(capital_lambda=cert.capital_lambda, k=cert.k, p=cert.p)
    except (NotHurwitz, SingularSystem, NoFeasibleLambda) as exc:
        # here the gains come from the config, so no certificate is bad input
        raise ConfigInvalid(f"A1/A2: {type(exc).__name__}: {exc}") from None
    return Output([], result, json.dumps(result, indent=2, sort_keys=True))


def run_simulate(args, s: Setup) -> Output:
    sys_ = make_system(args.system, s.tau, s.params)
    vals = np.zeros(sys_.dim) if args.history is None else args.history
    if vals.size != sys_.dim:
        raise ConfigInvalid(f"history const: expected {sys_.dim} components")
    ic = HistoryFn.constant(vals, sys_.tau) if sys_.delays else vals
    u = signal_from_config(load_config(args.input)) if args.input is not None else s.input
    stops = saturation_stop_times(ic, sys_.tau, args.T) if sys_.delays else ()
    out = integrate(sys_, ic, u, args.T, s.opts, extra_stops=stops)
    rows = _sample_trajectory(out, args.grid)
    header = ["t"] + [f"x{i + 1}" for i in range(sys_.dim)]
    summary = {"subcommand": "simulate", "system": args.system,
               "tau": sys_.tau if sys_.delays else None, "T": args.T,
               "options": {"rel_tol": s.opts.rel_tol, "abs_tol": s.opts.abs_tol}, **_outcome_dict(out)}
    series = {h: [r[i + 1] for r in rows] for i, h in enumerate(header[1:])}
    return Output([("trajectory.csv", header, rows)], summary,
                  f"{summary['outcome']}: wrote {Path(args.out) / 'trajectory.csv'}",
                  dict(xs=[r[0] for r in rows], series=series, title=f"{args.system} trajectory"))


def run_escape(args, s: Setup) -> Output:
    run = recorded_escape(args.dwell)
    out, sig = run.outcome, run.signal
    rows = _sample_trajectory(out, args.grid)
    switches = [(0.0, sig.values[0, 0])] + [(b, v[0]) for b, v in zip(sig.breaks, sig.values[1:])]
    summary = {"subcommand": "escape", "dwell": args.dwell, "pieces": int(len(sig.values)),
               **_outcome_dict(out)}
    mags = [max(abs(r[1]), abs(r[2])) for r in rows]
    text = _verdict(out.escaped) + f"finite-escape: outcome={summary['outcome']} t_escape={out.t_escape}"
    return Output([("escape_trajectory.csv", ["t", "x1", "x2"], rows),
                   ("escape_signal.csv", ["t_switch", "value"], switches)], summary, text,
                  dict(xs=[r[0] for r in rows], series={"|x|": mags}, title="greedy switching escape",
                       log_y=True))


def run_estimate_r(args, s: Setup) -> Output:
    est = estimate_R(args.system, args.r, args.T, args.budget, seed=args.seed, tau=s.tau,
                     params=s.params, opts=s.opts)
    result = {"subcommand": "estimate-r", "system": args.system, **asdict(est), "seed": args.seed}
    row = (est.r, est.T, est.lower_bound, 1.0 if est.escape_seen else 0.0)
    return Output([("estimate_r.csv", ["r", "T", "lower_bound", "escape_seen"], [row])], result,
                  json.dumps(result, indent=2, sort_keys=True))


def run_rfc_sweep(args, s: Setup) -> Output:
    res = rfc_sweep(tau=s.tau, opts=s.opts)
    ok = res.strictly_increasing and res.growth_factor >= 10.0 and res.settled_in_time
    summary = {"subcommand": "rfc-sweep", "deltas": list(res.deltas), "peaks": list(res.peaks),
               "settle_times": list(res.settle_times), "settle_bound": res.settle_bound,
               "growth_factor": res.growth_factor, "strictly_increasing": res.strictly_increasing,
               "settled_in_time": res.settled_in_time,
               "verdict": "RFC falsified: growth >= 10x" if ok else "inconclusive"}
    rows = list(zip(res.deltas, res.peaks, res.settle_times, res.history_norms))
    return Output([("rfc_sweep.csv", ["delta", "peak", "settle_time", "history_norm"], rows)], summary,
                  _verdict(ok) + summary["verdict"] + f" (growth {res.growth_factor:.2f}x)",
                  dict(xs=res.deltas, series={"peak": res.peaks}, title="peak vs smoothing width",
                       log_y=True))


def run_es_check(args, s: Setup) -> Output:
    fit = es_check(n_ics=args.n, T=args.T, tau=s.tau, fit_tol=args.tol, seed=args.seed, opts=s.opts)
    cert = default_certificate()
    k, p = cert.k, cert.p
    ok = fit.violations == 0
    summary = {"subcommand": "es-check", "n_ics": args.n, "T": args.T, "fit_tol": args.tol,
               "seed": args.seed, "k": k, "p": p, **asdict(fit),
               "verdict": "envelope holds" if ok else "envelope violated"}
    ts = np.linspace(0.0, args.T, 200)
    series = {"certified envelope": [k * math.exp(-p * t) for t in ts],
              "empirical fit": [fit.k_emp * math.exp(-fit.p_emp * t) for t in ts]}
    return Output([("es_check.csv", ["k_emp", "p_emp", "violations"],
                    [(fit.k_emp, fit.p_emp, float(fit.violations))])], summary,
                  _verdict(ok) + f"exponential envelope: {fit.violations} violations",
                  dict(xs=ts, series=series, title="decay envelope (unit history norm)", log_y=True))


def run_uga_table(args, s: Setup) -> Output:
    cells = uga_table(args.r, args.eps, n_samples=args.samples, tau=s.tau, seed=args.seed, opts=s.opts)
    ok = all(c.ok for c in cells)
    # at PROBE_OPTS the settle times of r >= 10 have no reliable digit (README)
    summary = {"subcommand": "uga-table", "samples_per_cell": args.samples, "seed": args.seed,
               "cells": [{"r": c.r, "eps": c.eps, "t_theory": c.t_theory, "t_emp_max": c.t_emp_max,
                          "t_emp_reliable": c.r < 10.0, "ok": c.ok} for c in cells],
               "verdict": "all cells within theoretical reach time" if ok else "reach-time exceeded"}
    rows = [(c.r, c.eps, c.t_theory, c.t_emp_max, 1.0 if c.ok else 0.0) for c in cells]
    lines = [_verdict(c.ok) + f"r={c.r:g} eps={c.eps:g}: t_emp={c.t_emp_max:.2f} <= T={c.t_theory:.1f}"
             for c in cells]
    return Output([("uga_table.csv", ["r", "eps", "t_theory", "t_emp_max", "ok"], rows)], summary,
                  "\n".join(lines))


def run_equiv_check(args, s: Setup) -> Output:
    chk = embedding_check(s.tau, args.pairs, args.seed, s.opts, s.params)
    worst, worst_c = max(chk.embed), max(chk.complete)
    summary = {"subcommand": "equiv-check", "pairs": args.pairs, "tau": s.tau, "seed": args.seed,
               "worst_deviation": worst, "worst_completion_deviation": worst_c, "tolerance": chk.tolerance,
               "verdict": "embeddings agree" if chk.ok else "embedding mismatch"}
    rows = [(float(i), e, c) for i, (e, c) in enumerate(zip(chk.embed, chk.complete))]
    return Output([("equiv_check.csv", ["pair", "max_deviation", "completion_deviation"], rows)], summary,
                  _verdict(chk.ok) + f"embedding equivalence: worst deviation {worst:.3g}, completion "
                  f"direction {worst_c:.3g}, tolerance {chk.tolerance:.1e}")


# ---------------------------------------------------------------------------
# the command table


class Command(NamedTuple):
    name: str
    help: str
    run: Callable[[argparse.Namespace, Setup], Output]
    flags: tuple = ()  # (flag, add_argument keyword arguments)
    keys: tuple = ()  # config keys the command reads; any other key exits 2
    opts: IntegratorOptions = PROBE_OPTS  # what the config's integrator overrides


GAINS, TIMING = ("A1", "A2"), ("tau", "integrator")

COMMANDS = (
    Command("lyapunov", "Lyapunov matrix and stability constants", run_lyapunov, (
        ("--lambda", dict(dest="lam", type=fraction, help="blend fraction in [0,1]")),
        ("--constants", dict(action="store_true", help="print the blend bound and envelope constants")),
    ), GAINS),
    Command("simulate", "integrate one system and dump the trajectory", run_simulate, (
        ("--system", dict(choices=SYSTEM_NAMES, default="cascade", help="vector field (default cascade)")),
        ("--T", dict(type=positive, default=5.0, help="final time (default 5)")),
        ("--history", dict(type=history_spec, default="zero",
                           help="initial data: 'zero' or 'const:v1,v2,...' (default zero)")),
        ("--input", dict(help="JSON file with the input signal description")),
        ("--tau", dict(type=positive, help="cascade delay; beats the config (default 1.5x escape time)")),
        ("--grid", dict(type=count, default=200, help="number of output samples (default 200)")),
    ), GAINS + TIMING + ("input",), IntegratorOptions()),
    Command("escape", "greedy destabilizing switching run", run_escape, (
        ("--dwell", dict(type=positive, default=escape_data.DWELL,
                         help="nominal sampling dwell (default %(default)g)")),
        ("--grid", dict(type=count, default=500, help="number of output samples (default 500)")),
    )),
    Command("estimate-r", "sampled lower bound on the reachability supremum", run_estimate_r, (
        ("--system", dict(choices=SYSTEM_NAMES, default="planar")),
        ("--r", dict(type=nonnegative, default=1.0, help="initial-data norm bound (default 1)")),
        ("--T", dict(type=nonnegative, default=2.0, help="time horizon (default 2)")),
        ("--budget", dict(type=count, default=50, help="random draw count (default 50)")),
    ), GAINS + TIMING),
    Command("rfc-sweep", "diverging peaks from smoothed escape schedules", run_rfc_sweep, (), TIMING),
    Command("es-check", "exponential envelope on small random histories", run_es_check, (
        ("--n", dict(type=count, default=200, help="history count (default 200)")),
        ("--T", dict(type=positive, default=30.0, help="horizon (default 30)")),
        ("--tol", dict(type=nonnegative, default=0.05, help="envelope slack fraction (default 0.05)")),
    ), TIMING),
    Command("uga-table", "empirical vs theoretical reach times", run_uga_table, (
        ("--r", dict(type=positive, nargs="+", default=[1.0, 10.0, 100.0], help="history norm bounds")),
        ("--eps", dict(type=positive, nargs="+", default=[0.1, 1.0], help="target ball radii")),
        ("--samples", dict(type=count, default=50, help="histories per cell (default 50)")),
    ), TIMING),
    Command("equiv-check", "delay vs input-embedding agreement, both directions", run_equiv_check, (
        ("--pairs", dict(type=count, default=50, help="random history count (default 50)")),
    ), GAINS + TIMING, IntegratorOptions()),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delayreach",
        description="Delay-system reachability experiments: integrate, certify, falsify.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--config", default=os.environ.get("DELAYREACH_CONFIG"),
                        help="JSON config with overrides: A1, A2, tau, integrator options, input signal")
    # a string default goes through `type` too, so a bad DELAYREACH_SEED exits 2
    parser.add_argument("--seed", type=seed_int, default=os.environ.get("DELAYREACH_SEED", "0"),
                        help="master seed for all random draws (default 0)")
    parser.add_argument("--out", default=os.environ.get("DELAYREACH_OUT", "."),
                        help="directory for CSV/JSON artifacts (default: current directory)")
    parser.add_argument("--svg", default=None, help="write a line plot to this SVG path (simulate, escape, "
                        "rfc-sweep, es-check; the other subcommands write none)")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS:
        p = sub.add_parser(cmd.name, help=cmd.help)
        for flag, kwargs in cmd.flags:
            p.add_argument(flag, **kwargs)
        p.set_defaults(cmd=cmd)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help and --version exit 0, a rejected flag exits 2
        return exc.code
    cmd = args.cmd
    try:
        cfg = load_config(args.config)
        for key in cfg:
            if key not in cmd.keys:
                reads = ", ".join(cmd.keys) or "no keys"
                raise ConfigInvalid(f"{key}: not read by {cmd.name} (it reads: {reads})")
        cfg_tau = tau_from_config(cfg)
        setup = Setup(params_from_config(cfg), opts_from_config(cfg, cmd.opts),
                      getattr(args, "tau", None) or cfg_tau,  # an explicit --tau beats the config
                      signal_from_config(cfg["input"]) if "input" in cfg else None)
        if setup.tau < setup.opts.h_min:  # the delay caps every step: none could be taken
            raise ConfigInvalid(f"tau: {setup.tau!r} is below the integrator's h_min {setup.opts.h_min!r}")
        out_dir = Path(args.out)
        if args.svg:
            # mkdir below makes the --out directory and its missing parents
            svg, made = Path(args.svg).resolve(), out_dir.resolve()
            dirs = (made, *made.parents)
            if svg.is_dir() or svg in dirs or not (svg.parent.is_dir() or svg.parent in dirs):
                raise ConfigInvalid(f"--svg {args.svg}: not a file in a directory")
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigInvalid(f"--out {args.out}: not a directory ({exc.strerror})") from None
        result = cmd.run(args, setup)
        for name, header, rows in result.csvs:
            write_csv(out_dir / name, header, rows)
        write_json(out_dir / f"{cmd.name.replace('-', '_')}_summary.json", result.summary)
        print(result.text)
        if args.svg and result.plot:
            svg_line_plot(Path(args.svg), **result.plot)
        return 0
    except (ConfigInvalid, TauTooShort) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numerical-infrastructure failures
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
