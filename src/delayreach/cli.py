"""Command-line entry point: reproduces every demonstration from one manifest.

Subcommands: lyapunov, simulate, escape, estimate-r, rfc-sweep, es-check,
uga-table, equiv-check. Global flags: --config (JSON overrides), --seed,
--out (artifact directory), --svg (optional line plot). Environment
variables with the DELAYREACH_ prefix (DELAYREACH_SEED, DELAYREACH_OUT,
DELAYREACH_CONFIG) supply defaults that explicit flags override.

Escape is a reported outcome, not a failure: runs that blow up exit 0 with
outcome "escaped". Nonzero exits are reserved for configuration and
numerical-infrastructure errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .integrator import HistoryFn, IntegratorOptions, SimOutcome, integrate, residual_audit
from .lyap import (
    Mat2,
    blend,
    default_certificate,
    lyapunov_residual,
    solve_lyapunov,
)
from .probes import (
    PROBE_OPTS,
    es_check,
    estimate_R,
    rfc_sweep,
    uga_table,
)
from .signals import Signal, from_json
from .systems import (
    DEFAULT_PLANAR,
    PlanarParams,
    associated_system,
    cascade_system,
    default_cascade_delay,
    embed_history_as_inputs,
    planar_system,
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


def svg_line_plot(
    path: Path,
    xs,
    series: dict,
    title: str = "",
    log_y: bool = False,
    width: int = 640,
    height: int = 400,
) -> None:
    """Minimal single-axes SVG line plot; series maps label -> y array."""
    xs = np.asarray(xs, dtype=float)
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
# config plumbing


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
    fields = {f: getattr(base, f) for f in base.__dataclass_fields__}
    for k, v in over.items():
        if k not in fields:
            raise ConfigInvalid(f"integrator.{k}: unknown option")
        fields[k] = v
    try:
        return IntegratorOptions(**fields)
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid(f"integrator: {exc}") from None


def signal_from_config(obj) -> Signal:
    try:
        return from_json(obj)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigInvalid(f"signal: {exc}") from None


def _history_from_spec(spec: str, tau: float, dim: int) -> HistoryFn:
    if spec == "zero":
        return HistoryFn.constant(np.zeros(dim), tau)
    if spec.startswith("const:"):
        vals = np.array([float(v) for v in spec[len("const:") :].split(",")])
        if vals.size != dim:
            raise ConfigInvalid(f"history const: expected {dim} components")
        return HistoryFn.constant(vals, tau)
    raise ConfigInvalid(f"history: unknown spec {spec!r} (use zero or const:v1,...)")


def _select_system(name: str, tau: float, params: PlanarParams):
    if name == "planar":
        return planar_system(params)
    if name == "cascade":
        return cascade_system(tau, params)
    if name == "associated":
        return associated_system(params)
    raise ConfigInvalid(f"system: unknown kind {name!r}")


def _outcome_dict(out: SimOutcome) -> dict:
    return {
        "outcome": "escaped" if out.escaped else "completed",
        "t_escape": out.t_escape,
        "final_norm": out.final_norm,
        "flag": out.flag,
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_lyapunov(args, cfg, out_dir: Path) -> int:
    params = params_from_config(cfg)
    result: dict = {}
    if args.lam is not None:
        a = blend(params.a1, params.a2, args.lam)
        p = solve_lyapunov(a)
        result["lambda"] = args.lam
        result["P"] = [[p.p11, p.p12], [p.p12, p.p22]]
        result["c1"] = p.c1
        result["c2"] = p.c2
        result["residual"] = lyapunov_residual(a, p)
    if args.constants or args.lam is None:
        cert = default_certificate()
        result["capital_lambda"] = cert.capital_lambda
        result["k"] = cert.constants.k
        result["p"] = cert.constants.p
    print(json.dumps(result, indent=2, sort_keys=True))
    write_json(out_dir / "lyapunov_summary.json", result)
    return 0


def _sample_trajectory(out: SimOutcome, grid: int):
    traj = out.trajectory
    ts = np.linspace(traj.t_start, traj.t_end, grid)
    return [(t, *traj.eval(t)) for t in ts]


def cmd_simulate(args, cfg, out_dir: Path) -> int:
    params = params_from_config(cfg)
    opts = opts_from_config(cfg, IntegratorOptions())
    tau = float(cfg.get("tau", args.tau if args.tau is not None else default_cascade_delay()))
    sys_ = _select_system(args.system, tau, params)
    if sys_.delays:
        ic = _history_from_spec(args.history, tau, sys_.dim)
    else:
        ic = _history_from_spec(args.history, 1.0, sys_.dim).eval(0.0)
    u = None
    if args.input is not None:
        u = signal_from_config(load_config(args.input))
    elif "input" in cfg:
        u = signal_from_config(cfg["input"])
    if u is None and sys_.input_dim > 0:
        from .signals import Constant

        u = Constant(np.zeros(sys_.input_dim))
    out = integrate(sys_, ic, u, args.T, opts)
    header = ["t"] + [f"x{i + 1}" for i in range(sys_.dim)]
    write_csv(out_dir / "trajectory.csv", header, _sample_trajectory(out, args.grid))
    manifest = {
        "subcommand": "simulate",
        "system": args.system,
        "tau": tau if sys_.delays else None,
        "T": args.T,
        "options": {"rel_tol": opts.rel_tol, "abs_tol": opts.abs_tol},
        **_outcome_dict(out),
    }
    write_json(out_dir / "simulate_summary.json", manifest)
    print(f"{manifest['outcome']}: wrote {out_dir / 'trajectory.csv'}")
    if args.svg:
        rows = _sample_trajectory(out, args.grid)
        ts = [r[0] for r in rows]
        series = {f"x{i + 1}": [r[i + 1] for r in rows] for i in range(sys_.dim)}
        svg_line_plot(Path(args.svg), ts, series, title=f"{args.system} trajectory")
    return 0


def cmd_escape(args, cfg, out_dir: Path) -> int:
    run = recorded_escape(args.dwell)
    out = run.outcome
    header = ["t"] + [f"x{i + 1}" for i in range(2)]
    write_csv(out_dir / "escape_trajectory.csv", header, _sample_trajectory(out, args.grid))
    sig = run.signal
    write_csv(
        out_dir / "escape_signal.csv",
        ["t_switch", "value"],
        [(0.0, sig.values[0, 0])]
        + [(b, v[0]) for b, v in zip(sig.breaks, sig.values[1:])],
    )
    manifest = {
        "subcommand": "escape",
        "dwell": args.dwell,
        "pieces": int(len(sig.values)),
        **_outcome_dict(out),
    }
    write_json(out_dir / "escape_summary.json", manifest)
    verdict = "PASS" if out.escaped else "FAIL"
    print(f"{verdict} finite-escape: outcome={manifest['outcome']} t_escape={out.t_escape}")
    if args.svg:
        rows = _sample_trajectory(out, args.grid)
        ts = [r[0] for r in rows]
        mags = [max(abs(r[1]), abs(r[2])) for r in rows]
        svg_line_plot(Path(args.svg), ts, {"|x|": mags}, title="greedy switching escape", log_y=True)
    return 0


def cmd_estimate_r(args, cfg, out_dir: Path) -> int:
    est = estimate_R(args.system, args.r, args.T, args.budget, seed=args.seed)
    result = {
        "subcommand": "estimate-r",
        "system": args.system,
        "r": est.r,
        "T": est.T,
        "lower_bound": est.lower_bound,
        "sample_budget": est.sample_budget,
        "escape_seen": est.escape_seen,
        "seed": args.seed,
    }
    write_json(out_dir / "estimate_r_summary.json", result)
    write_csv(
        out_dir / "estimate_r.csv",
        ["r", "T", "lower_bound", "escape_seen"],
        [(est.r, est.T, est.lower_bound, 1.0 if est.escape_seen else 0.0)],
    )
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def cmd_rfc_sweep(args, cfg, out_dir: Path) -> int:
    res = rfc_sweep()
    rows = list(zip(res.deltas, res.peaks, res.settle_times, res.history_norms))
    write_csv(out_dir / "rfc_sweep.csv", ["delta", "peak", "settle_time", "history_norm"], rows)
    ok = res.strictly_increasing and res.growth_factor >= 10.0 and res.settled_in_time
    summary = {
        "subcommand": "rfc-sweep",
        "deltas": list(res.deltas),
        "peaks": list(res.peaks),
        "settle_times": list(res.settle_times),
        "settle_bound": res.settle_bound,
        "growth_factor": res.growth_factor,
        "strictly_increasing": res.strictly_increasing,
        "settled_in_time": res.settled_in_time,
        "verdict": "RFC falsified: growth >= 10x" if ok else "inconclusive",
    }
    write_json(out_dir / "rfc_sweep_summary.json", summary)
    print(("PASS " if ok else "FAIL ") + summary["verdict"] + f" (growth {res.growth_factor:.2f}x)")
    if args.svg:
        svg_line_plot(
            Path(args.svg),
            res.deltas,
            {"peak": res.peaks},
            title="peak vs smoothing width",
            log_y=True,
        )
    return 0


def cmd_es_check(args, cfg, out_dir: Path) -> int:
    fit = es_check(n_ics=args.n, T=args.T, fit_tol=args.tol, seed=args.seed)
    cert = default_certificate()
    ok = fit.violations == 0
    summary = {
        "subcommand": "es-check",
        "n_ics": args.n,
        "T": args.T,
        "fit_tol": args.tol,
        "seed": args.seed,
        "k": cert.constants.k,
        "p": cert.constants.p,
        "k_emp": fit.k_emp,
        "p_emp": fit.p_emp,
        "violations": fit.violations,
        "verdict": "envelope holds" if ok else "envelope violated",
    }
    write_json(out_dir / "es_check_summary.json", summary)
    write_csv(
        out_dir / "es_check.csv",
        ["k_emp", "p_emp", "violations"],
        [(fit.k_emp, fit.p_emp, float(fit.violations))],
    )
    print(("PASS " if ok else "FAIL ") + f"exponential envelope: {fit.violations} violations")
    if args.svg:
        ts = np.linspace(0.0, args.T, 200)
        k, p = cert.constants.k, cert.constants.p
        env = [k * math.exp(-p * t) for t in ts]
        emp = [fit.k_emp * math.exp(-fit.p_emp * t) for t in ts]
        svg_line_plot(
            Path(args.svg),
            ts,
            {"certified envelope": env, "empirical fit": emp},
            title="decay envelope (unit history norm)",
            log_y=True,
        )
    return 0


def cmd_uga_table(args, cfg, out_dir: Path) -> int:
    cells = uga_table(args.r, args.eps, n_samples=args.samples, seed=args.seed)
    rows = [(c.r, c.eps, c.t_theory, c.t_emp_max, 1.0 if c.ok else 0.0) for c in cells]
    write_csv(out_dir / "uga_table.csv", ["r", "eps", "t_theory", "t_emp_max", "ok"], rows)
    ok = all(c.ok for c in cells)
    summary = {
        "subcommand": "uga-table",
        "samples_per_cell": args.samples,
        "seed": args.seed,
        "cells": [
            {"r": c.r, "eps": c.eps, "t_theory": c.t_theory, "t_emp_max": c.t_emp_max, "ok": c.ok}
            for c in cells
        ],
        "verdict": "all cells within theoretical reach time" if ok else "reach-time exceeded",
    }
    write_json(out_dir / "uga_table_summary.json", summary)
    for c in cells:
        mark = "PASS" if c.ok else "FAIL"
        print(f"{mark} r={c.r:g} eps={c.eps:g}: t_emp={c.t_emp_max:.2f} <= T={c.t_theory:.1f}")
    return 0


def cmd_equiv_check(args, cfg, out_dir: Path) -> int:
    from .probes import random_history

    params = params_from_config(cfg)
    tau = float(cfg.get("tau", default_cascade_delay()))
    opts = IntegratorOptions(rel_tol=1e-8, abs_tol=1e-9)
    sys_d = cascade_system(tau, params)
    sys_a = associated_system(params)
    rows = []
    worst = 0.0
    for i in range(args.pairs):
        rng = np.random.default_rng((args.seed, i))
        hist = random_history(rng, rng.uniform(0.1, 1.0), tau, sys_d.dim)
        xi0, inputs = embed_history_as_inputs(hist, sys_d.delays)
        stops = saturation_stop_times(hist, tau, tau)
        out_d = integrate(sys_d, hist, None, tau, opts, extra_stops=stops)
        out_a = integrate(sys_a, xi0, inputs[0], tau, opts, extra_stops=stops)
        ts = np.linspace(0.0, tau, 100)
        dev = max(
            float(np.abs(out_d.trajectory.eval(t) - out_a.trajectory.eval(t)).max()) for t in ts
        )
        rows.append((float(i), dev))
        worst = max(worst, dev)
    tol = 10.0 * max(opts.rel_tol, opts.abs_tol) * 100.0
    ok = worst <= tol
    write_csv(out_dir / "equiv_check.csv", ["pair", "max_deviation"], rows)
    summary = {
        "subcommand": "equiv-check",
        "pairs": args.pairs,
        "tau": tau,
        "seed": args.seed,
        "worst_deviation": worst,
        "tolerance": tol,
        "verdict": "embeddings agree" if ok else "embedding mismatch",
    }
    write_json(out_dir / "equiv_check_summary.json", summary)
    print(("PASS " if ok else "FAIL ") + f"embedding equivalence: worst deviation {worst:.3g}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delayreach",
        description="Delay-system reachability experiments: integrate, certify, falsify.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "--config",
        default=os.environ.get("DELAYREACH_CONFIG"),
        help="JSON config with overrides: A1, A2, tau, integrator options, input signal",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=int(os.environ.get("DELAYREACH_SEED", "0")),
        help="master seed for all random draws (default 0)",
    )
    parser.add_argument(
        "--out",
        default=os.environ.get("DELAYREACH_OUT", "."),
        help="directory for CSV/JSON artifacts (default: current directory)",
    )
    parser.add_argument("--svg", default=None, help="write a line plot to this SVG path")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lyapunov", help="Lyapunov matrix and stability constants")
    p.add_argument("--lambda", dest="lam", type=float, default=None, help="blend fraction in [0,1]")
    p.add_argument(
        "--constants", action="store_true", help="print the blend bound and envelope constants"
    )
    p.set_defaults(func=cmd_lyapunov)

    p = sub.add_parser("simulate", help="integrate one system and dump the trajectory")
    p.add_argument(
        "--system",
        choices=["planar", "cascade", "associated"],
        default="cascade",
        help="which vector field to integrate (default cascade)",
    )
    p.add_argument("--T", type=float, default=5.0, help="final time (default 5)")
    p.add_argument(
        "--history",
        default="zero",
        help="initial data: 'zero' or 'const:v1,v2,...' (default zero)",
    )
    p.add_argument("--input", default=None, help="JSON file with the input signal description")
    p.add_argument("--tau", type=float, default=None, help="delay for the cascade (default 1.5x escape time)")
    p.add_argument("--grid", type=int, default=200, help="number of output samples (default 200)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("escape", help="greedy destabilizing switching run")
    p.add_argument("--dwell", type=float, default=1e-3, help="nominal sampling dwell (default 1e-3)")
    p.add_argument("--grid", type=int, default=500, help="number of output samples (default 500)")
    p.set_defaults(func=cmd_escape)

    p = sub.add_parser("estimate-r", help="sampled lower bound on the reachability supremum")
    p.add_argument(
        "--system", choices=["planar", "cascade", "associated"], default="planar"
    )
    p.add_argument("--r", type=float, default=1.0, help="initial-data norm bound (default 1)")
    p.add_argument("--T", type=float, default=2.0, help="time horizon (default 2)")
    p.add_argument("--budget", type=int, default=50, help="random draw count (default 50)")
    p.set_defaults(func=cmd_estimate_r)

    p = sub.add_parser("rfc-sweep", help="diverging peaks from smoothed escape schedules")
    p.set_defaults(func=cmd_rfc_sweep)

    p = sub.add_parser("es-check", help="exponential envelope on small random histories")
    p.add_argument("--n", type=int, default=200, help="history count (default 200)")
    p.add_argument("--T", type=float, default=30.0, help="horizon (default 30)")
    p.add_argument("--tol", type=float, default=0.05, help="envelope slack fraction (default 0.05)")
    p.set_defaults(func=cmd_es_check)

    p = sub.add_parser("uga-table", help="empirical vs theoretical reach times")
    p.add_argument(
        "--r", type=float, nargs="+", default=[1.0, 10.0, 100.0], help="history norm bounds"
    )
    p.add_argument("--eps", type=float, nargs="+", default=[0.1, 1.0], help="target ball radii")
    p.add_argument("--samples", type=int, default=50, help="histories per cell (default 50)")
    p.set_defaults(func=cmd_uga_table)

    p = sub.add_parser("equiv-check", help="delay vs input-embedding trajectory agreement")
    p.add_argument("--pairs", type=int, default=50, help="random history count (default 50)")
    p.set_defaults(func=cmd_equiv_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return args.func(args, cfg, out_dir)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numerical-infrastructure failures
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
