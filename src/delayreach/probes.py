"""Experiment drivers that certify or falsify stability properties of the
cascade and its planar core: exponential-envelope checks, uniform reach-time
tables, reachability lower-bound sampling, the diverging-peaks sweep and
the delay-embedding check.

In the cascade, z' = -z is decoupled, so the delayed feed w(t) = z(t - tau)
is known in closed form from the history: its z-column shifted by tau on
[0, tau], then z(0) e^{-(t - tau)}. The settle and envelope probes
(`uga_table`, `rfc_sweep`, `es_check`) therefore integrate only the
nondelayed planar block driven by that exact feed, with a forced step
boundary at every kink of it (`_feed_run`), and read z(t) = z(0) e^{-t} in
closed form. `estimate_R` and `embedding_check` run the delayed cascade.

All probes are deterministic given (seed, options): every random draw uses a
seed derived from the master seed and the draw index, so results are
reproducible and order-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .integrator import (
    HistoryFn,
    IntegratorOptions,
    Trajectory,
    integrate,
)
from .lyap import Certificate, default_certificate
from .signals import (
    Concatenation,
    ExponentialTail,
    PiecewiseConstant,
    PiecewiseLinear,
    Signal,
    smooth_square,
)
from .systems import (
    DEFAULT_DELAY,
    DEFAULT_PLANAR,
    PlanarParams,
    associated_system,
    cascade_system,
    embed_history_as_inputs,
    escape_schedule,
    history_from_inputs,
    make_system,
    planar_system,
    saturation_stop_times,
)


class HorizonTooShort(RuntimeError):
    """A sample failed to settle by the theoretical reach-time bound."""


class UnexpectedEscape(RuntimeError):
    """A run with a continuous history escaped; the integrator is misconfigured."""


class TauTooShort(ValueError):
    """The delay does not cover 1.5x the escape time of the recorded schedule."""


#: Probe-level integrator settings; probes compare against >=5% analytic
#: margins, so they run looser (and much faster) than the oracle defaults.
PROBE_OPTS = IntegratorOptions(rel_tol=1e-6, abs_tol=1e-8)

#: Smoothing widths of the diverging-peaks sweep: geometric, halving, chosen
#: so the coarsest run is clearly tame and the finest approaches the escape.
DEFAULT_DELTAS = tuple(0.1 / 2 ** k for k in range(7))

_MAX_KNOTS = 20  # of a random history
_MAX_PIECES = 20  # of a random input
#: state dimension [z, x1, x2] of the cascade histories the probes draw
_CASCADE_DIM = 3
_ENVELOPE_SAMPLES = 100  # instants sampled per es_check run

#: time past the theoretical reach time a settle run may take before it
#: counts as a falsification
_HORIZON_MARGIN = 100.0

# the diverging-peaks sweep: planar start of unit norm, target ball radius
_SWEEP_X0 = (1.0, 0.0)
_SWEEP_EPS = 0.1


@dataclass(frozen=True)
class ReachEstimate:
    """Sampled lower bound on a reachability supremum."""

    r: float
    T: float
    lower_bound: float
    sample_budget: int
    escape_seen: bool


@dataclass(frozen=True)
class EnvelopeFit:
    k_emp: float
    p_emp: float
    violations: int


@dataclass(frozen=True)
class UgaCell:
    r: float
    eps: float
    t_theory: float
    t_emp_max: float
    n_samples: int

    @property
    def ok(self) -> bool:
        return self.t_emp_max <= self.t_theory


@dataclass(frozen=True)
class RfcSweepResult:
    deltas: tuple
    peaks: tuple
    settle_times: tuple
    settle_bound: float
    history_norms: tuple

    @property
    def strictly_increasing(self) -> bool:
        return all(b > a for a, b in zip(self.peaks, self.peaks[1:]))

    @property
    def growth_factor(self) -> float:
        return max(self.peaks) / min(self.peaks)

    @property
    def settled_in_time(self) -> bool:
        return all(t <= self.settle_bound for t in self.settle_times)


def random_history(rng, target_norm: float, tau: float, dim: int) -> HistoryFn:
    """Piecewise-linear history on [-tau, 0] with sup norm exactly target_norm."""
    k = int(rng.integers(3, _MAX_KNOTS + 1))
    interior = np.sort(rng.uniform(-tau, 0.0, size=k - 2)) if k > 2 else np.empty(0)
    knots = np.unique(np.concatenate([[-tau], interior, [0.0]]))
    vals = rng.uniform(-1.0, 1.0, size=(len(knots), dim))
    peak = np.abs(vals).max()
    if peak == 0.0:
        vals[0, 0] = 1.0
        peak = 1.0
    return HistoryFn(knots, vals * (target_norm / peak))


def random_piecewise_input(rng, sup: float, T: float) -> Signal:
    """Scalar piecewise-constant input on [0, T] with values in [-sup, sup]."""
    k = int(rng.integers(1, _MAX_PIECES + 1))
    breaks = np.sort(rng.uniform(0.0, T, size=k - 1)) if k > 1 else np.empty(0)
    breaks = np.unique(breaks)
    vals = rng.uniform(-sup, sup, size=(len(breaks) + 1, 1))
    return PiecewiseConstant(vals, breaks)


def theoretical_reach_time(r: float, eps: float, tau: float, cert: Certificate) -> float:
    """Reach-time bound t1 + tau + 2 c2^2 / (c1 eps^2).

    t1 = max(0, ln(r / min(Lambda, eps))) is the time for the exponentially
    decaying feed to drop below both the certificate region and the target.
    """
    lam = cert.capital_lambda
    t1 = max(0.0, math.log(r / min(lam, eps))) if r > 0 else 0.0
    return t1 + tau + 2.0 * cert.p0.c2 ** 2 / (cert.p0.c1 * eps * eps)


def _exact_feed(history: HistoryFn, tau: float) -> Signal:
    """The cascade's delayed feed w(t) = z(t - tau) in closed form: the
    history's z-column shifted by tau on [0, tau], then z0 e^{-(t - tau)}
    with z0 = z(0)."""
    line = history.shifted(tau)
    z0 = float(history.eval(0.0)[0])
    return Concatenation(PiecewiseLinear(line.knots, line.values[:, :1]), ExponentialTail([z0], 1.0, tau), tau)


def _feed_run(history: HistoryFn, tau: float, T: float, opts: IntegratorOptions, stop=None) -> Trajectory:
    """The planar block x of the cascade from `history` on [0, T], driven by
    the exact feed and stepping to each of its crossings of 0 and 1
    (`saturation_stop_times`), kinks of the rhs its breakpoints do not list.
    `stop` is `integrate`'s. A continuous history cannot escape, so an escape
    raises UnexpectedEscape."""
    out = integrate(planar_system(), history.eval(0.0)[1:3], _exact_feed(history, tau), T, opts,
                    extra_stops=saturation_stop_times(history, tau, T), stop=stop)
    if out.escaped:
        raise UnexpectedEscape(f"escape at t={out.t_escape} from a continuous history")
    return out.trajectory


def _certified_settle(
    history: HistoryFn,
    tau: float,
    eps: float,
    cert: Certificate,
    hard_horizon: float,
    opts: IntegratorOptions,
) -> tuple[float, Trajectory]:
    """Empirical settle time into the eps-ball of the cascade from `history`,
    with a certified tail, and the run of its planar block x.

    One run of the planar system on the exact feed of `history`, stopped at
    the first instant t, checked once per tau, where the Lyapunov
    certificate seals the tail: |z(t - tau)| <= Lambda (z only decays, so
    the feed stays in the certificate region), |z(t)| <= min(Lambda, eps),
    W(x(t)) <= c1 eps^2, and the last time t_emp above eps lies before t.
    z(t) = z0 e^{-t} is read in closed form, so t_emp is the later of x's
    last time above eps and ln(|z0| / eps). The state then sits inside the
    eps-ball on [t_emp, t] by construction and the certificate keeps it
    there forever after t. A run that reaches `hard_horizon` uncertified
    raises HorizonTooShort.
    """
    lam = cert.capital_lambda
    z_abs = abs(float(history.eval(0.0)[0]))
    t_z = math.log(z_abs / eps) if z_abs > eps else 0.0
    settled = []

    def sealed(traj: Trajectory, t: float) -> bool:
        # the certificate at t is cheap and usually fails first
        if not (
            z_abs * math.exp(-(t - tau)) <= lam
            and z_abs * math.exp(-t) <= min(lam, eps)
            and cert.p0.quad(traj.eval(t)) <= cert.p0.c1 * eps * eps
        ):
            return False
        t_emp = max(traj.last_time_above(eps), t_z)
        if t_emp >= t - 1e-9:
            return False
        settled.append(t_emp)
        return True

    traj = _feed_run(history, tau, hard_horizon, opts, stop=(tau, sealed))
    if not settled:
        raise HorizonTooShort(f"not settled into eps={eps} by t={hard_horizon}")
    return settled[0], traj


def es_check(
    n_ics: int = 200,
    T: float = 30.0,
    tau: float = DEFAULT_DELAY,
    fit_tol: float = 0.05,
    seed: int = 0,
    opts: IntegratorOptions = PROBE_OPTS,
) -> EnvelopeFit:
    """Check the exponential envelope k ||phi|| e^{-pt} on random small histories.

    Histories are piecewise linear with sup norm below the certificate region
    bound, which is where the envelope is guaranteed. Each run integrates the
    planar block on the exact feed; the sampled magnitude is
    max(|z0| e^{-t}, |x(t)|_inf). Violations count sampled points above the
    envelope inflated by fit_tol.
    """
    cert = default_certificate()
    k_env = cert.k
    p_env = cert.p
    lam = cert.capital_lambda
    violations = 0
    k_emp = 0.0
    p_emp = math.inf
    for i in range(n_ics):
        rng = np.random.default_rng((seed, i))
        norm = lam * rng.uniform(0.2, 1.0)
        hist = random_history(rng, norm, tau, _CASCADE_DIM)
        z_abs = abs(float(hist.eval(0.0)[0]))
        traj = _feed_run(hist, tau, T, opts)
        ts = rng.uniform(0.0, T, size=_ENVELOPE_SAMPLES)
        for t in ts:
            mag = max(z_abs * math.exp(-t), float(np.abs(traj.eval(t)).max()))
            env = k_env * norm * math.exp(-p_env * t)
            if mag > env * (1.0 + fit_tol):
                violations += 1
            if mag > 0.0:
                k_emp = max(k_emp, mag * math.exp(p_env * t) / norm)
                if t >= 1.0 and mag < k_env * norm:
                    p_emp = min(p_emp, math.log(k_env * norm / mag) / t)
    if not math.isfinite(p_emp):
        p_emp = p_env
    return EnvelopeFit(k_emp=k_emp, p_emp=p_emp, violations=violations)


def uga_table(
    r_list: Sequence[float],
    eps_list: Sequence[float],
    n_samples: int = 50,
    tau: float = DEFAULT_DELAY,
    seed: int = 0,
    opts: IntegratorOptions = PROBE_OPTS,
) -> list[UgaCell]:
    """Empirical vs theoretical reach times into the eps-ball.

    For each (r, eps) cell, the worst settle time over sampled histories of
    norm <= r must not exceed the theoretical bound; HorizonTooShort
    otherwise (a falsification, which must not occur).

    Draw i is seeded by (seed, int(1000 r), int(1000 eps), i), the key the
    benchmark rebuilds draw 0 from: r (or eps) values with the same
    int(1000 r), such as 0.5 and 0.5004, draw the same history shapes.
    """
    cert = default_certificate()
    cells = []
    for r in r_list:
        for eps in eps_list:
            t_theory = theoretical_reach_time(r, eps, tau, cert)
            worst = 0.0
            for i in range(n_samples):
                rng = np.random.default_rng((seed, int(r * 1000), int(eps * 1000), i))
                hist = random_history(rng, r * rng.uniform(0.3, 1.0), tau, _CASCADE_DIM)
                t_emp, _ = _certified_settle(hist, tau, eps, cert, t_theory + _HORIZON_MARGIN, opts)
                worst = max(worst, t_emp)
            cells.append(
                UgaCell(r=r, eps=eps, t_theory=t_theory, t_emp_max=worst, n_samples=n_samples)
            )
    return cells


@dataclass(frozen=True)
class EmbeddingCheck:
    """Per-pair sup deviations between delayed and input-driven runs."""

    embed: tuple
    complete: tuple
    tolerance: float

    @property
    def ok(self) -> bool:
        return max(self.embed + self.complete) <= self.tolerance


def _paired_gap(casc, hist, assoc, xi0, u, T, opts) -> float:
    """Largest component gap between the cascade run from `hist` and the
    associated run from (xi0, u) on a 100-point grid of [0, T]."""
    stops = saturation_stop_times(hist, casc.tau, T)
    d = integrate(casc, hist, None, T, opts, extra_stops=stops).trajectory
    a = integrate(assoc, xi0, u, T, opts, extra_stops=stops).trajectory
    return max(float(np.abs(d.eval(t) - a.eval(t)).max()) for t in np.linspace(0.0, T, 100))


def embedding_check(
    tau: float,
    pairs: int,
    seed: int,
    opts: IntegratorOptions,
    params: PlanarParams = DEFAULT_PLANAR,
) -> EmbeddingCheck:
    """Both directions of the delay <-> input embedding on random draws.

    Embed direction: a random history and its input embedding drive the
    cascade and the associated system on [0, tau]. Completion direction: a
    history assembled from a random (xi0, input) pair reproduces the
    input-driven run on the shared half-window [0, tau/2]. The tolerance is
    10 (3 rel_tol + abs_tol), since the states stay within a few units.
    """
    casc = cascade_system(tau, params)
    assoc = associated_system(params)
    embed, complete = [], []
    for i in range(pairs):
        rng = np.random.default_rng((seed, i))
        hist = random_history(rng, rng.uniform(0.1, 1.0), tau, casc.dim)
        xi0, inputs = embed_history_as_inputs(hist, casc.delays)
        embed.append(_paired_gap(casc, hist, assoc, xi0, inputs[0], tau, opts))

        knots = np.sort(rng.uniform(0.0, tau, size=5))
        knots = np.unique(np.concatenate([[0.0], knots, [tau]]))
        v = PiecewiseLinear(knots, rng.uniform(-0.8, 0.8, size=(len(knots), casc.dim)))
        xi0 = rng.uniform(-0.5, 0.5, size=casc.dim)
        hist = history_from_inputs(xi0, [v], casc.delays)
        complete.append(_paired_gap(casc, hist, assoc, xi0, v, tau / 2.0, opts))
    tol = 10.0 * (opts.rel_tol * 3.0 + opts.abs_tol)
    return EmbeddingCheck(embed=tuple(embed), complete=tuple(complete), tolerance=tol)


def rfc_sweep(tau: float = DEFAULT_DELAY, opts: IntegratorOptions = PROBE_OPTS) -> RfcSweepResult:
    """Diverging peaks from an equibounded family of continuous histories.

    The recorded greedy escape signal is smoothed at each width in
    DEFAULT_DELTAS and installed as the decaying-feed history; the planar
    part starts at (1, 0). Every run must complete (continuous history),
    re-enter the 0.1-ball by the theoretical reach time, yet the peak grows
    without a uniform bound as the smoothing vanishes. A peak is the exact
    sup of the cascade state on [0, tau]: max(|z0|, sup |x|_inf), since |z|
    only decays.
    """
    cert = default_certificate()
    schedule, t_esc = escape_schedule()
    if tau < DEFAULT_DELAY - 1e-12:
        raise TauTooShort(f"tau={tau} must cover 1.5x the escape time {t_esc}")
    peaks = []
    settles = []
    norms = []
    t_theory = theoretical_reach_time(1.0, _SWEEP_EPS, tau, cert)
    for delta in DEFAULT_DELTAS:
        w = smooth_square(schedule, delta, strict=False)
        knots = np.unique(np.concatenate([[0.0, tau], w.knots[(w.knots > 0) & (w.knots < tau)]]))
        zvals = np.array([float(w.eval(t)[0]) for t in knots])
        vals = np.column_stack([zvals] + [np.full_like(zvals, x) for x in _SWEEP_X0])
        hist = HistoryFn(knots - tau, vals)
        norms.append(hist.norm())
        t_emp, traj = _certified_settle(hist, tau, _SWEEP_EPS, cert, t_theory + _HORIZON_MARGIN, opts)
        peaks.append(max(abs(float(zvals[-1])), traj.sup_norm(0.0, tau)))
        settles.append(t_emp)
    return RfcSweepResult(
        deltas=DEFAULT_DELTAS,
        peaks=tuple(peaks),
        settle_times=tuple(settles),
        settle_bound=t_theory,
        history_norms=tuple(norms),
    )


def estimate_R(
    system_kind: str,
    r: float,
    T: float,
    budget: int,
    seed: int = 0,
    tau: float = DEFAULT_DELAY,
    params: PlanarParams = DEFAULT_PLANAR,
    opts: IntegratorOptions = PROBE_OPTS,
) -> ReachEstimate:
    """Sampled lower bound on the reachability supremum R(r, T) or R*(r, T).

    The draw pool always contains the deterministic boundary draw (initial
    condition of norm exactly r, zero input), `budget` seeded random draws,
    and, for the input-driven kinds with r >= 1, the recorded destabilizing
    switching signal. Suprema are uncomputable; a lower bound is what the
    falsification argument needs.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    sys = make_system(system_kind, tau, params)
    if T == 0.0:
        # the reachable set at time zero is exactly the initial ball
        return ReachEstimate(r=r, T=T, lower_bound=r, sample_budget=budget, escape_seen=False)

    # boundary draw: the first planar coordinate at exactly r, zero input
    corner = np.zeros(sys.dim)
    corner[sys.dim - 2] = r
    draws = [(HistoryFn.constant(corner, sys.tau) if sys.delays else corner, None)]
    if sys.input_dim and r >= 1.0:
        x = np.zeros(sys.dim)
        x[sys.dim - 2] = 1.0
        draws.append((x, escape_schedule()[0]))
    for i in range(budget):
        rng = np.random.default_rng((seed, i))
        if sys.delays:
            draws.append((random_history(rng, r * rng.uniform(0.2, 1.0), sys.tau, sys.dim), None))
        else:
            x0 = rng.uniform(-r, r, size=sys.dim)
            draws.append((x0, random_piecewise_input(rng, r, max(T, 1.0)) if sys.input_dim else None))

    lower = 0.0
    escape_seen = False
    for ic, u in draws:
        # a delayed draw's feed kinks where it crosses a saturation level
        stops = saturation_stop_times(ic, sys.tau, T) if sys.delays else ()
        out = integrate(sys, ic, u, T, opts, extra_stops=stops)
        traj = out.trajectory
        norm0 = ic.norm() if isinstance(ic, HistoryFn) else float(np.abs(ic).max())
        lower = max(lower, norm0, traj.sup_norm(traj.t_start, traj.t_end))
        if out.escaped:
            escape_seen = True
            if out.final_norm is not None:
                lower = max(lower, out.final_norm)
    return ReachEstimate(
        r=r, T=T, lower_bound=lower, sample_budget=budget, escape_seen=escape_seen
    )
