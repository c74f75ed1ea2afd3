"""The three workloads: inputs made from the seed, one operation, its checks.

Each workload hands out whole rounds of operations. A round always has the
same make-up (the same initial states and dwells, the same 18 reach-time
draws, the same seven smoothing widths), so throughput over whole rounds
compares like with like across seeds and run lengths.

An operation's raw output is reduced by `summarize` to a small record and a
digest of every array the program returned; the raw output is then dropped,
so memory does not grow with the number of operations. Property checks
(`check`, `check_round`) are written from the paper and the method;
reference checks (`reference`) compare with `reference.py`, which shares no
code with the program.
"""

import hashlib
import math

import numpy as np

import reference

#: unit-norm initial-state angles and dwells of the escape workload, in pairs
ESCAPE_PAIRS = ((0.0, 8e-3), (2.0 * math.pi / 3.0, 1.2e-2), (4.0 * math.pi / 3.0, 1.6e-2))
ESCAPE_T = 20.0
#: moderate norm level at which the open-loop replay is compared in time
ESCAPE_LEVEL = 100.0
#: 10x the relative tolerance run_switched integrates at, on crossing times near 1
ESCAPE_TIME_TOL = 1e-7
#: relative error of the state at each switching instant, 100x that tolerance;
#: measured 1e-11, and a 0.1% change of the cubic factor gives 2e-3
ESCAPE_STATE_TOL = 1e-6

REACH_CELLS = ((1.0, 0.1), (1.0, 1.0), (10.0, 0.1), (10.0, 1.0), (100.0, 0.1), (100.0, 1.0))
#: `uga_table` seeds of the draws in every round. The cost of one draw varies
#: up to 5x (knot count, horizon doubling), so a seed-dependent draw set would
#: make the runs of different seeds do different work; the seed permutes order.
REACH_DRAW_SEEDS = (0, 1, 2)
#: draws of these radii are referenced; larger ones are ill-conditioned (see README)
REACH_REFERENCE_R = 1.0
#: relative level tolerance of the reference settle check; the worst of 80
#: r = 1 draws measured 3e-4
REACH_LEVEL_TOL = 5e-3
#: how far past the settle time the reference integrates
REACH_REFERENCE_TAIL = 20.0

#: the smoothing widths of the diverging-peaks sweep (0.1 / 2^k, k = 0..6)
PEAK_WIDTHS = tuple(0.1 / 2 ** k for k in range(7))
PEAK_X0 = (1.0, 0.0)
#: random piecewise-linear histories added to every round (embedding recipe)
PEAK_RANDOM_PER_ROUND = 2
PEAK_MIN_GROWTH = 10.0
#: relative tolerance of each peak against the reference; the program runs at
#: rel_tol 1e-6 through transients that grow the state 40x, measured 2.3e-5
PEAK_REFERENCE_TOL = 1e-3

_EPS = np.finfo(float).eps


def digest(*parts):
    """SHA-256 over the bytes of numbers and arrays, in order."""
    h = hashlib.sha256()
    for p in parts:
        h.update(np.ascontiguousarray(np.asarray(p, dtype=float)).tobytes())
    return h.hexdigest()


def trajectory_digest(traj):
    arrays = [v for _, v in sorted(vars(traj).items()) if isinstance(v, np.ndarray)]
    return digest(*arrays)


class Escape:
    """Closed-loop greedy switching runs from unit-norm states until escape."""

    name = "escape"

    def __init__(self, dr, ctx, seed):
        self.dr = dr
        self.seed = seed
        self.threshold = dr.IntegratorOptions().escape_threshold

    def round_inputs(self, k):
        order = np.random.default_rng((self.seed, k)).permutation(len(ESCAPE_PAIRS))
        return [ESCAPE_PAIRS[i] for i in order]

    def run(self, inp):
        angle, dwell = inp
        x0 = np.array([math.cos(angle), math.sin(angle)])
        return self.dr.run_switched(self.dr.greedy_worst_switch(dwell=dwell), x0, T=ESCAPE_T)

    def summarize(self, inp, run):
        out = run.outcome
        traj = out.trajectory
        t_level = _first_time_at(traj, ESCAPE_LEVEL)
        return {
            "escaped": out.escaped,
            "t_escape": out.t_escape,
            "final_norm": out.final_norm,
            "values": run.signal.values[:, 0].copy(),
            "breaks": run.signal.breaks.copy(),
            "t_level": t_level,
            "switch_states": np.array(
                [traj.eval(b) for b in run.signal.breaks if t_level is None or b < t_level]
            ).reshape(-1, 2),
            "digest": digest(
                run.signal.values, run.signal.breaks, [out.t_escape or -1.0, out.final_norm or -1.0]
            )
            + trajectory_digest(traj),
        }

    def check(self, inp, s):
        bad = []
        if not (s["escaped"] and s["t_escape"] < ESCAPE_T):
            bad.append(f"no escape before T={ESCAPE_T}")
        elif not s["final_norm"] >= self.threshold:
            bad.append(f"final norm {s['final_norm']} below the threshold {self.threshold}")
        if not np.isin(s["values"], (0.0, 1.0)).all():
            bad.append("switching signal takes values outside {0, 1}")
        if s["t_level"] is None:
            bad.append(f"trajectory never reaches |x| = {ESCAPE_LEVEL}")
        return bad

    def check_round(self, recs):
        return []

    def wants_reference(self, inp):
        return True

    def reference(self, inp, s):
        angle, _ = inp
        x0 = (math.cos(angle), math.sin(angle))
        t_ref, states = reference.replay_switching(
            s["values"], s["breaks"], x0, ESCAPE_LEVEL, ESCAPE_T
        )
        if t_ref is None:
            return [f"open-loop replay never reaches |x| = {ESCAPE_LEVEL}"]
        bad = []
        if s["t_level"] is None or abs(s["t_level"] - t_ref) > ESCAPE_TIME_TOL:
            bad.append(f"|x| = {ESCAPE_LEVEL} at t={s['t_level']}, reference t={t_ref}")
        if not s["t_escape"] > t_ref:
            bad.append(f"t_escape={s['t_escape']} not after the reference level time {t_ref}")
        prog = s["switch_states"]
        if prog.shape != states.shape:
            bad.append(f"{len(prog)} switching instants before the level, reference {len(states)}")
        else:
            err = np.abs(prog - states).max(axis=1) / np.abs(states).max(axis=1)
            if err.size and not err.max() <= ESCAPE_STATE_TOL:
                bad.append(f"state at a switching instant off by {err.max():.1e} relative")
        return bad


def _first_time_at(traj, level):
    """First t with |x(t)|_inf >= level on the dense output, to 1e-15."""
    norms = np.abs(traj.ys).max(axis=1)
    hit = np.nonzero(norms >= level)[0]
    if hit.size == 0 or hit[0] == 0:
        return None
    lo, hi = float(traj.ts[hit[0] - 1]), float(traj.ts[hit[0]])
    while hi - lo > 1e-15 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if float(np.abs(traj.eval(mid)).max()) >= level:
            hi = mid
        else:
            lo = mid
    return hi


class ReachTimes:
    """One sampled history settled and certified per cell of the reach-time table."""

    name = "reach_times"

    def __init__(self, dr, ctx, seed):
        self.dr = dr
        self.seed = seed
        self.tau = ctx["tau"]

    def round_inputs(self, k):
        ops = [(r, eps, s) for s in REACH_DRAW_SEEDS for r, eps in REACH_CELLS]
        order = np.random.default_rng((self.seed, k)).permutation(len(ops))
        return [ops[i] for i in order]

    def run(self, inp):
        r, eps, s = inp
        return self.dr.uga_table([r], [eps], n_samples=1, seed=s)

    def summarize(self, inp, cells):
        (cell,) = cells
        return {
            "t_emp": cell.t_emp_max,
            "t_theory": cell.t_theory,
            "digest": digest([cell.t_emp_max, cell.t_theory]),
        }

    def check(self, inp, s):
        if not s["t_emp"] <= s["t_theory"]:
            return [f"settle time {s['t_emp']} exceeds the bound {s['t_theory']}"]
        return []

    def check_round(self, recs):
        return []

    def wants_reference(self, inp):
        return inp[0] == REACH_REFERENCE_R

    def reference(self, inp, s):
        r, eps, seed = inp
        knots, values = uga_draw(seed, r, eps, self.tau)
        t_emp = s["t_emp"]
        run = reference.DelayedFeedRun(knots, values, self.tau, t_emp + REACH_REFERENCE_TAIL)
        sup = run.sup_norm(t_emp, t_emp + REACH_REFERENCE_TAIL)
        if t_emp > 0.0 and abs(sup - eps) > REACH_LEVEL_TOL * eps:
            return [f"reference sup after t={t_emp} is {sup}, not eps={eps}"]
        if t_emp == 0.0 and sup > eps * (1.0 + REACH_LEVEL_TOL):
            return [f"reported never above eps={eps}, reference reaches {sup}"]
        return []


def uga_draw(seed, r, eps, tau):
    """The history `uga_table` draws for (seed, r, eps, draw 0), rebuilt here:
    rng = default_rng((seed, 1000 r, 1000 eps, 0)), norm r U(0.3, 1)."""
    rng = np.random.default_rng((seed, int(r * 1000), int(eps * 1000), 0))
    return pl_history(rng, r * rng.uniform(0.3, 1.0), tau)


def pl_history(rng, norm, tau, dim=3):
    """Piecewise-linear history on [-tau, 0] with sup norm `norm`.

    k = integers(3, 21) knots, the k - 2 interior ones U(-tau, 0) sorted;
    values U(-1, 1) of shape (k, dim), scaled to the norm.
    """
    k = int(rng.integers(3, 21))
    interior = np.sort(rng.uniform(-tau, 0.0, size=k - 2))
    knots = np.unique(np.concatenate([[-tau], interior, [0.0]]))
    values = rng.uniform(-1.0, 1.0, size=(len(knots), dim))
    return knots, values * (norm / np.abs(values).max())


class ReachPeaks:
    """Peaks on [0, tau] of bounded histories, delayed and embedded formulations."""

    name = "reach_peaks"

    def __init__(self, dr, ctx, seed):
        self.dr = dr
        self.seed = seed
        self.tau = ctx["tau"]
        self.schedule = ctx["schedule"]
        self.opts = dr.probes.PROBE_OPTS
        # rounding of smooth_square: a difference of two cumulative integrals
        # of n pieces over [0, t_end], divided by the width
        self.smooth_rounding = 2.0 * (len(self.schedule.breaks) + 1) * _EPS * float(self.schedule.breaks[-1])

    def round_inputs(self, k):
        widths = [("width", d) for d in PEAK_WIDTHS]
        return widths + [("random", (self.seed, k, j)) for j in range(PEAK_RANDOM_PER_ROUND)]

    def history(self, inp):
        kind, arg = inp
        dr, tau = self.dr, self.tau
        if kind == "width":
            w = dr.smooth_square(self.schedule, arg, strict=False)
            knots = np.unique(np.concatenate([[0.0, tau], w.knots[(w.knots > 0) & (w.knots < tau)]]))
            z = np.array([float(w.eval(t)[0]) for t in knots])
            vals = np.column_stack([z, np.full_like(z, PEAK_X0[0]), np.full_like(z, PEAK_X0[1])])
            return dr.HistoryFn(knots - tau, vals)
        # the draw of the embedding criterion: norm U(0.1, 1)
        rng = np.random.default_rng(arg)
        return dr.HistoryFn(*pl_history(rng, rng.uniform(0.1, 1.0), tau))

    def run(self, inp):
        dr, tau = self.dr, self.tau
        hist = self.history(inp)
        casc = dr.cascade_system(tau)
        assoc = dr.associated_system()
        xi0, inputs = dr.embed_history_as_inputs(hist, casc.delays)
        stops = dr.saturation_stop_times(hist, tau, tau)
        delayed = dr.integrate(casc, hist, None, tau, self.opts, extra_stops=stops)
        embedded = dr.integrate(assoc, xi0, inputs[0], tau, self.opts, extra_stops=stops)
        peaks = (delayed.trajectory.sup_norm(0.0, tau), embedded.trajectory.sup_norm(0.0, tau))
        return hist, delayed, embedded, peaks

    def summarize(self, inp, raw):
        hist, delayed, embedded, peaks = raw
        return {
            "knots": hist.knots.copy(),
            "values": hist.values.copy(),
            "norm": hist.norm(),
            "escaped": delayed.escaped or embedded.escaped,
            "peaks": peaks,
            "digest": digest(peaks)
            + trajectory_digest(delayed.trajectory)
            + trajectory_digest(embedded.trajectory),
        }

    def check(self, inp, s):
        bad = []
        kind, arg = inp
        slack = self.smooth_rounding / arg if kind == "width" else 0.0
        if not s["norm"] <= 1.0 + slack:
            bad.append(f"history norm {s['norm']!r} exceeds 1 by more than rounding {slack:.1e}")
        if s["escaped"]:
            bad.append("a run from a bounded continuous history escaped")
        pd, pa = s["peaks"]
        tol = 10.0 * (self.opts.rel_tol * max(pd, pa) + self.opts.abs_tol)
        if not abs(pd - pa) <= tol:
            bad.append(f"delayed peak {pd} and embedded peak {pa} differ by more than {tol:.1e}")
        return bad

    def check_round(self, recs):
        peaks = [r.summary["peaks"][0] for r in recs if r.inp[0] == "width" and r.summary]
        if len(peaks) != len(PEAK_WIDTHS):
            return []
        bad = []
        if not all(b > a for a, b in zip(peaks, peaks[1:])):
            bad.append(f"peaks do not rise strictly as the width shrinks: {peaks}")
        if not max(peaks) / min(peaks) >= PEAK_MIN_GROWTH:
            bad.append(f"peak growth {max(peaks) / min(peaks):.2f} below {PEAK_MIN_GROWTH}")
        return bad

    def wants_reference(self, inp):
        return True

    def reference(self, inp, s):
        run = reference.DelayedFeedRun(s["knots"], s["values"], self.tau, self.tau)
        ref = run.sup_norm(0.0, self.tau)
        bad = []
        for label, p in zip(("delayed", "embedded"), s["peaks"]):
            if not abs(p - ref) <= PEAK_REFERENCE_TOL * ref:
                bad.append(f"{label} peak {p} vs reference {ref}")
        return bad


WORKLOADS = {w.name: w for w in (Escape, ReachTimes, ReachPeaks)}
