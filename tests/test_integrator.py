import dataclasses
import math
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

from delayreach import integrator, probes
from delayreach.integrator import (
    BadHistoryDomain,
    DiscreteDelaySystem,
    HistoryFn,
    IntegratorOptions,
    MaxStepsExceeded,
    SimOutcome,
    SpanTooShort,
    Stepper,
    StepSizeCollapse,
    Trajectory,
    _bounds,
    _forced_stops,
    _last,
    _last_above,
    _poly,
    _turns,
    integrate,
)
from delayreach.probes import DEFAULT_DELTAS, PROBE_OPTS, escape_schedule, random_history
from delayreach.signals import Constant, ExponentialTail, PiecewiseConstant, PiecewiseLinear, TimeShift, smooth_square
from delayreach.systems import (
    DEFAULT_DELAY,
    associated_system,
    cascade_system,
    embed_history_as_inputs,
    greedy_worst_switch,
    planar_rhs,
    planar_system,
    run_switched,
    saturation_stop_times,
)

import suprema_ref
from audit import residual_audit


def decay_system(rate=1.0):
    return DiscreteDelaySystem(
        dim=1, input_dim=0, delays=(), rhs=lambda y, d, u: [-rate * v for v in y]
    )


def tan_system():
    # x' = 1 + x^2 from 0 blows up at pi/2 with x(t) = tan(t)
    return DiscreteDelaySystem(
        dim=1, input_dim=0, delays=(), rhs=lambda y, d, u: [1.0 + v * v for v in y]
    )


def delayed_unit_system():
    # x'(t) = -x(t - 1); from constant history 1 the solution is a
    # polynomial spline computable by hand, one degree per unit interval
    return DiscreteDelaySystem(
        dim=1, input_dim=0, delays=(1.0,), rhs=lambda y, d, u: [-v for v in d[0]]
    )


class TestScalarOracles:
    def test_exponential_decay(self):
        out = integrate(decay_system(), np.array([1.0]), None, 1.0)
        assert not out.escaped
        assert abs(out.trajectory.eval(1.0)[0] - math.exp(-1.0)) <= 1e-7

    def test_forced_harmonic_matches_closed_form(self):
        # x' = -x + u with u = 1 on [0, 1), 0 after: closed form by variation
        # of constants on each piece
        sys = DiscreteDelaySystem(
            dim=1, input_dim=1, delays=(), rhs=lambda y, d, u: [-a + b for a, b in zip(y, u)]
        )
        u = PiecewiseConstant([1.0, 0.0], [1.0])
        out = integrate(sys, np.array([0.0]), u, 3.0)
        x1 = 1.0 - math.exp(-1.0)
        assert out.trajectory.eval(1.0)[0] == pytest.approx(x1, abs=1e-8)
        assert out.trajectory.eval(3.0)[0] == pytest.approx(x1 * math.exp(-2.0), abs=1e-8)

    def test_blowup_time(self):
        out = integrate(tan_system(), np.array([0.0]), None, 5.0)
        assert out.escaped
        assert out.flag == "threshold"
        assert out.t_escape == pytest.approx(math.pi / 2.0, abs=1e-3)

    def test_escape_threshold_monotone(self):
        lo = integrate(
            tan_system(), np.array([0.0]), None, 5.0, IntegratorOptions(escape_threshold=1e3)
        )
        hi = integrate(
            tan_system(), np.array([0.0]), None, 5.0, IntegratorOptions(escape_threshold=1e6)
        )
        assert lo.escaped and hi.escaped
        assert lo.t_escape <= hi.t_escape
        # tan crosses level L at arctan(L)
        assert lo.t_escape == pytest.approx(math.atan(1e3), abs=1e-3)


class TestEscapeTimeIsExact:
    """A threshold escape's time is the last float of the escape step below
    the threshold, on the dense output as `Trajectory._interp` reads it: no
    float lies between it and the crossing."""

    @staticmethod
    def assert_last_float_below(out, threshold):
        traj, t = out.trajectory, out.t_escape
        assert out.flag == "threshold"
        assert traj.ts[-2] <= t < traj.ts[-1]

        def norm(s):
            return max(abs(v) for v in traj._interp(s))

        assert norm(t) < threshold <= norm(math.nextafter(t, math.inf))

    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
    def test_blow_up_oracle(self, tol):
        opts = IntegratorOptions(rel_tol=tol, abs_tol=tol, h_min=1e-15)
        out = integrate(tan_system(), np.array([0.0]), None, 5.0, opts)
        self.assert_last_float_below(out, opts.escape_threshold)
        assert out.t_escape == pytest.approx(math.atan(opts.escape_threshold), abs=1e-3)

    @pytest.mark.parametrize("angle, dwell", [
        (0.0, 8e-3), (2.0 * math.pi / 3.0, 1.2e-2), (4.0 * math.pi / 3.0, 1.6e-2),
    ], ids=["0", "2pi/3", "4pi/3"])
    def test_switched_runs_of_the_benchmark(self, angle, dwell):
        run = run_switched(greedy_worst_switch(dwell), [math.cos(angle), math.sin(angle)], T=20.0)
        self.assert_last_float_below(run.outcome, 1e6)


class TestStartIsFinite:
    @pytest.mark.parametrize("y0", [[math.nan, 0.0], [0.5, math.inf], [-math.inf, 0.0]],
                             ids=["nan", "inf", "minus_inf"])
    def test_nondelayed_start_must_be_finite(self, y0):
        # a NaN start returned a "nonfinite" escape at t = 0, an infinite one
        # a "threshold" escape with final_norm inf
        with pytest.raises(ValueError, match="initial state must be finite"):
            integrate(planar_system(), np.array(y0), None, 1.0)


class TestDelaysAreFinite:
    @pytest.mark.parametrize("d", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_a_delay_that_is_not_finite_and_positive_is_named(self, d):
        # NaN passed both checks (every comparison is False) and then failed
        # deep inside PiecewiseLinear; inf was accepted
        with pytest.raises(ValueError, match=f"finite and positive, got {d!r}"):
            DiscreteDelaySystem(dim=1, input_dim=0, delays=(0.5, d), rhs=lambda y, dl, u: list(y))
        with pytest.raises(ValueError, match=f"got {d!r}"):
            integrate(cascade_system(d), HistoryFn.constant(np.array([0.5, 0.1, 0.1]), 1.0), None, 1.0)


class TestDelayOracle:
    def test_method_of_steps_spline(self):
        hist = HistoryFn.constant(np.array([1.0]), 1.0)
        out = integrate(delayed_unit_system(), hist, None, 3.0)
        traj = out.trajectory

        def exact(t):
            if t <= 1.0:
                return 1.0 - t
            # x'(t) = -(1-(t-1)) = t-2, x(1) = 0
            return (t * t - 1.0) / 2.0 - 2.0 * (t - 1.0)

        for t in np.linspace(0.0, 2.0, 41):
            assert traj.eval(t)[0] == pytest.approx(exact(t), abs=1e-8)
        assert traj.eval(2.0)[0] == pytest.approx(-0.5, abs=1e-8)

    def test_two_delays_follow_the_exact_spline(self):
        # x'(t) = -x(t - 1) - x(t - 2) from the constant history 1 on [-2, 0]:
        # each lookup of the two-delay path, from the shifted history and
        # from the dense output, against the method-of-steps polynomials
        sys = DiscreteDelaySystem(dim=1, input_dim=0, delays=(1.0, 2.0),
                                  rhs=lambda y, d, u: [-d[0][0] - d[1][0]])
        traj = integrate(sys, HistoryFn.constant(np.array([1.0]), 2.0), None, 3.0).trajectory

        def exact(t):
            if t <= 1.0:
                return 1.0 - 2.0 * t
            if t <= 2.0:
                return t * t - 4.0 * t + 2.0
            return -t**3 / 3.0 + 4.0 * t * t - 12.0 * t + 26.0 / 3.0

        assert traj.ts[-1] == 3.0 and {1.0, 2.0} <= set(traj.ts.tolist())
        for t, y in zip(traj.ts, traj.ys[:, 0]):
            assert y == pytest.approx(exact(t), abs=1e-12), t
        for t in np.linspace(0.0, 3.0, 61):
            assert traj.eval(t)[0] == pytest.approx(exact(t), abs=1e-12), t

    def test_history_domain_validation(self):
        hist = HistoryFn.constant(np.array([1.0]), 2.0)
        with pytest.raises(BadHistoryDomain):
            integrate(delayed_unit_system(), hist, None, 1.0)
        with pytest.raises(BadHistoryDomain):
            integrate(delayed_unit_system(), np.array([1.0]), None, 1.0)

    def test_delay_below_h_min_is_rejected_at_the_boundary(self):
        # every step is capped by the delay, so none of h_min or more could be taken
        sys = DiscreteDelaySystem(dim=1, input_dim=0, delays=(1e-300,), rhs=lambda y, d, u: [-v for v in d[0]])
        with pytest.raises(ValueError, match=r"1e-300.*1e-12"):
            integrate(sys, HistoryFn.constant([1.0], 1e-300), None, 1.0)
        opts = IntegratorOptions(h_min=1e-3)
        with pytest.raises(ValueError, match=r"0\.0005.*0\.001"):
            integrate(dataclasses.replace(sys, delays=(5e-4,)), HistoryFn.constant([1.0], 5e-4), None, 1.0, opts)
        out = integrate(dataclasses.replace(sys, delays=(1e-3,)), HistoryFn.constant([1.0], 1e-3), None, 0.01, opts)
        assert out.trajectory.t_end == 0.01


class TestDenseOutput:
    def test_node_values_exact(self):
        out = integrate(decay_system(), np.array([1.0]), None, 2.0)
        traj = out.trajectory
        for i, t in enumerate(traj.ts):
            assert np.array_equal(traj.eval(float(t)), traj.ys[i])

    def test_interpolant_accuracy(self):
        out = integrate(decay_system(), np.array([1.0]), None, 2.0)
        for t in np.linspace(0.0, 2.0, 101):
            assert out.trajectory.eval(t)[0] == pytest.approx(math.exp(-t), abs=1e-7)

    def test_eval_outside_span(self):
        out = integrate(decay_system(), np.array([1.0]), None, 1.0)
        with pytest.raises(SpanTooShort):
            out.trajectory.eval(1.5)

    def test_sup_norm_matches_dense_sampling(self):
        sys = DiscreteDelaySystem(
            dim=2,
            input_dim=0,
            delays=(),
            rhs=lambda y, d, u: [y[1], -y[0]],
        )
        out = integrate(sys, np.array([1.0, 0.0]), None, 7.0)
        traj = out.trajectory
        dense = max(float(np.abs(traj.eval(t)).max()) for t in np.linspace(0.0, 7.0, 5001))
        assert traj.sup_norm(0.0, 7.0) >= dense - 1e-12
        assert traj.sup_norm(0.0, 7.0) == pytest.approx(1.0, abs=1e-6)

    def test_sup_of_a_run_that_escapes_at_its_start(self):
        # a start at the threshold is one node and no segment: its sup is the node's
        for x0, sup in (([2e6, 0.0], 2e6), ([-3.0, 1e6], 1e6)):
            out = integrate(planar_system(), x0, None, 1.0)
            traj = out.trajectory
            assert (out.flag, out.t_escape, len(traj.ts)) == ("threshold", 0.0, 1)
            assert traj.sup_norm(0.0, 0.0) == traj.sup_norm(-1.0, 5.0) == sup
            assert traj.last_time_above(1.0) == 0.0

    def test_last_time_above(self):
        out = integrate(decay_system(), np.array([1.0]), None, 5.0)
        # e^{-t} > 0.1 until t = ln 10
        assert out.trajectory.last_time_above(0.1) == pytest.approx(math.log(10.0), abs=1e-6)
        assert out.trajectory.last_time_above(2.0) == 0.0


def dense_norms(traj, t):
    """|x(t)|_inf at each sample time, by the same arithmetic as Trajectory.eval."""
    ts, ys, qs = traj.ts, traj.ys, traj.qs
    i = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(ts) - 2)
    th = ((t - ts[i]) / (ts[i + 1] - ts[i]))[:, None]
    q = qs[i]
    x = ys[i] + th * (q[:, 0] + th * (q[:, 1] + th * (q[:, 2] + th * q[:, 3])))
    x = np.where((t == ts[i + 1])[:, None], ys[i + 1], x)
    return np.abs(x).max(axis=1)


def components(y0, q):
    """One segment's quartic per component, as [y0, q0, q1, q2, q3] floats."""
    return np.vstack([y0, q]).T.tolist()


def segment_sup(y0, q):
    """Unpruned reference: |x|_inf at the floats on both sides of every turn in
    (0, 1) of each component, by Horner as `Trajectory._interp` reads them."""
    return max([abs(horner_values(y0[j], q[:, j], th)) for j, c in enumerate(components(y0, q))
                for th in _turns(c, 0.0, 1.0)], default=0.0)


def roots_sup(y0, q):
    """Reference independent of `_turns`: |x|_inf at both ends and at each
    real root in (0, 1) of each component's cubic derivative that np.roots
    finds, by Horner, and the margin 2^-48 S + 2^-1070 of `_bounds`, S = |y0| +
    sum |q_k| of a component. The Horner value at a float is within gamma_8 S
    of the exact quartic, so the sup read at the floats around each turn is
    at least the value at a root less that margin."""
    best, margin = max(float(np.abs(y0).max()), float(np.abs(y0 + q[0] + q[1] + q[2] + q[3]).max())), 0.0
    for i in range(len(y0)):
        margin = max(margin, 2.0 ** -48 * (abs(y0[i]) + float(np.abs(q[:, i]).sum())) + 2.0 ** -1070)
        for r in np.roots(np.trim_zeros([4.0 * q[3][i], 3.0 * q[2][i], 2.0 * q[1][i], q[0][i]], "f")):
            if abs(r.imag) < 1e-12 and 0.0 < r.real < 1.0:
                th = float(r.real)
                best = max(best, abs(y0[i] + th * (q[0][i] + th * (q[1][i] + th * (q[2][i] + th * q[3][i])))))
    return best, margin


def peak_histories(seed=1):
    """The histories of one round of the benchmark's peak sweep: the seven
    smoothing widths on [-tau, 0] and two random piecewise-linear ones."""
    tau, schedule = DEFAULT_DELAY, escape_schedule()[0]
    hists = []
    for delta in DEFAULT_DELTAS:
        w = smooth_square(schedule, delta, strict=False)
        knots = np.unique(np.concatenate([[0.0, tau], w.knots[(w.knots > 0) & (w.knots < tau)]]))
        z = np.array([float(w.eval(t)[0]) for t in knots])
        hists.append(HistoryFn(knots - tau, np.column_stack([z, np.ones_like(z), np.zeros_like(z)])))
    rng = np.random.default_rng(seed)
    return hists + [random_history(rng, rng.uniform(0.1, 1.0), tau, 3) for _ in range(2)]


def peak_run(hist, tau=DEFAULT_DELAY):
    """The delayed and the embedded run of one peak-sweep history on [0, tau]."""
    casc = cascade_system(tau)
    xi0, inputs = embed_history_as_inputs(hist, casc.delays)
    stops = saturation_stop_times(hist, tau, tau)
    return (integrate(casc, hist, None, tau, PROBE_OPTS, extra_stops=stops),
            integrate(associated_system(), xi0, inputs[0], tau, PROBE_OPTS, extra_stops=stops))


@pytest.fixture(scope="module")
def peak_trajs():
    """The 18 trajectories of one round of the benchmark's peak sweep."""
    return [out.trajectory for hist in peak_histories() for out in peak_run(hist)]


def unpruned_last_time_above(traj, level):
    """`Trajectory.last_time_above` with no segment or component pruned."""
    ts, ys, qs = traj.ts, traj.ys, traj.qs
    for i in range(len(ts) - 2, -1, -1):
        ths = [_last_above(c, float(level)) for c in components(ys[i], qs[i])]
        th = max([th for th in ths if th is not None], default=None)
        if th is not None:
            return min(float(ts[i] + th * (ts[i + 1] - ts[i])), float(ts[i + 1]))
    return traj.t_start


@pytest.fixture(scope="module")
def cascade_traj():
    # a cascade run on which 9-point sampling of partial segments read the
    # sup of some windows 5.1e-7 (relative) below dense sampling
    hist = HistoryFn.constant(np.array([0.9, 2.0, -1.0]), 1.0)
    out = integrate(cascade_system(1.0), hist, None, 10.0)
    assert not out.escaped
    return out.trajectory


def append(traj, t, y, q):
    """Add the node (t, y) and the segment ending there to traj, as the step
    loop does: q is 4 * dim floats, q0 of every component first."""
    traj._t.append(t)
    traj._y.extend(y)
    traj._q.extend(q)


def bumps():
    """Two quartic segments, exact in floating point: component 0 is
    8th(1 - th) on [0, 1] (peak 2) and 4th(1 - th) on [1, 2] (peak 1);
    component 1 is -6th(1 - th) on [0, 1] and 0 on [1, 2]. A segment's
    coefficients go in as q0, q1, q2, q3 in turn, each (component 0, component 1)."""
    traj = Trajectory(0.0, [0.0, 0.0])
    append(traj, 1.0, [0.0, 0.0], [8.0, -6.0, -8.0, 6.0, 0.0, 0.0, 0.0, 0.0])
    append(traj, 2.0, [0.0, 0.0], [4.0, 0.0, -4.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    return traj


class TestExactSuprema:
    def test_dense_norms_is_eval(self, cascade_traj):
        ts = np.concatenate([np.linspace(0.0, 10.0, 301), cascade_traj.ts[::7]])
        for t, v in zip(ts, dense_norms(cascade_traj, ts)):
            assert float(np.abs(cascade_traj.eval(t)).max()) == v

    def test_random_windows_dominate_dense_sampling(self, cascade_traj):
        rng = np.random.default_rng(0)
        for _ in range(200):
            lo, hi = np.sort(rng.uniform(0.0, 10.0, 2))
            dense = dense_norms(cascade_traj, np.linspace(lo, hi, 4001)).max()
            assert cascade_traj.sup_norm(lo, hi) >= dense

    @pytest.mark.parametrize("which", ["cascade"] + [f"peak{k}" for k in range(18)])
    def test_whole_segment_windows_match_unpruned_search(self, which, cascade_traj, peak_trajs):
        # the sup over whole segments, and the last time above levels up to
        # the sup and at node and segment sups, against the search that
        # prunes nothing, and each segment's sup against np.roots' critical
        # points: the cascade run, and the 18 runs of a peak round
        traj = cascade_traj if which == "cascade" else peak_trajs[int(which[4:])]
        n = len(traj.ts)
        rng = np.random.default_rng(1)
        pairs = [(0, n - 1)] + [tuple(sorted(rng.choice(n, 2, replace=False))) for _ in range(40)]
        segs = [float(segment_sup(traj.ys[k], traj.qs[k])) for k in range(n - 1)]
        for k in range(n - 1):  # no turn that np.roots finds is missed
            ref, margin = roots_sup(traj.ys[k], traj.qs[k])
            assert traj.sup_norm(float(traj.ts[k]), float(traj.ts[k + 1])) >= ref - margin, k
        for i, j in pairs:
            ref = max(float(np.abs(traj.ys[i : j + 1]).max()), *segs[i:j])
            assert traj.sup_norm(float(traj.ts[i]), float(traj.ts[j])) == ref
        top = max(segs)
        levels = [*(top * rng.uniform(0.0, 1.0, 6)), top, *rng.choice(segs, 3),
                  *np.abs(traj.ys[rng.choice(n, 3)]).max(axis=1)]
        for level in levels:
            assert f64(traj.last_time_above(level)) == f64(unpruned_last_time_above(traj, level)), level

    def test_nan_window_end_or_level_is_rejected(self):
        # each of these read a NaN as a number: nan, 0.625 and "never above"
        hist = HistoryFn.constant(np.array([0.9, 2.0, -1.0]), 1.0)
        traj = integrate(cascade_system(1.0), hist, None, 3.0).trajectory
        for lo, hi in ((math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan)):
            with pytest.raises(ValueError, match="nan"):
                traj.sup_norm(lo, hi)
        with pytest.raises(ValueError, match="nan"):
            traj.last_time_above(math.nan)

    def test_point_and_clipped_windows(self, cascade_traj):
        traj = cascade_traj
        t = 3.3
        assert traj.sup_norm(t, t) == float(np.abs(traj.eval(t)).max())
        assert traj.sup_norm(-5.0, 50.0) == traj.sup_norm(0.0, 10.0)
        with pytest.raises(SpanTooShort):
            traj.sup_norm(11.0, 12.0)

    def test_last_time_above_on_random_levels(self, cascade_traj):
        traj = cascade_traj
        floor = float(np.abs(traj.ys[-1]).max())
        rng = np.random.default_rng(2)
        for level in floor + (traj.sup_norm(0.0, 10.0) - floor) * rng.uniform(0.01, 0.99, 20):
            t_star = traj.last_time_above(level)
            assert float(np.abs(traj.eval(t_star)).max()) == pytest.approx(level, rel=1e-12)
            assert dense_norms(traj, np.linspace(t_star, 10.0, 4001)[1:]).max() <= level

    def test_crossing_in_final_segment(self):
        out = integrate(decay_system(), np.array([1.0]), None, 5.0)
        traj = out.trajectory
        t_mid = 0.5 * (traj.ts[-2] + traj.ts[-1])
        level = float(traj.eval(t_mid)[0])
        t_star = traj.last_time_above(level)
        assert traj.ts[-2] < t_star < traj.ts[-1]
        assert t_star == pytest.approx(t_mid, rel=1e-12)
        assert traj.last_time_above(0.5 * float(traj.ys[-1][0])) == traj.t_end

    def test_level_never_reached(self, cascade_traj):
        assert cascade_traj.last_time_above(cascade_traj.sup_norm(0.0, 10.0)) == cascade_traj.t_start
        assert cascade_traj.last_time_above(1e3) == cascade_traj.t_start

    def test_level_at_interior_local_maximum(self):
        traj = bumps()
        assert traj.sup_norm(0.0, 2.0) == 2.0
        assert traj.sup_norm(1.0, 2.0) == 1.0
        assert traj.sup_norm(0.1, 0.4) == pytest.approx(8.0 * 0.4 * 0.6, rel=1e-15)
        # the bump on [1, 2] only touches 1: the answer is the way down from 2
        t_star = traj.last_time_above(1.0)
        assert t_star == pytest.approx((1.0 + math.sqrt(0.5)) / 2.0, rel=1e-15)
        assert float(np.abs(traj.eval(t_star)).max()) == pytest.approx(1.0, rel=1e-12)
        assert dense_norms(traj, np.linspace(t_star, 2.0, 4001)[1:]).max() <= 1.0
        assert traj.last_time_above(0.5) == pytest.approx(1.0 + (1.0 + math.sqrt(0.5)) / 2.0, rel=1e-15)
        assert traj.last_time_above(2.0) == 0.0


def exact_value(c, th):
    """y0 + q0 th + ... + q3 th^4 at the float th, c = [y0, q0, q1, q2, q3], exactly."""
    return sum(Fraction(x) * Fraction(th) ** k for k, x in enumerate(c))


class TestExactCrossings:
    """A segment's last float above a level (`_last_above`) is exact: some
    component's quartic exceeds the level there in exact arithmetic, and
    none does at the float after it or at any float tried past it. Checked
    on every segment whose bound beats the level, of 60 feed runs, and on
    quartics built to touch the level from below or to cross it. The turns
    it reads (`_turns`) enclose every sign change of the derivative."""

    @staticmethod
    def check(c, level, rng):
        th = _last_above(c, level)
        above = [abs(exact_value(c, x)) > Fraction(level) for x in ([] if th is None else [th])]
        later = [1.0] if th is None else [math.nextafter(th, 2.0), 1.0] if th < 1.0 else []
        later += [] if th is None or th == 1.0 else (th + (1.0 - th) * rng.uniform(size=20)).tolist()
        later += rng.uniform(size=20).tolist() + [0.0] if th is None else []
        assert all(above), (c, level, th)
        assert not any(abs(exact_value(c, x)) > Fraction(level) for x in later if x > (th or -1.0)), (c, level, th)
        return th

    def test_feed_runs(self):
        rng = np.random.default_rng(61)
        for j in range(60):
            hist = random_history(rng, (1.0, 10.0, 100.0)[j % 3] * rng.uniform(0.3, 1.0), DEFAULT_DELAY, 3)
            traj = probes._feed_run(hist, DEFAULT_DELAY, 4.0 * DEFAULT_DELAY, PROBE_OPTS)
            bounds = _bounds(traj.ys[:-1], traj.qs)
            for level in (0.1, 1.0, float(np.abs(traj.ys[-1]).max()), float(np.abs(traj.ys[len(traj.ys) // 2]).max())):
                for i in np.flatnonzero(bounds.max(axis=1) > level)[-6:]:
                    for c, cut in zip(components(traj.ys[i], traj.qs[i]), bounds[i]):
                        if cut > level:
                            self.check(c, level, rng)

    def test_tangencies_and_crossings(self):
        # level - k (th - r)^2 touches the level at r; nudged up by an ulp it
        # crosses it twice; a line through the level crosses it once
        rng = np.random.default_rng(62)
        seen = set()
        for _ in range(300):
            r, k, level = rng.uniform(0.0, 1.0), 10.0 ** rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-2.0, 2.0)
            touch = [level - k * r * r, 2.0 * k * r, -k, 0.0, 0.0]
            for c in (touch, [math.nextafter(touch[0], math.inf), *touch[1:]], [-x for x in touch],
                      [level * (1.0 + r), -level * 2.0 * r, 0.0, 0.0, 0.0]):
                seen.add(self.check(c, level, rng) is None)
        assert seen == {True, False}

    def test_turns_enclose_every_sign_change(self):
        # p' = 12 (th - 1/4)(th - 1/2)(th - 3/4) changes sign at the midpoint
        # where de Casteljau splits [0, 1]; the second quartic's p'(1) is
        # +2^-52 and rounds to -2^-52, so p' changes sign just below 1
        def slope(c, x):
            return sum(k * Fraction(v) * Fraction(x) ** (k - 1) for k, v in enumerate(c) if k)

        for c, roots in (([0.0, -1.125, 4.125, -6.0, 3.0], [0.25, 0.5, 0.75]),
                         ([0.0, -0.8695738650778122, -0.8338922646113007, 0.9908978778931521, -0.1088338098447606],
                          None)):
            turns = _turns(c, 0.0, 1.0)
            pairs = list(zip(turns[::2], turns[1::2]))
            assert all(h in (l, math.nextafter(l, 2.0)) for l, h in pairs), pairs
            if roots:
                assert all(any(l <= r <= h for l, h in pairs) for r in roots), pairs
            else:
                assert len(pairs) == 1 and slope(c, pairs[0][0]) * slope(c, pairs[0][1]) <= 0, pairs

    def test_a_root_near_zero_takes_at_most_64_halvings(self, monkeypatch):
        # th - 1e-300 and p' = th - 1e-300: halving [0, 1] by value would walk
        # down some thousand binades to 1e-300, halving its bit patterns at
        # most 64 times; p' = 1.5e-300 - 1.5 th + 3 th^2, with a root just
        # above 1e-300 and one just below 1/2, is split once first
        r, calls, poly = 1e-300, [], integrator._poly

        def counted(*args):
            value = poly(*args)
            return lambda th, at=0.0: calls.append(th) or value(th, at)

        def slope(c, x):
            return sum(k * Fraction(v) * Fraction(x) ** (k - 1) for k, v in enumerate(c) if k)

        assert _last(counted([-r, 1.0, 0.0, 0.0, 0.0]), -1, 0.0, 0.0, 1.0) == (math.nextafter(r, 0.0), r)
        assert 0 < len(calls) <= 64
        monkeypatch.setattr(integrator, "_poly", counted)
        for c, n in (([0.0, -r, 0.5, 0.0, 0.0], 1), ([0.0, 1.5 * r, -0.75, 1.0, 0.0], 2)):
            calls.clear()
            turns = _turns(c, 0.0, 1.0)
            pairs = list(zip(turns[::2], turns[1::2]))
            assert len(pairs) == n and r / 2.0 < pairs[0][0] < 2.0 * r, pairs
            assert all(h == math.nextafter(l, 2.0) and slope(c, l) * slope(c, h) <= 0 for l, h in pairs), pairs
            assert 0 < len(calls) <= 3 * 64

    @pytest.mark.parametrize("q3", [5e-324, -5e-324])
    def test_subnormal_leading_coefficient(self, q3):
        # 4 th (1 - th) + q3 th^4 peaks at 1, above the nodes, so its segment is
        # searched: np.roots raised LinAlgError on its derivative
        traj = Trajectory(0.0, [0.0])
        append(traj, 1.0, [0.0], [4.0, -4.0, 0.0, q3])
        assert _bounds(traj.ys[:-1], traj.qs)[0, 0] > 1.0
        assert traj.sup_norm(0.0, 1.0) == 1.0
        assert traj.last_time_above(0.5) == pytest.approx((1.0 + math.sqrt(0.5)) / 2.0, rel=1e-15)
        # exactly, p(1/2) = 1 + q3 / 16: above 1 at th = 1/2 alone when q3 > 0
        assert traj.last_time_above(1.0) == (0.5 if q3 > 0.0 else 0.0)


class TestWalkedLastTime:
    """`last_time_above` walked back from the run's end is the full-array
    search (`suprema_ref`) bit for bit, mid-run as the settle probe asks and on
    frozen runs: at the level asked, at ten times it and at node values."""

    CELLS = ((1.0, 0.1), (1.0, 1.0), (10.0, 0.1), (10.0, 1.0), (100.0, 0.1), (100.0, 1.0))

    @staticmethod
    def levels(traj, level, rng):
        n = len(traj._t)
        nodes = np.abs(np.frombuffer(traj._y).reshape(n, -1)[rng.choice(n, 3)]).max(axis=1)
        return [level, 10.0 * level, *nodes.tolist()]

    def test_reach_time_draws(self, monkeypatch):
        walked, seen, rng = Trajectory.last_time_above, [], np.random.default_rng(3)

        def both(traj, level):
            for lv in self.levels(traj, level, rng):
                seen.append((lv, f64(walked(traj, lv)), f64(suprema_ref.last_time_above(traj, lv))))
            return walked(traj, level)

        monkeypatch.setattr(Trajectory, "last_time_above", both)
        for seed in (0, 1, 2):
            for r, eps in self.CELLS:
                probes.uga_table([r], [eps], n_samples=1, seed=seed)
        assert len(seen) >= 18 * 5
        assert [s[1] for s in seen] == [s[2] for s in seen]

    def test_feed_runs(self):
        rng = np.random.default_rng(60)
        for j in range(60):
            hist = random_history(rng, (1.0, 10.0, 100.0)[j % 3] * rng.uniform(0.3, 1.0), DEFAULT_DELAY, 3)
            traj = probes._feed_run(hist, DEFAULT_DELAY, 4.0 * DEFAULT_DELAY, PROBE_OPTS)
            for level in (0.1, 1.0, *self.levels(traj, float(np.abs(traj.ys[-1]).max()), rng)):
                assert f64(traj.last_time_above(level)) == f64(suprema_ref.last_time_above(traj, level)), (j, level)


def traj_bytes(traj):
    return traj.ts.tobytes(), traj.ys.tobytes(), traj.qs.tobytes()


def rotating_rhs(t, y):
    c = 1.0 + 0.1 * math.sin(t)
    return [-y[1] * c, y[0] * c]


# Dormand-Prince 5(4), written out here independently of the module: the
# nodes, the rows of A (row 6 holds the 5th-order weights), the 4th-order
# weights and the coefficients of the continuous extension (row j, power m+1)
DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
DP_BSTAR = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)
DP_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)


def ordered_sum(coefs, ks, i):
    """sum_j coefs[j] * ks[j][i] over the nonzero coefs, added left to right."""
    acc = None
    for c, k in zip(coefs, ks):
        if c != 0.0:
            acc = c * k[i] if acc is None else acc + c * k[i]
    return acc


def f64(x):
    return np.float64(x).tobytes()


def table_rhs(ks, calls):
    """An rhs that hands out the stages ks in turn and records its (t, x)."""
    feed = iter(ks)

    def rhs(t, x):
        calls.append((t, x))
        return list(next(feed))

    return rhs


def ordered_attempt(y, ks, t, h, atol, rtol):
    """The six stage arguments of one attempt on the stages ks (the last is
    y_new) and each component's scaled error, per component in stage order."""
    dim = len(y)
    args = [[y[i] + h * ordered_sum(row, ks, i) for i in range(dim)] for row in DP_A[1:]]
    e = [b - bs for b, bs in zip(DP_A[6] + (0.0,), DP_BSTAR)]
    rs = [h * ordered_sum(e, ks, i) / (atol + rtol * max(abs(args[-1][i]), abs(y[i]))) for i in range(dim)]
    return args, rs


def added_squares(rs):
    sq = 0.0
    for r in rs:
        sq += r * r
    return sq


def record_returns(st):
    """Wrap the step loop of Stepper st: the list returned gets what each
    call of it returns, (reason, h, norm_new, sq) of its last attempt."""
    out, steps = [], st._steps

    def recorded(*args):
        out.append(steps(*args))
        return out[-1]

    st._steps = recorded
    return out


class TestStepperArithmetic:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_step_is_the_ordered_tableau_sum(self, dim):
        # one accepted step of a seeded random linear field, against DP5(4)
        # evaluated per component in Python floats in stage order
        rng = np.random.default_rng(dim)
        m, v, y = rng.normal(size=(dim, dim)), rng.normal(size=dim), rng.normal(size=dim).tolist()

        def rhs(t, x):
            return (m @ np.array(x) + t * v).tolist()

        opts, t, h = IntegratorOptions(), 0.25, 1e-2
        st = Stepper(rhs, t, np.array(y), opts)
        st.h = h
        st.advance(1.0, until=t)
        assert st.escape_info is None
        assert st.nsteps == 1

        ks = [rhs(t, y)]
        for c, row in zip(DP_C[1:], DP_A[1:]):
            arg = [y[i] + h * ordered_sum(row, ks, i) for i in range(dim)]
            ks.append(rhs(t + c * h, arg))
        y_new = arg
        e = [b - bs for b, bs in zip(DP_A[6] + (0.0,), DP_BSTAR)]
        sq = 0.0
        for i in range(dim):
            scale = opts.abs_tol + opts.rel_tol * max(abs(y_new[i]), abs(y[i]))
            r = h * ordered_sum(e, ks, i) / scale
            sq += r * r
        err = math.sqrt(sq / dim)
        assert 0.0 < err <= 1.0
        q = [[h * ordered_sum([row[col] for row in DP_P], ks, i) for i in range(dim)] for col in range(4)]

        assert st.t == st.traj.ts[1] == t + h
        # bytes, not float ==, which would let -0.0 stand for 0.0
        assert st.traj.ys[1].tobytes() == np.array(y_new).tobytes()
        assert st.traj.qs[0].tobytes() == np.array(q).tobytes()
        assert float_list_bytes(st.slope) == np.array(ks[6]).tobytes()
        assert st.h == max(h * min(5.0, max(0.2, 0.9 * err ** -0.2)), opts.h_min)
        # the tableau as matrix products, summed in numpy's order: equal to
        # within a few ulps of the state
        k = np.array(ks)
        ulps = 8.0 * np.finfo(float).eps * max(1.0, np.abs(y_new).max())
        assert np.abs(st.traj.ys[1] - (np.array(y) + h * (np.array(DP_A[6]) @ k[:6]))).max() <= ulps
        assert np.abs(st.traj.qs[0] - h * (np.array(DP_P).T @ k)).max() <= ulps

    def test_dense_output_of_many_steps_is_the_ordered_tableau_sum(self):
        # the coefficients of every segment, in the stored (n_seg, 4, dim)
        # layout, against the per-component sums in stage order. The stages
        # of a smooth field nearly agree, and then a reassociated sum often
        # rounds the same; this field's stages are far apart, and the loose
        # tolerance accepts every step
        rng = np.random.default_rng(7)
        dim = 3
        m, v = rng.normal(size=(dim, dim)), rng.normal(size=dim)

        def rhs(t, x):
            return np.sin(50.0 * (m @ np.array(x)) + 30.0 * t * v).tolist()

        st = Stepper(rhs, 0.0, rng.normal(size=dim), IntegratorOptions(rel_tol=1.0, abs_tol=1e6))
        for _ in range(300):
            t, y, h = st.t, st.y, 10.0 ** rng.uniform(-4.0, -2.0)
            st.h, nsteps = h, st.nsteps
            st.advance(100.0, until=t)
            assert st.nsteps == nsteps + 1 and st.t == t + h
            ks = [rhs(t, y)]
            for c, row in zip(DP_C[1:], DP_A[1:]):
                ks.append(rhs(t + c * h, [y[i] + h * ordered_sum(row, ks, i) for i in range(dim)]))
            q = [[h * ordered_sum([row[col] for row in DP_P], ks, i) for i in range(dim)] for col in range(4)]
            assert st.traj.qs[-1].tobytes() == np.array(q).tobytes()

    @staticmethod
    def set_negative_zero(y, ks):
        # component 1 of the state is -0.0, and of each stage -0.0 where its
        # 5th-order weight is positive, +0.0 where it is not: every term of
        # y_new's sum is -0.0, so y_new keeps the sign
        y[1] = -0.0
        for k, b in zip(ks, DP_A[6]):
            k[1] = -0.0 if b > 0.0 else 0.0

    @pytest.mark.parametrize("stage, comp, value", [
        (3, 1, math.nan),  # not first: max() skips it, the error norm does not
        (2, 0, math.nan),  # first: max() returns it
        (5, 2, math.inf),  # inf / inf in the scaled error
        (6, 0, -math.inf),  # the last stage enters the error alone
        (None, None, None),  # -0.0 in the state and the stages of component 1
    ], ids=["nan_second", "nan_first", "inf", "minus_inf_last_stage", "negative_zero"])
    def test_special_stage_values_are_the_ordered_reference(self, stage, comp, value):
        # one attempt of Stepper.advance whose rhs hands out a table of
        # stages, one a special value, against the ordered per-component
        # reference: the stage arguments (the last is y_new), norm_new and sq
        # bit for bit, and the verdict: a bad attempt is rejected with h cut
        # tenfold, the rest accepted
        rng = np.random.default_rng(24)
        dim, t, h = 3, 0.5, 1e-3
        y = rng.normal(size=dim).tolist()
        ks = rng.normal(size=(7, dim)).tolist()
        if stage is None:
            self.set_negative_zero(y, ks)
        else:
            ks[stage][comp] = value
        calls = []
        st = Stepper(table_rhs(ks, calls), t, np.array(y), IntegratorOptions(rel_tol=1.0, abs_tol=1.0, max_steps=1))
        st.h = h
        returns = record_returns(st)
        bad = stage is not None
        if bad:
            with pytest.raises(MaxStepsExceeded):
                st.advance(1.0)
            assert (len(st.traj.ts), st.h) == (1, h * 0.1)
        else:
            st.advance(1.0, until=t)
        (reason, h_tried, norm_new, sq), = returns
        assert (reason, h_tried) == ("max_steps" if bad else None, h)

        args, rs = ordered_attempt(y, ks, t, h, 1.0, 1.0)
        calls = calls[1:]  # the first is the slope at (t, y), from the constructor
        assert [c[0] for c in calls] == [t + c * h for c in DP_C[1:]]
        assert np.array([c[1] for c in calls]).tobytes() == np.array(args).tobytes()
        norm_ref = max([abs(v) for v in args[-1]])
        assert (f64(norm_new), f64(sq)) == (f64(norm_ref), f64(added_squares(rs)))
        assert bad == (not (math.isfinite(math.sqrt(sq / dim)) and math.isfinite(norm_new)))
        assert (math.isnan(norm_new), math.isnan(sq)) == (comp == 0 and stage == 2, stage in (2, 3, 5))
        if not bad:
            # the stages the rhs handed out make the node, its segment and the slope
            q = [[h * ordered_sum([row[col] for row in DP_P], ks, i) for i in range(dim)] for col in range(4)]
            assert st.traj.ys[1].tobytes() == np.array(args[-1]).tobytes()
            assert f64(st.traj.ys[1][1]) == f64(-0.0)
            assert st.traj.qs[0].tobytes() == np.array(q).tobytes()
            assert float_list_bytes(st.slope) == np.array(ks[6]).tobytes()

    def test_squared_errors_are_added_in_component_order(self):
        # every component is component 0 scaled by f, f^2 = 0.9 * 2^-54, in its
        # stages, so in its scaled error nearly so: each later square is under
        # half an ulp of the sum so far and leaves it as it is, while the four
        # added first would round it up
        rng = np.random.default_rng(5)
        dim, t, h, f = 5, 0.5, 1e-3, math.sqrt(0.9 * 2.0 ** -54)
        y = [rng.normal()] * dim
        ks = [[k] + [f * k] * (dim - 1) for k in rng.normal(size=7).tolist()]
        st = Stepper(table_rhs(ks, []), t, np.array(y), IntegratorOptions(rel_tol=1.0, abs_tol=1.0, max_steps=1))
        st.h = h
        returns = record_returns(st)
        st.advance(1.0, until=t)
        (reason, _, _, sq), = returns
        _, rs = ordered_attempt(y, ks, t, h, 1.0, 1.0)
        assert reason is None and len(st.traj.ts) == 2
        assert f64(sq) == f64(added_squares(rs))
        assert added_squares(rs) != added_squares(rs[::-1])

    @pytest.mark.parametrize("returned", [1, 3])
    def test_rhs_of_the_wrong_length_is_rejected(self, returned):
        def rhs(t, y):
            return [-1.0] * returned

        match = f"rhs returned {returned} components for a state of 2"
        with pytest.raises(ValueError, match=match):
            Stepper(rhs, 0.0, np.array([1.0, 0.5]), IntegratorOptions())
        st = Stepper(rotating_rhs, 0.0, np.array([1.0, 0.5]), IntegratorOptions())
        st.rhs = rhs
        with pytest.raises(ValueError, match=match):
            st.invalidate_rhs_cache()
        sys = DiscreteDelaySystem(dim=2, input_dim=0, delays=(), rhs=lambda y, d, u: rhs(0.0, y))
        with pytest.raises(ValueError, match=match):
            integrate(sys, np.array([1.0, 0.5]), None, 1.0)


def array_interp(traj, t):
    """Trajectory._interp as numpy arithmetic on the segment's arrays."""
    if len(traj.ts) == 1:
        return traj.ys[0]
    i = traj._segment(t)
    if t == traj.ts[i + 1]:
        return traj.ys[i + 1]
    th, y0, q = (t - traj.ts[i]) / (traj.ts[i + 1] - traj.ts[i]), traj.ys[i], traj.qs[i]
    return y0 + th * (q[0] + th * (q[1] + th * (q[2] + th * q[3])))


def is_float_list(v):
    return type(v) is list and all(type(x) is float for x in v)


def float_list_bytes(v):
    """The bytes of v, which must be a list of floats: -0.0 and each NaN
    payload told apart, as float == does not."""
    assert is_float_list(v)
    return np.array(v).tobytes()


class TestFloatContract:
    """The stage loop passes lists of Python floats to the rhs and back; these
    pins keep ndarrays and numpy scalars out of it, and keep the float
    arithmetic bit for bit the array arithmetic it replaced."""

    def test_rhs_return_lists_of_floats(self):
        rng = np.random.default_rng(4)
        g = planar_rhs()
        planar, casc, assoc = planar_system(), cascade_system(1.0), associated_system()
        for _ in range(50):
            y = rng.uniform(-3.0, 3.0, size=3).tolist()
            w = rng.uniform(-1.0, 2.0, size=1)
            # pieces hand over lists, constant pieces and dense output ndarrays
            for u in (w.tolist(), w):
                assert is_float_list(g(y[1:], u[0]))
                assert is_float_list(planar.rhs(y[1:], (), u))
                assert is_float_list(casc.rhs(y, (u,), None))
                assert is_float_list(assoc.rhs(y, (), u))

    def test_interp_is_the_array_formula_bit_for_bit(self):
        rng = np.random.default_rng(6)
        n = 0
        for dim in (1, 2, 3):
            for _ in range(4):
                m = 834
                scale = 10.0 ** rng.uniform(-3.0, 3.0, size=(m + 1, dim))
                ys = rng.normal(size=(m + 1, dim)) * scale
                ys[rng.random(size=ys.shape) < 0.05] = -0.0
                traj = Trajectory(0.0, ys[0])
                t = 0.0
                for k in range(m):
                    t += 10.0 ** rng.uniform(-6.0, 0.0)
                    append(traj, t, ys[k + 1].tolist(), (rng.normal(size=(4, dim)) * scale[k]).ravel().tolist())
                ts = traj.ts
                # theta = 0 at each node, the last node itself, and one random
                # instant inside every segment
                for t in ts.tolist() + rng.uniform(ts[:-1], ts[1:]).tolist():
                    assert float_list_bytes(traj._interp(t)) == array_interp(traj, t).tobytes(), t
                n += m
        assert n >= 10_000
        single = Trajectory(1.0, np.array([-0.0, 2.0]))
        for t in (0.0, 1.0, 3.0):
            assert float_list_bytes(single._interp(t)) == array_interp(single, t).tobytes()

    def test_exponential_tail_is_the_array_formula_bit_for_bit(self):
        rng = np.random.default_rng(8)
        for _ in range(2_000):
            value = rng.normal(size=int(rng.integers(1, 4))) * 10.0 ** rng.uniform(-3.0, 3.0)
            rate, start = rng.uniform(-0.5, 3.0), rng.uniform(0.0, 3.0)
            sig = ExponentialTail(value, rate, start)
            lo = start + rng.uniform(0.0, 5.0)
            p = sig.piece(lo, lo + 10.0)
            for t in (lo + rng.uniform(0.0, 10.0, size=10)).tolist():
                out = p(t)
                assert is_float_list(out)
                # one factor from math.exp, which rounds the same at every SIMD level numpy dispatches to
                assert np.array(out).tobytes() == (value * math.exp(-rate * (t - start))).tobytes()


class TestSoftStop:
    def test_chunked_advance_equals_one_advance(self):
        opts = IntegratorOptions()
        whole = Stepper(rotating_rhs, 0.0, np.array([1.0, 0.0]), opts)
        chunked = Stepper(rotating_rhs, 0.0, np.array([1.0, 0.0]), opts)
        soft = 0
        for target in (1.0, 2.5, 6.0):
            whole.advance(target)
            assert whole.escape_info is None
            until = chunked.t + 0.3
            while chunked.t != target:
                chunked.advance(target, until=until)
                assert chunked.escape_info is None
                if chunked.t != target:
                    # a soft stop returns at the end of the first step past until
                    assert chunked.t == chunked.traj.ts[-1] >= until > chunked.traj.ts[-2]
                    soft += 1
                    until = chunked.t + 0.3
        assert soft > 10
        assert chunked.nsteps == whole.nsteps
        assert chunked.h == whole.h and float_list_bytes(chunked.y) == float_list_bytes(whole.y)
        assert float_list_bytes(chunked.slope) == float_list_bytes(whole.slope)
        assert traj_bytes(chunked.outcome().trajectory) == traj_bytes(whole.outcome().trajectory)

    def test_stop_that_never_fires_changes_no_byte(self):
        hist = HistoryFn.constant(np.array([1.0]), 1.0)
        seen = []

        def never(traj, t):
            seen.append((t, traj.t_end))
            return False

        plain = integrate(delayed_unit_system(), hist, None, 9.5)
        watched = integrate(delayed_unit_system(), hist, None, 9.5, stop=(1.0, never))
        assert traj_bytes(watched.trajectory) == traj_bytes(plain.trajectory)
        # asked at the first step at or past 1, then once per 1 of progress
        ts = [t for t, _ in seen]
        assert ts[0] >= 1.0 and len(ts) >= 8
        assert all(b >= a + 1.0 for a, b in zip(ts, ts[1:]))
        assert all(t == pytest.approx(t_end, abs=1e-12) for t, t_end in seen)

    def test_stopped_run_is_a_byte_prefix_of_the_full_run(self):
        hist = HistoryFn.constant(np.array([1.0]), 1.0)
        full = integrate(delayed_unit_system(), hist, None, 9.5).trajectory
        stopped = integrate(delayed_unit_system(), hist, None, 9.5, stop=(1.0, lambda traj, t: t >= 4.2))
        assert not stopped.escaped
        traj = stopped.trajectory
        n = len(traj.ts)
        assert 4.2 <= traj.t_end < 9.5
        assert traj_bytes(traj) == (full.ts[:n].tobytes(), full.ys[:n].tobytes(), full.qs[: n - 1].tobytes())

    def test_nondelayed_stop_asked_once_per_cadence(self):
        # a system with no delay still gets the cadence it is given, not one
        # question per accepted step
        rot = DiscreteDelaySystem(
            dim=2, input_dim=0, delays=(), rhs=lambda y, d, u: 10.0 * np.array([-y[1], y[0]]),
        )
        seen = []

        def never(traj, t):
            seen.append(t)
            return False

        out = integrate(rot, np.array([1.0, 0.0]), None, 10.0, stop=(1.0, never))
        steps = np.diff(out.trajectory.ts)
        assert len(steps) > 100
        assert seen[0] >= 1.0
        assert all(b >= a + 1.0 for a, b in zip(seen, seen[1:]))
        assert int(10.0 / (1.0 + steps.max())) <= len(seen) <= 10

    @pytest.mark.parametrize("every", [0.0, -1.0, math.nan])
    def test_cadence_must_be_positive(self, every):
        with pytest.raises(ValueError, match="cadence"):
            integrate(decay_system(), np.array([1.0]), None, 1.0, stop=(every, lambda traj, t: False))


class TestRewind:
    def test_rewind_restores_the_previous_node_bit_for_bit(self):
        st = Stepper(rotating_rhs, 0.0, np.array([1.0, 0.0]), IntegratorOptions())
        st.advance(1.0)
        assert st.escape_info is None
        target, rewound = 2.0, 0
        while st.t != target:
            before = (st.t, float_list_bytes(st.y), len(st.traj.ts), float_list_bytes(st.slope))
            # one accepted step: the soft stop fires at the end of the first one
            st.advance(target, until=st.t)
            assert st.escape_info is None
            dropped = traj_bytes(st.traj)
            at_end = st.t == target
            st.rewind()
            assert (st.t, float_list_bytes(st.y), len(st.traj.ts), float_list_bytes(st.slope)) == before
            if at_end:
                # the step to a forced boundary is taken again byte for byte
                st.advance(target)
                assert st.escape_info is None
                assert traj_bytes(st.traj) == dropped
            else:
                st.advance(target, until=st.t)
                assert st.escape_info is None
            rewound += 1
        assert rewound > 5

    def test_rewind_drops_an_escape_found_in_the_last_step(self):
        st = Stepper(lambda t, y: [1.0 + v * v for v in y], 0.0, np.array([0.0]), IntegratorOptions())
        st.advance(2.0)
        assert st.escape_info is not None
        n, t_escape = len(st.traj.ts), st.escape_info[0]
        st.rewind()
        assert st.escape_info is None and len(st.traj.ts) == n - 1
        assert st.t == st.traj.ts[-1] < t_escape
        assert float_list_bytes(st.y) == st.traj.ys[-1].tobytes()
        # a boundary before the escape is reached without escaping
        st.advance(0.5 * (st.t + t_escape))
        assert st.escape_info is None

    def test_nothing_to_rewind_at_the_start(self):
        st = Stepper(rotating_rhs, 0.0, np.array([1.0, 0.0]), IntegratorOptions())
        with pytest.raises(ValueError, match="no accepted step"):
            st.rewind()


def segment_reads(traj, i, rng):
    """Times that read segment i: both nodes, an ulp either side of each,
    and three interior points."""
    t0, t1 = traj.ts[i : i + 2].tolist()
    ends = [t for e in (t0, t1) for t in (math.nextafter(e, -math.inf), e, math.nextafter(e, math.inf))]
    return ends + rng.uniform(t0, t1, size=3).tolist()


class TestTailRead:
    """`_interp` reads the last segment mid-run from the floats `_append`
    kept, the arrays from the same floats: the bytes must be the arrays'
    bytes, and a dropped step must never be read."""

    def test_last_segment_reads_as_the_arrays(self):
        rng = np.random.default_rng(3)
        st = Stepper(rotating_rhs, 0.0, np.array([1.0, 0.0]), IntegratorOptions())
        soft = 0
        for target in (1.0, 2.5, 6.0):
            while st.t != target:
                st.advance(target, until=st.t + 0.2)
                traj = st.traj
                for t in segment_reads(traj, len(traj.ts) - 2, rng):
                    assert float_list_bytes(traj._interp(t)) == array_interp(traj, t).tobytes(), t
                soft += st.t != target
        assert soft > 10
        traj = st.outcome().trajectory
        for t in segment_reads(traj, len(traj.ts) - 2, rng):
            assert float_list_bytes(traj._interp(t)) == array_interp(traj, t).tobytes(), t

    def test_a_rewound_step_is_read_from_the_arrays(self):
        rng = np.random.default_rng(5)
        st = Stepper(rotating_rhs, 0.0, np.array([1.0, 0.0]), IntegratorOptions())
        st.advance(1.0)
        traj = st.traj
        for _ in range(20):
            st.advance(3.0, until=st.t)  # one accepted step
            assert st.escape_info is None
            t_dropped = st.t
            dropped = segment_reads(traj, len(traj.ts) - 2, rng)
            st.rewind()
            # the dropped step's times now extrapolate the segment before it
            for t in dropped + segment_reads(traj, len(traj.ts) - 2, rng):
                assert float_list_bytes(traj._interp(t)) == array_interp(traj, t).tobytes(), t
            # a node inside the dropped step, as a switch makes one
            st.advance(0.5 * (st.t + t_dropped))
            for t in dropped + segment_reads(traj, len(traj.ts) - 2, rng):
                assert float_list_bytes(traj._interp(t)) == array_interp(traj, t).tobytes(), t


class TestMidRunArrays:
    """`ts`, `ys` and `qs`, `sup_norm` and `last_time_above` read mid-run are
    those of the nodes the run holds at the time: rebuilt after a step is
    added or dropped, never left over from before."""

    @staticmethod
    def frozen(nodes):
        """A frozen trajectory of the (t, y, q) of each node, from copies."""
        (t0, y0, _), *rest = nodes
        traj = Trajectory(t0, list(y0))
        for t, y, q in rest:
            append(traj, t, list(y), list(q))
        return traj

    def check(self, traj, nodes, rng):
        ref = self.frozen(nodes)
        assert traj_bytes(traj) == traj_bytes(ref)
        t0, t1 = traj.t_start, traj.t_end
        for lo, hi in [(t0, t1)] + [sorted(rng.uniform(t0, t1, 2)) for _ in range(3)]:
            assert f64(traj.sup_norm(lo, hi)) == f64(ref.sup_norm(lo, hi))
        floor = float(np.abs(ref.ys[-1]).max())
        for level in floor + (ref.sup_norm(t0, t1) - floor) * rng.uniform(0.01, 1.01, 3):
            assert f64(traj.last_time_above(level)) == f64(ref.last_time_above(level))

    def test_arrays_follow_steps_soft_stops_and_rewinds(self):
        rng = np.random.default_rng(9)
        st = Stepper(rotating_rhs, 0.0, np.array([1.0, 0.0]), IntegratorOptions())
        traj = st.traj
        nodes = [(st.t, st.y, None)]
        rewinds = 0
        for k in range(60):
            st.advance(6.0, until=st.t)  # one accepted step
            assert st.escape_info is None
            nodes.append((st.t, st.y, traj._q[-8:].tolist()))  # the last segment's 4 * dim
            if k % 3:
                self.check(traj, nodes, rng)
            if k % 4 == 1:
                # drop the step, read or not, then a node inside it: as many
                # nodes as before the drop, the last one another
                t_dropped = nodes.pop()[0]
                st.rewind()
                if k % 8 == 1:
                    self.check(traj, nodes, rng)
                st.advance(0.5 * (st.t + t_dropped))
                assert st.t < t_dropped
                nodes.append((st.t, st.y, traj._q[-8:].tolist()))  # the last segment's 4 * dim
                self.check(traj, nodes, rng)
                rewinds += 1
        assert rewinds >= 10 and len(nodes) == 61
        self.check(st.outcome().trajectory, nodes, rng)


class TestDeterminism:
    def test_bitwise_repeatable(self):
        a = integrate(tan_system(), np.array([0.0]), None, 1.5)
        b = integrate(tan_system(), np.array([0.0]), None, 1.5)
        arrays_a = {k: v for k, v in vars(a.trajectory).items() if isinstance(v, np.ndarray)}
        arrays_b = {k: v for k, v in vars(b.trajectory).items() if isinstance(v, np.ndarray)}
        assert {"ts", "ys", "qs"} <= set(arrays_a) == set(arrays_b)
        for k, v in arrays_a.items():
            assert v.shape == arrays_b[k].shape
            assert v.tobytes() == arrays_b[k].tobytes()
        traj = a.trajectory
        assert len(traj.ts) == len(traj.ys) == len(traj.qs) + 1
        # frozen arrays own exactly their rows: no growth capacity left over
        for v in arrays_a.values():
            assert v.base is None


class TestFreshValues:
    """A value read from a stored solution is the caller's own array: writing
    to it leaves the trajectory or the history as it was."""

    def test_trajectory_nodes_read_from_the_arrays(self):
        st = Stepper(rotating_rhs, 0.0, np.array([1.0, 0.0]), IntegratorOptions())
        st.advance(3.0, until=0.0)
        st.advance(3.0, until=st.t)
        st.rewind()
        traj = st.outcome().trajectory
        before = traj_bytes(traj)
        for t, y in zip(traj.ts.tolist(), traj.ys):
            traj.eval(t)[:] = 7.0
            traj._interp(t)[:] = [7.0, 7.0]
            assert traj.eval(t).tobytes() == y.tobytes()
        assert traj_bytes(traj) == before

    def test_single_node_trajectory(self):
        traj = Trajectory(1.0, np.array([-0.0, 2.0]))
        before = traj_bytes(traj)
        traj.eval(1.0)[:] = 7.0
        assert traj_bytes(traj) == before

    def test_one_knot_history(self):
        h = HistoryFn.constant([1.0, 2.0], 0.0)
        h.eval(0.0)[0] = 9.0
        assert h.values.tolist() == [[1.0, 2.0]]
        assert h.eval(0.0).tolist() == [1.0, 2.0]


class TestFrozenLayout:
    def test_frozen_arrays_are_the_contiguous_nodes_and_coefficients(self):
        # the Stepper hands over flat floats; frozen, a trajectory holds exactly
        # the arrays ts, ys and qs, qs (n_seg, 4, dim), each its own, and its
        # float store is views of them: the floats are held once
        out = integrate(cascade_system(1.0), HistoryFn.constant([0.9, 2.0, -1.0], 1.0), None, 4.0)
        traj = out.trajectory
        arrays = {k: v for k, v in vars(traj).items() if isinstance(v, np.ndarray)}
        assert set(arrays) == {"ts", "ys", "qs"}
        n = len(traj.ts)
        assert traj.qs.shape == (n - 1, 4, 3) and traj.ys.shape == (n, 3)
        for v in arrays.values():
            assert v.base is None and v.flags.c_contiguous
        for store, v in zip((traj._t, traj._y, traj._q), (traj.ts, traj.ys, traj.qs)):
            assert np.shares_memory(np.asarray(store), v) and np.asarray(store).size == v.size

    def test_a_read_mid_run_keeps_nothing(self):
        # mid-run, ts, ys and qs are built from the stores at each read and
        # not kept, so no step has to drop them
        st = Stepper(rotating_rhs, 0.0, np.array([1.0, 0.0]), IntegratorOptions())
        st.advance(3.0, until=1.0)
        traj = st.traj
        n = len(traj.ts)
        assert traj.ts is not traj.ts and traj.qs.shape == (n - 1, 4, 2)
        st.advance(3.0, until=2.0)
        assert len(traj.ts) > n and not any(isinstance(v, np.ndarray) for v in vars(traj).values())


class TestHistoryFn:
    def test_constant(self):
        h = HistoryFn.constant(np.array([2.0, -1.0]), 1.5)
        assert np.array_equal(h.eval(-1.5), [2.0, -1.0])
        assert np.array_equal(h.eval(0.0), [2.0, -1.0])
        assert h.norm() == 2.0
        assert h.tau == 1.5

    def test_linear_interpolation_and_norm(self):
        h = HistoryFn(np.array([-1.0, 0.0]), np.array([[0.0], [4.0]]))
        assert h.eval(-0.5)[0] == pytest.approx(2.0)
        assert h.norm() == 4.0

    @pytest.mark.parametrize("knots, row, bad", [
        ([-1.0, 0.0], 0, math.nan),  # at -tau: the first slope is NaN
        ([-1.0, 0.0], 1, math.inf),  # at 0: read as a "threshold" escape at t = 0
        ([-math.inf, 0.0], None, None),
    ])
    def test_non_finite_data_rejected(self, knots, row, bad):
        vals = np.full((2, 3), 0.5)
        if row is not None:
            vals[row, 0] = bad
        with pytest.raises(ValueError, match="must be finite"):
            HistoryFn(knots, vals)

    @pytest.mark.parametrize("seed", range(8))
    def test_shifted_knots_are_forced_stops(self, seed):
        # between two forced stops a lookup at delay d on [0, d] is one
        # segment of the shifted history: its knots are stops, bit for bit
        rng = np.random.default_rng(seed)
        d = rng.uniform(0.5, 3.0)
        h = random_history(rng, 1.0, d, 3)
        T = 3.0 * d
        knots = h.shifted(d).knots
        inside = knots[(knots > 0.0) & (knots < T)].tolist()
        assert len(inside) == len(h.knots) - 1
        assert set(inside) <= set(_forced_stops(cascade_system(d), None, T, h))
        # within its 1e-9 slack a hair below -tau, eval is the first knot's value
        assert h.eval(np.nextafter(h.knots[0] - 1e-9, 0.0)).tobytes() == h.values[0].tobytes()

    def test_knots_an_ulp_apart_round_together_under_the_shift(self):
        # the later knot stays, as in the forced stops, and the run goes through
        h = HistoryFn([-1.0, -1e-17, 0.0], [[0.5, 0.1, 0.0], [0.2, 0.1, 0.0], [0.3, 0.1, 0.0]])
        s = h.shifted(1.0)
        assert s.knots.tolist() == [0.0, 1.0] and s.values[:, 0].tolist() == [0.5, 0.3]
        assert not integrate(cascade_system(1.0), h, None, 2.0).escaped


def line_bytes(line):
    return line.knots.tobytes(), line.values.tobytes(), line.dim, line._k, line._v


def numpy_saturation_stop_times(history, tau, T):
    """The saturation stops as numpy scalars computed them: the reference of
    `saturation_stop_times`' loop on floats."""
    knots, z, out = history.knots, history.values[:, 0], []
    for lv in (0.0, 1.0):
        d = z - lv
        for i in range(len(knots) - 1):
            if d[i] == 0.0:
                out.append(float(knots[i]))
            elif d[i] * d[i + 1] < 0.0:
                out.append(float(knots[i] + (knots[i + 1] - knots[i]) * d[i] / (d[i] - d[i + 1])))
    arr = np.asarray(out, dtype=float) + tau
    z0 = float(history.eval(0.0)[0])
    if z0 > 1.0:
        arr = np.append(arr, tau + math.log(z0))
    return np.unique(arr[(arr > 0.0) & (arr < T)])


class TestSetUpLines:
    """The lines a run sets up from its history are built without checks
    they pass by construction: the same bytes as the checked construction."""

    def test_shifted_and_the_feed_are_the_checked_lines(self):
        rng = np.random.default_rng(41)
        for j in range(300):
            d = rng.uniform(0.01, 5.0) * 10.0 ** rng.integers(-3, 3)
            h = random_history(rng, rng.uniform(0.1, 100.0), d if j % 2 else rng.uniform(0.1, 3.0), 1 + j % 3)
            k = h.knots + d
            keep = np.append(k[:-1] < k[1:], True)
            assert line_bytes(h.shifted(d)) == line_bytes(PiecewiseLinear(k[keep], h.values[keep])), j
            z = probes._exact_feed(h, d).first
            assert line_bytes(z) == line_bytes(PiecewiseLinear(k[keep], h.values[keep][:, :1])), j

    def test_a_merging_shift_keeps_the_later_knot_and_a_bad_shift_raises(self):
        h = HistoryFn([-1.0, -2e-17, 0.0], [[0.5], [0.2], [0.3]])
        assert line_bytes(h.shifted(1.0)) == line_bytes(PiecewiseLinear([0.0, 1.0], [[0.5], [0.3]]))
        with pytest.raises(ValueError, match="knots must be strictly increasing"):
            PiecewiseLinear(h.knots + 1.0, h.values)  # what the merge keeps from the checked line
        for d in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="shift must be finite"):
                h.shifted(d)

    def test_saturation_stops_on_floats_are_the_numpy_scalars(self):
        rng = np.random.default_rng(42)
        for j in range(300):
            tau = rng.uniform(0.1, 3.0)
            h = random_history(rng, rng.uniform(0.1, 5.0), tau, 3)
            if j % 3 == 0:  # values at the levels exactly, and signed zeros
                vals = h.values.copy()
                vals[rng.random(len(vals)) < 0.4, 0] = rng.choice([0.0, -0.0, 1.0])
                h = HistoryFn(h.knots, vals)
            T = tau * rng.uniform(0.5, 5.0)
            got, want = saturation_stop_times(h, tau, T), numpy_saturation_stop_times(h, tau, T)
            assert got.tobytes() == want.tobytes(), j


def searchsorted_history_eval(knots, values, s):
    """A history read by its own formula, as it was before it kept a broken
    line: clamp s into the knots, find the segment with searchsorted (right),
    then (1 - w) p + w q per component."""
    k, v = np.asarray(knots), np.asarray(values)
    if len(k) == 1:
        return v[0].copy()
    s = min(max(s, float(k[0])), float(k[-1]))
    i = min(int(np.searchsorted(k, s, side="right")) - 1, len(k) - 2)
    w = (s - float(k[i])) / float(k[i + 1] - k[i])
    return np.array([(1.0 - w) * p + w * q for p, q in zip(v[i].tolist(), v[i + 1].tolist())])


class TestHistoryReadsItsLine:
    def test_eval_is_the_searchsorted_formula_byte_for_byte(self):
        # at every knot, an ulp either side of it, mid-segment and 1e-9
        # outside the domain; one history in ten has a single knot
        rng = np.random.default_rng(28)
        for n in range(200):
            tau = rng.uniform(0.1, 3.0)
            inner = np.sort(rng.uniform(-tau, 0.0, size=int(rng.integers(0, 19))))
            knots = [0.0] if n % 10 == 0 else np.unique(np.concatenate([[-tau], inner, [0.0]]))
            values = rng.uniform(-2.0, 2.0, size=(len(knots), int(rng.integers(1, 4))))
            h = HistoryFn(knots, values)
            k = np.asarray(knots)
            pts = [k[0] - 1e-9, k[-1] + 1e-9, *(0.5 * (k[:-1] + k[1:]))]
            for x in k:
                pts += [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]
            for s in map(float, pts):
                assert h.eval(s).tobytes() == searchsorted_history_eval(k, values, s).tobytes()

    def test_end_values_are_the_stored_rows(self):
        # the one difference from the formula: at and past an end knot the
        # stored value itself, where 0 p + q would turn a -0.0 into 0.0
        h = HistoryFn([-1.0, 0.0], [[1.0, 0.5], [2.0, -0.0]])
        assert h.eval(0.0).tobytes() == h.values[-1].tobytes()
        assert h.line.knots is h.knots and h.line.values is h.values


class TestOutcomeFlag:
    def test_escaped_is_having_a_flag(self):
        nonfinite = DiscreteDelaySystem(dim=1, input_dim=0, delays=(),
                                        rhs=lambda y, d, u: y if abs(y[0]) < 2.0 else [math.nan])
        runs = [(integrate(decay_system(), np.array([1.0]), None, 1.0), None),
                (integrate(tan_system(), np.array([0.0]), None, 5.0), "threshold"),
                (integrate(nonfinite, np.array([1.0]), None, 5.0, IntegratorOptions(h_min=1e-6)), "nonfinite")]
        for out, flag in runs:
            assert out.flag == flag and out.escaped == (out.flag is not None)
            assert (out.t_escape is None, out.final_norm is None) == (flag is None, flag is None)

    def test_escaped_is_not_an_argument(self):
        assert "escaped" not in [f.name for f in fields(SimOutcome)]
        with pytest.raises(TypeError):
            SimOutcome(Trajectory(0.0, [1.0]), escaped=True)


class TestResidualAudit:
    def test_small_residual_on_completed_run(self):
        out = integrate(decay_system(), np.array([1.0]), None, 2.0)
        res = residual_audit(out.trajectory, decay_system(), None)
        assert res <= 100.0 * IntegratorOptions().abs_tol

    def test_residual_shrinks_with_tolerance(self):
        sys = tan_system()
        loose = IntegratorOptions(rel_tol=1e-8, abs_tol=1e-9)
        tight = IntegratorOptions(rel_tol=1e-9, abs_tol=1e-10)
        r_loose = residual_audit(integrate(sys, np.array([0.0]), None, 1.2, loose).trajectory, sys, None)
        r_tight = residual_audit(integrate(sys, np.array([0.0]), None, 1.2, tight).trajectory, sys, None)
        assert r_tight <= r_loose / 4.0

    def test_residual_with_delay_and_history(self):
        hist = HistoryFn.constant(np.array([1.0]), 1.0)
        sys = delayed_unit_system()
        out = integrate(sys, hist, None, 3.0)
        res = residual_audit(out.trajectory, sys, None, history=hist)
        assert res <= 100.0 * IntegratorOptions().abs_tol

    def test_residual_with_a_piecewise_linear_history(self):
        # the audit reads HistoryFn.eval(t - d) point by point, so a lookup on
        # [0, tau] read at the wrong shift shows as a defect; a constant
        # history could not show it
        for seed in range(6):
            rng = np.random.default_rng((17, seed))
            tau = rng.uniform(0.5, 2.0)
            hist = random_history(rng, 1.0, tau, 3)
            sys, T = cascade_system(tau), 3.0 * tau
            out = integrate(sys, hist, None, T, extra_stops=saturation_stop_times(hist, tau, T))
            assert not out.escaped and len(hist.knots) > 3
            res = residual_audit(out.trajectory, sys, None, history=hist)
            assert res <= 100.0 * IntegratorOptions().abs_tol, seed


class TestOptionsValidation:
    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            integrate(decay_system(), np.array([1.0]), None, 0.0)

    @pytest.mark.parametrize("T", [math.nan, math.inf, -1.0], ids=["nan", "inf", "negative"])
    def test_horizon_must_be_finite_and_positive(self, T):
        # at entry: nan ran into an IndexError, inf a TypeError
        with pytest.raises(ValueError, match="T must be finite and positive"):
            integrate(planar_system(), np.array([1.0, 0.0]), None, T)

    @pytest.mark.parametrize(
        "field, value, exc",
        [
            ("rel_tol", "1e-8", TypeError),
            ("rel_tol", -1.0, ValueError),
            ("abs_tol", 0.0, ValueError),
            ("abs_tol", float("nan"), ValueError),
            ("h_min", float("inf"), ValueError),
            ("escape_threshold", True, TypeError),
            ("max_steps", 0, ValueError),
            ("max_steps", 10.0, TypeError),
        ],
    )
    def test_invalid_field_rejected(self, field, value, exc):
        with pytest.raises(exc):
            IntegratorOptions(**{field: value})

    def test_valid_fields_accepted(self):
        o = IntegratorOptions(rel_tol=1, max_steps=10)
        assert o.rel_tol == 1 and o.max_steps == 10


class RhsFailed(Exception):
    pass


class TestRhsRaises:
    def test_an_exception_leaves_a_consistent_stepper(self):
        # the rhs raises mid-attempt at chosen calls, twice in a row once:
        # each time the Stepper is left at its last accepted node, with no
        # partial segment and no stale arrays, and advancing again with the
        # rhs healthy continues bit for bit like a run that never raised
        fail_at, calls = {40, 41, 97, 250}, [0]

        def flaky(t, y):
            calls[0] += 1
            if calls[0] in fail_at:
                raise RhsFailed
            return rotating_rhs(t, y)

        ref = Stepper(rotating_rhs, 0.0, np.array([1.0, 0.0]), IntegratorOptions())
        ref.advance(6.0)
        st = Stepper(flaky, 0.0, np.array([1.0, 0.0]), IntegratorOptions())
        traj, raised = st.traj, 0
        while st.t != 6.0:
            nodes = len(traj.ts)  # built here, so they must be built again
            try:
                st.advance(6.0)
            except RhsFailed:
                raised += 1
                assert len(traj.ts) == len(traj.ys) == len(traj.qs) + 1 == len(traj._t) >= nodes
                assert st.t == traj.ts[-1] and float_list_bytes(st.y) == traj.ys[-1].tobytes()
                assert float_list_bytes(st.slope) == float_list_bytes(rotating_rhs(st.t, st.y))
        assert raised == len(fail_at) and st.escape_info is None
        assert (st.nsteps, st.h) == (ref.nsteps, ref.h)
        assert float_list_bytes(st.y) == float_list_bytes(ref.y)
        assert float_list_bytes(st.slope) == float_list_bytes(ref.slope)
        assert traj_bytes(st.outcome().trajectory) == traj_bytes(ref.outcome().trajectory)


class TestStepperOutcomes:
    def test_first_advance_to_its_own_time_takes_no_step(self):
        # no first step is sized for an empty interval (it divided by zero)
        st = Stepper(rotating_rhs, 0.0, np.array([1.0, 0.0]), IntegratorOptions())
        st.advance(0.0)
        assert (st.t, st.nsteps, st.h, len(st.traj.ts), st.escape_info) == (0.0, 0, 0.0, 1, None)
        ref = Stepper(rotating_rhs, 0.0, np.array([1.0, 0.0]), IntegratorOptions())
        for s in (st, ref):
            s.advance(1.0)
        assert traj_bytes(st.outcome().trajectory) == traj_bytes(ref.outcome().trajectory)

    def test_max_steps_is_named(self):
        with pytest.raises(MaxStepsExceeded):
            integrate(decay_system(), np.array([1.0]), None, 100.0, IntegratorOptions(max_steps=10))

    @staticmethod
    def assert_nonfinite_escape(y0, beyond):
        # x' = x until |x|_inf reaches 2, where the field turns to beyond(x):
        # the error test keeps failing on non-finite stages down to h_min
        sys = DiscreteDelaySystem(
            dim=len(y0),
            input_dim=0,
            delays=(),
            rhs=lambda y, d, u: y if all(abs(v) < 2.0 for v in y) else beyond(y),
        )
        out = integrate(sys, np.array(y0), None, 5.0, IntegratorOptions(h_min=1e-6))
        assert out.escaped
        assert out.flag == "nonfinite"
        assert 1.0 < out.final_norm < 2.0
        assert out.t_escape < math.log(2.0)

    def test_nonfinite_rhs_is_an_escape(self):
        self.assert_nonfinite_escape([1.0], lambda y: [math.nan])

    @pytest.mark.parametrize(
        "y0, beyond",
        [
            # only the second component turns NaN, below a finite first one:
            # max() of floats skips a NaN that is not first, so the error
            # norm has to catch it
            ([1.0, 0.5], lambda y: [y[0], math.nan]),
            ([1.0], lambda y: [math.inf]),
        ],
        ids=["nan_in_second_component", "inf"],
    )
    def test_nonfinite_stage_is_an_escape(self, y0, beyond):
        self.assert_nonfinite_escape(y0, beyond)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("pos", [0, 1, 2])
    @pytest.mark.parametrize("cap, t_end, nsteps", [(0.5, "0x1.62e41d4b6a61ep-1", 160),
                                                    (1.0, "0x1.62e41d4b6a61dp-1", 95),
                                                    (2.0, "0x1.62e41d4b6a61dp-1", 58)],
                             ids=["h_top_below", "h_top_equal", "h_top_above"])
    def test_nonfinite_component_ends_where_the_builtins_did(self, bad, pos, cap, t_end, nsteps):
        # the max and min of each attempt are conditional expressions: a NaN
        # or inf in any component of a 3-component stage, with h_top below,
        # equal to or above h_next at the first attempt, ends the run with the
        # reason, time and attempt count the builtin max() and min() gave
        def rhs(t, y):
            return list(y) if all(abs(v) < 2.0 for v in y) else [bad if i == pos else v for i, v in enumerate(y)]

        st = Stepper(rhs, 0.0, np.array([1.0, 0.5, 0.25]), IntegratorOptions(h_min=1e-6), h_cap=0.01 * cap)
        st.h = 0.01
        st.advance(5.0)
        assert (st.escape_info[2], st.t.hex(), st.nsteps) == ("nonfinite", t_end, nsteps)

    def test_nonfinite_first_slope_ends_at_once(self):
        # sqrt(y - 1) is NaN at y0 = 0.5: the first step is tried at h_min, so
        # no stage is taken at a NaN time and the run ends "nonfinite" at t = 0
        times = []

        def rhs(t, y):
            times.append(t)
            return np.sqrt(np.array(y) - 1.0).tolist()

        with np.errstate(invalid="ignore"):
            stepper = Stepper(rhs, 0.0, np.array([0.5]), IntegratorOptions(max_steps=1000))
            stepper.advance(1.0)
            assert stepper.escape_info is not None
        out = stepper.outcome()
        assert (out.flag, out.t_escape) == ("nonfinite", 0.0)
        assert all(math.isfinite(t) for t in times)

    def test_step_size_collapse_when_not_growing(self):
        # a fast decay needs h well below h_min; the state only shrinks, so
        # this is a failure of the options, not an escape
        with pytest.raises(StepSizeCollapse):
            integrate(decay_system(rate=100.0), np.array([1.0]), None, 10.0, IntegratorOptions(h_min=1.0))


def horner_values(y0, q, th):
    """|p(th)| of one component at each float th, by Horner as the searches evaluate it."""
    return np.abs(y0 + th * (q[0] + th * (q[1] + th * (q[2] + th * q[3]))))


class TestBernsteinBound:
    """`_bounds` is at least every float value of a segment's quartic that the
    searches compute: Horner at each th in [0, 1], the floats on both sides of
    each turn (`_turns`, which returns on subnormal coefficients too) and
    their neighbours, and the sum at th = 1."""

    THETA = np.linspace(0.0, 1.0, 10_001)

    def assert_sound(self, y0, q):
        bound = _bounds(y0, q)
        for i in range(len(y0)):
            c = q[:, i]
            roots = np.array(_turns([y0[i], *c.tolist()], 0.0, 1.0))
            ths = np.concatenate([self.THETA, roots, np.nextafter(roots, 0.0), np.nextafter(roots, 1.0)])
            seen = max(float(horner_values(y0[i], c, ths).max()), abs(y0[i] + c[0] + c[1] + c[2] + c[3]))
            assert seen <= bound[i], (y0[i], c.tolist(), seen, bound[i])

    @staticmethod
    def quartics(rng, n):
        """n random (y0, q) of 3 components: ordinary coefficients at scales
        1e-150 to 1e150, polynomials whose sup is a Bernstein coefficient
        (c th^k, c (1 - th)^k and constants, nudged by an ulp), and
        coefficients drawn among +-0.0, subnormals and ordinary values."""
        for j in range(n):
            kind = j % 3
            if kind == 0:
                a = rng.normal(size=(5, 3)) * 10.0 ** rng.uniform(-150.0, 150.0, size=(1, 3))
            elif kind == 1:
                k, c = int(rng.integers(0, 5)), rng.normal(size=3) * 10.0 ** rng.uniform(-150.0, 150.0, size=3)
                binom = np.array([math.comb(k, m) * (-1.0) ** m for m in range(5)]) if k else np.eye(5)[0]
                a = np.outer(np.eye(5)[k], c) if rng.random() < 0.5 else np.outer(binom, c)
                a = np.nextafter(a, rng.choice([-np.inf, np.inf], size=a.shape))
                a[np.abs(a) < 1e-300] = 0.0
            else:
                pool = np.array([0.0, -0.0, 5e-324, -5e-324, 2.5e-308, 1.0, -3.0, 1e150])
                a = rng.choice(pool, size=(5, 3)) * rng.choice([1.0, rng.uniform(0.5, 2.0)], size=(5, 3))
            yield a[0], a[1:]

    def test_random_quartics(self):
        for y0, q in self.quartics(np.random.default_rng(37), 600):
            self.assert_sound(y0, q)

    def test_every_segment_of_a_peak_round(self, peak_trajs):
        for traj in peak_trajs:
            for y0, q in zip(traj.ys[:-1], traj.qs):
                self.assert_sound(y0, q)

    def test_nonfinite_coefficients(self):
        # a NaN coefficient makes the bound NaN and an infinite one inf, as |y0| + sum |q_k| did
        y0, q = np.array([1.0, 1.0, 1.0]), np.ones((4, 3))
        q[2, 0], q[0, 1], q[3, 2] = math.nan, math.inf, -math.inf
        bound = _bounds(y0, q)
        assert math.isnan(bound[0]) and bound[1] == bound[2] == math.inf


def numpy_forced_stops(sys, u, T, history=None, extra=()):
    """The forced stops as array arithmetic computes them: the reference of `_forced_stops`."""
    pts = [np.array([T]), np.asarray(extra, dtype=float)]
    if u is not None:
        pts.append(np.asarray(u.breakpoints(0.0, T)))
    if sys.delays:
        mult = sys.delays[0] * np.arange(1, 9)
        pts.append(mult[mult < T])
        if isinstance(history, HistoryFn) and len(history.knots) > 1:
            for d in sys.delays:
                for m in range(1, 9):
                    shifted = history.knots[:-1] + m * d
                    pts.append(shifted[(shifted > 0.0) & (shifted < T)])
    stops = np.unique(np.concatenate(pts))
    return stops[(stops > 0.0) & (stops <= T)]


def numpy_initial_step(st, target):
    """The first step size as array arithmetic computes it: the reference of `Stepper._initial_step`."""
    o = st.opts
    y, k1 = np.array(st.y), np.array(st.slope, dtype=float)
    scale = o.abs_tol + o.rel_tol * np.abs(y)
    d0 = float(np.sqrt(np.mean((y / scale) ** 2)))
    d1 = float(np.sqrt(np.mean((k1 / scale) ** 2)))
    if not math.isfinite(d1):
        return o.h_min
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, target - st.t, st._h_top)
    f1 = np.array(st.rhs(st.t + h0, (y + h0 * k1).tolist()))
    d2 = float(np.sqrt(np.mean(((f1 - k1) / scale) ** 2))) / h0
    h1 = max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1)


class TestFloatSetUp:
    """The set-up of a run on floats rounds as the array formulas did, bit for bit."""

    def test_forced_stops_are_the_array_formula(self):
        rng = np.random.default_rng(11)
        for j in range(300):
            d = rng.uniform(0.05, 3.0)
            two = DiscreteDelaySystem(dim=2, input_dim=1, delays=(d, d * rng.uniform(1.1, 3.0)),
                                      rhs=lambda y, dl, u: list(y))
            sys = [cascade_system(d), two, associated_system()][j % 3]
            hist = random_history(rng, rng.uniform(0.1, 2.0), sys.tau, sys.dim) if sys.delays else None
            T = sys.tau * rng.uniform(0.3, 9.0) if sys.delays else rng.uniform(0.1, 5.0)
            extra = np.concatenate([rng.uniform(-1.0, T + 1.0, size=int(rng.integers(0, 8))), [T, 0.0, -0.0]])
            if hist is not None:
                extra = np.append(extra, hist.knots[1:-1] + d)  # the same floats by another route
            u = [None, PiecewiseConstant(rng.uniform(size=4), np.sort(rng.uniform(0.0, T, 3))),
                 TimeShift(PiecewiseLinear(np.linspace(-1.0, T, 6), rng.uniform(size=6)), rng.uniform(0.0, 1.0))][j % 3]
            want = numpy_forced_stops(sys, u, T, hist, extra)
            got = _forced_stops(sys, u, T, hist, extra)
            assert np.array(got).tobytes() == want.tobytes(), j

    @pytest.mark.parametrize("dim", range(1, 11))
    def test_initial_step_is_the_array_formula(self, dim):
        # random linear fields and states at many scales, zeros among them,
        # toward near and far targets, and a slope that is not finite
        rng = np.random.default_rng(dim)
        for j in range(60):
            m = rng.normal(size=(dim, dim)) * 10.0 ** rng.uniform(-4.0, 4.0)
            y = rng.normal(size=dim) * 10.0 ** rng.uniform(-6.0, 6.0, size=dim)
            y[rng.random(dim) < 0.2] = 0.0
            bad = [math.inf, -math.inf, math.nan][j % 3] if j % 10 == 9 else None

            def rhs(t, x):
                k = (m @ np.array(x) + t).tolist()
                return [bad, *k[1:]] if bad is not None else k

            opts = IntegratorOptions(rel_tol=10.0 ** rng.uniform(-10.0, -3.0), abs_tol=10.0 ** rng.uniform(-12.0, -4.0))
            st = Stepper(rhs, rng.uniform(-1.0, 1.0), y, opts, h_cap=[math.inf, rng.uniform(1e-3, 1.0)][j % 2])
            target = st.t + 10.0 ** rng.uniform(-8.0, 2.0)
            assert f64(st._initial_step(target)) == f64(numpy_initial_step(st, target)), j


def by_interval(monkeypatch):
    """Make `integrate` drive its Stepper one interval at a time: one advance
    per interval between forced stops, and at each stop the rhs swapped in
    Python and its slope taken by `invalidate_rhs_cache`."""
    advance = Stepper.advance

    def stepwise(st, target, until=math.inf):
        stops, pieces = list(st.stops), list(st.pieces)
        st.stops, st.pieces = (), ()
        for end, rhs in zip(stops + [target], [None] + pieces):
            if rhs is not None:
                st.rhs = rhs
                st.invalidate_rhs_cache()
            while st.t != end and st.escape_info is None:
                advance(st, end, until)
            if st.escape_info is not None:
                return

    monkeypatch.setattr(Stepper, "advance", stepwise)


class TestWalkedStops:
    """A run whose loop walks the forced stops equals the run stopped and
    resumed at every one of them: ts, ys and qs bytes, outcome and nsteps."""

    @staticmethod
    def record(monkeypatch, runs, stepwise):
        seen, outcome = [], Stepper.outcome

        def recorded(st):
            out = outcome(st)
            tr = out.trajectory
            seen.append((st.nsteps, out.flag, out.t_escape, tr.ts.tobytes(), tr.ys.tobytes(), tr.qs.tobytes()))
            return out

        with monkeypatch.context() as m:
            m.setattr(Stepper, "outcome", recorded)
            if stepwise:
                by_interval(m)
            runs()
        return seen

    def both(self, monkeypatch, runs):
        walked = self.record(monkeypatch, runs, False)
        assert walked and walked == self.record(monkeypatch, runs, True)

    def test_peak_round(self, monkeypatch):
        self.both(monkeypatch, lambda: [peak_run(h) for h in peak_histories(seed=5)])

    def test_plain_rhs_jumps_and_past_the_delay(self, monkeypatch):
        # fused and plain callables, swapped at each stop: on inputs that jump
        # there, so the slope past a stop is not the last stage before it, and
        # on lookups of the dense output past tau
        def plain(sys):
            return DiscreteDelaySystem(sys.dim, sys.input_dim, sys.delays, lambda y, d, u, f=sys.rhs: f(y, d, u))

        def runs():
            rng = np.random.default_rng(7)
            jumps = PiecewiseConstant(rng.uniform(-0.5, 1.5, size=(6, 1)), np.sort(rng.uniform(0.0, 3.0, size=5)))
            for sys in (associated_system(), plain(associated_system())):
                integrate(sys, [0.5, 1.0, -0.5], jumps, 4.0, PROBE_OPTS)
            for hist in peak_histories(seed=6)[::4]:
                for sys in (cascade_system(DEFAULT_DELAY), plain(cascade_system(DEFAULT_DELAY))):
                    integrate(sys, hist, None, 3.0 * DEFAULT_DELAY, PROBE_OPTS)

        self.both(monkeypatch, runs)

    def test_escape_between_stops(self, monkeypatch):
        # the escape ends the walk: x' = x^2 from 1 blows up at t = 1, with stops on the way
        sys = DiscreteDelaySystem(1, 1, (), lambda y, d, u: [y[0] * y[0] + 0.0 * u[0]])
        u = PiecewiseConstant(np.zeros(6), np.linspace(0.1, 0.9, 5))
        self.both(monkeypatch, lambda: integrate(sys, np.array([1.0]), u, 2.0))
