import math

import numpy as np
import pytest

from delayreach.integrator import HistoryFn, IntegratorOptions, Stepper, integrate
from delayreach.lyap import A_MODE1, A_MODE2
from delayreach.probes import PROBE_OPTS, escape_schedule, random_history
from delayreach.signals import PiecewiseConstant, PiecewiseLinear
from delayreach import escape_data, systems
from delayreach.systems import (
    DEFAULT_DELAY,
    DEFAULT_PLANAR,
    SYSTEM_NAMES,
    SwitchingPolicy,
    WindowOverlap,
    associated_system,
    cascade_system,
    embed_history_as_inputs,
    greedy_worst_switch,
    history_from_inputs,
    make_system,
    planar_rhs,
    planar_system,
    recorded_escape,
    run_switched,
    saturation_stop_times,
)

from replay import replay


class TestPlanarRhs:
    def test_hand_arithmetic(self):
        # at x=(1,0), |x|^2=1 so the cubic factor is 2; saturated inputs pick
        # the pure gain matrices: 2*A(0)@(1,0) = (-0.2,-4), 2*A(1)@(1,0) = (0,-1)
        g = planar_rhs()
        assert np.allclose(g([1.0, 0.0], -5.0), [-0.2, -4.0])
        assert np.allclose(g([1.0, 0.0], 5.0), [0.0, -1.0])

    def test_blend_midpoint(self):
        g = planar_rhs()
        mid = 0.5 * (DEFAULT_PLANAR.a1.as_array() + DEFAULT_PLANAR.a2.as_array())
        x = np.array([0.5, -0.25])
        expect = (1.0 + float(x @ x)) * (mid @ x)
        assert np.allclose(g(x.tolist(), 0.5), expect)

    def test_field_is_the_hand_ordered_expression(self):
        g = planar_rhs()
        rng = np.random.default_rng(11)
        xs = rng.uniform(-3.0, 3.0, size=(1000, 2)).tolist()
        us = rng.uniform(-1.0, 2.0, size=1000).tolist()  # a third saturated at each end
        for x, u in zip(xs, us):
            assert np.array(g(x, u)).tobytes() == hand_ordered_field(x, u).tobytes(), (x, u)

    def test_blended_field_is_the_composition_bit_for_bit(self):
        # the clamp, the blend and the field, bit for bit, also where c or the
        # field overflows, at the clamp's edges, and at NaN and +-inf inputs
        g = planar_rhs()
        rng = np.random.default_rng(22)
        n = 100_000
        us = rng.uniform(-2.0, 3.0, size=n)
        special = [0.0, 1.0, -0.0, math.nan, math.inf, -math.inf]
        us[: 6 * len(special)] = special * 6
        # magnitudes from subnormal to past 1.3e154, where c overflows
        xs = rng.choice([-1.0, 1.0], size=(n, 2)) * 10.0 ** rng.uniform(-320.0, 160.0, size=(n, 2))
        xs[rng.random(size=xs.shape) < 0.01] = 0.0
        xs[rng.random(size=xs.shape) < 0.01] = -0.0
        for x, u in zip(xs.tolist(), us.tolist()):
            assert np.array(g(x, u)).tobytes() == hand_ordered_field(x, u).tobytes(), (x, u)
        # an input handed over as a numpy scalar (a constant piece) rounds the same
        for x, u in zip(xs[:2000].tolist(), us[:2000]):
            assert np.array(g(x, u)).tobytes() == np.array(g(x, float(u))).tobytes(), (x, u)
            assert all(type(v) is float for v in g(x, u))


def hand_ordered_field(x, u) -> np.ndarray:
    """(1 + |x|^2) A(lam) x with lam = u clamped to [0, 1] (NaN kept): each
    entry of the blend and each sum of two products rounded in this order, so
    a numpy build whose dot product fuses them cannot move the result."""
    a, b = DEFAULT_PLANAR.a1, DEFAULT_PLANAR.a2
    lam = min(max(u, 0.0), 1.0)
    mu = 1.0 - lam
    a11, a12 = lam * a.a11 + mu * b.a11, lam * a.a12 + mu * b.a12
    a21, a22 = lam * a.a21 + mu * b.a21, lam * a.a22 + mu * b.a22
    x1, x2 = x
    c = 1.0 + (x1 * x1 + x2 * x2)
    return np.array([c * (a11 * x1 + a12 * x2), c * (a21 * x1 + a22 * x2)])


class TestGreedyRule:
    def test_quadrant_cases(self):
        rule = greedy_worst_switch(dwell=1e-3).rule
        # x^T (A+A^T) x with A1 gives 2*x1*x2*1.5 - 0.2*x2^2; A2 gives
        # -2*x1*x2*1.5; signs decided by the product x1*x2
        assert rule(np.array([1.0, 1.0])) == 1
        assert rule(np.array([1.0, -1.0])) == 0
        assert rule(np.array([-1.0, -1.0])) == 1
        assert rule(np.zeros(2)) == 1  # tie resolved to mode 1

    # the rule's decision is numpy's rounded comparison; the float test in
    # front of it may settle only what numpy would settle the same way

    @staticmethod
    def numpy_rule(x):
        s1, s2 = A_MODE1.as_array(), A_MODE2.as_array()
        s1, s2 = s1 + s1.T, s2 + s2.T
        return 1 if float(x @ s1 @ x) >= float(x @ s2 @ x) else 0

    def test_random_states_decide_as_numpy(self):
        rule = greedy_worst_switch(dwell=1e-3).rule
        rng = np.random.default_rng(19)
        xs = rng.normal(size=(100_000, 2)) * 10.0 ** rng.uniform(-3.0, 6.0, size=(100_000, 1))
        assert [rule(x) for x in xs] == [self.numpy_rule(x) for x in xs]

    def test_ties_fall_back_to_numpy(self):
        rule = greedy_worst_switch(dwell=1e-3).rule
        # x^T (s1 - s2) x = 0 on two lines through 0: x = (1, r)
        d = A_MODE1.as_array() - A_MODE2.as_array()
        d = d + d.T
        roots = np.roots([d[1, 1], 2.0 * d[0, 1], d[0, 0]]).real
        # every neighbour up to 40 ulps away, then out past the margin
        ks = sorted({s * k for s in (-1, 1) for k in list(range(41)) + [60, 90, 135, 200, 300, 450, 700, 1000]})
        xs = [CountingArray([x0, x1 + k * math.ulp(x1)])
              for r in roots for scale in 10.0 ** np.arange(-3.0, 7.0)
              for x0, x1 in ((scale, r * scale), (-scale, -r * scale)) for k in ks]
        CountingArray.matmuls = 0
        decided = [rule(x) for x in xs]
        # two products per fallback: most points, but not the farthest
        assert len(xs) < CountingArray.matmuls < 2 * len(xs)
        assert decided == [self.numpy_rule(np.asarray(x)) for x in xs]
        assert set(decided) == {0, 1}

    def test_special_values_decide_as_numpy(self):
        rule = greedy_worst_switch(dwell=1e-3).rule
        tiny, sub, inf, nan = 2.2250738585072014e-308, 5e-324, math.inf, math.nan
        values = (0.0, -0.0, sub, -sub, 3e-320, tiny, 1e-160, 1.0, -1.0, 1e200, inf, -inf, nan)
        with np.errstate(all="ignore"):
            for x0 in values:
                for x1 in values:
                    x = np.array([x0, x1])
                    assert rule(x) == self.numpy_rule(x), (x0, x1)


class CountingArray(np.ndarray):
    """A 2-vector that counts the `@` products it starts: the numpy path."""

    matmuls = 0

    def __new__(cls, values):
        return np.asarray(values, dtype=float).view(cls)

    def __matmul__(self, other):
        CountingArray.matmuls += 1
        return np.asarray(self) @ other


class TestSwitchedEscape:
    def test_escape_before_horizon(self, escape_run):
        out = escape_run.outcome
        assert out.escaped
        assert out.t_escape < 20.0
        assert out.final_norm >= 1e6

    def test_open_loop_replay_escapes(self, escape_run):
        out = integrate(
            planar_system(), np.array([1.0, 0.0]), escape_run.signal, 2.0
        )
        assert out.escaped
        assert out.t_escape == pytest.approx(escape_run.outcome.t_escape, abs=1e-3)

    def test_recorded_signal_is_bang_bang(self, escape_run):
        vals = escape_run.signal.values[:, 0]
        assert set(np.unique(vals)) <= {0.0, 1.0}
        assert (np.diff(escape_run.signal.breaks) > 0.0).all()

    def test_small_dwell_run_stays_bounded_longer(self):
        # with mode 1 frozen (no switching) the planar system is stable
        policy = greedy_worst_switch(dwell=1e-3)
        frozen = type(policy)(dwell=policy.dwell, rule=lambda x: 1)
        run = run_switched(frozen, np.array([1.0, 0.0]), T=5.0)
        assert not run.outcome.escaped

    def test_default_delay_covers_escape(self, escape_run):
        assert DEFAULT_DELAY == pytest.approx(1.5 * escape_run.outcome.t_escape)

    def test_sampling_without_a_switch_changes_no_step(self):
        # samples are read from the dense output, so a policy that never
        # switches leaves the run of one plain advance on that mode's field
        frozen = SwitchingPolicy(dwell=1e-3, rule=lambda x: 1)
        run = run_switched(frozen, np.array([1.0, 0.0]), T=3.0)
        g = planar_rhs()
        plain = Stepper(lambda t, y: g(y, 1.0), 0.0, np.array([1.0, 0.0]),
                        IntegratorOptions(h_min=1e-14))
        plain.advance(3.0)
        assert plain.escape_info is None
        a, b = run.outcome.trajectory, plain.outcome().trajectory
        assert len(a.ts) < 3.0 / 1e-3
        assert (a.ts.tobytes(), a.ys.tobytes(), a.qs.tobytes()) == (
            b.ts.tobytes(), b.ys.tobytes(), b.qs.tobytes())

    @pytest.mark.parametrize("dwell", [1e-3, 8e-3, 1.6e-2])
    def test_every_switch_is_a_node(self, dwell, escape_run):
        run = escape_run if dwell == 1e-3 else recorded_escape(dwell)
        assert np.isin(run.signal.breaks, run.outcome.trajectory.ts).all()

    @pytest.mark.parametrize("dwell", [1e-3, 8e-3])
    def test_agrees_with_a_converged_run(self, dwell, escape_run):
        # accuracy is that of the options: the dwell no longer sizes the steps
        run = escape_run if dwell == 1e-3 else recorded_escape(dwell)
        fine = run_switched(greedy_worst_switch(dwell=dwell), np.array([1.0, 0.0]), T=20.0,
                            opts=IntegratorOptions(rel_tol=1e-12, abs_tol=1e-12, h_min=1e-15))
        assert fine.outcome.flag == run.outcome.flag == "threshold"
        assert fine.signal.values.tobytes() == run.signal.values.tobytes()
        traj = run.outcome.trajectory
        moderate = np.array([np.linalg.norm(traj.eval(b)) < 100.0 for b in run.signal.breaks])
        gaps = np.abs(run.signal.breaks - fine.signal.breaks)[moderate]
        assert len(gaps) >= 8 and gaps.max() <= 1e-7
        assert run.outcome.t_escape == pytest.approx(fine.outcome.t_escape, rel=1e-8, abs=0.0)


def literal_block(values, breaks, t_escape) -> str:
    """The generated part of src/delayreach/escape_data.py for these numbers."""
    lines = ["VALUES = ("] + [f"    {float(v)!r}," for v in values] + [")"]
    lines += ["BREAKS = ("] + [f"    {float(b)!r}," for b in breaks] + [")"]
    return "\n".join(lines + [f"T_ESCAPE = {float(t_escape)!r}"])


def escape_schedule_of(run):
    """The run's signal, zeroed from its escape time on."""
    sig = run.signal
    return PiecewiseConstant(
        np.vstack([sig.values, np.zeros((1, 1))]), np.append(sig.breaks, run.outcome.t_escape)
    )


class TestStoredEscape:
    """The stored schedule is the recorded run's, bit for bit."""

    def test_literals_match_the_recorded_run(self, escape_run):
        sig = escape_run.signal
        fresh = literal_block(sig.values[:, 0], sig.breaks, escape_run.outcome.t_escape)
        stored = literal_block(escape_data.VALUES, escape_data.BREAKS, escape_data.T_ESCAPE)
        if stored != fresh:
            print(fresh)
        # repr round-trips, so equal text is equal bits
        assert stored == fresh, (
            "the stored escape schedule is stale: paste the block under 'Captured stdout call' "
            "over the generated block of src/delayreach/escape_data.py"
        )
        assert escape_data.DWELL == 1e-3
        assert sig.values.shape == (len(escape_data.VALUES), 1)

    def test_schedule_and_delay_built_from_the_run(self, escape_run):
        sched, t_esc = escape_schedule()
        from_run = escape_schedule_of(escape_run)
        assert t_esc == escape_run.outcome.t_escape
        assert sched.values.tobytes() == from_run.values.tobytes()
        assert sched.values.shape == from_run.values.shape
        assert sched.breaks.tobytes() == from_run.breaks.tobytes()
        assert DEFAULT_DELAY == 1.5 * escape_run.outcome.t_escape

    def test_run_matches_the_exact_replay(self, escape_run):
        # the replay solves each piece in closed form on the clock s, so the
        # escape time must be its float to 2 ulps. A switching state may be
        # off by the run's tolerance plus what the time axis allows there: an
        # ulp of t moves x by ulp(t) |x|^2 ||A|| (both sides solve for t).
        opts = IntegratorOptions()  # run_switched's rel_tol and threshold
        states, t_esc = replay(escape_data.VALUES, escape_data.BREAKS, (1.0, 0.0), opts.escape_threshold)
        for t in (escape_data.T_ESCAPE, escape_run.outcome.t_escape):
            assert abs(t - t_esc) <= 2.0 * math.ulp(t_esc)
        traj = escape_run.outcome.trajectory
        nodes = np.searchsorted(traj.ts, escape_data.BREAKS)
        assert np.array_equal(traj.ts[nodes], escape_data.BREAKS)
        norm_a = max(np.linalg.norm(a.as_array(), 2) for a in (A_MODE1, A_MODE2))
        for brk, x, x_run in zip(escape_data.BREAKS, states, traj.ys[nodes]):
            tol = 100.0 * opts.rel_tol + 4.0 * math.ulp(brk) * float(x @ x) * norm_a
            assert np.linalg.norm(x_run - x) <= tol * np.linalg.norm(x), brk


class TestMakeSystem:
    def test_names_map_to_systems(self):
        shapes = {"planar": (2, 1, ()), "cascade": (3, 0, (1.0,)), "associated": (3, 1, ())}
        assert set(SYSTEM_NAMES) == set(shapes)
        for name in SYSTEM_NAMES:
            sys_ = make_system(name, 1.0)
            assert (sys_.dim, sys_.input_dim, sys_.delays) == shapes[name]
        assert make_system("cascade", 0.7).delays == (0.7,)

    def test_cascade_default_delay(self):
        assert make_system("cascade").tau == DEFAULT_DELAY

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown system"):
            make_system("pendulum")

    def test_factories_looked_up_at_call_time(self, monkeypatch):
        # instrumentation replaces the module attributes; make_system must see that
        sentinel = planar_system()
        monkeypatch.setattr(systems, "planar_system", lambda params: sentinel)
        assert make_system("planar") is sentinel


class TestSwitchingPolicy:
    @pytest.mark.parametrize("dwell", [0.0, -1e-3, math.nan, math.inf])
    def test_dwell_must_be_finite_positive(self, dwell):
        with pytest.raises(ValueError, match="dwell"):
            SwitchingPolicy(dwell=dwell, rule=lambda x: 1)
        with pytest.raises(ValueError, match="dwell"):
            greedy_worst_switch(dwell=dwell)


class TestCascade:
    def test_z_decays_exactly(self):
        tau = 1.0
        sys = cascade_system(tau)
        h = HistoryFn.constant(np.array([0.8, 0.0, 0.0]), tau)
        out = integrate(sys, h, None, 5.0)
        for t in np.linspace(0.0, 5.0, 26):
            assert out.trajectory.eval(t)[0] == pytest.approx(0.8 * math.exp(-t), abs=1e-8)

    def test_rejects_nonpositive_delay(self):
        with pytest.raises(ValueError):
            cascade_system(0.0)


class TestEmbeddings:
    def test_round_trip_values(self):
        tau = 2.0
        hist = HistoryFn(
            np.array([-tau, -1.2, -0.3, 0.0]),
            np.array([[0.3, 1.0, 0.0], [0.8, 0.5, -0.2], [-0.4, 0.1, 0.9], [0.1, 0.0, 0.0]]),
        )
        xi0, inputs = embed_history_as_inputs(hist, (tau,))
        assert np.allclose(xi0, hist.eval(0.0))
        for t in np.linspace(0.0, tau - 1e-9, 33):
            assert np.allclose(inputs[0].eval(t), hist.eval(t - tau), atol=1e-12)
        assert np.allclose(inputs[0].eval(tau + 0.5), 0.0)  # zero past the window

    def test_input_norm_bounded_by_history_norm(self):
        tau = 1.5
        hist = HistoryFn(np.array([-tau, 0.0]), np.array([[2.0], [-3.0]]))
        _, inputs = embed_history_as_inputs(hist, (tau,))
        # a window of a broken line, zero outside: its sup is its largest knot value
        line = inputs[0].inner
        assert np.array_equal(line.knots, hist.knots + tau)
        assert float(np.abs(line.values).max()) <= hist.norm()

    def test_history_from_inputs_matches_on_window(self):
        tau = 2.0
        base = PiecewiseLinear([0.0, 0.5, 1.0], [0.2, -0.6, 0.4])
        xi0 = np.array([1.0])
        hist = history_from_inputs(xi0, [base], (tau,))
        # pinned on [-tau, -tau + tau/2]: history(s) = input(s + tau)
        for s in np.linspace(-tau, -tau + tau / 2.0, 17):
            assert hist.eval(s)[0] == pytest.approx(base.eval(s + tau)[0], abs=1e-12)
        assert hist.eval(0.0)[0] == 1.0

    def test_embed_then_complete_reproduces_the_history(self):
        for i in range(30):
            rng = np.random.default_rng((11, i))
            tau = rng.uniform(0.2, 3.0)
            hist = random_history(rng, rng.uniform(0.1, 5.0), tau, 3)
            back = history_from_inputs(*embed_history_as_inputs(hist, (tau,)), (tau,))
            window = hist.knots[hist.knots <= -tau / 2.0]
            for s in np.concatenate([window, np.linspace(-tau, -tau / 2.0, 25), [0.0]]):
                assert np.abs(back.eval(s) - hist.eval(s)).max() <= 1e-12, (i, s)

    def test_delay_trajectory_matches_on_first_interval(self):
        tau = 1.0
        rng = np.random.default_rng(7)
        hist_vals = rng.uniform(-0.5, 0.5, size=(4, 3))
        hist = HistoryFn(np.array([-tau, -0.6, -0.2, 0.0]), hist_vals)
        xi0, inputs = embed_history_as_inputs(hist, (tau,))
        opts = IntegratorOptions(rel_tol=1e-9, abs_tol=1e-10)
        out_d = integrate(cascade_system(tau), hist, None, tau, opts)
        out_a = integrate(associated_system(), xi0, inputs[0], tau, opts)
        for t in np.linspace(0.0, tau, 21):
            assert np.allclose(
                out_d.trajectory.eval(t), out_a.trajectory.eval(t), atol=1e-8
            )

    def test_delayed_run_is_the_embedded_run_bit_for_bit(self):
        # on [0, tau] the cascade's delayed feed is the shifted history, the
        # very signal the associated system gets as input, and both runs
        # force the same stops: the two runs are one computation
        for tau in (1.0, DEFAULT_DELAY):
            for opts in (IntegratorOptions(), PROBE_OPTS):
                for i in range(25):
                    rng = np.random.default_rng((15, i))
                    hist = random_history(rng, rng.uniform(0.1, 10.0), tau, 3)
                    stops = saturation_stop_times(hist, tau, tau)
                    xi0, inputs = embed_history_as_inputs(hist, (tau,))
                    a = integrate(cascade_system(tau), hist, None, tau, opts, stops).trajectory
                    b = integrate(associated_system(), xi0, inputs[0], tau, opts, stops).trajectory
                    assert (a.ts.tobytes(), a.ys.tobytes(), a.qs.tobytes()) == (
                        b.ts.tobytes(), b.ys.tobytes(), b.qs.tobytes()), (tau, opts, i)

    def test_window_overlap_detected(self):
        with pytest.raises(WindowOverlap):
            history_from_inputs(np.zeros(1), [None, None], (1.0, 1.0))
