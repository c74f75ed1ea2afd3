import bisect
import copy
import dataclasses
import hashlib
import math
import time

import numpy as np
import pytest

from delayreach.integrator import (HistoryFn, IntegratorOptions, MaxStepsExceeded, Stepper, _fed_kernel,
                                  _piece_floats, integrate)
from delayreach.lyap import A_MODE1, A_MODE2, Mat2
from delayreach.probes import PROBE_OPTS, escape_schedule, random_history
from delayreach.signals import (Concatenation, Constant, ExponentialTail, PiecewiseConstant, PiecewiseLinear, Signal,
                                TimeShift, _render, smooth_square)
from delayreach import escape_data, probes, systems
from delayreach.systems import (
    DEFAULT_DELAY,
    DEFAULT_PLANAR,
    SYSTEM_NAMES,
    PlanarParams,
    SwitchingPolicy,
    WindowOverlap,
    _MIN_DWELL,
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

import switched_ref
from replay import matrix, replay


class TestPlanarRhs:
    def test_hand_arithmetic(self):
        # at x=(1,0), |x|^2=1 so the cubic factor is 2; saturated inputs pick
        # the pure gain matrices: 2*A(0)@(1,0) = (-0.2,-4), 2*A(1)@(1,0) = (0,-1)
        g = planar_rhs()
        assert np.allclose(g([1.0, 0.0], -5.0), [-0.2, -4.0])
        assert np.allclose(g([1.0, 0.0], 5.0), [0.0, -1.0])

    def test_blend_midpoint(self):
        g = planar_rhs()
        mid = 0.5 * (matrix(DEFAULT_PLANAR.a1) + matrix(DEFAULT_PLANAR.a2))
        x = np.array([0.5, -0.25])
        expect = (1.0 + float(x @ x)) * (mid @ x)
        assert np.allclose(g(x.tolist(), 0.5), expect)

    def test_blended_field_is_the_composition_bit_for_bit(self):
        # the clamp, the blend and the field, bit for bit: on moderate states,
        # and also where c or the field overflows, at the clamp's edges, and at
        # NaN and +-inf inputs
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
        # 1,000 states in [-3, 3]^2, the inputs a third saturated at each end
        mild = np.random.default_rng(11)
        xs = np.vstack([xs, mild.uniform(-3.0, 3.0, size=(1000, 2))])
        us = np.append(us, mild.uniform(-1.0, 2.0, size=1000))
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

    # the rule's decision is the sign of the float form d = x^T (s1 - s2) x;
    # away from a tie and from overflow it is numpy's rounded comparison

    @staticmethod
    def numpy_rule(x):
        s1, s2 = matrix(A_MODE1), matrix(A_MODE2)
        s1, s2 = s1 + s1.T, s2 + s2.T
        return 1 if float(x @ s1 @ x) >= float(x @ s2 @ x) else 0

    @staticmethod
    def float_form(x):
        s1, s2 = matrix(A_MODE1), matrix(A_MODE2)
        d = (s1 + s1.T) - (s2 + s2.T)
        d0, d1, d2 = float(d[0, 0]), 2.0 * float(d[0, 1]), float(d[1, 1])
        x0, x1 = (float(v) for v in x)
        return d0 * x0 * x0 + d1 * x0 * x1 + d2 * x1 * x1

    def test_random_states_decide_as_numpy(self):
        rule = greedy_worst_switch(dwell=1e-3).rule
        rng = np.random.default_rng(19)
        xs = rng.normal(size=(100_000, 2)) * 10.0 ** rng.uniform(-3.0, 6.0, size=(100_000, 1))
        assert [rule(x) for x in xs] == [self.numpy_rule(x) for x in xs]

    def test_ties_decide_by_the_float_form(self):
        rule = greedy_worst_switch(dwell=1e-3).rule
        # x^T (s1 - s2) x = 0 on two lines through 0: x = (1, r)
        d = matrix(A_MODE1) - matrix(A_MODE2)
        d = d + d.T
        roots = np.roots([d[1, 1], 2.0 * d[0, 1], d[0, 0]]).real
        # every neighbour up to 40 ulps away, then farther out
        ks = sorted({s * k for s in (-1, 1) for k in list(range(41)) + [60, 90, 135, 200, 300, 450, 700, 1000]})
        xs = [CountingArray([x0, x1 + k * math.ulp(x1)])
              for r in roots for scale in 10.0 ** np.arange(-3.0, 7.0)
              for x0, x1 in ((scale, r * scale), (-scale, -r * scale)) for k in ks]
        CountingArray.matmuls = 0
        decided = [rule(x) for x in xs]
        assert CountingArray.matmuls == 0  # no numpy product, even at a tie
        assert decided == [1 if self.float_form(x) >= 0.0 else 0 for x in xs]
        assert set(decided) == {0, 1}

    def test_special_values_decide_by_the_float_form(self):
        rule = greedy_worst_switch(dwell=1e-3).rule
        tiny, sub, inf, nan = 2.2250738585072014e-308, 5e-324, math.inf, math.nan
        values = (0.0, -0.0, sub, -sub, 3e-320, tiny, 1e-160, 1.0, -1.0, 1e200, inf, -inf, nan)
        unlike_numpy = []
        with np.errstate(all="ignore"):
            for x0 in values:
                for x1 in values:
                    x = np.array([x0, x1])
                    d = self.float_form(x)
                    if math.isfinite(d):
                        assert rule(x) == self.numpy_rule(x), (x0, x1)
                        continue
                    # NaN goes to mode 0, +inf to mode 1, -inf to mode 0
                    assert rule(x) == (1 if d >= 0.0 else 0), (x0, x1)
                    if rule(x) != self.numpy_rule(x):
                        unlike_numpy.append((x0, x1))
        # d overflows to inf - inf at (1e200, 1e200); elsewhere d = +inf
        # where numpy's products multiply inf by a zero entry and read NaN
        assert unlike_numpy == [(1e200, 1e200), (inf, sub), (inf, 3e-320), (inf, tiny),
                                (inf, 1e-160), (inf, 1.0), (-inf, -sub), (-inf, -1.0)]


class CountingArray(np.ndarray):
    """A 2-vector that counts the `@` products it starts."""

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

    @pytest.mark.parametrize("T", [math.nan, 0.0, -1.0, math.inf], ids=["nan", "zero", "negative", "inf"])
    def test_horizon_must_be_finite_and_positive(self, T):
        # at entry: nan and inf never returned, 0 divided by zero sizing the
        # first step, and a negative T returned a one-node run
        with pytest.raises(ValueError, match="T must be finite and positive"):
            run_switched(greedy_worst_switch(1e-2), np.array([1.0, 0.0]), T=T)

    @pytest.mark.parametrize("x0", [[math.nan, 0.0], [1.0, 0.0, 0.0], [[1.0, 0.0]], [math.inf, 0.0]],
                             ids=["nan", "three", "nested", "inf"])
    def test_start_must_be_two_finite_floats(self, x0):
        # at entry: a NaN made the sampling clock NaN and failed reading the
        # first sample, three or nested components failed to unpack, and inf
        # returned a one-node threshold run at t = 0
        with pytest.raises(ValueError, match="x0 must be two finite floats"):
            run_switched(greedy_worst_switch(1e-2), x0, T=1.0)

    def test_samples_are_bounded_by_max_steps(self):
        # a policy that holds |x| near 1e4 without escaping samples every
        # ~1e-11 there: ~1e12 samples to T, ~3 per step attempt
        greedy = greedy_worst_switch(dwell=1e-3).rule
        calls = []

        def held(x):
            calls.append(None)
            return 0 if x[0] * x[0] + x[1] * x[1] > 1e8 else greedy(x)

        t0 = time.perf_counter()
        with pytest.raises(MaxStepsExceeded, match="max_steps=100000 policy samples"):
            run_switched(SwitchingPolicy(dwell=1e-3, rule=held), np.array([1.0, 0.0]), T=20.0,
                         opts=IntegratorOptions(h_min=1e-14, max_steps=10**5))
        assert time.perf_counter() - t0 < 10.0
        assert len(calls) == 1 + 10**5  # the initial decision, then each sample

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

    @pytest.mark.parametrize("angle, dwell, t_escape, switches, sha", [
        (0.0, 8e-3, "0.8600726979877733", 23,
         "cac6c775faed8fcbcd32d90447806ece1df9d4b9b9423334d2587cf38dbf85dd"),
        (2.0 * math.pi / 3.0, 1.2e-2, "0.9207174775942858", 22,
         "809a49b13b4784e3b9f33977c1c35e8c578e6d22223edf055c6215a704330657"),
        (4.0 * math.pi / 3.0, 1.6e-2, "0.7828252695010028", 22,
         "981f694f66bda21b6d3445941fe46d906d60cef2e781c500ab25468befde51a1"),
    ], ids=["0", "2pi/3", "4pi/3"])
    def test_sampling_clock_at_the_benchmark_dwells(self, angle, dwell, t_escape, switches, sha):
        # the benchmark's escape runs, from (cos, sin) of the angle: the
        # sampling clock t_k + dwell / (1 + |x|^2) decides every switching
        # instant, so a reordered sum moves the breaks and the nodes
        run = run_switched(greedy_worst_switch(dwell=dwell),
                           np.array([math.cos(angle), math.sin(angle)]), T=20.0)
        assert repr(run.outcome.t_escape) == t_escape
        assert len(run.signal.breaks) == switches
        data = run.signal.breaks.tobytes() + run.outcome.trajectory.ts.tobytes()
        assert hashlib.sha256(data).hexdigest() == sha

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


def sampled_run(dwell, x0, monkeypatch):
    """run_switched with the greedy policy at dwell from x0 to T = 20, and
    what its policy saw: every x the rule received, in order, and for each
    sample that dropped the last step a copy of the trajectory before the
    drop, by the sample's index. The samples up to that one were read from
    that copy; nodes before the dropped step stay in the run."""
    xs, before_drop = [], {}
    policy = greedy_worst_switch(dwell)

    def rule(x):
        xs.append(x)
        return policy.rule(x)

    rewind = Stepper.rewind

    def recorded_rewind(st):
        before_drop[len(xs) - 1] = copy.deepcopy(st.traj)
        rewind(st)

    monkeypatch.setattr(Stepper, "rewind", recorded_rewind)
    run = run_switched(dataclasses.replace(policy, rule=rule), np.asarray(x0, dtype=float), T=20.0)
    return run, xs, before_drop


def sample_bytes(x):
    assert type(x) is list and all(type(v) is float for v in x)
    return np.array(x).tobytes()


class TestSamplerRead:
    """Each sample the policy sees is `Trajectory._interp` at its time, bit
    for bit: on the trajectory as it stood before the next dropped step, or
    on the frozen run after the last one."""

    @staticmethod
    def check(run, xs, before_drop, dwell):
        traj, drops = run.outcome.trajectory, sorted(before_drop)
        t_k, x, on_nodes = 0.0, xs[0], 0
        for k, x_k in enumerate(xs[1:], 1):
            # the sampling clock, rebuilt from what the rule received
            t_k += min(max(dwell / (1.0 + (x[0] * x[0] + x[1] * x[1])), _MIN_DWELL), dwell)
            i = bisect.bisect_left(drops, k)
            read = before_drop[drops[i]] if i < len(drops) else traj
            assert sample_bytes(x_k) == sample_bytes(read._interp(t_k)), (k, t_k)
            on_nodes += t_k in traj.ts
            x = x_k
        return on_nodes

    @pytest.mark.parametrize("angle, dwell", [
        (0.0, 8e-3), (2.0 * math.pi / 3.0, 1.2e-2), (4.0 * math.pi / 3.0, 1.6e-2),
    ], ids=["0", "2pi/3", "4pi/3"])
    def test_samples_at_the_benchmark_dwells(self, angle, dwell, monkeypatch):
        run, xs, before_drop = sampled_run(dwell, [math.cos(angle), math.sin(angle)], monkeypatch)
        assert len(xs) > 1000
        # every switch but one landing on the last node drops a step, and
        # the sample after each drop reads the steps taken past it
        assert len(before_drop) >= len(run.signal.breaks) - 1 >= 20
        assert all(k + 1 < len(xs) for k in before_drop)
        # each switching sample becomes a node; no other sample is one
        assert self.check(run, xs, before_drop, dwell) == len(run.signal.breaks)

    def test_samples_on_nodes(self, monkeypatch):
        # every advance stopped at its soft stop: each sample lands on the
        # last node, where the read is the node's state
        advance = Stepper.advance
        monkeypatch.setattr(Stepper, "advance", lambda st, target, until=math.inf: advance(st, min(target, until)))
        run, xs, before_drop = sampled_run(1.2e-2, [1.0, 0.0], monkeypatch)
        assert before_drop == {} and len(xs) > 1000
        assert self.check(run, xs, before_drop, 1.2e-2) == len(xs) - 1


def run_record(run_switched_fn, policy, x0, T, monkeypatch, opts=None):
    """What a run returns, as bytes and floats, with the Stepper's attempt
    count at the end of the run."""
    counts = []
    outcome = Stepper.outcome

    def counted(st):
        counts.append(st.nsteps)
        return outcome(st)

    with monkeypatch.context() as m:
        m.setattr(Stepper, "outcome", counted)
        run = run_switched_fn(policy, np.asarray(x0, dtype=float), T, **({} if opts is None else {"opts": opts}))
    out, traj = run.outcome, run.outcome.trajectory
    return (traj.ts.tobytes(), traj.ys.tobytes(), traj.qs.tobytes(), run.signal.values.tobytes(),
            run.signal.breaks.tobytes(), out.t_escape, out.final_norm, out.flag, counts)


def unit_starts(n, seed):
    """n seeded unit-norm starts, each with a dwell in the benchmark's range."""
    rng = np.random.default_rng(seed)
    return [((math.cos(a), math.sin(a)), float(d))
            for a, d in zip(rng.uniform(0.0, 2.0 * math.pi, n), rng.uniform(5e-3, 2e-2, n))]


class TestClosedLoop:
    """The generated closed loop against the plain loop over `Stepper.advance`
    it replaced (`tests/switched_ref.py`), bit for bit: nodes, states,
    dense-output coefficients, the switching signal, the escape, and the
    Stepper's attempt count."""

    @pytest.mark.parametrize("x0, dwell", [(escape_data.X0, d) for d in (5e-4, 1e-3, 2e-3, 1e-2)] + [
        ((math.cos(a), math.sin(a)), d) for a, d in ((0.0, 8e-3), (2.0 * math.pi / 3.0, 1.2e-2),
                                                     (4.0 * math.pi / 3.0, 1.6e-2))])
    def test_recorded_and_benchmark_runs(self, x0, dwell, monkeypatch):
        policy = greedy_worst_switch(dwell)
        new = run_record(run_switched, policy, x0, 20.0, monkeypatch)
        assert new == run_record(switched_ref.run_switched, policy, x0, 20.0, monkeypatch)
        assert new[7] == "threshold" and len(new[4]) >= 8 * 20

    def test_seeded_unit_starts(self, monkeypatch):
        for x0, dwell in unit_starts(50, 33):
            policy = greedy_worst_switch(dwell)
            assert run_record(run_switched, policy, x0, 20.0, monkeypatch) == run_record(
                switched_ref.run_switched, policy, x0, 20.0, monkeypatch), (x0, dwell)

    def test_switch_inside_the_escape_step(self, monkeypatch):
        # no greedy run of a scan of 5,000 switched inside its escape step, so
        # this rule flips the greedy choice once, at |x| = 950, and keeps it:
        # at threshold 1e3 that sample lies in the escape step before the
        # escape, drops that step and steps to the sample again
        greedy = greedy_worst_switch(1e-2).rule

        def policy():
            flipped = []

            def rule(x):
                if not flipped and max(abs(x[0]), abs(x[1])) >= 950.0:
                    flipped.append(1 - greedy(x))
                return flipped[0] if flipped else greedy(x)

            return SwitchingPolicy(1e-2, rule)

        drops = []
        rewind = Stepper.rewind

        def recorded(st):
            drops.append(st.escape_info is not None)
            rewind(st)

        opts = IntegratorOptions(h_min=1e-14, escape_threshold=1e3)
        monkeypatch.setattr(Stepper, "rewind", recorded)
        new = run_record(run_switched, policy(), (1.0, 0.0), 20.0, monkeypatch, opts)
        assert drops[-1] and not any(drops[:-1])
        assert new == run_record(switched_ref.run_switched, policy(), (1.0, 0.0), 20.0, monkeypatch, opts)
        assert new[7] == "threshold"

    @pytest.mark.parametrize("max_steps", [1, 2, 40, 400, 1000, 1600, 2000])
    def test_budgets(self, max_steps, monkeypatch):
        # the samples and the step attempts share opts.max_steps: the same
        # exception, or the same run, after the same rule calls
        outs = []
        for fn in (run_switched, switched_ref.run_switched):
            calls = []
            greedy = greedy_worst_switch(1e-2)
            policy = dataclasses.replace(greedy, rule=lambda x: calls.append(1) or greedy.rule(x))
            try:
                outs.append(run_record(fn, policy, (1.0, 0.0), 20.0, monkeypatch,
                                   IntegratorOptions(h_min=1e-14, max_steps=max_steps)))
            except MaxStepsExceeded as e:
                outs.append(str(e))
            outs.append(len(calls))
        assert outs[:2] == outs[2:]

    def test_start_at_the_threshold(self, monkeypatch):
        policy = greedy_worst_switch(1e-2)
        new = run_record(run_switched, policy, (2e6, 0.0), 1.0, monkeypatch)
        assert new == run_record(switched_ref.run_switched, policy, (2e6, 0.0), 1.0, monkeypatch)
        assert new[5:8] == (0.0, 2e6, "threshold")


class TestFieldHasOneHome:
    """The stage derivative the closed loop computes inline is `planar_rhs()`
    at the mode, bit for bit: the same source, `systems._field`, with the
    gains blended once per mode (`systems._GAINS`)."""

    @staticmethod
    def bits(v):
        return np.array(v, dtype=float).tobytes()

    @pytest.mark.parametrize("mode", [0.0, 1.0])
    def test_inline_stage_is_the_rhs(self, mode):
        # the gains once per mode, then one stage's field, as the loop renders them
        stage = systems._define(f"stage(a_0, a_1, w, {systems._ENTRIES})",
                                [*systems._GAINS, *systems._field("a", "k1"), "return [k1_0, k1_1]"])
        gains = systems._gains(systems.DEFAULT_PLANAR)
        g = planar_rhs()
        rng = np.random.default_rng(int(mode))
        xs = rng.normal(size=(2000, 2)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(2000, 1))
        special = [0.0, -0.0, 1e154, -1e154, 1.3e154, math.inf, -math.inf, math.nan, 1.0]
        xs = np.vstack([xs, [[a, b] for a in special for b in special]])
        for x0, x1 in xs.tolist():
            assert self.bits(stage(x0, x1, mode, *gains)) == self.bits(g([x0, x1], mode)), (x0, x1)


def call_loop(sys):
    """sys with its rhs wrapped in a plain callable, which `integrate` steps by
    calling it: the loop that runs any rhs that carries no source."""
    rhs = sys.rhs
    return dataclasses.replace(sys, rhs=lambda y, delayed, u: rhs(y, delayed, u))


class TestFedField:
    """The planar, cascade and associated systems carry their field as source
    (`rhs.fed`), which `integrate` computes inline at every stage, reading
    the feed from the floats of the current piece."""

    SYSTEMS = {"planar": planar_system, "cascade": lambda: cascade_system(DEFAULT_DELAY),
               "associated": associated_system}
    #: the feed at the clamp's edges and signed zeros, NaN and infinities among ordinary values
    FEEDS = [0.0, 1.0, -0.0, math.nan, math.inf, -math.inf, 0.5, -0.25, 1.75, 1e-300, 1.0 - 2.0 ** -53]

    @staticmethod
    def bits(v):
        return np.array(v, dtype=float).tobytes()

    @staticmethod
    def pieces(w, dim, rng):
        """(kind, form, times) with component 0 of the piece w at its first
        time, the other components random, for every kind of piece."""
        rest = rng.normal(size=dim - 1).tolist()
        a, span = rng.uniform(0.0, 2.0), rng.uniform(0.01, 1.0)
        other = [rng.uniform(-1.0, 2.0), *rng.normal(size=dim - 1).tolist()]
        inside = [a + span * rng.uniform(), a + span * rng.uniform()]
        return [("constant", ("constant", np.array([w, *rest])), [a]),
                ("constant", ("constant", [w, *rest]), [a]),
                ("line", ("line", a, a + span - a, [w, *rest], other), [a, *inside]),
                ("line", ("line", a, a + span - a, other, [w, *rest]), [a + span, *inside]),
                ("decay", ("decay", [w, *rest], rng.uniform(-0.5, 3.0), a), [a, *inside]),
                ("call", ("call", lambda t: [w, *rest]), [a, *inside]),
                ("call", TimeShift(Constant([rng.uniform(-1.0, 2.0)] * dim), 0.3)._form(a, a + span), inside)]

    @pytest.mark.parametrize("name", SYSTEM_NAMES)
    def test_fused_stage_is_the_rhs(self, name):
        sys = self.SYSTEMS[name]()
        fed, values = sys.rhs.fed
        stage = _fed_kernel(sys.dim, fed)[1]
        rng = np.random.default_rng(SYSTEM_NAMES.index(name))
        ys = rng.normal(size=(12, sys.dim)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(12, 1))
        special = [0.0, -0.0, math.nan, math.inf, -1e200]
        ys = np.vstack([ys, [[v] * sys.dim for v in special]]).tolist()
        kinds = set()
        for w in self.FEEDS:
            for kind, form, times in self.pieces(w, 3 if name != "planar" else 1, rng):
                floats = _piece_floats(form, min(times), max(times), fed.top)
                kinds.add(floats[0])
                assert floats[0] == kind
                for t in times:
                    v = _render(form)(t)
                    for y in ys:
                        want = sys.rhs(y, (v,), ()) if sys.delays else sys.rhs(y, (), v)
                        assert self.bits(stage(t, y, *floats, *values)) == self.bits(want), (kind, w, t, y)
        assert kinds == {"constant", "line", "decay", "call"}

    @staticmethod
    def both_loops(monkeypatch, run):
        """run(integrate) twice, every integrate of the probes included: once
        as given, once with each system's rhs wrapped (`call_loop`). Each
        run's steps, outcome and trajectory bytes are the same either way."""
        sides = []
        for plain in (False, True):
            integ = (lambda sys, *a, **k: integrate(call_loop(sys), *a, **k)) if plain else integrate
            seen, outcome = [], Stepper.outcome

            def recorded(st):
                out = outcome(st)
                tr = out.trajectory
                seen.append((st._steps.__code__.co_filename, st.nsteps, out.flag, out.t_escape, out.final_norm,
                             tr.ts.tobytes(), tr.ys.tobytes(), tr.qs.tobytes()))
                return out

            with monkeypatch.context() as m:
                m.setattr(Stepper, "outcome", recorded)
                m.setattr(probes, "integrate", integ)
                sides.append((run(integ), seen))
        (fused, runs), (called, call_runs) = sides
        assert runs and all(r[0].endswith(", fed>") for r in runs)
        assert not any(r[0].endswith(", fed>") for r in call_runs)
        assert fused == called
        assert [r[1:] for r in runs] == [r[1:] for r in call_runs]

    def test_reach_time_draws(self, monkeypatch):
        # the 18 draws of the benchmark's reach-time workload: exact feed, line then decay pieces
        cells = ((1.0, 0.1), (1.0, 1.0), (10.0, 0.1), (10.0, 1.0), (100.0, 0.1), (100.0, 1.0))
        self.both_loops(monkeypatch, lambda integ: [probes.uga_table([r], [eps], n_samples=1, seed=s)
                                                    for s in (0, 1, 2) for r, eps in cells])

    def test_peak_histories(self, monkeypatch):
        # the delayed and embedded runs on [0, tau] of the seven smoothing
        # widths of the peak sweep and of four random histories
        tau, schedule = DEFAULT_DELAY, escape_schedule()[0]
        hists = []
        for delta in probes.DEFAULT_DELTAS:
            w = smooth_square(schedule, delta, strict=False)
            knots = np.unique(np.concatenate([[0.0, tau], w.knots[(w.knots > 0) & (w.knots < tau)]]))
            z = np.array([float(w.eval(t)[0]) for t in knots])
            hists.append(HistoryFn(knots - tau, np.column_stack([z, np.ones_like(z), np.zeros_like(z)])))
        for seed in range(4):
            rng = np.random.default_rng(seed)
            hists.append(random_history(rng, rng.uniform(0.1, 1.0), tau, 3))

        def run(integ):
            casc, assoc = cascade_system(tau), associated_system()
            for hist in hists:
                xi0, inputs = embed_history_as_inputs(hist, casc.delays)
                stops = saturation_stop_times(hist, tau, tau)
                integ(casc, hist, None, tau, PROBE_OPTS, extra_stops=stops)
                integ(assoc, xi0, inputs[0], tau, PROBE_OPTS, extra_stops=stops)

        self.both_loops(monkeypatch, run)

    def test_cascade_past_its_delay(self, monkeypatch):
        # T > tau: past tau the feed is a lookup of the dense output, one call per stage
        self.both_loops(monkeypatch, lambda integ: probes.estimate_R("cascade", 2.0, 3.0 * DEFAULT_DELAY, 4))

    def test_fed_runs_render_no_piece(self, monkeypatch):
        # a fed run reads each interval's floats from its form: with Signal.piece
        # refused it runs as before, for a history (then past tau), a line then
        # a decay, steps and a time shift, which is a call
        rng = np.random.default_rng(6)
        hist = random_history(rng, 0.5, DEFAULT_DELAY, 3)
        tail = Concatenation(PiecewiseLinear([0.0, 1.0], [[0.2], [1.7]]), ExponentialTail([1.7], 1.0, 1.0), 1.0)
        steps = PiecewiseConstant(rng.uniform(-0.5, 1.5, size=(4, 1)), [0.5, 1.0, 2.0])
        runs = [(cascade_system(DEFAULT_DELAY), hist, None, 2.5 * DEFAULT_DELAY),
                *((associated_system(), [0.5, 1.0, -0.5], u, 4.0) for u in (tail, steps, TimeShift(tail, 0.4))),
                (planar_system(), [0.5, -0.2], steps, 3.0)]

        def run():
            outs = [integrate(*args, PROBE_OPTS) for args in runs]
            return [(o.flag, o.trajectory.ts.tobytes(), o.trajectory.qs.tobytes()) for o in outs]

        want = run()
        monkeypatch.setattr(Signal, "piece", lambda *a: pytest.fail("Signal.piece called on the fed path"))
        assert run() == want

    def test_associated_driven_by_inputs(self, monkeypatch):
        rng = np.random.default_rng(5)
        steps = PiecewiseConstant(rng.uniform(-0.5, 1.5, size=(6, 1)), np.sort(rng.uniform(0.0, 3.0, size=5)))
        shifted = TimeShift(PiecewiseLinear(np.linspace(0.0, 3.0, 7), rng.uniform(-0.5, 1.5, size=(7, 1))), 0.4)

        def run(integ):
            for u in (steps, shifted):
                integ(associated_system(), [0.5, 1.0, -0.5], u, 4.0, PROBE_OPTS)

        self.both_loops(monkeypatch, run)


class TestHeldFeed:
    """A fused loop runs the gains of a constant feed piece once, when it
    loads the piece, and reads a line from +0.0 to +0.0 as the constant +0.0,
    the flat zeros of a peak history: bit for bit the gains of every stage."""

    @staticmethod
    def bits(v):
        return np.array(v, dtype=float).tobytes()

    def test_line_between_plus_zeros_reads_plus_zero(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            a, span = rng.uniform(-5.0, 5.0), 10.0 ** rng.uniform(-8.0, 2.0)
            form = ("line", a, a + span - a, [0.0, 1.0], [0.0, -2.0])
            kind, *_, t_in, t_out, hold = _piece_floats(form, a, a + span, self.TOP)
            assert kind == "constant" and (t_in, t_out) == (-math.inf, math.inf) and self.bits(hold) == self.bits(0.0)
            ts = np.concatenate([a + span * rng.uniform(size=50), [a, a + span, np.nextafter(a + span, np.inf)]])
            assert all(self.bits(_render(form)(t)[0]) == self.bits(0.0) for t in ts)
        for v0, v1 in ((-0.0, -0.0), (0.0, -0.0), (-0.0, 0.0), (0.0, 5e-324), (1.0, 1.0)):
            assert _piece_floats(("line", 0.0, 1.0, [v0], [v1]), 0.0, 1.0, self.TOP)[0] == "line"

    @staticmethod
    def gain_pairs(rng):
        """The default gains; a pair whose second row of A2 is -0.0, where the
        blend at w = -0.0 and at +0.0 differ in the sign of zero; and random
        pairs with -0.0 and +0.0 entries."""
        pairs = [DEFAULT_PLANAR, PlanarParams(Mat2(0.3, 2.0, 0.5, 0.25), Mat2(-0.1, 0.5, -0.0, -0.0))]
        for _ in range(4):
            a = rng.uniform(-1.0, 1.0, size=8)
            a[rng.random(8) < 0.4] = rng.choice([0.0, -0.0])
            pairs.append(PlanarParams(Mat2(*a[:4]), Mat2(*a[4:])))
        return pairs

    def test_held_gains_are_the_blend(self, monkeypatch):
        # the associated and the cascade system of each gain pair, driven by
        # constant and flat pieces at +0.0, -0.0, 1.0 and between: the fused
        # loop against the call loop, which blends at every stage
        rng = np.random.default_rng(38)
        knots = np.array([-1.0, -0.8, -0.6, -0.5, -0.3, -0.2, 0.0])
        zs = np.array([0.0, 0.0, -0.0, -0.0, 1.0, 1.0, 0.0])
        flat = HistoryFn(knots, np.column_stack([zs, np.full(7, 0.3), np.full(7, 0.2)]))
        steps = PiecewiseConstant(np.array([0.0, -0.0, 1.0, 0.4, -0.0, 0.0]), np.array([0.1, 0.2, 0.3, 0.5, 0.7]))
        inputs, pairs = (steps, flat.shifted(1.0), Constant(-0.0)), self.gain_pairs(rng)

        def run(integ):
            for params in pairs:
                for u in inputs:
                    integ(associated_system(params), [0.2, 0.3, 0.2], u, 1.0, PROBE_OPTS)
                integ(cascade_system(1.0, params), flat, None, 1.0, PROBE_OPTS)

        TestFedField.both_loops(monkeypatch, run)


    TOP = systems._SATURATION_LEVELS[1]

    @staticmethod
    def smallest_held(top=TOP):
        """The smallest float x > 1 whose flat line x -> x is held above 1."""
        x = math.nextafter(1.0, 2.0)
        while _piece_floats(("line", 0.0, 1.0, [x], [x]), 0.0, 1.0, top)[8] != 0.0:
            x = math.nextafter(x, math.inf)
        return x

    def test_held_intervals_are_sound(self):
        # random lines and decays near the levels, signed zeros and subnormals
        # among them, on random spans and past the decay's underflow: at
        # random stage times in each held interval, at its ends and at the
        # floats next to them inside, the piece reads a w of hold's branch
        rng = np.random.default_rng(39)
        near = [0.0, -0.0, 5e-324, -5e-324, -1e-323, 1.0, -1.0, 1.0 + 2.0 ** -52, 1.0 - 2.0 ** -53, 1e-300, -1e-300]
        held = set()
        for j in range(3000):
            ends = [rng.choice(near) * rng.choice([1.0, 1.0 + 2.0 ** -40]) if rng.random() < 0.4
                    else rng.uniform(-2.0, 3.0) * 10.0 ** rng.integers(-3, 4) for _ in range(2)]
            a, span = rng.uniform(0.0, 10.0), 10.0 ** rng.uniform(-6.0, 1.0)
            if j % 2:
                form = ("line", a, a + span - a, [ends[0]], [ends[1]])
                lo, hi = np.sort(a + span * rng.uniform(size=2))
                lo, hi = (a, a + span) if j % 4 == 1 else (lo, hi)
            else:
                rate = 10.0 ** rng.uniform(-2.0, 1.0)
                form = ("decay", [ends[0]], rate, a)
                lo, hi = a + np.cumsum(rng.uniform(0.0, 800.0 / rate, 2) * 10.0 ** rng.integers(-4, 1, 2))
            kind, *_, t_in, t_out, hold = _piece_floats(form, lo, hi, self.TOP)
            if kind == "constant" or t_in > t_out:
                continue
            held.add(("line" if j % 2 else "decay", hold, t_in == lo and t_out == hi))
            ts = np.concatenate([rng.uniform(t_in, t_out, 200), [t_in, t_out, np.nextafter(t_in, np.inf),
                                                                np.nextafter(t_out, -np.inf)]])
            for t in ts[(ts >= t_in) & (ts <= t_out)]:
                w = _render(form)(t)[0]
                assert (w >= 1.0) if hold >= 1.0 else (w < 0.0), (j, ends, lo, hi, t_in, t_out, t, w)
        # a line is held on its whole piece or not at all, a decay on a prefix
        assert {("line", v, True) for v in (1.0, -1.0)} <= held
        assert not {("line", v, False) for v in (1.0, -1.0)} & held
        assert {("decay", v, whole) for v in (1.0, -1.0) for whole in (True, False)} <= held

    def test_margin_zeros_and_the_flat_line(self):
        x = self.smallest_held()
        assert 1.0 + 2.0 ** -48 <= x < 1.0 + 2.0 ** -47
        below = math.nextafter(x, 0.0)
        for v0, v1, hold in ((x, x, 1.0), (3.0, 1.5, 1.0), (1.0, 1.0, 1.0), (-1e-323, -1e-323, -1.0), (-1.0, -0.5, -1.0),
                             (below, x, None), (below, below, None), (0.0, -0.0, None), (-0.0, -0.0, None),
                             (-5e-324, -5e-324, None), (1.0, 1.0 + 2.0 ** -52, None)):
            *_, t_in, t_out, held = _piece_floats(("line", 0.0, 1.0, [v0], [v1]), 0.0, 1.0, self.TOP)
            assert (t_in, t_out, held) == ((0.0, 1.0, hold) if hold else (math.inf, -math.inf, 0.0)), (v0, v1)
        # a piece on the part of a line past its crossing: the branch of its floats, not of its knots
        assert _piece_floats(("line", 0.0, 1.0, [0.5], [-1.5]), 0.75, 1.0, self.TOP)[8:] == (0.75, 1.0, -1.0)
        assert _piece_floats(("line", 0.0, 1.0, [-0.5], [2.5]), 0.75, 1.0, self.TOP)[8:] == (0.75, 1.0, 1.0)
        # a line that reaches -0.0 at its end, or the level at its end, is not held
        for v0, v1 in ((-1.0, -0.0), (2.0, 1.0), (1.0, 2.0)):
            assert _piece_floats(("line", 0.0, 1.0, [v0], [v1]), 0.0, 1.0, self.TOP)[8:] == (math.inf, -math.inf, 0.0)

    def test_held_pieces_are_the_blend(self, monkeypatch):
        # lines at and one ulp below the margin, from and to signed zeros, the
        # flat 1.0 and lines crossing the levels inside their piece, and a
        # negative decay run past its underflow at start + 745, where the
        # blend at w = -0.0 is not the gains below 0 for a pair with -0.0
        # entries: the fused loop against the call loop, for each gain pair
        x = self.smallest_held()
        below = math.nextafter(x, 0.0)
        zs = [x, x, below, x, 1.0, 1.0, 0.0, -0.0, -0.0, 0.0, -1e-323, -1e-323, 1.5, 0.5, -0.5, 0.5, -0.5, 1.2]
        line = PiecewiseLinear(np.linspace(0.0, 1.7, len(zs)), np.array(zs).reshape(-1, 1))
        tail = ExponentialTail([-0.75], 1.0, 0.2)
        pairs = self.gain_pairs(np.random.default_rng(40))

        def run(integ):
            for params in pairs:
                integ(associated_system(params), [0.2, 0.3, 0.2], line, 1.8, PROBE_OPTS)
                integ(associated_system(params), [0.2, 0.3, 0.2], tail, 760.0, PROBE_OPTS)

        TestFedField.both_loops(monkeypatch, run)


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
        norm_a = max(np.linalg.norm(matrix(a), 2) for a in (A_MODE1, A_MODE2))
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
