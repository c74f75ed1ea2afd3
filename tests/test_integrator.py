import math

import numpy as np
import pytest

from delayreach.integrator import (
    BadHistoryDomain,
    DiscreteDelaySystem,
    HistoryFn,
    IntegratorOptions,
    MaxStepsExceeded,
    SpanTooShort,
    Stepper,
    StepSizeCollapse,
    Trajectory,
    _forced_stops,
    _quartic_eval,
    integrate,
)
from delayreach.probes import random_history
from delayreach.signals import Constant, ExponentialTail, PiecewiseConstant
from delayreach.systems import (
    associated_system,
    cascade_system,
    planar_rhs,
    planar_system,
    saturation_stop_times,
)

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

    def test_history_domain_validation(self):
        hist = HistoryFn.constant(np.array([1.0]), 2.0)
        with pytest.raises(BadHistoryDomain):
            integrate(delayed_unit_system(), hist, None, 1.0)
        with pytest.raises(BadHistoryDomain):
            integrate(delayed_unit_system(), np.array([1.0]), None, 1.0)


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


def segment_sup(y0, q):
    """Unpruned reference: |x|_inf at both ends and at every real root in (0, 1)
    of each component's cubic derivative."""
    best = max(float(np.abs(y0).max()), float(np.abs(y0 + q[0] + q[1] + q[2] + q[3]).max()))
    for i in range(len(y0)):
        for r in np.roots(np.trim_zeros([4.0 * q[3][i], 3.0 * q[2][i], 2.0 * q[1][i], q[0][i]], "f")):
            if abs(r.imag) < 1e-12 and 0.0 < r.real < 1.0:
                th = float(r.real)
                val = y0[i] + th * (q[0][i] + th * (q[1][i] + th * (q[2][i] + th * q[3][i])))
                best = max(best, abs(val))
    return best


@pytest.fixture(scope="module")
def cascade_traj():
    # a cascade run on which 9-point sampling of partial segments read the
    # sup of some windows 5.1e-7 (relative) below dense sampling
    hist = HistoryFn.constant(np.array([0.9, 2.0, -1.0]), 1.0)
    out = integrate(cascade_system(1.0), hist, None, 10.0)
    assert not out.escaped
    return out.trajectory


def bumps():
    """Two quartic segments, exact in floating point: component 0 is
    8th(1 - th) on [0, 1] (peak 2) and 4th(1 - th) on [1, 2] (peak 1);
    component 1 is -6th(1 - th) on [0, 1] and 0 on [1, 2]."""
    traj = Trajectory(0.0, np.zeros(2))
    z = np.zeros(2)
    traj._append(1.0, z, np.array([[8.0, -6.0], [-8.0, 6.0], [0.0, 0.0], [0.0, 0.0]]).T, z)
    traj._append(2.0, z, np.array([[4.0, 0.0], [-4.0, 0.0], [0.0, 0.0], [0.0, 0.0]]).T, z)
    traj._trim()
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

    def test_whole_segment_windows_match_unpruned_search(self, cascade_traj):
        traj = cascade_traj
        n = len(traj.ts)
        rng = np.random.default_rng(1)
        pairs = [(0, n - 1)] + [tuple(sorted(rng.choice(n, 2, replace=False))) for _ in range(40)]
        for i, j in pairs:
            ref = max(float(np.abs(traj.ys[i]).max()), float(np.abs(traj.ys[j]).max()),
                      *(segment_sup(traj.ys[k], traj.qs[k]) for k in range(i, j)))
            assert traj.sup_norm(float(traj.ts[i]), float(traj.ts[j])) == ref

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


class TestStepperArithmetic:
    @pytest.mark.parametrize("dim", [1, 2, 3])
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
        assert st.slope.tobytes() == np.array(ks[6]).tobytes()
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
            t, y, h = st.t, st.y.tolist(), 10.0 ** rng.uniform(-4.0, -2.0)
            st.h, nsteps = h, st.nsteps
            st.advance(100.0, until=t)
            assert st.nsteps == nsteps + 1 and st.t == t + h
            ks = [rhs(t, y)]
            for c, row in zip(DP_C[1:], DP_A[1:]):
                ks.append(rhs(t + c * h, [y[i] + h * ordered_sum(row, ks, i) for i in range(dim)]))
            q = [[h * ordered_sum([row[col] for row in DP_P], ks, i) for i in range(dim)] for col in range(4)]
            assert st.traj.qs[-1].tobytes() == np.array(q).tobytes()


def array_interp(traj, t):
    """Trajectory._interp as numpy arithmetic on the segment's arrays."""
    if len(traj.ts) == 1:
        return traj.ys[0]
    i = traj._segment(t)
    if t == traj.ts[i + 1]:
        return traj.ys[i + 1]
    th = (t - traj.ts[i]) / (traj.ts[i + 1] - traj.ts[i])
    return _quartic_eval(traj.ys[i], traj.qs[i], th)


def is_float_list(v):
    return type(v) is list and all(type(x) is float for x in v)


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
                    traj._append(t, ys[k + 1], (rng.normal(size=(4, dim)) * scale[k]).T, ys[k])
                ts = traj.ts
                # theta = 0 at each node, the last node itself, and one random
                # instant inside every segment
                for t in ts.tolist() + rng.uniform(ts[:-1], ts[1:]).tolist():
                    assert traj._interp(t).tobytes() == array_interp(traj, t).tobytes(), t
                n += m
        assert n >= 10_000
        single = Trajectory(1.0, np.array([-0.0, 2.0]))
        for t in (0.0, 1.0, 3.0):
            assert single._interp(t).tobytes() == array_interp(single, t).tobytes()

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
                assert np.array(out).tobytes() == (value * np.exp(-rate * (t - start))).tobytes()


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
        assert chunked.h == whole.h and chunked.y.tobytes() == whole.y.tobytes()
        assert chunked.slope.tobytes() == whole.slope.tobytes()
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
            before = (st.t, st.y.tobytes(), len(st.traj.ts), st.slope.tobytes())
            # one accepted step: the soft stop fires at the end of the first one
            st.advance(target, until=st.t)
            assert st.escape_info is None
            dropped = traj_bytes(st.traj)
            at_end = st.t == target
            st.rewind()
            assert (st.t, st.y.tobytes(), len(st.traj.ts), st.slope.tobytes()) == before
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
        assert st.y.tobytes() == st.traj.ys[-1].tobytes()
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
    """`_interp` reads the last segment from the floats `_append` kept, in
    place of the arrays: the bytes must be the arrays' bytes, and a dropped
    step must never be read."""

    def test_last_segment_reads_as_the_arrays(self):
        rng = np.random.default_rng(3)
        st = Stepper(rotating_rhs, 0.0, np.array([1.0, 0.0]), IntegratorOptions())
        soft = 0
        for target in (1.0, 2.5, 6.0):
            while st.t != target:
                st.advance(target, until=st.t + 0.2)
                traj = st.traj
                # the floats held are those of the last segment
                assert traj._tail[:2] == tuple(traj.ts[-2:].tolist())
                for t in segment_reads(traj, len(traj.ts) - 2, rng):
                    assert traj._interp(t).tobytes() == array_interp(traj, t).tobytes(), t
                soft += st.t != target
        assert soft > 10
        traj = st.outcome().trajectory  # frozen, still holding the tail
        assert traj._tail is not None
        for t in segment_reads(traj, len(traj.ts) - 2, rng):
            assert traj._interp(t).tobytes() == array_interp(traj, t).tobytes(), t

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
                assert traj._interp(t).tobytes() == array_interp(traj, t).tobytes(), t
            # a node inside the dropped step, as a switch makes one
            st.advance(0.5 * (st.t + t_dropped))
            for t in dropped + segment_reads(traj, len(traj.ts) - 2, rng):
                assert traj._interp(t).tobytes() == array_interp(traj, t).tobytes(), t


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
        st.rewind()  # clears the held tail: t_end is read from the arrays
        traj = st.outcome().trajectory
        assert traj._tail is None
        before = traj_bytes(traj)
        for t in traj.ts.tolist():
            x = traj.eval(t)
            x[:] = 7.0
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
        # the Stepper fills a (n, dim, 4) buffer; frozen, a trajectory holds
        # exactly ts, ys and qs, with qs (n_seg, 4, dim), each its own copy
        out = integrate(cascade_system(1.0), HistoryFn.constant([0.9, 2.0, -1.0], 1.0), None, 4.0)
        traj = out.trajectory
        arrays = {k: v for k, v in vars(traj).items() if isinstance(v, np.ndarray)}
        assert set(arrays) == {"ts", "ys", "qs"}
        n = len(traj.ts)
        assert traj.qs.shape == (n - 1, 4, 3) and traj.ys.shape == (n, 3)
        for v in arrays.values():
            assert v.base is None and v.flags.c_contiguous


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
        assert set(inside) <= set(_forced_stops(cascade_system(d), None, T, h).tolist())
        # within its 1e-9 slack a hair below -tau, eval is the first knot's value
        assert h.eval(np.nextafter(h.knots[0] - 1e-9, 0.0)).tobytes() == h.values[0].tobytes()

    def test_knots_an_ulp_apart_round_together_under_the_shift(self):
        # the later knot stays, as in the forced stops, and the run goes through
        h = HistoryFn([-1.0, -1e-17, 0.0], [[0.5, 0.1, 0.0], [0.2, 0.1, 0.0], [0.3, 0.1, 0.0]])
        s = h.shifted(1.0)
        assert s.knots.tolist() == [0.0, 1.0] and s.values[:, 0].tolist() == [0.5, 0.3]
        assert not integrate(cascade_system(1.0), h, None, 2.0).escaped


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


class TestStepperOutcomes:
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
