import math

import numpy as np
import pytest

from delayreach.integrator import HistoryFn, IntegratorOptions, integrate
from delayreach.probes import (
    PROBE_OPTS,
    HorizonTooShort,
    TauTooShort,
    WindowInvalid,
    _certified_settle,
    constant_input_descent,
    decay_audit,
    es_check,
    escape_schedule,
    estimate_R,
    random_history,
    rfc_sweep,
    theoretical_reach_time,
    uga_table,
)
from delayreach.systems import cascade_system, default_cascade_delay


class TestHelpers:
    def test_theoretical_reach_time_formula(self, cert):
        tau = 1.3
        lam = cert.capital_lambda
        t = theoretical_reach_time(5.0, 0.1, tau, cert)
        expect = math.log(5.0 / min(lam, 0.1)) + tau + 2.0 * cert.c2 ** 2 / (cert.c1 * 0.01)
        assert t == pytest.approx(expect, rel=1e-12)
        # tiny initial data needs no decay phase
        assert theoretical_reach_time(1e-9, 0.1, tau, cert) == pytest.approx(
            tau + 2.0 * cert.c2 ** 2 / (cert.c1 * 0.01)
        )

    def test_random_history_norm_exact(self, rng):
        for _ in range(20):
            h = random_history(rng, 0.7, 1.5, 3)
            assert h.norm() == pytest.approx(0.7, rel=1e-12)
            assert h.tau == pytest.approx(1.5)

    def test_escape_schedule_zeroed_after_escape(self):
        sched, t_esc = escape_schedule()
        assert sched.eval(t_esc + 0.1)[0] == 0.0
        assert sched.sup_norm(0.0, t_esc) == 1.0


class TestEstimateR:
    def test_zero_horizon_is_exact(self):
        for kind in ("planar", "cascade", "associated"):
            est = estimate_R(kind, 2.5, 0.0, 3)
            assert est.lower_bound == 2.5
            assert not est.escape_seen

    def test_budget_monotone(self):
        a = estimate_R("planar", 0.5, 1.0, 3, seed=11)
        b = estimate_R("planar", 0.5, 1.0, 8, seed=11)
        assert b.lower_bound >= a.lower_bound

    def test_deterministic(self):
        a = estimate_R("cascade", 0.5, 1.0, 4, seed=5)
        b = estimate_R("cascade", 0.5, 1.0, 4, seed=5)
        assert a.lower_bound == b.lower_bound

    def test_escape_seen_at_unit_norm(self):
        est = estimate_R("planar", 1.0, 2.0, 2, seed=0)
        assert est.escape_seen
        assert est.lower_bound >= 1e5

    def test_small_ball_no_escape(self):
        est = estimate_R("associated", 0.01, 5.0, 5, seed=0)
        assert not est.escape_seen
        assert est.lower_bound >= 0.01


class TestEsCheck:
    def test_no_violations_small_sample(self):
        fit = es_check(n_ics=15, seed=2)
        assert fit.violations == 0
        assert fit.k_emp > 0.0


class TestUgaTable:
    def test_single_cell(self):
        cells = uga_table([1.0], [1.0], n_samples=4, seed=1)
        assert len(cells) == 1
        assert cells[0].ok
        assert cells[0].t_emp_max < cells[0].t_theory


def doubling_settle(sys, history, eps, cert, hard_horizon, opts):
    """The settle loop `_certified_settle` replaced, kept as its reference:
    integrate to tau + 50, certify on a 65-point grid after the last time
    above eps, else integrate again from 0 to twice the horizon. Returns
    (t_emp, number of runs)."""
    tau, lam = sys.tau, cert.capital_lambda
    horizon, runs = min(tau + 50.0, hard_horizon), 0
    while True:
        traj = integrate(sys, history, None, horizon, opts).trajectory
        runs += 1
        t_emp = traj.last_time_above(eps)

        def certified_at(t_c):
            z_back = history.eval(t_c - tau) if t_c - tau <= 0.0 else traj.eval(t_c - tau)
            state = traj.eval(t_c)
            return (
                abs(float(z_back[0])) <= lam
                and abs(float(state[0])) <= min(lam, eps)
                and cert.p0.quad(state[1:3]) <= cert.c1 * eps * eps
            )

        if t_emp < horizon - 1e-9 and any(
            certified_at(t_c) for t_c in np.linspace(t_emp, horizon, 65)[1:]
        ):
            return t_emp, runs
        assert horizon < hard_horizon - 1e-9, "reference failed to certify"
        horizon = min(2.0 * horizon, hard_horizon)


#: the (r, eps) cells of the reach-time table
REACH_CELLS = ((1.0, 0.1), (1.0, 1.0), (10.0, 0.1), (10.0, 1.0), (100.0, 0.1), (100.0, 1.0))


def uga_draw(r, eps, seed=0):
    """The history `uga_table` draws first for (seed, r, eps)."""
    tau = default_cascade_delay()
    rng = np.random.default_rng((seed, int(r * 1000), int(eps * 1000), 0))
    return cascade_system(tau), random_history(rng, r * rng.uniform(0.3, 1.0), tau, 3)


class TestCertifiedSettle:
    def test_matches_the_doubling_loop_bit_for_bit(self, cert):
        runs = []
        # at the default tau no seed-0 draw needs the doubled reference run;
        # seeds 1-3 of (100, 0.1) are searched until one does
        draws = [(r, eps, 0) for r, eps in REACH_CELLS] + [(100.0, 0.1, s) for s in (1, 2, 3)]
        for r, eps, seed in draws:
            if seed > 0 and max(runs) >= 2:
                break
            sys, hist = uga_draw(r, eps, seed)
            hard = theoretical_reach_time(r, eps, sys.tau, cert) + 100.0
            t_ref, n = doubling_settle(sys, hist, eps, cert, hard, PROBE_OPTS)
            t_emp, traj = _certified_settle(sys, hist, eps, cert, hard, PROBE_OPTS)
            assert t_emp == t_ref, (r, eps, seed)
            # one run, stopped after the settle time, covering the peak window [0, tau]
            assert traj.t_start == 0.0 and traj.t_end >= max(sys.tau, t_emp)
            assert traj.last_time_above(eps) == t_emp
            runs.append(n)
        assert max(runs) >= 2

    def test_uncertified_by_the_hard_horizon_raises(self, cert):
        sys, hist = uga_draw(1.0, 0.1)  # settles near t = 46
        with pytest.raises(HorizonTooShort):
            _certified_settle(sys, hist, 0.1, cert, 20.0, PROBE_OPTS)

    @pytest.mark.parametrize("r,eps", [c for c in REACH_CELLS if c[0] >= 10.0])
    def test_large_r_draw_settles_in_time_at_tight_tolerances(self, cert, r, eps):
        # at PROBE_OPTS the settle times of r >= 10 have no reliable digit
        # (README); the verdict must not rest on that error
        sys, hist = uga_draw(r, eps)
        t_theory = theoretical_reach_time(r, eps, sys.tau, cert)
        tight = IntegratorOptions(rel_tol=1e-10, abs_tol=1e-12)
        t_emp, _ = _certified_settle(sys, hist, eps, cert, t_theory + 100.0, tight)
        assert t_emp <= t_theory


class TestRfcSweep:
    def test_short_sweep_monotone(self):
        res = rfc_sweep(delta_list=[0.1, 0.05, 0.025])
        assert res.strictly_increasing
        assert res.settled_in_time
        assert all(abs(n - 1.0) < 1e-9 for n in res.history_norms)

    def test_rejects_nondecreasing_deltas(self):
        with pytest.raises(ValueError):
            rfc_sweep(delta_list=[0.05, 0.1])

    def test_rejects_tau_below_escape_bound(self):
        with pytest.raises(TauTooShort):
            rfc_sweep(tau=0.5)


class TestDecayAudit:
    def test_no_violation_in_certified_region(self, cert):
        tau = default_cascade_delay()
        lam = cert.capital_lambda
        h = HistoryFn.constant(np.array([0.9 * lam, 0.01, -0.008]), tau)
        out = integrate(cascade_system(tau), h, None, 15.0, PROBE_OPTS)
        assert decay_audit(out.trajectory, cert, 0.0, 15.0) <= 0.0

    def test_empty_window_rejected(self, cert):
        tau = default_cascade_delay()
        h = HistoryFn.constant(np.array([0.0, 0.01, 0.0]), tau)
        out = integrate(cascade_system(tau), h, None, 1.0, PROBE_OPTS)
        with pytest.raises(WindowInvalid):
            decay_audit(out.trajectory, cert, 2.0, 1.0)


class TestConstantInputDescent:
    def test_lyapunov_descent_for_each_constant(self):
        worst = constant_input_descent([-1.0, 0.0, 0.5, 1.0, 3.0], n_ics=3, T=2.0)
        assert worst <= 0.0
