import math

import numpy as np
import pytest

from delayreach.integrator import HistoryFn, integrate
from delayreach.probes import (
    PROBE_OPTS,
    TauTooShort,
    WindowInvalid,
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


class TestRfcSweep:
    def test_short_sweep_monotone(self):
        res = rfc_sweep(delta_list=[0.1, 0.05, 0.025])
        assert res.strictly_increasing
        assert res.settled_in_time
        assert all(abs(n - 1.0) < 1e-9 for n in res.history_norms)

    def test_rejects_nondecreasing_deltas(self):
        with pytest.raises(ValueError):
            rfc_sweep(delta_list=[0.05, 0.1])

    def test_rejects_tau_below_escape_bound(self, escape_run):
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
