import math

import numpy as np
import pytest

from delayreach import probes
from delayreach.integrator import HistoryFn, IntegratorOptions, integrate
from delayreach.probes import (
    DEFAULT_DELTAS,
    PROBE_OPTS,
    HorizonTooShort,
    TauTooShort,
    _certified_settle,
    _exact_feed,
    _feed_run,
    es_check,
    escape_schedule,
    estimate_R,
    random_history,
    rfc_sweep,
    theoretical_reach_time,
    uga_table,
)
from delayreach.systems import DEFAULT_DELAY, cascade_system, saturation_stop_times


class TestHelpers:
    def test_theoretical_reach_time_formula(self, cert):
        tau = 1.3
        lam = cert.capital_lambda
        t = theoretical_reach_time(5.0, 0.1, tau, cert)
        expect = math.log(5.0 / min(lam, 0.1)) + tau + 2.0 * cert.p0.c2 ** 2 / (cert.p0.c1 * 0.01)
        assert t == pytest.approx(expect, rel=1e-12)
        # tiny initial data needs no decay phase
        assert theoretical_reach_time(1e-9, 0.1, tau, cert) == pytest.approx(
            tau + 2.0 * cert.p0.c2 ** 2 / (cert.p0.c1 * 0.01)
        )

    def test_random_history_norm_exact(self, rng):
        for _ in range(20):
            h = random_history(rng, 0.7, 1.5, 3)
            assert h.norm() == pytest.approx(0.7, rel=1e-12)
            assert h.tau == pytest.approx(1.5)

    def test_escape_schedule_zeroed_after_escape(self):
        sched, t_esc = escape_schedule()
        assert sched.eval(t_esc + 0.1)[0] == 0.0
        # the pieces that start before the escape
        before = sched.values[: int(np.searchsorted(sched.breaks, t_esc)) + 1]
        assert float(np.abs(before).max()) == 1.0


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

    @pytest.mark.parametrize("r", [math.nan, math.inf, -1.0], ids=["nan", "inf", "negative"])
    def test_r_must_be_finite_and_nonnegative(self, r):
        # nan raised OverflowError inside the draws, a negative r drew from
        # an inverted interval
        with pytest.raises(ValueError, match="r must be finite and >= 0"):
            estimate_R("planar", r, 1.0, 2)

    def test_escape_seen_at_unit_norm(self):
        est = estimate_R("planar", 1.0, 2.0, 2, seed=0)
        assert est.escape_seen
        assert est.lower_bound >= 1e5

    def test_small_ball_no_escape(self):
        est = estimate_R("associated", 0.01, 5.0, 5, seed=0)
        assert not est.escape_seen
        assert est.lower_bound >= 0.01

    def test_cascade_draws_force_the_saturation_stops(self, monkeypatch):
        # each delayed draw is, bit for bit, the run whose step boundaries
        # include the delayed feed's saturation crossings
        runs = []

        def spy(sys, ic, u, T, opts, **kw):
            out = integrate(sys, ic, u, T, opts, **kw)
            runs.append((sys, ic, u, T, opts, out.trajectory))
            return out

        monkeypatch.setattr(probes, "integrate", spy)
        estimate_R("cascade", 3.0, 2.0, 50, seed=0)
        assert len(runs) == 51
        forced = 0
        for sys, ic, u, T, opts, traj in runs:
            stops = saturation_stop_times(ic, sys.tau, T)
            forced += len(stops) > 0
            ref = integrate(sys, ic, u, T, opts, extra_stops=stops).trajectory
            assert (traj.ts.tobytes(), traj.ys.tobytes(), traj.qs.tobytes()) == (
                ref.ts.tobytes(), ref.ys.tobytes(), ref.qs.tobytes())
        assert forced > 10


class TestEsCheck:
    def test_no_violations_small_sample(self):
        fit = es_check(n_ics=15, seed=2)
        assert fit.violations == 0
        assert fit.k_emp > 0.0


#: the (r, eps) cells of the reach-time table
REACH_CELLS = ((1.0, 0.1), (1.0, 1.0), (10.0, 0.1), (10.0, 1.0), (100.0, 0.1), (100.0, 1.0))


def uga_draw(r, eps, seed=0):
    """tau and the history `uga_table` draws first for (seed, r, eps)."""
    tau = DEFAULT_DELAY
    rng = np.random.default_rng((seed, int(r * 1000), int(eps * 1000), 0))
    return tau, random_history(rng, r * rng.uniform(0.3, 1.0), tau, 3)


class TestUgaTable:
    def test_single_cell(self):
        cells = uga_table([1.0], [1.0], n_samples=4, seed=1)
        assert len(cells) == 1
        assert cells[0].ok
        assert cells[0].t_emp_max < cells[0].t_theory

    @pytest.mark.parametrize("r,eps", REACH_CELLS)
    def test_draw_is_keyed_by_seed_milli_r_milli_eps_and_index(self, cert, r, eps):
        # the benchmark's reach_times check rebuilds draw 0 from this key, so
        # a new key would settle another history than the one it checks
        for seed in (0, 7):
            tau, hist = uga_draw(r, eps, seed)
            hard = theoretical_reach_time(r, eps, tau, cert) + 100.0
            t_emp, _ = _certified_settle(hist, tau, eps, cert, hard, PROBE_OPTS)
            (cell,) = uga_table([r], [eps], n_samples=1, seed=seed)
            assert cell.t_emp_max.hex() == t_emp.hex(), (r, eps, seed)


def delayed_settle(hist, tau, eps, cert, hard_horizon, opts):
    """Settle time of the delayed 3-state cascade run, certified by the rule
    of `_certified_settle` with every value read off that run: |z(t - tau)|
    <= Lambda, |z(t)| <= min(Lambda, eps), W(x(t)) <= c1 eps^2, and the last
    time above eps before t."""
    lam = cert.capital_lambda
    settled = []

    def sealed(traj, t):
        z_back, state = traj.eval(t - tau), traj.eval(t)
        if not (
            abs(float(z_back[0])) <= lam
            and abs(float(state[0])) <= min(lam, eps)
            and cert.p0.quad(state[1:3]) <= cert.p0.c1 * eps * eps
        ):
            return False
        t_emp = traj.last_time_above(eps)
        if t_emp >= t - 1e-9:
            return False
        settled.append(t_emp)
        return True

    stops = saturation_stop_times(hist, tau, hard_horizon)
    out = integrate(cascade_system(tau), hist, None, hard_horizon, opts, extra_stops=stops,
                    stop=(tau, sealed))
    assert not out.escaped and settled, "reference failed to certify"
    return settled[0]


TIGHT_OPTS = IntegratorOptions(rel_tol=1e-10, abs_tol=1e-12)


class TestCertifiedSettle:
    def test_unit_r_settle_times_match_a_tight_delayed_run(self, cert):
        for seed in (0, 1, 2):
            for r, eps in REACH_CELLS[:2]:  # the r = 1 cells
                tau, hist = uga_draw(r, eps, seed)
                hard = theoretical_reach_time(r, eps, tau, cert) + 100.0
                t_emp, traj = _certified_settle(hist, tau, eps, cert, hard, PROBE_OPTS)
                t_ref = delayed_settle(hist, tau, eps, cert, hard, TIGHT_OPTS)
                assert abs(t_emp - t_ref) <= 1e-3, (r, eps, seed, t_emp, t_ref)
                # one run of the planar block, stopped after the settle time
                # and covering the peak window [0, tau]
                assert traj.dim == 2 and traj.t_start == 0.0 and traj.t_end >= max(tau, t_emp)

    def test_feed_sets_the_settle_time_and_the_seal(self, cert):
        # x starts at 1e-3 and never reaches eps, so the settle time is the
        # last time z0 e^{-t} is above eps, and the run may stop only once
        # the feed z0 e^{-(t - tau)} is inside the certificate region
        tau, lam, eps = DEFAULT_DELAY, cert.capital_lambda, 0.1
        for k in range(1, 13):
            z0 = lam * math.exp(k / 2)
            hist = HistoryFn.constant([z0, 1e-3, 0.0], tau)
            t_emp, traj = _certified_settle(hist, tau, eps, cert, 300.0, PROBE_OPTS)
            assert t_emp == max(0.0, math.log(z0 / eps)), k
            assert traj.t_end >= tau + math.log(z0 / lam), k

    def test_uncertified_by_the_hard_horizon_raises(self, cert):
        tau, hist = uga_draw(1.0, 0.1)  # settles near t = 46
        with pytest.raises(HorizonTooShort):
            _certified_settle(hist, tau, 0.1, cert, 20.0, PROBE_OPTS)

    @pytest.mark.parametrize("r,eps", [c for c in REACH_CELLS if c[0] >= 10.0])
    def test_large_r_draw_settles_in_time_at_tight_tolerances(self, cert, r, eps):
        # at PROBE_OPTS the settle times of r >= 10 have no reliable digit
        # (README); the verdict must not rest on that error
        tau, hist = uga_draw(r, eps)
        t_theory = theoretical_reach_time(r, eps, tau, cert)
        t_emp, _ = _certified_settle(hist, tau, eps, cert, t_theory + 100.0, TIGHT_OPTS)
        assert t_emp <= t_theory


class TestExactFeed:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_the_delayed_z_of_a_cascade_run(self, seed):
        tau = DEFAULT_DELAY
        rng = np.random.default_rng(seed)
        hist = random_history(rng, 1.5, tau, 3)
        w = _exact_feed(hist, tau)
        z0 = hist.eval(0.0)[0]
        z = integrate(cascade_system(tau), hist, None, 2.0 * tau, IntegratorOptions()).trajectory
        for t in np.linspace(0.0, 3.0 * tau, 301):
            s = t - tau
            z_del = hist.eval(s)[0] if s <= 0.0 else z.eval(s)[0]
            assert abs(w.eval(t)[0] - z_del) <= 1e-7, t
        # continuous at tau, where the shifted history hands over to the tail
        assert w.piece(np.nextafter(tau, 0.0), tau)(tau)[0] == w.eval(tau)[0] == z0
        assert w.eval(tau - 1e-9)[0] == pytest.approx(z0, abs=1e-6)
        assert tau in w.breakpoints(0.0, 3.0 * tau)
        # the run on the feed steps to each of its crossings of 0 and 1
        stops = saturation_stop_times(hist, tau, 3.0 * tau)
        assert len(stops) > 0
        assert np.isin(stops, _feed_run(hist, tau, 3.0 * tau, PROBE_OPTS).ts).all()

    @pytest.mark.parametrize("z0", [-2.0, 0.0, 0.5, 1.0, 1.5, 4.0])
    def test_tail_crossing_of_1_is_a_stop_exactly_when_z0_exceeds_1(self, z0):
        tau = 1.3
        hist = HistoryFn(np.array([-tau, -0.5, 0.0]), np.array([[0.3, 0.0, 0.0], [0.7, 0.0, 0.0], [z0, 0.0, 0.0]]))
        w = _exact_feed(hist, tau)
        assert w.eval(tau)[0] == z0
        # the tail's crossing is among the stops, and the run steps to each
        stops = saturation_stop_times(hist, tau, 100.0)
        assert np.isin(stops, _feed_run(hist, tau, 100.0, PROBE_OPTS).ts).all()
        tail = stops[stops > tau]
        if z0 > 1.0:
            assert list(tail) == [tau + math.log(z0)]
            assert w.eval(tail[0])[0] == pytest.approx(1.0, rel=1e-12)
        else:
            assert len(tail) == 0
        # on [0, tau], the window the embedding runs use, the tail lies after
        # the end: the crossings of the shifted history alone
        on_window = saturation_stop_times(hist, tau, tau)
        assert on_window.tobytes() == stops[stops < tau].tobytes()
        assert (on_window < tau).all()


    @pytest.mark.parametrize("mag", [1e-2, 1e-200, 1e-300])
    def test_crossings_are_decided_by_signs(self, mag):
        # the product of two values below ~1e-162 is -0.0: the signs decide
        hist = HistoryFn(np.array([-1.0, -0.5, 0.0]), np.array([[mag], [-mag], [-mag]]) * [1.0, 0.0, 0.0])
        assert saturation_stop_times(hist, 1.0, 2.0).tolist() == [0.25]
        flat = HistoryFn(np.array([-1.0, -0.5, 0.0]), np.array([[mag], [0.0], [-mag]]) * [1.0, 0.0, 0.0])
        assert saturation_stop_times(flat, 1.0, 2.0).tolist() == [0.5]


class TestRfcSweep:
    def test_sweep_monotone(self, rfc_run):
        res = rfc_run
        assert res.deltas == DEFAULT_DELTAS
        assert res.strictly_increasing
        assert res.settled_in_time
        assert all(abs(n - 1.0) < 1e-9 for n in res.history_norms)

    def test_rejects_tau_below_escape_bound(self):
        with pytest.raises(TauTooShort):
            rfc_sweep(tau=0.5)
