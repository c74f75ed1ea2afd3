"""Acceptance suite: one test per headline property, one verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines for
passing criteria as well (pytest shows captured output only on failure).
"""

import math

import numpy as np
import pytest

from delayreach.integrator import (
    DiscreteDelaySystem,
    HistoryFn,
    IntegratorOptions,
    integrate,
)
from delayreach.lyap import (
    A_MODE1,
    A_MODE2,
    _min_margin,
    blend,
    is_hurwitz,
    lyapunov_residual,
    solve_lyapunov,
)
from delayreach.probes import (
    embedding_check,
    es_check,
    estimate_R,
    random_history,
    uga_table,
)
from delayreach.systems import (
    SYSTEM_NAMES,
    associated_system,
    cascade_system,
    embed_history_as_inputs,
    saturation_stop_times,
)

from audit import residual_audit

ORACLE_OPTS = IntegratorOptions()  # rel_tol 1e-8, abs_tol 1e-9


def report(name: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_lyapunov_certification():
    worst = 0.0
    for lam in np.linspace(0.0, 1.0, 101):
        a = blend(A_MODE1, A_MODE2, float(lam))
        assert is_hurwitz(a)
        worst = max(worst, lyapunov_residual(a, solve_lyapunov(a)))
    report(
        "lyapunov-certification",
        worst <= 1e-12,
        f"101 blend points Hurwitz, max residual {worst:.2e} <= 1e-12",
    )


def test_criterion_2_integrator_oracles():
    tol = 10.0 * ORACLE_OPTS.rel_tol
    decay = DiscreteDelaySystem(dim=1, input_dim=0, delays=(), rhs=lambda y, d, u: [-v for v in y])
    out = integrate(decay, np.array([1.0]), None, 1.0, ORACLE_OPTS)
    err_decay = abs(out.trajectory.eval(1.0)[0] - math.exp(-1.0))

    burst = DiscreteDelaySystem(
        dim=1, input_dim=0, delays=(), rhs=lambda y, d, u: [1.0 + v * v for v in y]
    )
    out_b = integrate(burst, np.array([0.0]), None, 5.0, ORACLE_OPTS)
    err_escape = abs(out_b.t_escape - math.pi / 2.0)

    tau = 1.0
    casc = cascade_system(tau)
    h = HistoryFn.constant(np.array([0.8, 0.001, -0.001]), tau)
    out_c = integrate(casc, h, None, 5.0, ORACLE_OPTS)
    err_z = max(
        abs(out_c.trajectory.eval(t)[0] - 0.8 * math.exp(-t)) for t in np.linspace(0.0, 5.0, 100)
    )

    ok = err_decay <= tol and out_b.escaped and err_escape <= 1e-3 and err_z <= tol
    report(
        "integrator-oracles",
        ok,
        f"decay err {err_decay:.2e} <= {tol:.0e}; blow-up time err {err_escape:.2e} <= 1e-3; "
        f"feed-decay err {err_z:.2e} <= {tol:.0e}",
    )


def test_criterion_3_no_forward_completeness(escape_run):
    out = escape_run.outcome
    escaped = out.escaped and out.t_escape < 20.0 and out.final_norm >= 1e6
    # along x' = (1 + |x|^2) A x, W' = (1 + |x|^2) x^T (A^T P + P A) x, so W
    # descends along every run under a constant input iff A^T P + P A <= 0;
    # its largest eigenvalue is minus the smallest margin eigenvalue
    worst = -math.inf
    for c in [-2.0, -0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 2.0, 10.0]:
        lam = min(max(c, 0.0), 1.0)
        p = solve_lyapunov(blend(A_MODE1, A_MODE2, lam))
        worst = max(worst, -_min_margin(lam, p, A_MODE1, A_MODE2))
    ok = escaped and worst <= 0.0
    report(
        "finite-escape-and-constant-input-descent",
        ok,
        f"greedy switching escapes at t={out.t_escape:.4f} < 20 with |x| >= 1e6; "
        f"largest eigenvalue of A^T P + P A under 9 constant inputs {worst:.2e} <= 0",
    )


def test_criterion_4_exponential_envelope():
    fit = es_check(n_ics=200, T=30.0, fit_tol=0.05, seed=0)
    report(
        "exponential-envelope",
        fit.violations == 0,
        f"200 small histories, 0 of required 0 envelope violations on [0, 30] "
        f"(k_emp {fit.k_emp:.3f})",
    )


def test_criterion_5_uniform_reach_times():
    cells = uga_table([1.0, 10.0, 100.0], [0.1, 1.0], n_samples=50, seed=0)
    ok = all(c.ok for c in cells)
    worst = max(c.t_emp_max / c.t_theory for c in cells)
    report(
        "uniform-reach-times",
        ok,
        f"6 cells x 50 histories all settle within the theoretical bound "
        f"(worst ratio {worst:.3f})",
    )


def test_criterion_6_unbounded_peaks(rfc_run):
    res = rfc_run
    ok = res.strictly_increasing and res.growth_factor >= 10.0 and res.settled_in_time
    report(
        "unbounded-reachability-peaks",
        ok,
        f"7 smoothing levels complete; peaks strictly increasing with growth "
        f"{res.growth_factor:.2f}x >= 10x; every run re-settles within the reach-time bound",
    )


def test_criterion_7_embedding_equivalence():
    chk = embedding_check(1.0, 50, 2024, IntegratorOptions(rel_tol=1e-8, abs_tol=1e-9))
    exact = all(estimate_R(k, 1.7, 0.0, 2).lower_bound == 1.7 for k in SYSTEM_NAMES)
    report(
        "embedding-equivalence",
        chk.ok and exact,
        f"50 pairs: embed-direction deviation {max(chk.embed):.2e} and completion-direction "
        f"deviation {max(chk.complete):.2e} both <= {chk.tolerance:.1e}; zero-horizon reach bound exact",
    )


def test_criterion_8_integral_form_audit():
    bound = 100.0 * ORACLE_OPTS.abs_tol
    decay = DiscreteDelaySystem(dim=1, input_dim=0, delays=(), rhs=lambda y, d, u: [-v for v in y])
    runs = []
    out = integrate(decay, np.array([1.0]), None, 2.0, ORACLE_OPTS)
    runs.append(("decay", residual_audit(out.trajectory, decay, None)))

    tau = 1.0
    casc = cascade_system(tau)
    hist = HistoryFn.constant(np.array([0.5, 0.2, -0.1]), tau)
    out_c = integrate(casc, hist, None, 3.0, ORACLE_OPTS)
    runs.append(("cascade", residual_audit(out_c.trajectory, casc, None, history=hist)))

    rng = np.random.default_rng(9)
    h2 = random_history(rng, 0.6, tau, 3)
    xi0, inputs = embed_history_as_inputs(h2, casc.delays)
    assoc = associated_system()
    stops = saturation_stop_times(h2, tau, tau)
    out_a = integrate(assoc, xi0, inputs[0], tau, ORACLE_OPTS, extra_stops=stops)
    runs.append(("embedded", residual_audit(out_a.trajectory, assoc, inputs[0])))

    worst = max(r for _, r in runs)

    tight = IntegratorOptions(rel_tol=1e-9, abs_tol=1e-10)
    out_t = integrate(casc, hist, None, 3.0, tight)
    r_loose = dict(runs)["cascade"]
    r_tight = residual_audit(out_t.trajectory, casc, None, history=hist)
    shrink = r_loose / max(r_tight, 1e-300)

    ok = worst <= bound and shrink >= 4.0
    report(
        "integral-form-audit",
        ok,
        f"max defect {worst:.2e} <= {bound:.0e} across completed runs; "
        f"defect shrinks {shrink:.1f}x >= 4x under 10x tighter tolerances",
    )
