"""The integral-form residual audit: the instrument of acceptance criterion 8
and of `TestResidualAudit`.

It checks a finished run against the system it claims to solve, by point
evaluations of the public `eval`s only, so it cross-checks the pieces and
delayed lookups that `integrate` resolves once per interval.
"""

from typing import Optional

import numpy as np

from delayreach.integrator import DiscreteDelaySystem, HistoryFn, Trajectory
from delayreach.signals import Signal

# the audit's random sample count and seed, and the 5-point Gauss-Legendre
# nodes/weights on [0, 1] of its quadrature
_AUDIT_SAMPLES = 20
_AUDIT_SEED = 0
_GL_X = (1.0 + np.array([-0.9061798459386640, -0.5384693101056831, 0.0,
                         0.5384693101056831, 0.9061798459386640])) / 2.0
_GL_W = np.array([0.2369268850561891, 0.4786286704993665, 0.5688888888888889,
                  0.4786286704993665, 0.2369268850561891]) / 2.0


def residual_audit(
    traj: Trajectory,
    sys: DiscreteDelaySystem,
    u: Optional[Signal],
    history: Optional[HistoryFn] = None,
) -> float:
    """Max defect of the integral form x(t) - x(0) - int_0^t f over samples.

    Quadrature is 5-point Gauss-Legendre per dense-output segment, so nodes
    are interior and never touch an input breakpoint. Delayed lookups are
    served from the trajectory itself (and the history before time 0).
    """

    def lookup(tq: float) -> np.ndarray:
        if tq <= 0.0:
            if history is None:
                raise ValueError("history required to audit a delayed system")
            return history.eval(tq)
        return traj.eval(tq)

    zero_u = np.zeros(max(sys.input_dim, 0))

    def f(t: float, y: np.ndarray) -> np.ndarray:
        # the public evaluators, per point: a cross-check of integrate's pieces
        uval = zero_u if u is None or sys.input_dim <= 0 else u.eval(t)
        return np.array(sys.rhs(y.tolist(), tuple([lookup(t - d) for d in sys.delays]), uval))

    def seg_integral(a: float, b: float) -> np.ndarray:
        ts = a + (b - a) * _GL_X
        acc = np.zeros(traj.dim)
        for w, s in zip(_GL_W, ts):
            acc += w * f(s, traj.eval(s))
        return (b - a) * acc

    n_seg = len(traj.ts) - 1
    cum = np.zeros((n_seg + 1, traj.dim))
    for i in range(n_seg):
        cum[i + 1] = cum[i] + seg_integral(traj.ts[i], traj.ts[i + 1])

    rng = np.random.default_rng(_AUDIT_SEED)
    samples = traj.t_start + (traj.t_end - traj.t_start) * rng.random(_AUDIT_SAMPLES)
    samples = np.concatenate([samples, [traj.t_end]])
    x0 = traj.eval(traj.t_start)
    worst = 0.0
    for t in samples:
        i = traj._segment(t)
        q = cum[i] + (seg_integral(traj.ts[i], t) if t > traj.ts[i] else 0.0)
        defect = traj.eval(t) - x0 - q
        worst = max(worst, float(np.abs(defect).max()))
    return worst
