"""The greedy closed loop as a plain loop over `Stepper.advance`: the
reference that pins `systems.run_switched`'s generated closed loop bit for
bit (`TestClosedLoop`).

One policy sample per pass: the clock step, an `advance` with its soft stop
at the sample when the sample lies past the last step, the read from that
step's floats, and the rule. A switch inside the last step drops the step
and advances to the sample, so the switching instant is a node. The field is
`planar_rhs()` at the mode, called by the Stepper at every stage.
"""

import math

import numpy as np

from delayreach.integrator import IntegratorOptions, MaxStepsExceeded, Stepper
from delayreach.signals import PiecewiseConstant
from delayreach.systems import _MIN_DWELL, SwitchedRun, planar_rhs


def run_switched(policy, x0, T, opts=IntegratorOptions(h_min=1e-14)):
    """The run `systems.run_switched` makes, with the same checks of T and x0."""
    if not (math.isfinite(T) and T > 0.0):
        raise ValueError(f"T must be finite and positive, got {T!r}")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (2,) or not np.isfinite(x0).all():
        raise ValueError(f"x0 must be two finite floats, got {x0!r}")
    rule, dwell = policy.rule, policy.dwell
    g = planar_rhs()
    mode = float(rule(x0.tolist()))

    def rhs(t, y):
        return g(y, mode)

    stepper = Stepper(rhs, 0.0, x0, opts)
    ts, ys, qs = stepper.traj._t, stepper.traj._y, stepper.traj._q
    piece_vals = [mode]
    piece_breaks = []
    t_k, t1, x = 0.0, 0.0, x0.tolist()
    for _ in range(opts.max_steps):
        t_k += min(max(dwell / (1.0 + (x[0] * x[0] + x[1] * x[1])), _MIN_DWELL), dwell)
        if t_k >= T:
            break
        if t_k > t1:
            stepper.advance(T, until=t_k)
        if stepper.escape_info is not None and t_k >= stepper.escape_info[0]:
            break
        if t_k > t1:  # the new last step: ends t, states (a, b), coefficients (p, r)
            t0, t1, a0, b0, a1, b1, p0, r0, p1, r1, p2, r2, p3, r3 = ts[-2], ts[-1], *ys[-4:], *qs[-8:]
        if t_k == t1:
            x = [a1, b1]
        else:
            th = (t_k - t0) / (t1 - t0)
            x = [a0 + th * (p0 + th * (p1 + th * (p2 + th * p3))), b0 + th * (r0 + th * (r1 + th * (r2 + th * r3)))]
        lam = float(rule(x))
        if lam != mode:
            if t_k < stepper.t:
                stepper.rewind()
                stepper.advance(t_k)
                if stepper.escape_info is not None:
                    break
                t1 = t_k
            mode = lam
            stepper.invalidate_rhs_cache()
            piece_vals.append(lam)
            piece_breaks.append(t_k)
    else:
        raise MaxStepsExceeded(f"exceeded max_steps={opts.max_steps} policy samples")
    stepper.advance(T)
    sig = PiecewiseConstant(np.array(piece_vals), np.array(piece_breaks))
    return SwitchedRun(outcome=stepper.outcome(), signal=sig)
