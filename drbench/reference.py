"""Reference solutions that share no code with `delayreach`.

The switched planar field is written out again from the paper's example,

    x' = (1 + |x|_2^2) A(sat(u)) x,   A(lam) = lam A1 + (1 - lam) A2,

and integrated with `scipy.integrate.solve_ivp` (DOP853) at tolerances far
tighter than the program's. Every input used here is piecewise smooth with
known kinks, so each smooth piece is integrated on its own.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import minimize_scalar

A1 = np.array([[0.0, 2.0], [-0.5, -0.1]])
A2 = np.array([[-0.1, 0.5], [-2.0, 0.0]])
RTOL = 1e-11
ATOL = 1e-13
#: samples per smooth piece before the maximum is refined
SAMPLES = 400


def _field(feed):
    def f(t, x):
        lam = min(max(feed(t), 0.0), 1.0)
        a = lam * A1 + (1.0 - lam) * A2
        return (1.0 + float(x @ x)) * (a @ x)

    return f


def _solve(f, a, b, x, **kw):
    sol = solve_ivp(f, (a, b), x, method="DOP853", rtol=RTOL, atol=ATOL, **kw)
    if sol.status < 0:
        raise RuntimeError(f"reference integration failed on [{a}, {b}]: {sol.message}")
    return sol


def replay_switching(values, breaks, x0, level, T):
    """Open-loop replay of a switching signal until |x|_inf reaches `level`.

    `values` holds one gain index per piece and `breaks` the switching
    instants (piece i on [breaks[i-1], breaks[i])). Returns the first time
    the level is reached (None if not by T) and the states at the switching
    instants before it, one row per instant.
    """
    edges = [0.0] + [float(b) for b in breaks if 0.0 < b < T] + [T]
    x = np.asarray(x0, dtype=float)
    states = []

    def reach(t, y):
        return float(np.abs(y).max()) - level

    reach.terminal = True
    reach.direction = 1
    for i, (a, b) in enumerate(zip(edges, edges[1:])):
        lam = float(values[i])
        sol = _solve(_field(lambda t, lam=lam: lam), a, b, x, events=reach)
        if sol.t_events[0].size:
            return float(sol.t_events[0][0]), np.array(states).reshape(-1, len(x))
        x = sol.y[:, -1]
        states.append(x)
    return None, np.array(states).reshape(-1, len(x))


class DelayedFeedRun:
    """The cascade z' = -z, x' = g(x, z(t - tau)) as a plain ODE in x.

    The history's first component is piecewise linear on [-tau, 0], so the
    delayed feed is explicit: z_hist(t - tau) on [0, tau] and
    z(0) e^{-(t - tau)} after tau. The state's z part is z(0) e^{-t}.
    """

    def __init__(self, knots, values, tau, horizon):
        knots = np.asarray(knots, dtype=float)
        values = np.asarray(values, dtype=float)
        self.z0 = float(values[-1, 0])
        kz = knots + tau
        zz = values[:, 0]

        def feed(t):
            if t <= tau:
                return float(np.interp(t, kz, zz))
            return self.z0 * math.exp(-(t - tau))

        edges = set(kz.tolist()) | {tau}
        for lv in (0.0, 1.0):
            d = zz - lv
            for i in range(len(kz) - 1):
                if d[i] * d[i + 1] < 0.0:
                    edges.add(kz[i] + (kz[i + 1] - kz[i]) * d[i] / (d[i] - d[i + 1]))
        if self.z0 > 1.0:
            edges.add(tau + math.log(self.z0))
        edges = sorted(e for e in edges if 0.0 < e < horizon) + [horizon]
        f = _field(feed)
        x = values[-1, 1:3].copy()
        self.pieces = []
        a = 0.0
        for b in edges:
            if b <= a:
                continue
            sol = _solve(f, a, b, x, dense_output=True)
            self.pieces.append((a, b, sol.sol))
            x = sol.y[:, -1]
            a = b

    def sup_norm(self, lo, hi):
        """sup of |(z, x1, x2)|_inf over [lo, hi]."""
        best = abs(self.z0) * math.exp(-lo)
        for a, b, sol in self.pieces:
            a, b = max(a, lo), min(b, hi)
            if b <= a:
                continue
            ts = np.linspace(a, b, SAMPLES)
            mags = np.abs(sol(ts))
            comp, j = np.unravel_index(int(np.argmax(mags)), mags.shape)
            best = max(best, float(mags[comp, j]))
            if 0 < j < len(ts) - 1:
                res = minimize_scalar(
                    lambda t: -abs(float(sol(t)[comp])),
                    bounds=(ts[j - 1], ts[j + 1]),
                    method="bounded",
                    options={"xatol": 1e-13},
                )
                best = max(best, -float(res.fun))
        return best
