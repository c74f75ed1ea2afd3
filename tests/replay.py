"""Exact replay of a bang-bang schedule of the planar system: the oracle that
pins the stored greedy escape (`TestStoredEscape`).

While the mode lam is fixed, the field (1 + |x|_2^2) A(lam) x is the linear
flow x' = A x run on the clock s with ds/dt = 1 + |x|_2^2. So a piece that
starts at (t_k, x_k) is x(s) = e^{A s} x_k, by the closed-form 2x2
exponential, at time t(s) = t_k + int_0^s dr / (1 + |x(r)|_2^2), by
composite 12-point Gauss-Legendre on panels of width `panel` in s. Newton
on t(s) = break ends each piece at its switching instant; on the last piece,
the first s with |x(s)|_inf = threshold gives the escape time. numpy only;
it shares no arithmetic with the integrator.
"""

import math

import numpy as np

from delayreach.lyap import A_MODE1, A_MODE2, Mat2, blend

# 12-point Gauss-Legendre nodes and weights on [0, 1]
_GL_X, _GL_W = np.polynomial.legendre.leggauss(12)
_GL_X = (1.0 + _GL_X) / 2.0
_GL_W = _GL_W / 2.0

_NEWTON_STEPS = 60
_BISECTIONS = 200


def matrix(m: Mat2) -> np.ndarray:
    """m as a 2x2 numpy array."""
    return np.array([[m.a11, m.a12], [m.a21, m.a22]])


class _Piece:
    """x(s) = e^{A s} x0 and its clock for one constant-mode piece.

    A has complex eigenvalues sigma +- i omega, sigma < 0 (both modes do), so
    e^{A s} = e^{sigma s} (cos(omega s) I + sin(omega s) / omega (A - sigma I)).
    """

    def __init__(self, a: np.ndarray, x0: np.ndarray, t0: float, panel: float):
        self.sigma = 0.5 * (a[0, 0] + a[1, 1])
        disc = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0] - self.sigma ** 2
        if not (disc > 0.0 and self.sigma < 0.0):
            raise ValueError("the closed form needs complex eigenvalues in the left half-plane")
        self.omega = math.sqrt(disc)
        self.x0 = x0
        self.v = (a - self.sigma * np.eye(2)) @ x0 / self.omega
        self.t0 = t0
        self.panel = panel

    def x(self, s) -> np.ndarray:
        """States at the clock values s, shape (len(s), 2)."""
        s = np.asarray(s, dtype=float)[:, None]
        return np.exp(self.sigma * s) * (np.cos(self.omega * s) * self.x0 + np.sin(self.omega * s) * self.v)

    def t(self, s: float) -> float:
        """t_0 plus the clock integral over [0, s], panel by panel."""
        edges = np.append(np.arange(0.0, s, self.panel), s)
        lo, width = edges[:-1], np.diff(edges)
        nodes = (lo[:, None] + width[:, None] * _GL_X).ravel()
        x = self.x(nodes)
        rate = 1.0 / (1.0 + (x * x).sum(axis=1))
        return self.t0 + float(((rate.reshape(-1, 12) @ _GL_W) * width).sum())

    def reach(self, t_end: float) -> float:
        """The s with t(s) = t_end: Newton from the lower end of a bracket
        that doubles until it holds t_end, bisecting when a step leaves it."""
        lo, hi = 0.0, self.panel
        while self.t(hi) < t_end:
            lo, hi = hi, 2.0 * hi
        s, t_s = lo, self.t(lo)
        for _ in range(_NEWTON_STEPS):
            x = self.x([s])[0]
            s_new = s - (t_s - t_end) * (1.0 + float(x @ x))
            if not lo <= s_new <= hi:
                s_new = 0.5 * (lo + hi)
            if s_new == s:
                break
            s, t_s = s_new, self.t(s_new)
            if t_s < t_end:
                lo = s
            else:
                hi = s
        return s

    def first_above(self, level: float) -> float:
        """The first s with |x(s)|_inf = level: scanned on a grid of 12
        points per panel, then bisected to the last ulp. x(s) is e^{sigma s}
        times a function of period 2 pi / omega and sigma < 0, so |x| peaks
        within one period: a crossing comes in it or never."""
        period = 2.0 * math.pi / self.omega
        grid = np.linspace(0.0, period, math.ceil(period / self.panel) * 12 + 1)
        above = np.flatnonzero(np.abs(self.x(grid)).max(axis=1) >= level)
        if not above.size:
            raise ValueError(f"the piece never reaches {level}")
        lo, hi = grid[max(above[0] - 1, 0)], grid[above[0]]
        for _ in range(_BISECTIONS):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if np.abs(self.x([mid])[0]).max() >= level:
                hi = mid
            else:
                lo = mid
        return hi


def replay(values, breaks, x0, threshold: float, panel: float = 0.05) -> tuple[np.ndarray, float]:
    """Replay the schedule (mode `values[k]` up to `breaks[k]`, the last
    mode until the escape) from x0 at t = 0.

    Returns the states at the breaks, shape (len(breaks), 2), and the
    first time |x|_inf reaches `threshold`.
    """
    x, t = np.asarray(x0, dtype=float), 0.0
    states = []
    for lam, brk in zip(values, breaks):
        piece = _Piece(matrix(blend(A_MODE1, A_MODE2, float(lam))), x, t, panel)
        x, t = piece.x([piece.reach(brk)])[0], brk
        states.append(x)
    last = _Piece(matrix(blend(A_MODE1, A_MODE2, float(values[-1]))), x, t, panel)
    return np.array(states), last.t(last.first_above(threshold))
