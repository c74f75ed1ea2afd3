"""Adaptive method-of-steps integration for discrete-delay systems.

A Dormand-Prince 5(4) embedded pair drives both delayed and nondelayed
systems. On [0, d] the state delayed by d is the history shifted by d, a
signal of its own (`HistoryFn.shifted`): the input the associated
nondelayed system receives there. Afterwards delayed lookups are served
from the trajectory's dense output; a step never extends past the
shortest delay, so lookups never touch the step being computed. Step
boundaries are forced at every input breakpoint, at the history's knots
shifted by each delay and at the first few multiples of the shortest
delay, where the solution loses smoothness. Between two forced stops the
input and each shifted history are therefore one closed-form piece each:
they are resolved once per interval, not searched for at every
right-hand-side evaluation. The right-hand side takes the state as a
sequence of floats and returns its derivative as a list of floats, and a
step is ordered float arithmetic per component on those lists (see
`Stepper`), with no array between two stages. Unboundedness is the
only failure mode of the underlying solution concept, so crossing a norm
threshold (or a step-size collapse while the norm is growing) is reported
as a finite-escape outcome, not as an error.
"""

from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .signals import Constant, PiecewiseLinear, Signal, _broken_line, _linear


class BadHistoryDomain(ValueError):
    """History domain does not match the system's maximum delay."""


class SpanTooShort(ValueError):
    """Trajectory does not cover the requested history window."""


class StepSizeCollapse(RuntimeError):
    """Error test kept failing below h_min while the state was not growing."""


class MaxStepsExceeded(RuntimeError):
    """More step attempts than IntegratorOptions.max_steps."""


# Dormand-Prince 5(4) tableau (FSAL; the 5th-order solution is propagated),
# as floats: _Aij combines stage j into the argument of stage i, _Bj are the
# 5th-order weights, which also give the argument of the last stage, so that
# stage is evaluated at the new solution, and _Ej the weights of the error
# estimate. Stages 5 and 6 sit at the end of the step (c = 1). Zero entries
# (a61, b1, e1) are left out of every sum.
_C1, _C2, _C3, _C4 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A10 = 1 / 5
_A20, _A21 = 3 / 40, 9 / 40
_A30, _A31, _A32 = 44 / 45, -56 / 15, 32 / 9
_A40, _A41, _A42, _A43 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A50, _A51, _A52, _A53, _A54 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B0, _B2, _B3, _B4, _B5 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
# the 4th-order weights b*_j are 5179/57600, 0, 7571/16695, 393/640,
# -92097/339200, 187/2100, 1/40; e_j = b_j - b*_j
_E0, _E2, _E3, _E4, _E5, _E6 = (
    b - bs
    for b, bs in zip(
        (_B0, _B2, _B3, _B4, _B5, 0.0),
        (5179 / 57600, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40),
    )
)

# The 4th-order continuous extension: the dense-output polynomial is
# y(t0 + theta*h) = y0 + theta*(q0 + theta*(q1 + theta*(q2 + theta*q3))) with
# q0 = h*k0 and qm = h * sum_j _Pjm * kj over the stages k of the accepted step.
_P01, _P02, _P03 = -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432
_P21, _P22, _P23 = 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799
_P31, _P32, _P33 = -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072
_P41, _P42, _P43 = 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632
_P51, _P52, _P53 = -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844
_P61, _P62, _P63 = 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423

@dataclass(frozen=True)
class IntegratorOptions:
    """Step-control settings, checked on construction (TypeError/ValueError)."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-9
    h_min: float = 1e-12
    escape_threshold: float = 1e6
    max_steps: int = 5_000_000

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "h_min", "escape_threshold"):
            v = getattr(self, name)
            if not isinstance(v, numbers.Real) or isinstance(v, bool):
                raise TypeError(f"{name} must be a real number, got {v!r}")
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {v!r}")
        v = self.max_steps
        if not isinstance(v, numbers.Integral) or isinstance(v, bool):
            raise TypeError(f"max_steps must be an integer, got {v!r}")
        if v < 1:
            raise ValueError(f"max_steps must be at least 1, got {v!r}")


#: force step boundaries at k*tau_1 for k up to this count; beyond that the
#: solution is smooth enough for the 5th-order pair
_DELAY_MULTIPLES = 8


def _quartic_eval(y0, q, th):
    """Dense-output value at fraction th of a segment with coefficients q."""
    return y0 + th * (q[0] + th * (q[1] + th * (q[2] + th * q[3])))


def _real_roots(coeffs, a: float, b: float) -> list:
    """Real roots in (a, b) of the polynomial with highest-first coefficients."""
    coeffs = np.trim_zeros(np.asarray(coeffs), "f")
    roots = np.roots(coeffs) if len(coeffs) > 1 else []
    return [float(r.real) for r in roots if abs(r.imag) < 1e-12 and a < r.real < b]


def _bounds(y0, q) -> np.ndarray:
    """|y0| + sum |q_k| per component, of one segment or of many: a bound on |p|
    over [0, 1], 8 ulps over so no rounding of the sum or of a Horner value crosses it."""
    return (np.abs(y0) + np.abs(q).sum(axis=-2)) * (1.0 + 8.0 * np.finfo(float).eps)


def _quartic_sup(y0, q, a: float = 0.0, b: float = 1.0, floor: float = 0.0) -> float:
    """Exact sup of |dense output|_inf over theta in [a, b] of one segment, if above
    floor: its ends, and the roots of the cubic derivative between them in each
    component whose bound beats floor and the ends."""
    ya = y0 if a == 0.0 else _quartic_eval(y0, q, a)
    yb = y0 + q[0] + q[1] + q[2] + q[3] if b == 1.0 else _quartic_eval(y0, q, b)
    best = max(float(np.abs(ya).max()), float(np.abs(yb).max()))
    for i in np.flatnonzero(_bounds(y0, q) > max(best, floor)):
        for th in _real_roots([4.0 * q[3][i], 3.0 * q[2][i], 2.0 * q[1][i], q[0][i]], a, b):
            best = max(best, abs(_quartic_eval(y0[i], q[:, i], th)))
    return best


def _last_crossing(y0, q, level: float) -> Optional[float]:
    """Largest theta in (0, 1] with |p(theta)|_inf > level just before it, or None.

    The roots of p_i = +-level cut [0, 1] into pieces on which |p_i| - level
    keeps its sign, so one midpoint decides each piece.
    """
    ends = []
    for i in np.flatnonzero(_bounds(y0, q) > level):
        c = [q[3][i], q[2][i], q[1][i], q[0][i]]
        roots = [r for s in (level, -level) for r in _real_roots(c + [y0[i] - s], 0.0, 1.0)]
        cuts = np.sort([0.0, 1.0] + roots)
        mids = 0.5 * (cuts[:-1] + cuts[1:])
        ends += list(cuts[1:][np.abs(_quartic_eval(y0[i], q[:, i], mids)) > level])
    return max(ends, default=None)


class Trajectory:
    """Dense-output solution: one 4th-order polynomial per accepted step.

    `ts` and `ys` hold the nodes and `qs` the (n_seg, 4, dim) segment
    coefficients. A segment's polynomial comes from the stage derivatives
    of the step that produced it, so a segment ending at an input
    discontinuity interpolates with the correct left limit. While a Stepper
    extends the trajectory, the three arrays are views into buffers that
    double when full; the coefficient buffer is laid out (n, dim, 4), one
    row of four per component as the Stepper computes them, and `qs` is its
    transposed view. `_trim` copies the three out, contiguous, when the run
    is frozen. The last segment is also held as the floats the Stepper
    computed it in, so the reads a run makes at its end cost no array access.
    """

    def __init__(self, t0: float, y0: np.ndarray):
        dim = len(y0)
        self._buf = (np.empty(64), np.empty((64, dim)), np.empty((64, dim, 4)))
        self._buf[0][0] = t0
        self._buf[1][0] = y0
        self._view(1)

    def _view(self, n: int):
        tb, yb, qb = self._buf
        self.ts, self.ys, self.qs = tb[:n], yb[:n], qb[: n - 1].transpose(0, 2, 1)
        self._tail = None  # a rewind drops the segment it held

    def _append(self, t: float, y, q, y0):
        """Add the node (t, y) and the (dim, 4) coefficients q of the segment
        ending there, whose start value y0 is the last node's; y, q and y0
        may be ndarrays or nested sequences of floats, and are kept as given."""
        tail = self._tail
        n = len(self.ts)
        if n == len(self._buf[0]):
            grown = []
            for b in self._buf:
                g = np.empty((2 * n,) + b.shape[1:])
                g[: len(b)] = b
                grown.append(g)
            self._buf = tuple(grown)
        tb, yb, qb = self._buf
        tb[n] = t
        yb[n] = y
        qb[n - 1] = q
        self._view(n + 1)
        # the start time is the last node's, not the Stepper's t, which may
        # be a target a few ulps past it
        self._tail = (tb[n - 1].item() if tail is None else tail[1], t, y0, y, q)

    def _trim(self):
        self.ts, self.ys, self.qs = self.ts.copy(), self.ys.copy(), self.qs.copy()
        self._buf = (self.ts, self.ys, self.qs.transpose(0, 2, 1))

    @property
    def t_start(self) -> float:
        return float(self.ts[0])

    @property
    def t_end(self) -> float:
        return float(self.ts[-1])

    @property
    def dim(self) -> int:
        return self.ys.shape[1]

    def _segment(self, t: float) -> int:
        i = bisect.bisect_right(self.ts, t) - 1
        return min(max(i, 0), len(self.ts) - 2)

    def _interp(self, t: float) -> np.ndarray:
        """Dense-output value at t, unchecked; delayed lookups call it mid-run.
        The last segment is read from the floats `_append` kept, any other
        from the arrays; they hold the same floats, so the bytes agree."""
        tail = self._tail
        if tail is not None and tail[0] <= t <= tail[1]:
            t0, t1, y0, y1, q = tail
            if t == t1:
                return np.array(y1)
        else:
            if len(self.ts) == 1:
                return self.ys[0].copy()
            i = self._segment(t)
            if t == self.ts[i + 1]:
                return self.ys[i + 1].copy()
            t0, t1 = self.ts[i : i + 2].tolist()
            y0, q = self.ys[i].tolist(), self._buf[2][i].tolist()
        # `_quartic_eval` per component on floats: numpy's elementwise
        # arithmetic rounds the same, without its per-call cost
        th = (t - t0) / (t1 - t0)
        return np.array([y + th * (a + th * (b + th * (c + th * d)))
                         for y, (a, b, c, d) in zip(y0, q)])

    def eval(self, t: float) -> np.ndarray:
        if not (self.t_start - 1e-12 <= t <= self.t_end + 1e-12):
            raise SpanTooShort(f"t={t} outside [{self.t_start}, {self.t_end}]")
        return self._interp(t)

    def sup_norm(self, lo: float, hi: float) -> float:
        """Exact sup of |x(t)|_inf over [lo, hi] under the dense output: the window
        ends, the nodes, and the critical points inside the window of each segment
        whose bound beats the best value so far; bit for bit the unpruned search."""
        lo = max(lo, self.t_start)
        hi = min(hi, self.t_end)
        if hi < lo:
            raise SpanTooShort("empty window")
        ts, ys, qs = self.ts, self.ys, self.qs
        i0, i1 = self._segment(lo), self._segment(hi)
        best = max(float(np.abs(self._interp(lo)).max()), float(np.abs(self._interp(hi)).max()),
                   float(np.abs(ys[i0 + 1 : i1 + 1]).max(initial=0.0)))
        bound = _bounds(ys[i0 : i1 + 1], qs[i0 : i1 + 1]).max(axis=1)
        for k in np.argsort(-bound, kind="stable"):
            if bound[k] <= best:
                break
            i = i0 + int(k)
            a = (lo - ts[i]) / (ts[i + 1] - ts[i]) if i == i0 else 0.0
            b = (hi - ts[i]) / (ts[i + 1] - ts[i]) if i == i1 else 1.0
            if a < b:
                best = max(best, _quartic_sup(ys[i], qs[i], a, b, best))
        return best

    def last_time_above(self, level: float) -> float:
        """Largest t with |x(t)|_inf > level, or t_start if never above. Exact: the
        last crossing of p_i = +-level, solved directly, in the last segment whose
        exact sup exceeds the level (or that segment's end, if still above)."""
        ts, ys, qs = self.ts, self.ys, self.qs
        for i in np.flatnonzero(_bounds(ys[:-1], qs).max(axis=1) > level)[::-1]:
            if _quartic_sup(ys[i], qs[i], floor=level) > level:
                th = _last_crossing(ys[i], qs[i], level)
                if th is not None:
                    return min(float(ts[i] + th * (ts[i + 1] - ts[i])), float(ts[i + 1]))
        return self.t_start


class HistoryFn:
    """Continuous piecewise-linear function on [-tau, 0].

    `eval` reads it at a time s of its domain. A delayed lookup s = t - d
    on [0, d] reads `shifted(d)` at t instead: the same broken line, moved
    onto the time axis of the run, whose knots are where the run's step
    boundaries are forced.
    """

    def __init__(self, knots, values):
        self.knots, self.values = _broken_line(knots, values)
        if abs(float(self.knots[-1])) > 1e-9:
            raise BadHistoryDomain("history must end at time 0")

    @property
    def tau(self) -> float:
        return -float(self.knots[0])

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @classmethod
    def constant(cls, value, tau: float) -> "HistoryFn":
        v = np.atleast_1d(np.asarray(value, dtype=float))
        if tau <= 0.0:
            return cls(np.array([0.0]), v.reshape(1, -1))
        return cls(np.array([-tau, 0.0]), np.vstack([v, v]))

    def eval(self, s: float) -> np.ndarray:
        """The value at s; within 1e-9 outside [-tau, 0], the nearer end's."""
        k, v = self.knots, self.values
        k0, kn = float(k[0]), float(k[-1])
        if s < k0 - 1e-9 or s > kn + 1e-9:
            raise BadHistoryDomain(f"history evaluated at {s} outside [{k0}, 0]")
        if len(k) == 1:
            return v[0].copy()
        s = min(max(s, k0), kn)
        i = min(int(np.searchsorted(k, s, side="right")) - 1, len(k) - 2)
        return np.array(_linear(k[i], k[i + 1], v[i], v[i + 1])(s))

    def shifted(self, d: float) -> PiecewiseLinear:
        """t -> self(t - d) as a signal: the broken line through knots + d,
        constant beyond its ends. Its knots inside (0, T) are, bit for bit,
        the history stops `_forced_stops` forces at the first multiple of d.
        Knots closer than an ulp of d round together under + d; the later
        one stays."""
        k = self.knots + d
        keep = np.append(k[:-1] < k[1:], True)
        return PiecewiseLinear(k[keep], self.values[keep])

    def norm(self) -> float:
        """Exact sup norm over [-tau, 0] (max |.|_inf): the largest knot value."""
        return float(np.abs(self.values).max())


@dataclass(frozen=True)
class DiscreteDelaySystem:
    """State dim n, input dim m, strictly increasing positive delays.

    rhs(y, delayed, u) receives the current state as a sequence of floats,
    one delayed state per delay (in order) and the input value, each a
    sequence of floats, and returns the derivative as a list of floats;
    delays=() encodes a nondelayed system.
    """

    dim: int
    input_dim: int
    delays: tuple
    rhs: Callable[[Sequence[float], tuple, Sequence[float]], list]

    def __post_init__(self):
        d = tuple(float(x) for x in self.delays)
        if any(x <= 0.0 for x in d):
            raise ValueError("delays must be positive")
        if any(b <= a for a, b in zip(d, d[1:])):
            raise ValueError("delays must be strictly increasing")
        object.__setattr__(self, "delays", d)

    @property
    def tau(self) -> float:
        return self.delays[-1] if self.delays else 0.0


@dataclass
class SimOutcome:
    """Completed run, or finite escape with the trajectory prefix."""

    trajectory: Trajectory
    escaped: bool = False
    t_escape: Optional[float] = None
    final_norm: Optional[float] = None
    flag: Optional[str] = None  # 'threshold' | 'h_min_collapse' | 'nonfinite'


class Stepper:
    """Incremental adaptive DP5(4) driver over a caller-supplied rhs.

    rhs(t, y) takes the state as a list of floats and returns its derivative
    as a list of floats. It must be smooth on each interval advanced over,
    up to and including its target: a caller whose rhs changes at a forced
    boundary swaps it there and calls `invalidate_rhs_cache`, so the steps
    before it use the left limit and dense output stays one-sided. Every
    attempted step is counted in `nsteps`; accepted ones extend `traj`.

    A step is float arithmetic per component: each stage argument, the
    5th-order solution, the error estimate and the dense-output coefficients
    are sums of the tableau's nonzero terms in stage order, so a component's
    rounding depends on that component's stages alone. The stages pass
    between the rhs and these sums as lists, with no conversion; `y` and the
    outgoing slope `slope` are ndarrays between calls of `advance`.
    """

    def __init__(self, rhs, t0: float, y0: np.ndarray, opts: IntegratorOptions, h_cap: float = math.inf):
        self.rhs = rhs
        self.t = float(t0)
        self.y = np.asarray(y0, dtype=float).copy()
        self.opts = opts
        self._h_top = h_cap
        # the slope at (t, y): stage 0 of the next step
        self.slope = np.array(rhs(self.t, self.y.tolist()), dtype=float)
        self.traj = Trajectory(self.t, self.y)
        self.h = 0.0
        self.nsteps = 0
        self.escape_info = None
        self._norm = self._norm_prev = float(np.abs(self.y).max())

    def invalidate_rhs_cache(self):
        """Call after the rhs changed at the current time (e.g. new input piece)."""
        self.slope = np.array(self.rhs(self.t, self.y.tolist()), dtype=float)

    def _initial_step(self, target):
        o = self.opts
        k1 = self.slope
        scale = o.abs_tol + o.rel_tol * np.abs(self.y)
        d0 = float(np.sqrt(np.mean((self.y / scale) ** 2)))
        d1 = float(np.sqrt(np.mean((k1 / scale) ** 2)))
        if not math.isfinite(d1):
            # the first attempt fails at h_min and ends the run "nonfinite"
            return o.h_min
        h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
        h0 = min(h0, target - self.t, self._h_top)
        y1 = self.y + h0 * k1
        f1 = np.array(self.rhs(self.t + h0, y1.tolist()))
        d2 = float(np.sqrt(np.mean(((f1 - k1) / scale) ** 2))) / h0
        if max(d1, d2) <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** 0.2
        return min(100.0 * h0, h1)

    def advance(self, target: float, until: float = math.inf) -> None:
        """Integrate up to `target` (a forced boundary), or to an escape, which
        sets `escape_info`; a call after an escape does nothing.

        The outgoing slope of every accepted step, the one at the target
        included, is its last stage (FSAL); where the rhs jumps at the
        target, the caller swaps it and calls `invalidate_rhs_cache`.

        `until` is a soft stop: the first accepted step ending at or past it
        returns short of the target, with no step boundary forced there.
        Calling again resumes bit for bit, since t, y, h and the outgoing
        slope are kept.
        """
        o = self.opts
        if self.escape_info is not None:
            return
        if self._norm >= o.escape_threshold:
            self.escape_info = (self.t, self._norm, "threshold")
            return
        if self.h <= 0.0:
            self.h = self._initial_step(target)
        rhs, traj, atol, rtol = self.rhs, self.traj, o.abs_tol, o.rel_tol
        # the state of the last accepted step, as lists of floats while stepping
        t, y, k0 = self.t, self.y.tolist(), self.slope.tolist()
        n = len(y)
        norm, norm_prev = self._norm, self._norm_prev
        eps_t = max(1e-15, 4.0 * math.ulp(abs(target)))
        try:
            while target - t > eps_t:
                if self.nsteps >= o.max_steps:
                    raise MaxStepsExceeded(f"exceeded max_steps={o.max_steps}")
                self.nsteps += 1
                h = min(self.h, self._h_top)
                at_end = h >= target - t  # end of step lands on the forced boundary
                if at_end:
                    h = target - t
                t_new = target if at_end else t + h
                ys = [a + h * (_A10 * b0) for a, b0 in zip(y, k0)]
                k1 = rhs(t + _C1 * h, ys)
                ys = [a + h * (_A20 * b0 + _A21 * b1) for a, b0, b1 in zip(y, k0, k1)]
                k2 = rhs(t + _C2 * h, ys)
                ys = [a + h * (_A30 * b0 + _A31 * b1 + _A32 * b2)
                      for a, b0, b1, b2 in zip(y, k0, k1, k2)]
                k3 = rhs(t + _C3 * h, ys)
                ys = [a + h * (_A40 * b0 + _A41 * b1 + _A42 * b2 + _A43 * b3)
                      for a, b0, b1, b2, b3 in zip(y, k0, k1, k2, k3)]
                k4 = rhs(t + _C4 * h, ys)
                ys = [a + h * (_A50 * b0 + _A51 * b1 + _A52 * b2 + _A53 * b3 + _A54 * b4)
                      for a, b0, b1, b2, b3, b4 in zip(y, k0, k1, k2, k3, k4)]
                k5 = rhs(t_new, ys)
                # the last stage argument is the 5th-order solution (FSAL)
                y_new = [a + h * (_B0 * b0 + _B2 * b2 + _B3 * b3 + _B4 * b4 + _B5 * b5)
                         for a, b0, b2, b3, b4, b5 in zip(y, k0, k2, k3, k4, k5)]
                k6 = rhs(t_new, y_new)
                # max() skips a NaN that is not first; err does not: every
                # stage but k1 has a nonzero weight in it, and max(NaN, x) is NaN
                norm_new = max([abs(v) for v in y_new])
                sq = 0.0
                for a, a_new, b0, b2, b3, b4, b5, b6 in zip(y, y_new, k0, k2, k3, k4, k5, k6):
                    r = (h * (_E0 * b0 + _E2 * b2 + _E3 * b3 + _E4 * b4 + _E5 * b5 + _E6 * b6)
                         / (atol + rtol * max(abs(a_new), abs(a))))
                    sq += r * r
                err = math.sqrt(sq / n)
                bad = not (math.isfinite(err) and math.isfinite(norm_new))
                if bad or err > 1.0:
                    if h <= o.h_min * (1.0 + 1e-9):
                        if bad or norm > norm_prev:  # growing
                            flag = "nonfinite" if bad else "h_min_collapse"
                            self.escape_info = (t, norm, flag)
                            return
                        raise StepSizeCollapse(f"error test failing at h={h} <= h_min at t={t}")
                    fac = 0.1 if bad else max(0.2, 0.9 * err ** -0.2)
                    self.h = max(h * fac, o.h_min)
                    continue
                # the dense-output coefficients (q0, q1, q2, q3) per component
                q = [(h * b0,
                      h * (_P01 * b0 + _P21 * b2 + _P31 * b3 + _P41 * b4 + _P51 * b5 + _P61 * b6),
                      h * (_P02 * b0 + _P22 * b2 + _P32 * b3 + _P42 * b4 + _P52 * b5 + _P62 * b6),
                      h * (_P03 * b0 + _P23 * b2 + _P33 * b3 + _P43 * b4 + _P53 * b5 + _P63 * b6))
                     for b0, b2, b3, b4, b5, b6 in zip(k0, k2, k3, k4, k5, k6)]
                traj._append(t_new, y_new, q, y)
                t, y, k0 = t_new, y_new, k6
                norm_prev, norm = norm, norm_new
                if not at_end:
                    fac = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
                    self.h = max(h * fac, o.h_min)
                if norm_new >= o.escape_threshold:
                    self.escape_info = (self._locate_escape(), norm_new, "threshold")
                    return
                if t_new >= until and not at_end:
                    return
            t = target
        finally:
            self.t, self.y, self.slope = t, np.array(y), np.array(k0)
            self._norm, self._norm_prev = norm, norm_prev

    def rewind(self):
        """Drop the last accepted step and any escape found in it.

        t, y and both norms are rebuilt from the nodes and the outgoing
        slope is evaluated again, so advancing to a forced boundary inside
        the dropped step makes it a node. The step size proposal is kept.
        """
        traj = self.traj
        n = len(traj.ts) - 1
        if n < 1:
            raise ValueError("no accepted step to drop")
        traj._view(n)
        self.t = float(traj.ts[-1])
        self.y = traj.ys[-1].copy()
        self._norm = float(np.abs(self.y).max())
        self._norm_prev = float(np.abs(traj.ys[-2]).max()) if n > 1 else self._norm
        self.escape_info = None
        self.invalidate_rhs_cache()

    def _locate_escape(self) -> float:
        """Earliest time in the last segment where |x| reaches the threshold."""
        ts = self.traj.ts
        lo, hi = float(ts[-2]), float(ts[-1])
        thr = self.opts.escape_threshold
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if float(np.abs(self.traj._interp(mid)).max()) >= thr:
                hi = mid
            else:
                lo = mid
        return lo

    def outcome(self) -> SimOutcome:
        traj = self.traj
        traj._trim()
        if self.escape_info is None:
            return SimOutcome(trajectory=traj)
        t_esc, norm, flag = self.escape_info
        return SimOutcome(
            trajectory=traj, escaped=True, t_escape=t_esc, final_norm=norm, flag=flag
        )


def _forced_stops(
    sys: DiscreteDelaySystem, u: Optional[Signal], T: float, history=None, extra=()
) -> np.ndarray:
    pts = [np.array([T]), np.asarray(extra, dtype=float)]
    if u is not None:
        pts.append(np.asarray(u.breakpoints(0.0, T)))
    if sys.delays:
        tau1 = sys.delays[0]
        mult = tau1 * np.arange(1, _DELAY_MULTIPLES + 1)
        pts.append(mult[mult < T])
        # derivative discontinuities at history kinks propagate forward by
        # whole multiples of each delay
        if isinstance(history, HistoryFn) and len(history.knots) > 1:
            for d in sys.delays:
                for m in range(1, _DELAY_MULTIPLES + 1):
                    shifted = history.knots[:-1] + m * d
                    pts.append(shifted[(shifted > 0.0) & (shifted < T)])
    stops = np.unique(np.concatenate(pts))
    return stops[(stops > 0.0) & (stops <= T)]


def integrate(
    sys: DiscreteDelaySystem,
    history,
    u: Optional[Signal],
    T: float,
    opts: IntegratorOptions = IntegratorOptions(),
    extra_stops=(),
    stop: Optional[tuple[float, Callable[[Trajectory, float], bool]]] = None,
) -> SimOutcome:
    """Integrate the system on [0, T] from the given history and input.

    `history` is a HistoryFn on [-tau, 0] (mandatory when the system has
    delays); a bare state vector is accepted for nondelayed systems.
    `extra_stops` adds caller-known times where the right-hand side loses
    smoothness (e.g. saturation crossings) to the forced step boundaries.
    Between two forced boundaries the input is one piece of `u`, and on
    [0, d] the lookup at delay d one segment of `history.shifted(d)`; both
    are resolved once per interval (`Signal.piece`), and the outgoing slope
    is evaluated again at each boundary. Past d the lookup reads the dense
    output at t - d. A nondelayed system's rhs is handed the empty tuple of
    lookups, with no list built per evaluation.
    `stop = (every, ask)`: ask(traj, t) is asked at the first accepted step
    at or past t = every and then once per `every` of progress; when it
    returns True the run ends there, with the trajectory on [0, t]. The
    forced boundaries are those of T either way, so a stopped run is a
    bit-exact prefix of the run to T.
    """
    if T <= 0.0:
        raise ValueError("T must be positive")
    if sys.delays:
        if not isinstance(history, HistoryFn):
            raise BadHistoryDomain("delayed system requires a HistoryFn")
        if abs(history.tau - sys.tau) > 1e-9 * max(1.0, sys.tau):
            raise BadHistoryDomain(
                f"history domain [-{history.tau}, 0] does not match tau={sys.tau}"
            )
        if history.dim != sys.dim:
            raise BadHistoryDomain("history dimension mismatch")
        y0 = history.eval(0.0)
    else:
        y0 = history.eval(0.0) if isinstance(history, HistoryFn) else np.atleast_1d(
            np.asarray(history, dtype=float)
        )
        if y0.size != sys.dim:
            raise BadHistoryDomain("initial state dimension mismatch")

    every, ask = (math.inf, None) if stop is None else stop
    if not every > 0.0:
        raise ValueError(f"stop cadence must be positive, got {every!r}")
    stops = [float(s) for s in _forced_stops(sys, u, T, history, extra_stops)]
    if u is None or sys.input_dim <= 0:
        u = Constant(np.zeros(max(sys.input_dim, 0)))
    delays, rhs = sys.delays, sys.rhs
    shifted = [history.shifted(d) for d in delays]

    def past(d: float):
        # t -> x(t - d) once the interval passes d: from the dense output,
        # and from the history where a delay that is no stop is straddled
        return lambda t: history.eval(t - d) if t <= d else stepper.traj._interp(t - d)

    def resolve(lo: float, hi: float):
        # the input and the delayed lookups on [lo, hi], which no stop splits
        nonlocal uval, looks
        uval = u.piece(lo, hi)
        looks = [h.piece(lo, hi) if hi <= d else past(d) for h, d in zip(shifted, delays)]

    if delays:
        def f(t, y):
            return rhs(y, tuple([look(t) for look in looks]), uval(t))
    else:
        def f(t, y):
            return rhs(y, (), uval(t))

    uval = looks = None
    resolve(0.0, stops[0])
    stepper = Stepper(f, 0.0, y0, opts, h_cap=delays[0] if delays else math.inf)
    check = every
    for lo, target in zip([0.0] + stops, stops):
        if lo > 0.0:
            resolve(lo, target)
            stepper.invalidate_rhs_cache()
        while stepper.t != target:
            stepper.advance(target, until=check)
            if stepper.escape_info is not None:
                return stepper.outcome()
            if stepper.t >= check:
                if ask(stepper.traj, stepper.t):
                    return stepper.outcome()
                check = stepper.t + every
    return stepper.outcome()
