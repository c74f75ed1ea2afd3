"""Closed-form piecewise input signals.

Signals are exact descriptions, never sampled arrays: the integrator
evaluates them at arbitrary times with no interpolation error, and their
breakpoints are known so step boundaries never straddle a discontinuity.
All signals are vector valued (scalars are 1-vectors) and defined for all
t >= 0; piecewise-constant signals use the right-continuous convention at
breakpoints.
"""

from __future__ import annotations

import numpy as np


class OutOfDomain(ValueError):
    """Signal evaluated outside its domain."""


class DwellTooSmall(ValueError):
    """Smoothing width too large for the schedule's shortest piece."""


def _finite(v, name: str) -> np.ndarray:
    """v as a float array; ValueError if any entry is NaN or infinite."""
    arr = np.asarray(v, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


def _as_value(v) -> np.ndarray:
    arr = np.atleast_1d(_finite(v, "value"))
    if arr.ndim != 1:
        raise ValueError("signal values must be scalars or 1-d vectors")
    return arr


class Signal:
    """Base class; concrete signals implement eval and breakpoints."""

    dim: int

    def eval(self, t: float) -> np.ndarray:
        raise NotImplementedError

    def eval_left(self, t: float) -> np.ndarray:
        """Limit from the left; differs from eval only at jump points."""
        return self.eval(t)

    def breakpoints(self, lo: float, hi: float) -> np.ndarray:
        """Discontinuities and kinks strictly inside (lo, hi), sorted."""
        raise NotImplementedError

    def to_json(self) -> dict:
        """{"kind": ..., field: value, ...}, with the fields of _JSON_KINDS."""
        kind = _KIND_OF[type(self)]
        out = {"kind": kind}
        for name in _JSON_KINDS[kind][1]:
            v = getattr(self, name)
            out[name] = v.to_json() if name in _NESTED else np.asarray(v).tolist()
        return out


class Constant(Signal):
    def __init__(self, value):
        self.value = _as_value(value)
        self.dim = self.value.size

    def eval(self, t):
        if t < 0.0:
            raise OutOfDomain(f"t={t} < 0")
        return self.value

    def breakpoints(self, lo, hi):
        return np.empty(0)


class PiecewiseConstant(Signal):
    """len(values) pieces separated by len(values)-1 strictly increasing breaks.

    Piece i holds on [breaks[i-1], breaks[i]); the first piece extends to the
    left of breaks[0] and the last to the right of breaks[-1].
    """

    def __init__(self, values, breaks):
        self.values = _finite(values, "values")
        if self.values.ndim == 1:
            self.values = self.values.reshape(-1, 1)
        self.breaks = _finite(breaks, "breaks")
        if len(self.breaks) != len(self.values) - 1:
            raise ValueError("need exactly one breakpoint between consecutive pieces")
        if len(self.breaks) > 1 and not (np.diff(self.breaks) > 0).all():
            raise ValueError("breakpoints must be strictly increasing")
        self.dim = self.values.shape[1]

    def _piece(self, t: float) -> int:
        return int(np.searchsorted(self.breaks, t, side="right"))

    def eval(self, t):
        if t < 0.0:
            raise OutOfDomain(f"t={t} < 0")
        return self.values[self._piece(t)]

    def eval_left(self, t):
        return self.values[int(np.searchsorted(self.breaks, t, side="left"))]

    def breakpoints(self, lo, hi):
        b = self.breaks
        return b[(b > lo) & (b < hi)]

    def min_dwell(self) -> float:
        if len(self.breaks) < 2:
            return np.inf
        return float(np.diff(self.breaks).min())


class PiecewiseLinear(Signal):
    """Continuous broken line through (knots[i], values[i]).

    Constant extension outside the knot range keeps the signal defined and
    continuous on all of [0, inf).
    """

    def __init__(self, knots, values):
        self.knots = _finite(knots, "knots")
        self.values = _finite(values, "values")
        if self.values.ndim == 1:
            self.values = self.values.reshape(-1, 1)
        if len(self.knots) != len(self.values):
            raise ValueError("one value per knot")
        if len(self.knots) > 1 and not (np.diff(self.knots) > 0).all():
            raise ValueError("knots must be strictly increasing")
        self.dim = self.values.shape[1]

    def eval(self, t):
        if t < 0.0:
            raise OutOfDomain(f"t={t} < 0")
        k = self.knots
        if t <= k[0]:
            return self.values[0]
        if t >= k[-1]:
            return self.values[-1]
        i = int(np.searchsorted(k, t, side="right")) - 1
        w = (t - k[i]) / (k[i + 1] - k[i])
        return (1.0 - w) * self.values[i] + w * self.values[i + 1]

    def breakpoints(self, lo, hi):
        k = self.knots
        return k[(k > lo) & (k < hi)]


class ExponentialTail(Signal):
    """value * exp(-rate * (t - start)) for t >= start, frozen before start."""

    def __init__(self, value, rate, start=0.0):
        self.value = _as_value(value)
        self.rate = float(_finite(rate, "rate"))
        self.start = float(_finite(start, "start"))
        self.dim = self.value.size

    def eval(self, t):
        if t < 0.0:
            raise OutOfDomain(f"t={t} < 0")
        if t <= self.start:
            return self.value
        return self.value * np.exp(-self.rate * (t - self.start))

    def breakpoints(self, lo, hi):
        if lo < self.start < hi:
            return np.array([self.start])
        return np.empty(0)


class Concatenation(Signal):
    """`first` on [0, t_switch), `second` on [t_switch, inf), absolute time."""

    def __init__(self, first: Signal, second: Signal, t_switch: float):
        if first.dim != second.dim:
            raise ValueError("dimension mismatch")
        self.first = first
        self.second = second
        self.t_switch = float(_finite(t_switch, "t_switch"))
        self.dim = first.dim

    def eval(self, t):
        if t < self.t_switch:
            return self.first.eval(t)
        return self.second.eval(t)

    def eval_left(self, t):
        if t <= self.t_switch:
            return self.first.eval_left(t)
        return self.second.eval_left(t)

    def breakpoints(self, lo, hi):
        pts = [self.first.breakpoints(lo, min(hi, self.t_switch))]
        if lo < self.t_switch < hi:
            pts.append(np.array([self.t_switch]))
        pts.append(self.second.breakpoints(max(lo, self.t_switch), hi))
        return np.unique(np.concatenate(pts))


class TimeShift(Signal):
    """inner evaluated at t - shift."""

    def __init__(self, inner: Signal, shift: float):
        self.inner = inner
        self.shift = float(_finite(shift, "shift"))
        self.dim = inner.dim

    def eval(self, t):
        return self.inner.eval(t - self.shift)

    def eval_left(self, t):
        return self.inner.eval_left(t - self.shift)

    def breakpoints(self, lo, hi):
        # the sum can round onto an end of the window
        pts = self.inner.breakpoints(lo - self.shift, hi - self.shift) + self.shift
        return pts[(pts > lo) & (pts < hi)]


class Window(Signal):
    """inner on [lo, hi), zero elsewhere; inner is never evaluated outside."""

    def __init__(self, inner: Signal, lo: float, hi: float):
        self.lo = float(_finite(lo, "lo"))
        self.hi = float(_finite(hi, "hi"))
        if not self.hi > self.lo:
            raise ValueError("empty window")
        self.inner = inner
        self.dim = inner.dim

    def eval(self, t):
        if self.lo <= t < self.hi:
            return self.inner.eval(t)
        return np.zeros(self.dim)

    def eval_left(self, t):
        if self.lo < t <= self.hi:
            return self.inner.eval_left(t)
        return np.zeros(self.dim)

    def breakpoints(self, lo, hi):
        pts = [self.inner.breakpoints(max(lo, self.lo), min(hi, self.hi))]
        edges = [e for e in (self.lo, self.hi) if lo < e < hi]
        if edges:
            pts.append(np.array(edges))
        return np.unique(np.concatenate(pts))


def smooth_square(
    schedule: PiecewiseConstant, delta: float, strict: bool = True
) -> PiecewiseLinear:
    """Continuous trapezoidal smoothing of a piecewise-constant schedule.

    Exact centered moving average of width `delta`: the result is piecewise
    linear with kinks at breakpoint +- delta/2, equals the schedule outside
    those ramps, never exceeds its sup norm, and converges to it pointwise
    a.e. as delta -> 0.

    With strict=True the width must be below half the minimum dwell so every
    ramp is an isolated linear crossing of a single breakpoint. Non-strict
    mode keeps the moving average exact even when ramps overlap, which is
    what the diverging-peaks sweep needs.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if strict and not delta < 0.5 * schedule.min_dwell():
        raise DwellTooSmall(
            f"delta={delta} not below half the minimum dwell {schedule.min_dwell()}"
        )
    breaks = schedule.breaks
    values = schedule.values
    if len(breaks) == 0:
        return PiecewiseLinear(np.array([0.0]), values[:1].copy())

    # cumulative integral of the schedule from breaks[0], constant-extended;
    # the piece between breaks[i] and breaks[i+1] carries values[i+1]
    seg = values[1:-1] * np.diff(breaks)[:, None] if len(breaks) > 1 else np.zeros((0, schedule.dim))
    cum = np.vstack([np.zeros((1, schedule.dim)), np.cumsum(seg, axis=0)])

    def integral(t: float) -> np.ndarray:
        # integral of the schedule from breaks[0] to t (t may be on either side)
        if t <= breaks[0]:
            return values[0] * (t - breaks[0])
        if t >= breaks[-1]:
            return cum[-1] + values[-1] * (t - breaks[-1])
        i = int(np.searchsorted(breaks, t, side="right")) - 1
        return cum[i] + values[i + 1] * (t - breaks[i])

    half = 0.5 * delta
    knots = np.unique(np.concatenate([breaks - half, breaks + half]))
    vals = np.array([(integral(k + half) - integral(k - half)) / delta for k in knots])
    # a moving average stays inside the range of the values it averages, so
    # clipping to it removes only the rounding of the difference above
    return PiecewiseLinear(knots, np.clip(vals, values.min(axis=0), values.max(axis=0)))


#: JSON kind -> (class, constructor fields); each field is the attribute of
#: the same name, and a signal-valued one nests as its own JSON object
_JSON_KINDS = {
    "constant": (Constant, ("value",)),
    "piecewise_constant": (PiecewiseConstant, ("values", "breaks")),
    "piecewise_linear": (PiecewiseLinear, ("knots", "values")),
    "exponential_tail": (ExponentialTail, ("value", "rate", "start")),
    "concatenation": (Concatenation, ("first", "second", "t_switch")),
    "time_shift": (TimeShift, ("inner", "shift")),
    "zero_outside_interval": (Window, ("inner", "lo", "hi")),
}
_KIND_OF = {cls: kind for kind, (cls, _) in _JSON_KINDS.items()}
_NESTED = ("first", "second", "inner")


def from_json(obj: dict) -> Signal:
    """Rebuild a signal from its JSON description; a missing field takes the
    constructor's default (only `start` has one)."""
    kind = obj["kind"]
    if kind not in _JSON_KINDS:
        raise ValueError(f"unknown signal kind {kind!r}")
    cls, fields = _JSON_KINDS[kind]
    return cls(**{f: from_json(obj[f]) if f in _NESTED else obj[f] for f in fields if f in obj})
