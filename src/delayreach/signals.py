"""Closed-form piecewise input signals.

Signals are exact descriptions, never sampled arrays: the integrator
evaluates them at arbitrary times with no interpolation error, and their
breakpoints are known so step boundaries never straddle a discontinuity.
All signals are vector valued (scalars are 1-vectors) and defined for all
t >= 0; piecewise-constant signals use the right-continuous convention at
breakpoints. Combinators read their parts through `_piece`, also before 0
(a time shift): a leaf holds its value at 0, a window is zero outside.

Between two consecutive breakpoints a signal is one closed-form piece.
`piece(lo, hi)` resolves it once and returns it as a function of t, so the
integrator pays no index search per evaluation; a piece's value is a
sequence of floats, which the right-hand side reads per component.
`eval(t)` is the piece through t, resolved at t, as a 1-D ndarray.
"""

from __future__ import annotations

import math

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


def _constant(v):
    return lambda t: v


def _linear(k0, k1, v0, v1):
    """t -> the line through (k0, v0) and (k1, v1), as every broken line here
    computes it: w = (t - k0) / (k1 - k0), then (1 - w) v0 + w v1 per component
    (in floats: the same roundings as numpy's, without its per-call cost). A
    one-component line, as every scalar input is, spells that one sum out."""
    a, span = float(k0), float(k1 - k0)
    pairs = list(zip(np.asarray(v0).tolist(), np.asarray(v1).tolist()))
    if len(pairs) == 1:
        ((p, q),) = pairs

        def line(t):
            w = (t - a) / span
            return [(1.0 - w) * p + w * q]

        return line

    def line(t):
        w = (t - a) / span
        return [(1.0 - w) * p + w * q for p, q in pairs]

    return line


def _broken_line(knots, values) -> tuple[np.ndarray, np.ndarray]:
    """The knots and the (len(knots), dim) values of a broken line, as float
    arrays; ValueError unless both are finite, there is one value per knot
    (at least one) and the knots strictly increase."""
    knots = _finite(knots, "knots")
    values = _finite(values, "values")
    if values.ndim == 1:
        values = values.reshape(-1, 1)
    if len(knots) < 1 or len(knots) != len(values):
        raise ValueError("one value per knot")
    if len(knots) > 1 and not (np.diff(knots) > 0).all():
        raise ValueError("knots must be strictly increasing")
    return knots, values


def _held_at_zero(pts: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Breakpoints in (lo, hi) of a leaf whose formula changes at the sorted
    `pts`, held at its value at 0 before 0: so 0 is one if some pt is <= 0."""
    out = pts[(pts > max(lo, 0.0)) & (pts < hi)]
    if lo < 0.0 < hi and pts.size and pts[0] <= 0.0:
        return np.concatenate([[0.0], out])
    return out


def _as_value(v) -> np.ndarray:
    arr = np.atleast_1d(_finite(v, "value"))
    if arr.ndim != 1:
        raise ValueError("signal values must be scalars or 1-d vectors")
    return arr


class Signal:
    """Base class; concrete signals implement _piece and breakpoints."""

    dim: int

    def eval(self, t: float) -> np.ndarray:
        """Value at t: the piece through t, resolved at t, as an ndarray."""
        return np.asarray(self.piece(t, t)(t), dtype=float)

    def piece(self, lo: float, hi: float):
        """The signal on [lo, hi], which no breakpoint splits, as t -> value,
        a sequence of floats (a list, or the ndarray of a constant piece): the
        formula `eval` applies at lo, with its piece fixed, so `eval` bit for
        bit on [lo, hi) and its limit from the left at hi. OutOfDomain if lo < 0."""
        if lo < 0.0:
            raise OutOfDomain(f"t={lo} < 0")
        return self._piece(lo, hi)

    def _piece(self, lo: float, hi: float):
        """`piece` without the domain check, as the combinators read it."""
        raise NotImplementedError

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

    def _piece(self, lo, hi):
        return _constant(self.value)

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

    def _piece(self, lo, hi):
        return _constant(self.values[int(np.searchsorted(self.breaks, max(lo, 0.0), side="right"))])

    def breakpoints(self, lo, hi):
        b = self.breaks
        return b[(b > max(lo, 0.0)) & (b < hi)]

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
        self.knots, self.values = _broken_line(knots, values)
        self.dim = self.values.shape[1]

    def _piece(self, lo, hi):
        if lo < 0.0:
            return _constant(self._piece(0.0, 0.0)(0.0))
        k, v = self.knots, self.values
        if lo < k[0]:
            return _constant(v[0])
        if lo >= k[-1]:
            return _constant(v[-1])
        i = int(np.searchsorted(k, lo, side="right")) - 1
        return _linear(k[i], k[i + 1], v[i], v[i + 1])

    def breakpoints(self, lo, hi):
        return _held_at_zero(self.knots, lo, hi)


class ExponentialTail(Signal):
    """value * exp(-rate * (t - start)) for t >= start, frozen before start.

    A piece past start multiplies each component by one rounded factor
    e = exp(-rate * (t - start)); a one-component value, as the cascade's
    feed is, is the one product v * e.
    """

    def __init__(self, value, rate, start=0.0):
        self.value = _as_value(value)
        self.rate = float(_finite(rate, "rate"))
        self.start = float(_finite(start, "start"))
        self.dim = self.value.size

    def _piece(self, lo, hi):
        if lo < 0.0:
            return _constant(self._piece(0.0, 0.0)(0.0))
        if lo < self.start:
            return _constant(self.value)
        # at start itself the decay is exp(-0) = 1 exactly: the frozen value
        # np.exp, not math.exp: the two differ in the last bit on some arguments
        value, rate, start = self.value.tolist(), self.rate, self.start
        if len(value) == 1:
            (v,) = value

            def decay(t):
                return [v * float(np.exp(-rate * (t - start)))]

            return decay

        def decay(t):
            e = float(np.exp(-rate * (t - start)))
            return [v * e for v in value]

        return decay

    def breakpoints(self, lo, hi):
        return _held_at_zero(np.array([self.start]), lo, hi)


class Concatenation(Signal):
    """`first` on [0, t_switch), `second` on [t_switch, inf), absolute time."""

    def __init__(self, first: Signal, second: Signal, t_switch: float):
        if first.dim != second.dim:
            raise ValueError("dimension mismatch")
        self.first = first
        self.second = second
        self.t_switch = float(_finite(t_switch, "t_switch"))
        self.dim = first.dim

    def _piece(self, lo, hi):
        return (self.first if lo < self.t_switch else self.second)._piece(lo, hi)

    def breakpoints(self, lo, hi):
        pts = [self.first.breakpoints(lo, min(hi, self.t_switch))]
        if lo < self.t_switch < hi:
            pts.append(np.array([self.t_switch]))
        pts.append(self.second.breakpoints(max(lo, self.t_switch), hi))
        return np.unique(np.concatenate(pts))


class TimeShift(Signal):
    """inner evaluated at t - shift, which can read it before 0 (see `_piece`)."""

    def __init__(self, inner: Signal, shift: float):
        self.inner = inner
        self.shift = float(_finite(shift, "shift"))
        self.dim = inner.dim

    def _piece(self, lo, hi):
        p, shift = self.inner._piece(lo - self.shift, hi - self.shift), self.shift
        return lambda t: p(t - shift)

    def _switch(self, b: float) -> float:
        """The first t with t - shift >= b in floating point: where the inner
        break b takes effect, which b + shift can miss by an ulp either way."""
        t = b + self.shift
        while t - self.shift < b:
            t = math.nextafter(t, math.inf)
        while math.nextafter(t, -math.inf) - self.shift >= b:
            t = math.nextafter(t, -math.inf)
        return t

    def breakpoints(self, lo, hi):
        # a switch can round onto an end of the window
        inner = self.inner.breakpoints(lo - self.shift, hi - self.shift)
        pts = np.array([self._switch(float(b)) for b in inner])
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

    def _piece(self, lo, hi):
        if self.lo <= lo < self.hi:
            return self.inner._piece(lo, hi)
        return _constant(np.zeros(self.dim))

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
