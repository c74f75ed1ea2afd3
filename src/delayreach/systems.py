"""Concrete systems: the switched planar vector field, its delay cascade,
the associated nondelayed system, history/input embeddings between the two
formulations, and a destabilizing sampled-feedback switching policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .integrator import (
    DiscreteDelaySystem,
    HistoryFn,
    IntegratorOptions,
    SimOutcome,
    Stepper,
)
from . import escape_data
from .lyap import A_MODE1, A_MODE2, Mat2
from .signals import PiecewiseConstant, Signal, Window


class WindowOverlap(ValueError):
    """Delay gaps too small for the history-completion windows."""


@dataclass(frozen=True)
class PlanarParams:
    """Gain pair of the switched planar system; defaults are bit-exact."""

    a1: Mat2 = A_MODE1
    a2: Mat2 = A_MODE2


DEFAULT_PLANAR = PlanarParams()

#: the cascade's delay: 1.5x the escape time of the stored greedy schedule,
#: so the delay window contains the whole blow-up region
DEFAULT_DELAY = 1.5 * escape_data.T_ESCAPE


def _entries(m: Mat2) -> tuple:
    return float(m.a11), float(m.a12), float(m.a21), float(m.a22)


def planar_rhs(params: PlanarParams = DEFAULT_PLANAR) -> Callable:
    """g(x, u) = (1 + |x|_2^2) * A(sat(u)) * x, cubic in the state: x is a
    pair of floats and g returns a list of two. sat clamps u to [0, 1] (NaN
    passes through); A(lam) = lam A1 + (1 - lam) A2 is exactly A1 or A2 at
    lam = 1 or 0, the field of a fixed mode. Each sum of two products is
    rounded in the order written, so a fused dot product cannot move it.
    """
    (p11, p12, p21, p22), (q11, q12, q21, q22) = _entries(params.a1), _entries(params.a2)

    def g(x, u: float) -> list:
        lam = 0.0 if u < 0.0 else 1.0 if u > 1.0 else float(u)
        mu = 1.0 - lam
        x1, x2 = x
        c = 1.0 + (x1 * x1 + x2 * x2)
        return [c * ((lam * p11 + mu * q11) * x1 + (lam * p12 + mu * q12) * x2),
                c * ((lam * p21 + mu * q21) * x1 + (lam * p22 + mu * q22) * x2)]

    return g


def planar_system(params: PlanarParams = DEFAULT_PLANAR) -> DiscreteDelaySystem:
    """Nondelayed planar system with a scalar input."""
    g = planar_rhs(params)

    def rhs(y, delayed, u):
        return g(y, u[0])

    return DiscreteDelaySystem(dim=2, input_dim=1, delays=(), rhs=rhs)


def cascade_system(tau: float, params: PlanarParams = DEFAULT_PLANAR) -> DiscreteDelaySystem:
    """Input-free 3-state cascade: scalar exponential decay feeding the
    planar block through a single discrete delay.

    State layout: y = [z, x1, x2]; only the delayed z-component enters the
    planar block.
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    g = planar_rhs(params)

    def rhs(y, delayed, u):
        gx = g(y[1:3], delayed[0][0])
        return [-y[0], gx[0], gx[1]]

    return DiscreteDelaySystem(dim=3, input_dim=0, delays=(tau,), rhs=rhs)


def associated_system(params: PlanarParams = DEFAULT_PLANAR) -> DiscreteDelaySystem:
    """Nondelayed companion of the cascade: the delayed feed becomes an input."""
    g = planar_rhs(params)

    def rhs(y, delayed, u):
        gx = g(y[1:3], u[0])
        return [-y[0], gx[0], gx[1]]

    return DiscreteDelaySystem(dim=3, input_dim=1, delays=(), rhs=rhs)


#: Names accepted by `make_system`, in the order the CLI lists them.
SYSTEM_NAMES = ("planar", "cascade", "associated")


def make_system(
    name: str, tau: float = DEFAULT_DELAY, params: PlanarParams = DEFAULT_PLANAR
) -> DiscreteDelaySystem:
    """The system called `name` (one of SYSTEM_NAMES); only the cascade reads tau."""
    if name == "planar":
        return planar_system(params)
    if name == "cascade":
        return cascade_system(tau, params)
    if name == "associated":
        return associated_system(params)
    raise ValueError(f"unknown system {name!r}; expected one of {', '.join(SYSTEM_NAMES)}")


def embed_history_as_inputs(
    history: HistoryFn, delays
) -> tuple[np.ndarray, list[Signal]]:
    """Turn a history into the initial state and inputs of the nondelayed twin.

    Returns xi0 = history(0) and one input per delay, equal to the shifted
    history on [0, tau_1) and zero afterwards: bit for bit the signal the
    delayed run reads there (`HistoryFn.shifted`). No input norm ever
    exceeds the history's norm.
    """
    delays = [float(d) for d in delays]
    if not delays:
        raise ValueError("need at least one delay")
    inputs: list[Signal] = [Window(history.shifted(d), 0.0, delays[0]) for d in delays]
    return history.eval(0.0), inputs


def history_from_inputs(xi0, inputs, delays) -> HistoryFn:
    """Assemble a continuous history matching each input on its window.

    Input i pins the history on [-tau_i, -tau_i + tau*/2]; history(0) = xi0;
    the gaps are filled by linear interpolation.
    """
    delays = [float(d) for d in delays]
    if len(inputs) != len(delays):
        raise ValueError("one input per delay")
    taus = [0.0] + delays
    tau_star = min(b - a for a, b in zip(taus, taus[1:]))
    if tau_star <= 0.0:
        raise WindowOverlap("delays must be strictly increasing and positive")
    half = 0.5 * tau_star
    if -delays[0] + half >= 0.0:
        raise WindowOverlap("first window reaches time 0")
    xi0 = np.atleast_1d(np.asarray(xi0, dtype=float))
    knots: list[float] = [0.0]
    vals: list[np.ndarray] = [xi0]
    for d, v in zip(delays, inputs):
        inner = v.breakpoints(0.0, half)
        pts = np.unique(np.concatenate([[0.0, half], inner]))
        for p in pts:
            knots.append(p - d)
            vals.append(np.atleast_1d(v.eval(p)))
    order = np.argsort(knots)
    knots_arr = np.array(knots)[order]
    vals_arr = np.array([vals[i] for i in order])
    return HistoryFn(knots_arr, vals_arr)


#: the levels where the clamp of `planar_rhs` kinks
_SATURATION_LEVELS = (0.0, 1.0)


def saturation_stop_times(history: HistoryFn, tau: float, T: float) -> np.ndarray:
    """Times in (0, T) where the delayed feed crosses a saturation level.

    The saturated blend kinks the right-hand side wherever the feed crosses
    0 or 1; forcing step boundaries there restores full integration order.
    On [0, tau] the feed is the shifted history (also the input of the
    embedded companion run), whose crossings are exact for piecewise-linear
    histories; after tau it is z0 e^{-(t - tau)} with z0 = z(0), which
    crosses 1 once, at tau + ln z0, when z0 > 1, and never crosses 0.
    """
    knots = history.knots
    z = history.values[:, 0]
    out = []
    for lv in _SATURATION_LEVELS:
        d = z - lv
        for i in range(len(knots) - 1):
            if d[i] == 0.0:
                out.append(float(knots[i]))
            elif d[i] * d[i + 1] < 0.0:
                out.append(float(knots[i] + (knots[i + 1] - knots[i]) * d[i] / (d[i] - d[i + 1])))
    arr = np.asarray(out, dtype=float) + tau
    z0 = float(history.eval(0.0)[0])
    if z0 > 1.0:
        arr = np.append(arr, tau + math.log(z0))
    return np.unique(arr[(arr > 0.0) & (arr < T)])


@dataclass(frozen=True)
class SwitchingPolicy:
    """Sampled state feedback selecting one of the two planar gains."""

    dwell: float
    rule: Callable[[list], int]

    def __post_init__(self):
        # a zero or negative dwell never advances the sampling clock
        if not (math.isfinite(self.dwell) and self.dwell > 0.0):
            raise ValueError(f"dwell must be finite and positive, got {self.dwell!r}")


def greedy_worst_switch(dwell: float) -> SwitchingPolicy:
    """Pick the gain maximizing the instantaneous growth of |x|_2^2.

    rule(x) = argmax over lam in {0, 1} of x^T (A(lam) + A(lam)^T) x for the
    state x as two floats, ties resolved to 1. Combined with the cubic factor
    this greedily maximizes d|x|^2/dt.

    The decision is numpy's rounded comparison `x @ s1 @ x >= x @ s2 @ x`,
    settled early on floats where it provably agrees. Let u = 2^-53 and
    b = |x|^T (|s1| + |s2|) |x|. Each term of numpy's forms is rounded at most
    four times, FMA or not, so the two forms are within 4.5u b of their
    exact values together; the float sum d = x^T (s1 - s2) x below is within
    5.5u b of its exact value. So where |d| > 1e-14 b, nine times the sum of
    both errors, numpy's difference has the sign of d. Nearer a tie, at a
    NaN or inf, and where b <= 1e-300 (underflow errors are absolute, not
    relative) numpy decides.
    """
    s1 = A_MODE1.as_array()
    s1 = s1 + s1.T
    s2 = A_MODE2.as_array()
    s2 = s2 + s2.T
    # x^T s x = s00 x0^2 + 2 s01 x0 x1 + s11 x1^2; doubling is exact
    (d0, d1), (_, d2) = (s1 - s2).tolist()
    (b0, b1), (_, b2) = (np.abs(s1) + np.abs(s2)).tolist()
    d1, b1 = 2.0 * d1, 2.0 * b1

    def rule(x: list) -> int:
        x0, x1 = x
        d = d0 * x0 * x0 + d1 * x0 * x1 + d2 * x1 * x1
        b = b0 * x0 * x0 + b1 * abs(x0 * x1) + b2 * x1 * x1
        if b > 1e-300 and abs(d) > 1e-14 * b:
            return 1 if d > 0.0 else 0
        x = np.asanyarray(x)
        return 1 if float(x @ s1 @ x) >= float(x @ s2 @ x) else 0

    return SwitchingPolicy(dwell=dwell, rule=rule)


_MIN_DWELL = 1e-13


@dataclass
class SwitchedRun:
    """Closed-loop switching experiment: outcome plus the open-loop replay."""

    outcome: SimOutcome
    signal: PiecewiseConstant


def run_switched(
    policy: SwitchingPolicy,
    x0,
    T: float,
    opts: IntegratorOptions = IntegratorOptions(h_min=1e-14),
) -> SwitchedRun:
    """Drive the planar system of the default gains by the policy, sampled at
    t_0 = 0 and t_{k+1} = t_k + dwell / (1 + |x(t_k)|_2^2), clamped to
    [_MIN_DWELL, dwell], so sampling keeps up with the cubically
    accelerating rotation.

    The run steps `planar_rhs()` at u = mode, the policy's last decision: a
    switch rebinds the mode and drops the Stepper's cached rhs value. The
    samples are read from the dense output, not forced as step boundaries:
    steps are sized by the error test of `opts` alone, and the run is as
    accurate as `opts` asks. Only a sample that switches the mode inside the
    last step drops that step and steps to the sample again, so every
    switching instant is a node. Samples before an escape found in the last
    step are still taken. The realized input is recorded as a
    piecewise-constant signal (consecutive equal values merged) so the
    escape can be replayed open loop.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))

    # the mode changes only at a node, where the Stepper's cached rhs is dropped
    g = planar_rhs()
    mode = float(policy.rule(x0.tolist()))

    def rhs(t, y):
        return g(y, mode)

    stepper = Stepper(rhs, 0.0, x0, opts)
    traj = stepper.traj
    piece_vals = [mode]
    piece_breaks: list[float] = []
    t_k, x = 0.0, x0.tolist()
    while True:
        # |x|^2 is rounded before the 1 is added, as for the recorded schedule
        t_k += min(max(policy.dwell / (1.0 + (x[0] * x[0] + x[1] * x[1])), _MIN_DWELL), policy.dwell)
        if t_k >= T:
            break
        if t_k > stepper.t:
            # the field is smooth between switches, so no boundary is forced
            stepper.advance(T, until=t_k)
        if stepper.escape_info is not None and t_k >= stepper.escape_info[0]:
            break
        x = traj._interp(t_k)
        lam = float(policy.rule(x))
        if lam != mode:
            if t_k < stepper.t:
                # make the switching instant a node
                stepper.rewind()
                stepper.advance(t_k)
                if stepper.escape_info is not None:
                    break
            mode = lam
            stepper.invalidate_rhs_cache()
            piece_vals.append(lam)
            piece_breaks.append(t_k)
    stepper.advance(T)
    outcome = stepper.outcome()
    sig = PiecewiseConstant(np.array(piece_vals), np.array(piece_breaks))
    return SwitchedRun(outcome=outcome, signal=sig)


def recorded_escape(dwell: float = escape_data.DWELL) -> SwitchedRun:
    """Greedy switching run from (1, 0) up to the escape threshold.

    Runs the closed loop on every call; at the default dwell its schedule
    is the one `escape_data` stores.
    """
    return run_switched(greedy_worst_switch(dwell=dwell), np.array([1.0, 0.0]), T=20.0)


def escape_schedule() -> tuple[PiecewiseConstant, float]:
    """Stored greedy switching signal of `escape_data`, zeroed after its
    escape time, and that escape time."""
    values = np.array(escape_data.VALUES + (0.0,)).reshape(-1, 1)
    breaks = np.array(escape_data.BREAKS + (escape_data.T_ESCAPE,))
    return PiecewiseConstant(values, breaks), escape_data.T_ESCAPE
