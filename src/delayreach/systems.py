"""Concrete systems: the switched planar vector field, its delay cascade,
the associated nondelayed system, history/input embeddings between the two
formulations, and a destabilizing sampled-feedback switching policy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .integrator import (
    DiscreteDelaySystem,
    HistoryFn,
    IntegratorOptions,
    SimOutcome,
    Stepper,
    _Fed,
    _horner,
    _step_kernel,
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


def _field(x: str, k: str, t: str = "", i: int = 0) -> list:
    """Source of the field (1 + |x|_2^2) A x at the pair x_i, x_{i+1} into
    k_i, k_{i+1}, at any time t, A the gains g..; each sum is rounded in the
    order written."""
    x0, x1, k0, k1 = f"{x}_{i}", f"{x}_{i + 1}", f"{k}_{i}", f"{k}_{i + 1}"
    return [f"c = 1.0 + ({x0} * {x0} + {x1} * {x1})",
            f"{k0}, {k1} = c * (g11 * {x0} + g12 * {x1}), c * (g21 * {x0} + g22 * {x1})"]


def _cascade_field(x: str, k: str, t: str = "") -> list:
    """Source of the field of the cascade's state [z, x1, x2]: z' = -z, and the
    planar field at (x1, x2)."""
    return [f"{k}_0 = -{x}_0", *_field(x, k, t, 1)]


def _define(signature: str, lines: list) -> Callable:
    """The function `def signature:` with the source lines as its body."""
    exec(f"def {signature}:\n    " + "\n".join(lines).replace("\n", "\n    "), scope := {})
    return scope[signature[: signature.index("(")]]


#: the levels where the clamp of `planar_rhs` kinks, and `_GAINS` saturates
_SATURATION_LEVELS = (0.0, 1.0)
_ENTRIES = "p11, p12, p21, p22, q11, q12, q21, q22, e11, e12, e21, e22, f11, f12, f21, f22"
#: A(sat(w)) = lam A1 + (1 - lam) A2 as source, at a float w: sat clamps w to
#: [0, 1] and passes a NaN; the entries p.. of A1 and q.. of A2 are blended
#: where it passes w, and where it gives lam = 1.0 or 0.0 the blend is the
#: entries e.. or f.., the same formula evaluated once (`_gains`)
_GAINS = ["if w >= 1.0:", "    g11, g12, g21, g22 = e11, e12, e21, e22",
          "elif w < 0.0:", "    g11, g12, g21, g22 = f11, f12, f21, f22",
          "else:", "    mu = 1.0 - w",
          *(f"    g{ij} = w * p{ij} + mu * q{ij}" for ij in ("11", "12", "21", "22"))]


def _gains(params: PlanarParams) -> tuple:
    """The floats `_GAINS` reads, in the order of `_ENTRIES`."""
    p, q = _entries(params.a1), _entries(params.a2)
    return (*p, *q, *(lam * a + (1.0 - lam) * b for lam in (1.0, 0.0) for a, b in zip(p, q)))


#: make(p11, ..., f22) -> the g of `planar_rhs`
_planar = _define(f"make({_ENTRIES})", ["def g(x, u):", *("    " + line for line in (
    "w = float(u)", *_GAINS, "x_0, x_1 = x", *_field("x", "k"), "return [k_0, k_1]")), "return g"])


def planar_rhs(params: PlanarParams = DEFAULT_PLANAR) -> Callable:
    """g(x, u) = (1 + |x|_2^2) * A(sat(u)) * x, cubic in the state: x is a
    pair of floats and g returns a list of two. sat clamps u to [0, 1] (NaN
    passes through); A(lam) = lam A1 + (1 - lam) A2 is exactly A1 or A2 at
    lam = 1 or 0, the field of a fixed mode. g is rendered from `_field`,
    the source that `run_switched`'s closed loop and `integrate`'s fused
    stages compute inline.
    """
    return _planar(*_gains(params))


#: the planar field and the cascade's as `integrator._Fed`: the gains at w, then the field
_PLANAR_FED, _CASCADE_FED = (_Fed(tuple(_GAINS), field, _ENTRIES, _SATURATION_LEVELS[1])
                              for field in (_field, _cascade_field))


def _carrying(rhs: Callable, fed: _Fed, params: PlanarParams) -> Callable:
    """rhs, which computes what `fed` renders at the gains of params, carrying
    that source as `rhs.fed`: `integrate` computes it inline at every stage."""
    rhs.fed = fed, _gains(params)
    return rhs


def planar_system(params: PlanarParams = DEFAULT_PLANAR) -> DiscreteDelaySystem:
    """Nondelayed planar system with a scalar input."""
    g = planar_rhs(params)

    def rhs(y, delayed, u):
        return g(y, u[0])

    return DiscreteDelaySystem(dim=2, input_dim=1, delays=(), rhs=_carrying(rhs, _PLANAR_FED, params))


def cascade_system(tau: float, params: PlanarParams = DEFAULT_PLANAR) -> DiscreteDelaySystem:
    """Input-free 3-state cascade: scalar exponential decay feeding the
    planar block through a single discrete delay.

    State layout: y = [z, x1, x2]; only the delayed z-component enters the
    planar block.
    """
    g = planar_rhs(params)

    def rhs(y, delayed, u):
        gx = g(y[1:3], delayed[0][0])
        return [-y[0], gx[0], gx[1]]

    return DiscreteDelaySystem(dim=3, input_dim=0, delays=(tau,), rhs=_carrying(rhs, _CASCADE_FED, params))


def associated_system(params: PlanarParams = DEFAULT_PLANAR) -> DiscreteDelaySystem:
    """Nondelayed companion of the cascade: the delayed feed becomes an input."""
    g = planar_rhs(params)

    def rhs(y, delayed, u):
        gx = g(y[1:3], u[0])
        return [-y[0], gx[0], gx[1]]

    return DiscreteDelaySystem(dim=3, input_dim=1, delays=(), rhs=_carrying(rhs, _CASCADE_FED, params))


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


def saturation_stop_times(history: HistoryFn, tau: float, T: float) -> np.ndarray:
    """Times in (0, T) where the delayed feed crosses a saturation level.

    The saturated blend kinks the right-hand side wherever the feed crosses
    0 or 1; forcing step boundaries there restores full integration order.
    On [0, tau] the feed is the shifted history (also the input of the
    embedded companion run), whose crossings are exact for piecewise-linear
    histories; after tau it is z0 e^{-(t - tau)} with z0 = z(0), which
    crosses 1 once, at tau + ln z0, when z0 > 1, and never crosses 0.
    """
    knots = history.line._k
    out = []
    for lv in _SATURATION_LEVELS:
        d = [v[0] - lv for v in history.line._v]
        for i in range(len(knots) - 1):
            if d[i] == 0.0:
                out.append(knots[i])
            elif d[i + 1] != 0.0 and (d[i] < 0.0) != (d[i + 1] < 0.0):  # signs: a product can underflow
                out.append(knots[i] + (knots[i + 1] - knots[i]) * d[i] / (d[i] - d[i + 1]))
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
    state x as two floats. Combined with the cubic factor this greedily
    maximizes d|x|^2/dt.

    The decision is the sign of one float form, d = x^T (s1 - s2) x with
    s = A + A^T, rounded in the order written: mode 1 where d >= 0, a zero
    included, and mode 0 where d < 0 or d is NaN. CPython rounds each float
    operation once and fuses none, so every x86-64 machine decides the same.
    """
    (p11, p12, p21, p22), (q11, q12, q21, q22) = _entries(A_MODE1), _entries(A_MODE2)
    # d = d0 x0^2 + d1 x0 x1 + d2 x1^2, from the entries of s1 - s2; doubling is exact
    d0, d1, d2 = (p11 + p11) - (q11 + q11), 2.0 * ((p12 + p21) - (q12 + q21)), (p22 + p22) - (q22 + q22)

    def rule(x: list) -> int:
        x0, x1 = x
        return 1 if d0 * x0 * x0 + d1 * x0 * x1 + d2 * x1 * x1 >= 0.0 else 0

    return SwitchingPolicy(dwell=dwell, rule=rule)


_MIN_DWELL = 1e-13

# The greedy closed loop as source for `_step_kernel`. Its state, read from clk at entry and
# written back on exit: the next sample t_k, the last sample x, the mode, the last decision u,
# the samples taken, and pending, set by a switching sample until the clock step after it.
_LOAD = ["t_k, (x_0, x_1), mode, samples, pending = clk.t_k, clk.x, clk.mode, clk.samples, clk.pending", "u = w = mode"]
_STORE = "clk.t_k, clk.x, clk.u, clk.samples, clk.pending = t_k, [x_0, x_1], u, samples, pending"
#: the clock step min(max(s, _MIN_DWELL), dwell) with no call; |x|^2 is rounded before the 1 is added
_TICK = ["if samples >= max_steps:",
         '    raise MaxStepsExceeded(f"exceeded max_steps={max_steps} policy samples")',
         "s = dwell / (1.0 + (x_0 * x_0 + x_1 * x_1))",
         f"s = {_MIN_DWELL!r} if {_MIN_DWELL!r} > s else s",
         "t_k += dwell if dwell < s else s"]
#: the samples before end in the step just accepted, and before t_esc on the escape step, read
#: from its floats as `Trajectory._interp` reads them, up to a switch, where the soft stop moves
_SAMPLES = "\n".join([
    "t_0 = t_store[-2]",
    "while t_k <= t_new and t_k < end and t_k < t_esc and not pending:",
    "    if t_k == t_new:",
    "        x_0, x_1 = yn_0, yn_1",
    "    else:",
    "        th = (t_k - t_0) / (t_new - t_0)",
    *(f"        x_{i} = {_horner(f'y_{i}', [f'q{m}_{i}' for m in range(4)])}" for i in (0, 1)),
    "    u = rule([x_0, x_1])",
    "    samples += 1",
    "    if u != mode:",
    "        pending = True",
    "    else:",
    *("        " + line for line in _TICK),
    "until = t_k"])


@functools.lru_cache(maxsize=None)
def _closed_loop():
    """loop(opts, traj, h_top, clk, rule, dwell, end, *gains) of `_step_kernel`: the
    field of clk.mode inline, and after each accepted step, the escape step
    included, the samples taken in it."""
    head = [*_LOAD, *_GAINS, "if pending and t == t_k:  # the run stands at the last sample",
            *("    " + line for line in _TICK), "    pending = False"]
    return _step_kernel(2, _field, f", clk, rule, dwell, end, {_ENTRIES}", "\n".join(head), _SAMPLES, _STORE)[0]


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
    accelerating rotation. x0 must be two finite floats and T finite and
    positive (ValueError).

    One generated closed loop (`_closed_loop`), entered through
    `Stepper.advance`, computes the field of `planar_rhs()` at u = mode, the
    policy's last decision, inline at every stage; after each accepted step
    it reads the samples in that step from the step's floats, bit for bit as
    `Trajectory._interp` reads them, and calls the rule on each. Steps are
    sized by the error test of `opts` alone. The loop returns at T, an
    escape or a switch: a switch inside the last step drops that step and
    steps to the sample again, so every switching instant is a node. On the
    escape step it takes the samples before the escape time alone. The
    realized input is recorded as a piecewise-constant signal (consecutive
    equal values merged) so the escape can be replayed open loop. More than
    `opts.max_steps` policy samples raise MaxStepsExceeded, as more step
    attempts do.
    """
    if not (math.isfinite(T) and T > 0.0):
        raise ValueError(f"T must be finite and positive, got {T!r}")
    x = np.asarray(x0, dtype=float)
    if x.shape != (2,) or not np.isfinite(x).all():
        raise ValueError(f"x0 must be two finite floats, got {x0!r}")
    rule, dwell = policy.rule, policy.dwell
    g = planar_rhs()
    mode = float(rule(x.tolist()))

    def rhs(t, y):
        return g(y, mode)

    stepper = Stepper(rhs, 0.0, x, opts)
    # the sample at 0 is taken; its clock step is pending
    clk = SimpleNamespace(t_k=0.0, x=x.tolist(), mode=mode, u=mode, samples=0, pending=True)
    stepper._steps = _closed_loop()(opts, stepper.traj, math.inf, clk, rule, dwell, T, *_gains(DEFAULT_PLANAR))
    piece_vals, piece_breaks = [mode], []
    while True:
        # the soft stop is the next sample, which the loop takes and moves past
        stepper.advance(T, until=clk.t_k)
        if clk.u != mode:
            u, t_s = clk.u, clk.t_k
            if t_s < stepper.t:  # make the switching instant a node
                stepper.rewind()
                stepper.advance(t_s)
                if stepper.escape_info is not None:
                    break
            mode = clk.mode = float(u)
            stepper.invalidate_rhs_cache()
            piece_vals.append(mode)
            piece_breaks.append(t_s)
        elif stepper.escape_info is not None or stepper.t == T:
            break
    outcome = stepper.outcome()
    sig = PiecewiseConstant(np.array(piece_vals), np.array(piece_breaks))
    return SwitchedRun(outcome=outcome, signal=sig)


def recorded_escape(dwell: float = escape_data.DWELL) -> SwitchedRun:
    """Greedy switching run from `escape_data.X0` up to the escape threshold.

    Runs the closed loop on every call; at the default dwell its schedule
    is the one `escape_data` stores.
    """
    return run_switched(greedy_worst_switch(dwell=dwell), np.array(escape_data.X0), T=20.0)


def escape_schedule() -> tuple[PiecewiseConstant, float]:
    """Stored greedy switching signal of `escape_data`, zeroed after its
    escape time, and that escape time."""
    values = np.array(escape_data.VALUES + (0.0,)).reshape(-1, 1)
    breaks = np.array(escape_data.BREAKS + (escape_data.T_ESCAPE,))
    return PiecewiseConstant(values, breaks), escape_data.T_ESCAPE
