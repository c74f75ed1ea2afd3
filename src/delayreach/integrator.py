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
sequence of floats and returns its derivative as a list of floats, and the
stepping loop is one function generated per state dimension: straight-line
ordered float sums per component on those lists (see `Stepper`), with no
array between two stages. A plain callable rhs is called at each stage. An
rhs that carries its source (`_Fed`; the planar, cascade and associated
systems) is computed inline instead, its scalar feed read from the floats
of the current piece, so a step makes no call unless that piece has no
closed form (a lookup past the delay). A closed loop is rendered from the
same template with its field inline and its own code after each accepted
step (`_step_kernel`; `systems.run_switched`). Unboundedness is
the only failure mode of the underlying solution concept, so crossing a norm
threshold (or a step-size collapse while the norm is growing) is reported
as a finite-escape outcome, timed in the loop on the step's dense output.
"""

from __future__ import annotations

import bisect
import functools
import linecache
import math
import numbers
import struct
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .signals import _DECAY, _EXP, _FRACTION, _LINE, Constant, PiecewiseLinear, Signal, _render


class BadHistoryDomain(ValueError):
    """History domain does not match the system's maximum delay."""


class SpanTooShort(ValueError):
    """Trajectory does not cover the requested history window."""


class StepSizeCollapse(RuntimeError):
    """Error test kept failing below h_min while the state was not growing."""


class MaxStepsExceeded(RuntimeError):
    """More step attempts, or policy samples of `run_switched`, than IntegratorOptions.max_steps."""


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

# One attempt as a template of (coefficient, stage) terms, each sum in stage
# order. Stage s is taken at t + c*h, or at the step's end t_new where c = 1,
# on y + h * (the terms of its row); the last row is the 5th-order solution.
_STAGES = (
    (_C1, ((_A10, 0),)),
    (_C2, ((_A20, 0), (_A21, 1))),
    (_C3, ((_A30, 0), (_A31, 1), (_A32, 2))),
    (_C4, ((_A40, 0), (_A41, 1), (_A42, 2), (_A43, 3))),
    (1.0, ((_A50, 0), (_A51, 1), (_A52, 2), (_A53, 3), (_A54, 4))),
    (1.0, ((_B0, 0), (_B2, 2), (_B3, 3), (_B4, 4), (_B5, 5))),
)
_ERROR = ((_E0, 0), (_E2, 2), (_E3, 3), (_E4, 4), (_E5, 5), (_E6, 6))
_DENSE = (
    ((_P01, 0), (_P21, 2), (_P31, 3), (_P41, 4), (_P51, 5), (_P61, 6)),
    ((_P02, 0), (_P22, 2), (_P32, 3), (_P42, 4), (_P52, 5), (_P62, 6)),
    ((_P03, 0), (_P23, 2), (_P33, 3), (_P43, 4), (_P53, 5), (_P63, 6)),
)


def _horner(y: str, q: list) -> str:
    """Source of the dense-output read y + th (q0 + th (q1 + th (q2 + th q3)))
    of one component at th, from the sources y and q = [q0, q1, q2, q3]."""
    return f"{y} + th * ({q[0]} + th * ({q[1]} + th * ({q[2]} + th * {q[3]})))"


@functools.lru_cache(maxsize=None)
def _step_kernel(n: int, field=None, params: str = "", head: str = "", after: str = "", tail: str = "", at=None, load="",
                 attempt=""):
    """The stepping loop of `Stepper.advance` and the dense-output read for an
    n-component state, as straight-line float code rendered from the template,
    each sum written as a per-component comprehension writes it, so it rounds
    the same. loop(opts, traj, h_top) returns steps(st, target, until), which
    steps Stepper st: the stages, |y_new|_inf, the squared scaled errors summed
    from 0.0 in component order, the error test, the new h, and the node and
    dense-output coefficients of an accepted step appended to traj's stores.
    Each max or min of an attempt is a conditional expression with max's and
    min's outcome, NaN included: max(a, b) is `b if b > a else a`. At each of
    st's forced stops (`Stepper.stops`) on the way it swaps rhs for the piece
    past it and takes the slope there, then returns if the stop is at or past
    until. On the step whose end reaches the threshold, t_esc becomes the last
    float of its segment below it, bisected over floats on the step's dense
    output as `value` reads it. On every exit, an exception from the rhs
    included, it writes t, y, slope, h, nsteps, both norms, t_esc, the stops
    walked and rhs back to st, and returns (reason, h, norm_new, sq) of its last
    attempt, reason None at the target or the soft stop. value(ys, q, i, th)
    reads segment i of the stores: `_horner` at th per component.

    A stage's derivative at the named floats x_0, ... (a_i, yn_i for the
    last) and time t is the source `field(x, k, t)` into k_0, ...; by default
    rhs(t, [x_0, ...]). The source `at(t)`, if given, runs once per stage
    time before the field, so the two stages at t_new share it. The dense
    coefficients are q{m}_{i}. `params` extend loop's; the source `load` runs
    at entry and after each swap of rhs, `head` at entry, `attempt` before
    the stages of each attempt, whose stage times all lie in [t, t_new],
    `after` after each accepted step, the escape step included, `tail` on
    every exit."""
    comps = range(n)

    def names(v):  # "v_0, v_1, "
        return "".join(f"{v}_{i}, " for i in comps)

    def terms(row, i):  # component i's sum of a template row, in stage order
        return " + ".join(f"{c!r} * k{j}_{i}" for c, j in row)

    def block(src, depth):  # source lines, each on a new line at that indent
        return "".join("\n" + " " * depth + line for line in src.splitlines())

    def rhs(x, k, t):  # the field of a Stepper: a call of its rhs
        return [f"{names(k)}= rhs({t}, [{names(x)}])"]

    def larger(a, b):  # max(a, b) of two names as max computes it
        return f"{b} if {b} > {a} else {a}"

    def smaller(a, b):  # min(a, b) of two names as min computes it
        return f"{b} if {b} < {a} else {a}"

    field = field or rhs
    stages, t_prev = [f"{names('y')}= y", f"{names('k0')}= k0"], None
    for s, (c, row) in enumerate(_STAGES, 1):
        x, t_s = "yn" if s == len(_STAGES) else "a", "t_new" if c == 1.0 else f"t + {c!r} * h"
        stages += [*(at(t_s) if at and t_s != t_prev else ()),
                   f"{names(x)}= " + "".join(f"y_{i} + h * ({terms(row, i)}), " for i in comps),
                   *field(x, f"k{s}", t_s)]
        t_prev = t_s
    stages += [f"{names('b')}= " + "".join(f"abs(yn_{i}), " for i in comps),  # |y_new_i|, and |y_i| as m_i
               f"{names('m')}= " + "".join(f"abs(y_{i}), " for i in comps),
               "norm_new = b_0", *(f"norm_new = {larger('norm_new', f'b_{i}')}" for i in comps[1:]),
               *(f"r_{i} = h * ({terms(_ERROR, i)}) / (atol + rtol * ({larger(f'b_{i}', f'm_{i}')}))" for i in comps)]
    stages = block("\n".join(stages), 20)
    slope = block("\n".join([*(at("t") if at else ()), *field("y", "k0", "t")]), 24)
    sq = "".join(f" + r_{i} * r_{i}" for i in comps)
    q = [f"h * k0_{i}" for i in comps] + [f"h * ({terms(row, i)})" for row in _DENSE for i in comps]
    qn = [f"q{m}_{i}" for m in range(4) for i in comps]  # in the order of the store
    dense = block("\n".join(map("{} = {}".format, qn, q)), 20)
    horner = ", ".join(f"abs({_horner(f'y_{i}', [f'q{m}_{i}' for m in range(4)])})" for i in comps)
    src = f"""def loop(opts, traj, h_top{params}):
    atol, rtol, h_min, big, max_steps = opts.abs_tol, opts.rel_tol, opts.h_min, opts.escape_threshold, opts.max_steps
    def steps(st, target, until):
        rhs, stops, pieces, walked, t_store, y_store, q_store = st.rhs, st.stops, st.pieces, st.walked, traj._t, traj._y, traj._q{block(load, 8)}
        t, y, k0, h_next, nsteps, norm, norm_prev = st.t, st.y, st.slope, st.h, st.nsteps, st._norm, st._norm_prev{block(head, 8)}
        reason, h, norm_new, sq, t_esc = None, None, None, None, inf
        try:
            while True:  # to the next forced stop, or past the last to the target
                t_stop = stops[walked] if walked < len(stops) else target
                eps_t = max(1e-15, 4.0 * ulp(abs(t_stop)))
                while t_stop - t > eps_t:
                    if nsteps >= max_steps:
                        reason = "max_steps"
                        break
                    h = {smaller('h_next', 'h_top')}
                    at_end = h >= t_stop - t  # end of step lands on the forced boundary
                    if at_end:
                        h = t_stop - t
                    t_new = t_stop if at_end else t + h{block(attempt, 20)}{stages}
                    sq = 0.0{sq}
                    nsteps += 1
                    err = sqrt(sq / {n})
                    # the norm skips a NaN that is not first, as max does; err
                    # does not: every stage but k1 has a nonzero weight in it
                    bad = not (isfinite(err) and isfinite(norm_new))
                    if bad or err > 1.0:
                        if h <= h_min * (1.0 + 1e-9):
                            reason = "nonfinite" if bad else "h_min_collapse" if norm > norm_prev else "collapse"
                            break
                        h_next = h * (0.1 if bad else shrink if (shrink := 0.9 * err ** -0.2) > 0.2 else 0.2)
                        h_next = {larger('h_next', 'h_min')}
                        continue
                    yn, k6 = [{names('yn')}], [{names('k6')}]
                    t_store.append(t_new)
                    y_store.extend(yn){dense}
                    q_store.extend([{", ".join(qn)}])
                    t, y, k0 = t_new, yn, k6
                    norm_prev, norm = norm, norm_new
                    if not at_end:
                        grow = 5.0 if err == 0.0 else 0.9 * err ** -0.2
                        grow = {larger('0.2', 'grow')}
                        h_next = h * ({smaller('5.0', 'grow')})
                        h_next = {larger('h_next', 'h_min')}
                    if norm_new >= big:  # the segment starts at the last node, which t may lie past
                        reason, t_0 = "threshold", t_store[-2]
                        t_esc, hi = t_0, t_new
                        while (mid := 0.5 * (t_esc + hi)) not in (t_esc, hi):
                            th = (mid - t_0) / (t_new - t_0)
                            t_esc, hi = (t_esc, mid) if max([{horner}]) >= big else (mid, hi){block(after, 20)}
                    if reason or (t_new >= until and not at_end):
                        break
                else:
                    t = t_stop
                    if walked < len(stops):  # the piece past the stop, and the slope there
                        rhs = pieces[walked]{block(load, 24)}
                        {names('y')}= y{slope}
                        k0, walked = [{names('k0')}], walked + 1
                        if t < until:
                            continue
                break
        finally:
            st.t, st.y, st.slope, st.h, st.nsteps, st._norm, st._norm_prev, st._t_esc, st.walked, st.rhs = t, y, k0, h_next, nsteps, norm, norm_prev, t_esc, walked, rhs{block(tail, 12)}
        return reason, h, norm_new, sq

    return steps
"""
    p = (_horner(f"ys[j + {i}]", [f"q[k + {m * n + i}]" for m in range(4)]) for i in comps)
    src += f"\ndef value(ys, q, i, th):\n    j, k = {n} * i, {4 * n} * i\n    return [" + ", ".join(p) + "]\n"
    name = f"<dp54 step, n={n}, {field.__module__}.{field.__qualname__}{', fed' if at else ''}>"
    linecache.cache[name] = (len(src), None, src.splitlines(True), name)  # for tracebacks
    scope = dict(sqrt=math.sqrt, isfinite=math.isfinite, ulp=math.ulp, inf=math.inf, exp=_EXP,
                 MaxStepsExceeded=MaxStepsExceeded)
    exec(compile(src, name, "exec"), scope)
    return scope["loop"], scope["value"]


class _Fed(NamedTuple):
    """The source of what an rhs(y, delayed, u) computes, which the rhs
    carries as `rhs.fed = (fed, values)`. It reads one float w, component 0
    of the first delayed state, or of the input where the system has no
    delays; `at` is source from w to what the field reads besides the state,
    `field` the field of `_step_kernel`, and both read the constants `names`,
    whose values are `values`. `at` computes one value at every w < 0.0 and
    one at every w >= top > 0.0, its saturated branches. `integrate` computes
    it inline (`_fed_kernel`)."""

    at: tuple
    field: Callable
    names: str
    top: float


#: the floats a fed stage reads of the current piece (`_piece_floats`)
_PIECE = "kind, a, span, p, q, rate, start, look, t_in, t_out, hold"


def _feed(t: str) -> list:
    """Source of the feed w at time t from the floats of `_PIECE`: a decay, a
    line or a constant by its closed form, any other piece by one call."""
    return ["if kind == 'decay':", f"    w = p * {_DECAY.format(t=t)}",
            "elif kind == 'line':", f"    s = {_FRACTION.format(t=t)}", f"    w = {_LINE.format(p='p', q='q')}",
            "elif kind == 'constant':", "    w = p",
            "else:", f"    w = float(look({t})[0])"]


def _held(form: tuple, floats: tuple, lo: float, hi: float, h: float) -> tuple:
    """(t_in, t_out, hold): times in [lo, hi] at which every float w(t) of a
    line or decay `form` lies in one saturated branch, w < 0.0 or w >= h, and
    a w of it; an empty interval where none is proven. The form is rendered
    to read w only where its floats do not decide.

    A line at s = (t - a) / span in [0, 1] rounds (1 - s) p + s q by under E =
    2^-51 M + 2^-1073, M = max(|p|, |q|): gamma_3 M, and two products that
    underflow by 2^-1075 (Higham, Accuracy and Stability of Numerical
    Algorithms, 2.2). Its exact value is monotone in t, so knots p, q >= h + m,
    m = 2^-48 M + 2^-1070 > 2E with the rounding of h + m, put every float of
    it at >= h, and floats >= h + m (or <= -m) at both ends of [lo, hi], read
    only when the knots do not decide, every float between. Knots p, q <
    -2^-1074 give w < 0 however s rounds: both products are <= 0, and the one
    whose factor is >= 1/2 is not 0. The flat line 1.0 reads 1.0: 1 - s is exact
    on [1/2, 1] (Sterbenz), below it within 2^-54 or 1 - s = 1, and 1 + d,
    |d| <= 2^-54, rounds to 1.0 (at -2^-54 by ties to even). Knots both in
    [0, h) keep every float of the line above -m and below h + m: none held.

    A decay p exp(-rate (t - start)), rate > 0, reads at t <= t_out a w of the
    sign of w(t_out) and at least (1 - 6u)|w(t_out)|: the exponent rounds
    monotonely in t and exp is faithful. So w(t_out) >= h (1 + 2^-30), or <=
    -2^-1000 (however it underflows), holds [lo, t_out]; t_out is 2^-20 inside
    the closed-form crossing of h, or where |w| of a p < 0 decay reaches
    e^-690, 55/rate short of where it underflows (near e^-745)."""
    kind, a, span, p, q, rate, start, _ = floats
    if kind == "line" and not (0.0 <= p < h and 0.0 <= q < h) and math.isfinite(p - q) and (lo - a) / span >= 0.0 \
            and (hi - a) / span <= 1.0:
        m = 2.0 ** -48 * max(abs(p), abs(q)) + 2.0 ** -1070
        if p < -(2.0 ** -1074) and q < -(2.0 ** -1074):
            return lo, hi, -1.0
        if p == q == 1.0 >= h or p >= h + m and q >= h + m:
            return lo, hi, h
        w = _render(form)
        ends = {h if v >= h + m else -1.0 if v <= -m else 0.0 for v in (w(lo)[0], w(hi)[0])}
        if len(ends) == 1 and 0.0 not in ends:
            return (lo, hi, *ends)
    if kind == "decay" and rate > 0.0 and (p >= h or p < 0.0):
        t = min(hi, start + (math.log(p / h) - 2.0 ** -20 if p >= h else math.log(-p) + 690.0) / rate)
        sign, bar = (1.0, h * (1.0 + 2.0 ** -30)) if p >= h else (-1.0, 2.0 ** -1000)
        if t >= lo and sign * _render(form)(t)[0] >= bar:
            return lo, t, h if p >= h else -1.0
    return math.inf, -math.inf, 0.0


def _piece_floats(form: tuple, lo: float, hi: float, top: float) -> tuple:
    """The floats a fed stage reads of component 0 of a piece on [lo, hi], its
    `form`, in the order of `_PIECE`: those of the form, or the call itself,
    and the stage times [t_in, t_out] at which it reads w = hold instead: all
    for a constant piece, else those where `_held` proves the feed saturated
    below 0.0 or from `top`. A line from +0.0 to +0.0 is the constant +0.0:
    (1 - s) * 0.0 + s * 0.0 adds two zeros, never both -0.0."""
    kind, *args = form
    if kind == "call":
        return kind, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, args[0], math.inf, -math.inf, 0.0
    a, span, v0, v1 = args if kind == "line" else (0.0, 0.0, args[0], [0.0])
    p, q = float(v0[0]), float(v1[0])
    if kind == "constant" or kind == "line" and p == q == 0.0 and math.copysign(1.0, p) == math.copysign(1.0, q) == 1.0:
        return "constant", 0.0, 0.0, p, 0.0, 0.0, 0.0, None, -math.inf, math.inf, p
    floats = kind, a, span, p, q, *(args[1:] if kind == "decay" else (0.0, 0.0)), None
    return (*floats, *_held(form, floats, lo, hi, top))


@functools.lru_cache(maxsize=None)
def _fed_kernel(n: int, fed: _Fed):
    """(loop, stage) for an rhs carrying `fed`: the loop of `_step_kernel` with
    the feed (`_feed`) and `fed.at` once per stage time, the field inline and
    the piece's floats read from rhs.feed, the rhs of the current interval;
    loop(opts, traj, h_top, *values). An attempt in the piece's [t_in, t_out]
    runs `fed.at` at w = hold instead, once until an attempt leaves it.
    stage(t, y, *piece, *values) is one stage, at the feed, as a function."""
    held = ["if t_in <= t and t_new <= t_out:", "    if not held:", "        held, w = True, hold",
            *("        " + line for line in fed.at), "else:", "    held = False"]
    loop = _step_kernel(n, fed.field, ", " + fed.names, load=f"{_PIECE} = rhs.feed\nheld = False",
                        at=lambda t: ["if not held:", *("    " + line for line in [*_feed(t), *fed.at])],
                        attempt="\n".join(held))[0]
    comps = range(n)
    src = "\n    ".join([f"def stage(t, y, {_PIECE}, {fed.names}):", "".join(f"x_{i}, " for i in comps) + "= y",
                         *_feed("t"), *fed.at, *fed.field("x", "k", "t"), f"return [{', '.join(f'k_{i}' for i in comps)}]"])
    exec(compile(src, f"<fed stage, n={n}>", "exec"), scope := {"exp": _EXP})
    return loop, scope["stage"]


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


def _poly(c: list, w: tuple = (1, 1, 1, 1, 1)) -> Callable:
    """value(th, at): sum_k w_k c_k th^k - at at floats th in [0, 1] and at, c
    floats and w small integers, as a float of the exact sign. Float Horner on
    f_k = w_k c_k is within gamma_9 S + 9 2^-1075 of it, S = sum |f_k| (Higham,
    Accuracy and Stability of Numerical Algorithms, 5.1), so a float beyond
    2^-48 S + 2^-1070 has the exact sign; integers over powers of two decide
    the rest (the filter of Shewchuk's adaptive predicates)."""
    f0, f1, f2, f3, f4 = f = [k * x for k, x in zip(w, c)]
    m, ratios = 2.0 ** -48 * sum(map(abs, f)) + 2.0 ** -1070, []

    def value(th: float, at: float = 0.0) -> float:
        if abs(d := f0 + th * (f1 + th * (f2 + th * (f3 + th * f4))) - at) > m:
            return d
        ratios[:] = ratios or [(k * a, b.bit_length() - 1)
                               for k, (a, b) in zip(w[::-1], map(float.as_integer_ratio, c[::-1]))]
        (n, z), e, x = th.as_integer_ratio(), 0, 0  # th = n / z, the value e 2^-x by Horner
        for a, b in ratios:
            e, x = e * n, x + z.bit_length() - 1
            e, x = (e + (a << x - b), x) if x >= b else ((e << b - x) + a, b)
        a, b = at.as_integer_ratio()
        e = e * b - (a << x)
        return (e / (b << x) if m < 2.0 ** 1000 else 0.0) or ((e > 0) - (e < 0)) * 5e-324
    return value


#: a float and its bit pattern, an integer in the order of the floats >= 0
_FLOAT, _BITS = struct.Struct("<d"), struct.Struct("<q")


def _mid(lo: float, hi: float) -> float:
    """The float halfway from lo to hi in ulps, 0 <= lo <= hi: lo or hi only
    when they are adjacent, so halving [lo, hi] at it ends within 64 times."""
    return _FLOAT.unpack(_BITS.pack(sum(_BITS.unpack(_FLOAT.pack(x))[0] for x in (lo, hi)) >> 1))[0]


def _last(value: Callable, s: int, at: float, lo: float, hi: float) -> tuple:
    """(l, h): the largest float l in [lo, hi) with s value(l, at) > 0, where
    that holds on a prefix of (lo, hi] and not at hi, 0 <= lo, and the float h
    after it, by bisection over the floats (`_mid`), kept as bit patterns."""
    a, b = (_BITS.unpack(_FLOAT.pack(x))[0] for x in (lo, hi))
    while (mid := (a + b) >> 1) not in (a, b):
        a, b = (mid, b) if s * value(_FLOAT.unpack(_BITS.pack(mid))[0], at) > 0 else (a, mid)
    return tuple(_FLOAT.unpack(_BITS.pack(x))[0] for x in (a, b))


def _turns(c: list, a: float, b: float) -> list:
    """The floats on both sides of each sign change of p' in (a, b), in order,
    p = y0 + q0 th + ... + q3 th^4, c = [y0, q0, q1, q2, q3]: p is monotone
    between them. p' has at most as many roots in (lo, hi) as sign changes in
    its Bernstein coefficients there (Descartes' rule; from q on [0, 1]). With
    at most one, its exact signs at u and v, [u, v] = [lo, hi] & [a, b], or
    just inside lo or hi (its first or last nonzero coefficient), tell whether
    it changes sign, and `_last` finds where; else de Casteljau's algorithm
    splits [lo, hi] at its midpoint in ulps (`_mid`; a zero of p' there is a
    turn), down to adjacent floats. The float coefficients, within gamma_4 of
    sum k |q_k|, decide where each is beyond 2^-48 of it and they change sign
    once at most; Fractions decide the rest."""
    q0, q1, q2, q3 = c[1:]
    dp, out = _poly([q0, q1, q2, q3, 0.0], (1, 2, 3, 4, 0)), []
    B = [q0, q0 + 2.0 * q1 / 3.0, q0 + 4.0 * q1 / 3.0 + q2, q0 + 2.0 * q1 + 3.0 * q2 + 4.0 * q3]
    if not (min(map(abs, B)) > 2.0 ** -48 * (abs(q0) + 2.0 * abs(q1) + 3.0 * abs(q2) + 4.0 * abs(q3)) + 2.0 ** -1070
            and sum((x > 0) != (y > 0) for x, y in zip(B, B[1:])) <= 1):
        f0, f1, f2, f3 = map(Fraction, c[1:])
        B = [f0, f0 + 2 * f1 / 3, f0 + 4 * f1 / 3 + f2, f0 + 2 * f1 + 3 * f2 + 4 * f3]
    todo = [(B, 0.0, 1.0)]
    while todo:
        B, lo, hi = todo.pop()
        if (u := max(lo, a)) >= (v := min(hi, b)) or not (nz := [x for x in B if x]):
            continue
        if sum((x > 0) != (y > 0) for x, y in zip(nz, nz[1:])) <= 1:
            su, sv = dp(u) if u > lo else nz[0], dp(v) if v < hi else nz[-1]
            out += [_last(dp, 1 if su > 0 else -1, 0.0, u, v)] if su and sv and (su > 0) != (sv > 0) else []
        elif (mid := _mid(lo, hi)) in (lo, hi):
            out.append((lo, hi))
        else:
            t, left, right = (Fraction(mid) - Fraction(lo)) / (Fraction(hi) - Fraction(lo)), [], []
            while B:
                left, right, B = left + B[:1], B[-1:] + right, [x + t * (y - x) for x, y in zip(B, B[1:])]
            todo += [(right, mid, hi), (left, lo, mid)]
            out += [(mid, mid)] if not left[-1] and a < mid < b else []
    return [x for pair in sorted(out) for x in pair]


def _last_above(c: list, level: float) -> Optional[float]:
    """The largest float th in [0, 1] with |p(th)| > level exactly, p = y0 + q0
    th + ... + q3 th^4, c = [y0, q0, q1, q2, q3], or None: p is monotone on each
    run between its turns (`_turns`), so from the last run back, its ends tell
    whether a float of it is above, and `_last` finds the last one."""
    p, pts = _poly(c), [0.0, *_turns(c, 0.0, 1.0), 1.0]
    for u, v in zip(pts[-2::-2], pts[::-2]):
        for th, s in ((v, 1), (v, -1), (u, 1), (u, -1)):
            if s * p(th, s * level) > 0:
                return v if th == v else _last(p, s, s * level, u, v)[0]
    return None


def _bounds(y0, q) -> np.ndarray:
    """A bound on |p| over [0, 1] per component, of one segment or of many,
    above every float value of p the searches compute: the largest |Bernstein
    coefficient| of the quartic p = y0 + q0 th + ... + q3 th^4, of which p is a
    convex combination (Farouki & Rajan 1987), plus 16 eps S + 16 subnormals,
    S = |y0| + sum |q_k|. With u = eps/2, a value (Horner at a float th in
    [0, 1], or y0 + q0 + ... + q3) is within gamma_8 S of p (Higham, eq. 5.3),
    a coefficient within gamma_5 S, and the bound's own sums round by under
    2u S: under 16u S in all (Shewchuk 1997). Fewer than eight products, each
    off by 2^-1075 at most, underflow along a value or a coefficient. NaN
    coefficients make the bound NaN, infinite ones inf (fmax skips inf - inf)."""
    q0, q1, q2, q3 = np.moveaxis(q, -2, 0)
    b = np.abs([y0, y0 + 0.25 * q0, y0 + 0.5 * q0 + q1 / 6.0, y0 + 0.75 * q0 + 0.5 * q1 + 0.25 * q2,
                y0 + q0 + q1 + q2 + q3])
    return np.fmax.reduce(b) + (2.0 ** -48 * (np.abs(y0) + np.abs(q).sum(axis=-2)) + 2.0 ** -1070)


class Trajectory:
    """Dense-output solution: one 4th-order polynomial per accepted step.

    It holds the floats a Stepper computed, copied into flat `array('d')`
    stores: node times `_t`, node states `_y` and segment coefficients `_q`
    (q0 of every component, then q1, q2, q3); no list handed over is kept.
    The arrays `ts`, `ys` and `qs` (n_seg, 4, dim) are built afresh from the
    stores at each read mid-run; the freeze stores them and makes the stores
    views of them, so a frozen run holds each float once. A segment's
    polynomial comes from the stage derivatives of its step, so a segment
    ending at an input discontinuity interpolates with the left limit.
    """

    def __init__(self, t0: float, y0):
        self._t, self._y, self._q = array("d", [t0]), array("d", y0), array("d")
        self._value = _step_kernel(len(self._y))[1]

    def __getattr__(self, name: str):
        # ts, ys or qs mid-run, built afresh at each read; the freeze stores them
        if name == "ts":
            return np.array(self._t)
        if name == "ys":
            return np.frombuffer(self._y).reshape(-1, self.dim).copy()
        if name == "qs":
            return np.frombuffer(self._q).reshape(-1, 4, self.dim).copy()
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def _drop_last(self) -> tuple:
        """Drop the last node and the segment ending there; the new last node."""
        if len(self._t) == 1:
            raise ValueError("no accepted step to drop")
        dim = self.dim
        del self._t[-1], self._y[-dim:], self._q[-4 * dim :]
        return self._node(-1)

    def _freeze(self):
        """End the run: store the arrays, make the stores views of them."""
        self.ts, self.ys, self.qs = self.ts, self.ys, self.qs
        self._t, self._y, self._q = (memoryview(a.reshape(-1)) for a in (self.ts, self.ys, self.qs))

    def _node(self, i: int) -> tuple:
        """(t, y) of node i, y a fresh list of floats."""
        i, dim = i % len(self._t), self.dim
        return self._t[i], self._y[i * dim : (i + 1) * dim].tolist()

    @property
    def t_start(self) -> float:
        return self._t[0]

    @property
    def t_end(self) -> float:
        return self._t[-1]

    @property
    def dim(self) -> int:
        return len(self._y) // len(self._t)

    def _segment(self, t: float) -> int:
        """The segment holding t, or the nearest one; 0 with none."""
        return bisect.bisect_right(self._t, t, 1, len(self._t) - 1) - 1

    def _interp(self, t: float) -> list:
        """Dense-output value at t as a fresh list of floats, unchecked; delayed
        lookups call it mid-run. One path for every t: bisect the node times,
        then `_horner` per component on floats (the generated `value`),
        rounding as numpy does."""
        ts = self._t
        n = len(ts)
        i = bisect.bisect_right(ts, t, 1, n - 1)  # the end node of t's segment
        if n == 1 or t == ts[i]:
            return self._node(i)[1]
        t0 = ts[i - 1]
        return self._value(self._y, self._q, i - 1, (t - t0) / (ts[i] - t0))

    def eval(self, t: float) -> np.ndarray:
        if not (self.t_start - 1e-12 <= t <= self.t_end + 1e-12):
            raise SpanTooShort(f"t={t} outside [{self.t_start}, {self.t_end}]")
        return np.array(self._interp(t))

    def sup_norm(self, lo: float, hi: float) -> float:
        """Sup of |x(t)|_inf over [lo, hi] under the dense output, exact to the
        floats: the largest value at the window ends, the nodes, and the floats
        on both sides of each turn (`_turns`) inside the window of each segment
        whose bound (`_bounds`) beats the best value so far, in order of bound,
        read as `_interp` reads them; bit for bit the unpruned search. The sup
        of a component's exact quartic between two such floats is within its
        bound's margin of their larger value. A run with one node (an escape
        at its start) has the node's. ValueError if an end is NaN."""
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError(f"window [{lo!r}, {hi!r}] has a NaN end")
        lo, hi = max(float(lo), self.t_start), min(float(hi), self.t_end)
        if hi < lo:
            raise SpanTooShort("empty window")
        ts, ys, qs = self._t, self.ys, self.qs
        i0, i1 = self._segment(lo), self._segment(hi)
        best = max(*map(abs, self._interp(lo)), *map(abs, self._interp(hi)),
                   float(np.abs(ys[i0 + 1 : i1 + 1]).max(initial=0.0)))
        bounds = _bounds(ys[:-1][i0 : i1 + 1], qs[i0 : i1 + 1])  # the nodes that start a segment
        bound = bounds.max(axis=1)
        for k in np.argsort(-bound, kind="stable"):
            if bound[k] <= best:
                break
            i = i0 + int(k)
            a = (lo - ts[i]) / (ts[i + 1] - ts[i]) if i == i0 else 0.0
            b = (hi - ts[i]) / (ts[i + 1] - ts[i]) if i == i1 else 1.0
            if a < b:
                for j, (c, cut) in enumerate(zip(np.vstack([ys[i], qs[i]]).T.tolist(), bounds[k].tolist())):
                    if cut > best:
                        best = max([best, *(abs(self._value(self._y, self._q, i, th)[j]) for th in _turns(c, a, b))])
        return best

    def last_time_above(self, level: float) -> float:
        """Largest t with |x(t)|_inf > level, or t_start if never above, exact to
        the floats: in the last segment where some component is above the level,
        the largest float theta at which one is, |p_i(theta)| > level exactly
        (`_last_above`), as t0 + theta (t1 - t0). The segments whose bound
        (`_bounds`) exceeds the level are read from the stores, walked back from
        the run's end in chunks that double, each chunk's bounds by `_bounds`;
        no ts, ys or qs is built. ValueError for a NaN level."""
        if math.isnan(level := float(level)):
            raise ValueError(f"level must not be NaN, got {level!r}")
        dim, hi, size = self.dim, len(self._t) - 1, 8
        while hi > 0:
            lo = max(0, hi - size)
            ys = np.frombuffer(self._y[lo * dim : hi * dim]).reshape(-1, dim)
            qs = np.frombuffer(self._q[4 * dim * lo : 4 * dim * hi]).reshape(-1, 4, dim)
            bounds = _bounds(ys, qs)
            for k in np.flatnonzero(bounds.max(axis=1) > level)[::-1]:
                cs = np.vstack([ys[k], qs[k]]).T.tolist()
                th = max([th for c, cut in zip(cs, bounds[k].tolist())
                          if cut > level and (th := _last_above(c, level)) is not None], default=None)
                if th is not None:
                    t0, t1 = self._t[lo + k], self._t[lo + k + 1]
                    return min(t0 + th * (t1 - t0), t1)
            hi, size = lo, 2 * size
        return self.t_start


class HistoryFn:
    """Continuous piecewise-linear function on [-tau, 0]: the broken line
    `line`, a PiecewiseLinear, off which its knots, values, dim and tau read.

    `eval` reads it at a time s of its domain. A delayed lookup s = t - d
    on [0, d] reads `shifted(d)` at t instead: the same broken line, moved
    onto the time axis of the run, whose knots are where the run's step
    boundaries are forced.
    """

    def __init__(self, knots, values):
        self.line = PiecewiseLinear(knots, values)
        if abs(float(self.knots[-1])) > 1e-9:
            raise BadHistoryDomain("history must end at time 0")

    knots = property(lambda self: self.line.knots)
    values = property(lambda self: self.line.values)
    dim = property(lambda self: self.line.dim)
    tau = property(lambda self: -float(self.knots[0]))

    @classmethod
    def constant(cls, value, tau: float) -> "HistoryFn":
        v = np.atleast_1d(np.asarray(value, dtype=float))
        if tau <= 0.0:
            return cls(np.array([0.0]), v.reshape(1, -1))
        return cls(np.array([-tau, 0.0]), np.vstack([v, v]))

    def eval(self, s: float) -> np.ndarray:
        """The value at s of `line`; within 1e-9 outside [-tau, 0], the nearer end's."""
        k = self.knots
        k0, kn = float(k[0]), float(k[-1])
        if s < k0 - 1e-9 or s > kn + 1e-9:
            raise BadHistoryDomain(f"history evaluated at {s} outside [{k0}, 0]")
        return np.array(_render(self.line.segment(s))(s))

    def shifted(self, d: float) -> PiecewiseLinear:
        """t -> self(t - d) as a signal: the broken line through knots + d,
        constant beyond its ends. Its knots inside (0, T) are, bit for bit,
        the history stops `_forced_stops` forces at the first multiple of d.
        Knots closer than an ulp of d round together under + d; the later
        one stays, so the knots strictly increase; ValueError for a d that is
        not finite."""
        if not math.isfinite(d):
            raise ValueError(f"shift must be finite, got {d!r}")
        k = self.knots + d
        keep = np.append(k[:-1] < k[1:], True)
        return PiecewiseLinear.__new__(PiecewiseLinear)._hold(k[keep], self.values[keep])

    def norm(self) -> float:
        """Exact sup norm over [-tau, 0] (max |.|_inf): the largest knot value."""
        return float(np.abs(self.values).max())


@dataclass(frozen=True)
class DiscreteDelaySystem:
    """State dim n, input dim m, strictly increasing finite positive delays.

    rhs(y, delayed, u) receives the current state as a sequence of floats,
    one delayed state per delay (in order) and the input value, each a
    sequence of floats, and returns the derivative as a list of floats;
    delays=() encodes a nondelayed system. An rhs may carry the source of
    what it computes as `rhs.fed` (`_Fed`), which `integrate` then computes
    inline; any other rhs is called at every stage.
    """

    dim: int
    input_dim: int
    delays: tuple
    rhs: Callable[[Sequence[float], tuple, Sequence[float]], list]

    def __post_init__(self):
        d = tuple(float(x) for x in self.delays)
        for x in d:
            if not (math.isfinite(x) and x > 0.0):
                raise ValueError(f"delays must be finite and positive, got {x!r}")
        if any(b <= a for a, b in zip(d, d[1:])):
            raise ValueError("delays must be strictly increasing")
        object.__setattr__(self, "delays", d)

    @property
    def tau(self) -> float:
        return self.delays[-1] if self.delays else 0.0


@dataclass
class SimOutcome:
    """Completed run, or finite escape (a flag) with the trajectory prefix."""

    trajectory: Trajectory
    t_escape: Optional[float] = None
    final_norm: Optional[float] = None
    flag: Optional[str] = None  # 'threshold' | 'h_min_collapse' | 'nonfinite'

    @property
    def escaped(self) -> bool:
        return self.flag is not None


class Stepper:
    """Incremental adaptive DP5(4) driver over a caller-supplied rhs.

    rhs(t, y) takes the state as a list of floats and returns its derivative
    as a list of floats. It must be smooth on each interval advanced over,
    up to and including its target: a caller whose rhs changes at a forced
    boundary swaps it there and calls `invalidate_rhs_cache`, so the steps
    before it use the left limit and dense output stays one-sided; or it sets
    `stops`, the forced boundaries before the target, and `pieces`, the rhs
    past each, which the loop walks, counting them in `walked`. Every
    completed attempt is counted in `nsteps`; accepted ones extend `traj`.

    A step is float arithmetic per component: each stage argument, the
    5th-order solution, the error estimate and the dense-output coefficients
    are sums of the tableau's nonzero terms in stage order, so a component's
    rounding depends on that component's stages alone. The stepping loop,
    error test and step control included, is generated per state dimension
    (`_step_kernel`) and bound to the options and `traj` at construction;
    `advance` keeps the entry checks, the first step size and the rare exits.
    The state `y` and the outgoing slope `slope` are lists of floats, as the
    rhs and these sums pass them; no list is written to once made.
    """

    def __init__(self, rhs, t0: float, y0: np.ndarray, opts: IntegratorOptions, h_cap: float = math.inf):
        self.rhs = rhs
        self.t = float(t0)
        self.y = np.asarray(y0, dtype=float).tolist()
        self.opts = opts
        self._h_top = h_cap
        self.invalidate_rhs_cache()  # the slope at (t, y): stage 0 of the next step
        self.traj = Trajectory(self.t, self.y)
        self._steps = _step_kernel(len(self.y))[0](opts, self.traj, h_cap)
        self.h = 0.0
        self.nsteps = 0
        self.stops, self.pieces, self.walked = (), (), 0
        self.escape_info = None
        self._norm = self._norm_prev = max(map(abs, self.y))

    def invalidate_rhs_cache(self):
        """Call after the rhs changed at the current time (e.g. new input piece).
        An rhs whose value has another length than the state is rejected here."""
        k = self.rhs(self.t, self.y)
        if len(k) != len(self.y):
            raise ValueError(f"rhs returned {len(k)} components for a state of {len(self.y)}")
        self.slope = k

    def _initial_step(self, target):
        """The first step size toward target, on floats as numpy rounds it (`_rms`)."""
        o, y, k1 = self.opts, self.y, self.slope
        scale = [o.abs_tol + o.rel_tol * abs(v) for v in y]
        d0, d1 = _rms(y, scale), _rms(k1, scale)
        if not math.isfinite(d1):
            # the first attempt fails at h_min and ends the run "nonfinite"
            return o.h_min
        h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
        h0 = min(h0, target - self.t, self._h_top)
        f1 = self.rhs(self.t + h0, [a + h0 * b for a, b in zip(y, k1)])
        d2 = _rms([a - b for a, b in zip(f1, k1)], scale) / h0
        if max(d1, d2) <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** 0.2
        return min(100.0 * h0, h1)

    def advance(self, target: float, until: float = math.inf) -> None:
        """Integrate up to `target` (a forced boundary), through the `stops`
        before it, or to an escape, which sets `escape_info` = (time, norm,
        flag): at the threshold the loop's t_esc (`_step_kernel`), else the
        last node's time. A call after an escape does nothing. The outgoing
        slope of an accepted step is its last stage (FSAL), but at a stop the
        slope of the piece past it; where the rhs jumps at the target, the
        caller swaps it and calls `invalidate_rhs_cache`.

        `until` is a soft stop: the first accepted step, or stop with its
        piece loaded, at or past it returns short of the target, with no step
        boundary forced there. Calling again resumes bit for bit, since t, y,
        h, the outgoing slope and the stops walked are kept. So does a call
        after the rhs raised: the attempt it interrupted left no trace.
        """
        if self.escape_info is not None:
            return
        if self._norm >= self.opts.escape_threshold:
            self.escape_info = (self.t, self._norm, "threshold")
            return
        if self.h <= 0.0 and target > self.t:
            self.h = self._initial_step(self.stops[self.walked] if self.walked < len(self.stops) else target)
        reason, h, _, _ = self._steps(self, target, until)
        if reason == "max_steps":
            raise MaxStepsExceeded(f"exceeded max_steps={self.opts.max_steps}")
        if reason == "collapse":  # failing at h_min while not growing
            raise StepSizeCollapse(f"error test failing at h={h} <= h_min at t={self.t}")
        if reason is not None:  # "threshold", "nonfinite" or "h_min_collapse"
            self.escape_info = (self._t_esc if reason == "threshold" else self.t, self._norm, reason)

    def rewind(self):
        """Drop the last accepted step and any escape found in it.

        t, y and both norms are rebuilt from the nodes and the outgoing
        slope is evaluated again, so advancing to a forced boundary inside
        the dropped step makes it a node. The step size proposal is kept.
        """
        traj = self.traj
        self.t, self.y = traj._drop_last()
        self._norm = max(map(abs, self.y))
        # with no step left, node -2 is the last node itself
        self._norm_prev = max(map(abs, traj._node(-2)[1]))
        self.escape_info = None
        self.invalidate_rhs_cache()

    def outcome(self) -> SimOutcome:
        self.traj._freeze()
        if self.escape_info is None:
            return SimOutcome(trajectory=self.traj)
        t_esc, norm, flag = self.escape_info
        return SimOutcome(self.traj, t_escape=t_esc, final_norm=norm, flag=flag)


def _rms(v, scale) -> float:
    """sqrt(mean((v / scale) ** 2)) of two float sequences, as numpy rounds it:
    it adds the squares one by one from 0.0 below 8 terms, pairwise from 8 on."""
    r = [a / s for a, s in zip(v, scale)]
    if len(r) >= 8:
        return float(np.sqrt(np.mean(np.square(r))))
    return math.sqrt(functools.reduce(lambda sq, x: sq + x * x, r, 0.0) / len(r))


def _forced_stops(sys: DiscreteDelaySystem, u: Optional[Signal], T: float, history=None, extra=()) -> list:
    """The sorted distinct floats in (0, T] among T, `extra`, the input's
    breakpoints, the first multiples of the shortest delay and the history's
    knots shifted by them, each sum rounded once as numpy's array sums are."""
    pts = [T, *np.asarray(extra, dtype=float).tolist()]
    if u is not None:
        pts += np.asarray(u.breakpoints(0.0, T), dtype=float).tolist()
    if sys.delays:
        pts += [sys.delays[0] * m for m in range(1, _DELAY_MULTIPLES + 1)]
        # history kinks propagate by whole multiples of each delay; none below T once the first is not
        if isinstance(history, HistoryFn):
            knots = history.line._k[:-1]
            pts += [k + m * d for d in sys.delays for m in range(1, _DELAY_MULTIPLES + 1)
                    if knots and knots[0] + m * d < T for k in knots]
    return sorted({s for s in pts if 0.0 < s <= T})


def integrate(sys: DiscreteDelaySystem, history, u: Optional[Signal], T: float,
              opts: IntegratorOptions = IntegratorOptions(), extra_stops=(),
              stop: Optional[tuple[float, Callable[[Trajectory, float], bool]]] = None) -> SimOutcome:
    """Integrate the system on [0, T], T finite and positive, from the history and input.

    `history` is a HistoryFn on [-tau, 0] (mandatory when the system has
    delays); a bare finite state vector is accepted for nondelayed systems.
    `extra_stops` adds caller-known times where the right-hand side loses
    smoothness (e.g. saturation crossings) to the forced step boundaries.
    Between two forced boundaries the input is one piece of `u`, and on
    [0, d] the lookup at delay d one segment of `history.shifted(d)`; both
    are resolved once per interval into its rhs, and the Stepper's loop
    walks the boundaries with all of them, taking the slope again at each.
    Past d the lookup reads the dense output at t - d. A fed rhs reads the
    floats of its feed's form (`_piece_floats`); a plain rhs is called with
    the rendered pieces, its lookups as a tuple. ValueError for a shortest
    delay below opts.h_min: it caps every step.
    `stop = (every, ask)`: ask(traj, t) is asked at the first accepted step
    or forced boundary at or past t = every and then once per `every` of
    progress; when it returns True the run ends there, with the trajectory
    on [0, t]. The forced boundaries are those of T either way, so a
    stopped run is a bit-exact prefix of the run to T.
    """
    if not (math.isfinite(T) and T > 0.0):
        raise ValueError(f"T must be finite and positive, got {T!r}")
    if sys.delays:
        if sys.delays[0] < opts.h_min:
            raise ValueError(f"shortest delay {sys.delays[0]!r} is below h_min {opts.h_min!r}")
        if not isinstance(history, HistoryFn):
            raise BadHistoryDomain("delayed system requires a HistoryFn")
        if abs(history.tau - sys.tau) > 1e-9 * max(1.0, sys.tau):
            raise BadHistoryDomain(f"history domain [-{history.tau}, 0] does not match tau={sys.tau}")
        if history.dim != sys.dim:
            raise BadHistoryDomain("history dimension mismatch")
        y0 = history.eval(0.0)
    else:
        y0 = history.eval(0.0) if isinstance(history, HistoryFn) else np.atleast_1d(np.asarray(history, dtype=float))
        if y0.size != sys.dim:
            raise BadHistoryDomain("initial state dimension mismatch")
        if not np.isfinite(y0).all():
            raise ValueError(f"initial state must be finite, got {y0.tolist()!r}")

    every, ask = (math.inf, None) if stop is None else stop
    if not every > 0.0:
        raise ValueError(f"stop cadence must be positive, got {every!r}")
    stops = _forced_stops(sys, u, T, history, extra_stops)
    if u is None or sys.input_dim <= 0:
        u = Constant(np.zeros(max(sys.input_dim, 0)))
    delays, rhs = sys.delays, sys.rhs
    fed, values = getattr(rhs, "fed", (None, ()))
    shifted = [history.shifted(d) for d in delays]
    if fed:
        loop, stage = _fed_kernel(sys.dim, fed)

    def past(d: float):
        # t -> x(t - d) once the interval passes d: from the dense output,
        # and from the history where a delay that is no stop is straddled
        return lambda t: history.eval(t - d) if t <= d else stepper.traj._interp(t - d)

    def rhs_on(lo: float, hi: float):
        # the rhs on [lo, hi], which no stop splits, its input and delayed lookups
        # resolved; a fed rhs carries its feed piece as the floats its stages read
        if fed:
            src, d = (shifted[0], delays[0]) if delays else (u, math.inf)
            feed = _piece_floats(src._form(lo, hi) if hi <= d else ("call", past(d)), lo, hi, fed.top)
            f = lambda t, y: stage(t, y, *feed, *values)
            f.feed = feed
            return f
        uval = u.piece(lo, hi)
        looks = [h.piece(lo, hi) if hi <= d else past(d) for h, d in zip(shifted, delays)]
        return lambda t, y: rhs(y, tuple([look(t) for look in looks]), uval(t))

    pieces = [rhs_on(lo, hi) for lo, hi in zip([0.0] + stops, stops)]
    stepper = Stepper(pieces[0], 0.0, y0, opts, h_cap=delays[0] if delays else math.inf)
    if fed:
        stepper._steps = loop(opts, stepper.traj, stepper._h_top, *values)
    stepper.stops, stepper.pieces = stops[:-1], pieces[1:]
    check = every
    while stepper.t != T and stepper.escape_info is None:
        stepper.advance(T, until=check)
        if stepper.t >= check and stepper.escape_info is None:
            if ask(stepper.traj, stepper.t):
                break
            check = stepper.t + every
    return stepper.outcome()
