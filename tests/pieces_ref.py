"""Signal pieces as they were built before a piece became its form: each
class's `_piece` returned a closure, a constant one or a line or decay
rendered per component count, which carried the floats it was made from as
`.form`. The reference that pins `Signal.piece` bit for bit
(`TestPiecesAreTheReference`); `piece(sig, lo, hi)` is that construction.
"""

import bisect
import functools
import math

import numpy as np

from delayreach.signals import (Concatenation, Constant, ExponentialTail, PiecewiseConstant, PiecewiseLinear,
                                TimeShift, Window)


def _constant(v):
    def constant(t):
        return v

    constant.form = ("constant", v)
    return constant


@functools.lru_cache(maxsize=None)
def _maker(kind, n):
    def unpack(v, names):
        return "[" + "".join(f"{v}{i}, " for i in range(n)) + f"] = {names}"

    if kind == "line":
        args, head = "a, span, v0, v1", [unpack("p", "v0"), unpack("q", "v1")]
        body = ["s = (t - a) / span", ", ".join(f"(1.0 - s) * p{i} + s * q{i}" for i in range(n))]
    else:
        args, head = "value, rate, start", [unpack("v", "value")]
        body = ["e = exp(-rate * (t - start))", ", ".join(f"v{i} * e" for i in range(n))]
    src = "\n    ".join([f"def make({args}):", *head, f"def {kind}(t):", f"    {body[0]}", f"    return [{body[1]}]",
                         f"{kind}.form = ({kind!r}, {args})", f"return {kind}\n"])
    scope = {"exp": math.exp}
    exec(compile(src, f"<{kind}, n={n}>", "exec"), scope)
    return scope["make"]


def _linear(k0, k1, v0, v1):
    return _maker("line", len(v0))(float(k0), float(k1 - k0), v0, v1)


def _segment(sig, t):
    k, v = sig._k, sig._v
    if t < k[0]:
        return _constant(v[0])
    if t >= k[-1]:
        return _constant(v[-1])
    i = bisect.bisect_right(k, t) - 1
    return _linear(k[i], k[i + 1], v[i], v[i + 1])


def piece(sig, lo, hi):
    """The parent's `sig._piece(lo, hi)`, for every signal class."""
    if isinstance(sig, Constant):
        return _constant(sig.value)
    if isinstance(sig, PiecewiseConstant):
        return _constant(sig.values[int(np.searchsorted(sig.breaks, max(lo, 0.0), side="right"))])
    if isinstance(sig, PiecewiseLinear):
        return _constant(_segment(sig, 0.0)(0.0)) if lo < 0.0 else _segment(sig, lo)
    if isinstance(sig, ExponentialTail):
        if lo < 0.0:
            return _constant(piece(sig, 0.0, 0.0)(0.0))
        if lo < sig.start:
            return _constant(sig.value)
        return _maker("decay", sig.dim)(sig.value.tolist(), sig.rate, sig.start)
    if isinstance(sig, Concatenation):
        return piece(sig.first if lo < sig.t_switch else sig.second, lo, hi)
    if isinstance(sig, TimeShift):
        p, shift = piece(sig.inner, lo - sig.shift, hi - sig.shift), sig.shift
        return lambda t: p(t - shift)
    if isinstance(sig, Window):
        return piece(sig.inner, lo, hi) if sig.lo <= lo < sig.hi else _constant(np.zeros(sig.dim))
    raise TypeError(type(sig))
