"""Dense 2x2 Lyapunov machinery for the switched planar vector field.

Everything here is closed-form at dimension two: the Hurwitz test is the
trace/determinant criterion, the Lyapunov equation has an explicit solution,
eigenvalues of symmetric matrices come from the quadratic formula, and the
blend bound is the largest float at which a margin test in rationals holds.
No BLAS call is made, so the certificate does not depend on the BLAS kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np


class NotHurwitz(ValueError):
    """Lyapunov solve requested for a matrix that is not Hurwitz."""


class SingularSystem(ValueError):
    """The Lyapunov solution does not round to a finite positive definite float matrix."""


class NoFeasibleLambda(RuntimeError):
    """Even the left endpoint of the blend interval fails the margin test."""


@dataclass(frozen=True)
class Mat2:
    """Real 2x2 matrix with finite entries."""

    a11: float
    a12: float
    a21: float
    a22: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.a11, self.a12, self.a21, self.a22)):
            raise ValueError("Mat2 entries must be finite")

    @classmethod
    def from_array(cls, arr) -> "Mat2":
        a = np.asarray(arr, dtype=float)
        if a.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {a.shape}")
        return cls(*a.ravel().tolist())

    @property
    def trace(self) -> float:
        return self.a11 + self.a22

    @property
    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a21


#: The two Hurwitz gain matrices of the switched planar system.
A_MODE1 = Mat2(0.0, 2.0, -0.5, -0.1)
A_MODE2 = Mat2(-0.1, 0.5, -2.0, 0.0)

#: Decay margin the certificate asks of -(A(lam)^T P0 + P0 A(lam)).
DECAY_MARGIN = 0.5


def blend(a1: Mat2, a2: Mat2, lam: float) -> Mat2:
    """Convex-style blend lam*a1 + (1-lam)*a2 (lam may lie outside [0,1])."""
    mu = 1.0 - lam
    return Mat2(lam * a1.a11 + mu * a2.a11, lam * a1.a12 + mu * a2.a12,
                lam * a1.a21 + mu * a2.a21, lam * a1.a22 + mu * a2.a22)


def is_hurwitz(a: Mat2) -> bool:
    """Exact planar criterion: trace < 0 and det > 0."""
    return a.trace < 0.0 and a.det > 0.0


def sym_eigvals(p11: float, p12: float, p22: float) -> tuple[float, float]:
    """Eigenvalues (low, high) of [[p11, p12], [p12, p22]], closed form."""
    mean = 0.5 * (p11 + p22)
    disc = math.hypot(0.5 * (p11 - p22), p12)
    return mean - disc, mean + disc


@dataclass(frozen=True)
class SymPosDef2:
    """Symmetric positive definite 2x2 matrix [[p11, p12], [p12, p22]]; its
    extreme eigenvalues c1 <= c2 are derived from the entries at construction."""

    p11: float
    p12: float
    p22: float

    def __post_init__(self):
        if not (self.p11 > 0.0 and self.p11 * self.p22 - self.p12 ** 2 > 0.0):
            raise ValueError("matrix is not positive definite")
        c1, c2 = sym_eigvals(self.p11, self.p12, self.p22)
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)

    def quad(self, x) -> float:
        """Quadratic form x^T P x."""
        x = np.asarray(x, dtype=float)
        return float(
            self.p11 * x[0] * x[0]
            + 2.0 * self.p12 * x[0] * x[1]
            + self.p22 * x[1] * x[1]
        )


def _exact(a: Mat2) -> Mat2:
    """The same matrix with Fraction entries, for exact arithmetic."""
    return Mat2(Fraction(a.a11), Fraction(a.a12), Fraction(a.a21), Fraction(a.a22))


def solve_lyapunov(a: Mat2) -> SymPosDef2:
    """Solve A^T P + P A = -I for symmetric P in rationals and round once.

    The 3x3 system in (p11, p12, p22) has determinant 4 tr(A) det(A), never 0
    for a Hurwitz A; its closed form has the factor s = -1 / (2 tr(A) det(A)).
    """
    e = _exact(a)
    if not is_hurwitz(e):
        raise NotHurwitz(f"matrix with trace {a.trace} and det {a.det} is not Hurwitz")
    s = -1 / (2 * e.trace * e.det)
    try:
        return SymPosDef2(
            float(s * (e.det + e.a21 ** 2 + e.a22 ** 2)),
            float(-s * (e.a11 * e.a21 + e.a12 * e.a22)),
            float(s * (e.det + e.a11 ** 2 + e.a12 ** 2)),
        )
    except (OverflowError, ValueError) as exc:
        raise SingularSystem(f"P does not round to a positive definite float matrix: {exc}") from None


def _lyap_form(a: Mat2, p11, p12, p22) -> tuple:
    """Entries (11, 12, 22) of A^T P + P A, in the number type of the inputs."""
    return (2 * (a.a11 * p11 + a.a21 * p12),
            a.a11 * p12 + a.a21 * p22 + (p11 * a.a12 + p12 * a.a22),
            2 * (a.a12 * p12 + a.a22 * p22))


def lyapunov_residual(a: Mat2, p: SymPosDef2) -> float:
    """Max-norm of A^T P + P A + I."""
    f11, f12, f22 = _lyap_form(a, p.p11, p.p12, p.p22)
    return max(abs(f11 + 1.0), abs(f12), abs(f22 + 1.0))


def find_capital_lambda(p0: SymPosDef2, a1: Mat2, a2: Mat2) -> float:
    """Largest blend fraction up to which P0 certifies DECAY_MARGIN.

    Returns the largest float L in [0, 1] such that for every lam in [0, L],
    exactly, both eigenvalues of Q(lam) = -(A(lam)^T P0 + P0 A(lam)) are >=
    DECAY_MARGIN = m, for the exact blend A(lam) of the float gains and the
    float P0 given. Q is affine in lam, so its smallest eigenvalue is concave
    and the lam that pass form one interval. Both eigenvalues are >= m exactly
    when tr(Q - m I) >= 0 and det(Q - m I) >= 0, tested in rationals; L is
    found by bisection over the floats of [0, 1].
    """
    p = Fraction(p0.p11), Fraction(p0.p12), Fraction(p0.p22)
    f1, f2 = _lyap_form(_exact(a1), *p), _lyap_form(_exact(a2), *p)
    m = Fraction(DECAY_MARGIN)
    # Q(lam) - m I = S + lam D
    s11, s12, s22 = -f2[0] - m, -f2[1], -f2[2] - m
    d11, d12, d22 = f2[0] - f1[0], f2[1] - f1[1], f2[2] - f1[2]

    def holds(lam: float) -> bool:
        x = Fraction(lam)
        q11, q12, q22 = s11 + x * d11, s12 + x * d12, s22 + x * d22
        return q11 + q22 >= 0 and q11 * q22 >= q12 * q12

    if not holds(0.0):
        raise NoFeasibleLambda(
            "margin fails already at lam=0; P0 is not the Lyapunov matrix of A(0)"
        )
    lo, hi = 0.0, math.nextafter(1.0, 2.0)  # holds(lo); hi fails or lies past 1
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if holds(mid) else (lo, mid)
    return lo


@dataclass(frozen=True)
class Certificate:
    """Lyapunov matrix P0 of the lam=0 gain and its blend bound capital_lambda;
    the constants k and p of the decay envelope k |phi| e^{-pt} derive from P0."""

    p0: SymPosDef2
    capital_lambda: float

    @property
    def k(self) -> float:
        return math.sqrt(2.0 * self.p0.c2 / self.p0.c1)

    @property
    def p(self) -> float:
        return min(1.0, 1.0 / (4.0 * self.p0.c2))


def stability_constants(p0: SymPosDef2, a1: Mat2, a2: Mat2) -> Certificate:
    """The certificate of P0: its blend bound for the gains a1, a2."""
    return Certificate(p0, find_capital_lambda(p0, a1, a2))


@cache
def default_certificate() -> Certificate:
    """Certificate for the default gain pair, memoized."""
    return stability_constants(solve_lyapunov(blend(A_MODE1, A_MODE2, 0.0)), A_MODE1, A_MODE2)
