"""Dense 2x2 Lyapunov machinery for the switched planar vector field.

Everything here is closed-form at dimension two: the Hurwitz test is the
trace/determinant criterion, the Lyapunov equation is solved as an explicit
3x3 linear system in the symmetric unknowns, eigenvalues of symmetric
matrices come from the quadratic formula, and the blend bound from the roots
of a line and a quadratic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .integrator import _real_roots


class NotHurwitz(ValueError):
    """Lyapunov solve requested for a matrix that is not Hurwitz."""


class SingularSystem(ValueError):
    """The 3x3 symmetric-unknown system is numerically singular."""


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
        return cls(a[0, 0], a[0, 1], a[1, 0], a[1, 1])

    def as_array(self) -> np.ndarray:
        return np.array([[self.a11, self.a12], [self.a21, self.a22]])

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
    m1 = a1.as_array()
    m2 = a2.as_array()
    return Mat2.from_array(lam * m1 + (1.0 - lam) * m2)


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
    """Symmetric positive definite 2x2 matrix with cached extreme eigenvalues."""

    p11: float
    p12: float
    p22: float
    c1: float
    c2: float

    def __post_init__(self):
        if not (self.p11 > 0.0 and self.p11 * self.p22 - self.p12 ** 2 > 0.0):
            raise ValueError("matrix is not positive definite")
        if not self.c1 <= self.c2:
            raise ValueError("eigenvalues out of order")

    @classmethod
    def from_entries(cls, p11: float, p12: float, p22: float) -> "SymPosDef2":
        c1, c2 = sym_eigvals(p11, p12, p22)
        return cls(p11, p12, p22, c1, c2)

    def as_array(self) -> np.ndarray:
        return np.array([[self.p11, self.p12], [self.p12, self.p22]])

    def quad(self, x) -> float:
        """Quadratic form x^T P x."""
        x = np.asarray(x, dtype=float)
        return float(
            self.p11 * x[0] * x[0]
            + 2.0 * self.p12 * x[0] * x[1]
            + self.p22 * x[1] * x[1]
        )


def solve_lyapunov(a: Mat2) -> SymPosDef2:
    """Solve A^T P + P A = -I for symmetric P.

    The three symmetric unknowns (p11, p12, p22) satisfy an explicit 3x3
    linear system; no iteration and no tolerance knob.
    """
    if not is_hurwitz(a):
        raise NotHurwitz(f"matrix with trace {a.trace} and det {a.det} is not Hurwitz")
    m = np.array(
        [
            [2.0 * a.a11, 2.0 * a.a21, 0.0],
            [a.a12, a.a11 + a.a22, a.a21],
            [0.0, 2.0 * a.a12, 2.0 * a.a22],
        ]
    )
    rhs = np.array([-1.0, 0.0, -1.0])
    try:
        p11, p12, p22 = np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from None
    p = SymPosDef2.from_entries(float(p11), float(p12), float(p22))
    if lyapunov_residual(a, p) > 1e-10:
        raise SingularSystem("ill-conditioned Lyapunov system, residual too large")
    return p


def lyapunov_residual(a: Mat2, p: SymPosDef2) -> float:
    """Max-norm of A^T P + P A + I."""
    aa = a.as_array()
    pp = p.as_array()
    return float(np.abs(aa.T @ pp + pp @ aa + np.eye(2)).max())


def _margin_matrix(lam: float, p0: SymPosDef2, a1: Mat2, a2: Mat2) -> np.ndarray:
    """-(A(lam)^T P0 + P0 A(lam)), affine in lam."""
    a = blend(a1, a2, lam).as_array()
    pp = p0.as_array()
    return -(a.T @ pp + pp @ a)


def _min_margin(lam: float, p0: SymPosDef2, a1: Mat2, a2: Mat2) -> float:
    """Smallest eigenvalue of -(A(lam)^T P0 + P0 A(lam))."""
    q = _margin_matrix(lam, p0, a1, a2)
    lo, _ = sym_eigvals(q[0, 0], q[0, 1], q[1, 1])
    return lo


def find_capital_lambda(p0: SymPosDef2, a1: Mat2, a2: Mat2) -> float:
    """Largest blend fraction up to which P0 certifies DECAY_MARGIN.

    Returns the largest L in (0, 1] such that for all lam in [0, L] the
    smallest eigenvalue of Q(lam) = -(A(lam)^T P0 + P0 A(lam)) stays >=
    DECAY_MARGIN = m. Q is affine in lam, so its smallest eigenvalue is
    concave and the lam that pass form one interval [0, L]. A symmetric
    2x2 matrix has both eigenvalues >= m exactly when tr(Q - m I) >= 0 and
    det(Q - m I) >= 0, a line and a quadratic in lam, so L is 1 or one of
    their roots in (0, 1): the largest that passes the margin test. If none
    passes, rounding put the boundary root, the lowest, just past the
    boundary, and it steps down (4 ulps, then doubling) until it passes.
    """

    def feasible(lam: float) -> bool:
        return _min_margin(lam, p0, a1, a2) >= DECAY_MARGIN

    if not feasible(0.0):
        raise NoFeasibleLambda(
            "margin fails already at lam=0; P0 is not the Lyapunov matrix of A(0)"
        )
    q0 = _margin_matrix(0.0, p0, a1, a2)
    s = q0 - DECAY_MARGIN * np.eye(2)
    d = _margin_matrix(1.0, p0, a1, a2) - q0
    # Q(lam) - m I = s + lam d
    trace = [d[0, 0] + d[1, 1], s[0, 0] + s[1, 1]]
    det = [
        d[0, 0] * d[1, 1] - d[0, 1] ** 2,
        s[0, 0] * d[1, 1] + d[0, 0] * s[1, 1] - 2.0 * s[0, 1] * d[0, 1],
        s[0, 0] * s[1, 1] - s[0, 1] ** 2,
    ]
    lams = sorted([1.0, *_real_roots(trace, 0.0, 1.0), *_real_roots(det, 0.0, 1.0)])
    for lam in reversed(lams):
        if feasible(lam):
            return lam
    low = lams[0]
    step = 4.0 * math.ulp(low)
    while low - step > 0.0 and not feasible(low - step):
        step *= 2.0
    return max(low - step, 0.0)


@dataclass(frozen=True)
class Certificate:
    """Lyapunov matrix of the lam=0 gain and the constants derived from it:
    the blend bound capital_lambda and the decay envelope k, p."""

    p0: SymPosDef2
    capital_lambda: float
    k: float
    p: float


def stability_constants(p0: SymPosDef2, a1: Mat2, a2: Mat2) -> Certificate:
    """k = sqrt(2 c2 / c1), p = min(1, 1/(4 c2)), plus the blend bound."""
    return Certificate(
        p0=p0,
        capital_lambda=find_capital_lambda(p0, a1, a2),
        k=math.sqrt(2.0 * p0.c2 / p0.c1),
        p=min(1.0, 1.0 / (4.0 * p0.c2)),
    )


@cache
def default_certificate() -> Certificate:
    """Certificate for the default gain pair, memoized."""
    return stability_constants(solve_lyapunov(blend(A_MODE1, A_MODE2, 0.0)), A_MODE1, A_MODE2)
