"""Descent of W = x^T P x along a fixed blend A: the sign of A^T P + P A, on
floats and exactly. The instrument of acceptance criterion 3 and of the
margin tests in `tests/test_lyapunov.py`.
"""

from fractions import Fraction

from delayreach.lyap import Mat2, SymPosDef2, _exact, _lyap_form, blend, sym_eigvals


def min_margin(lam: float, p0: SymPosDef2, a1: Mat2, a2: Mat2) -> float:
    """Smallest eigenvalue of -(A(lam)^T P0 + P0 A(lam)), on floats."""
    f11, f12, f22 = _lyap_form(blend(a1, a2, lam), p0.p11, p0.p12, p0.p22)
    return sym_eigvals(-f11, -f12, -f22)[0]


def descends_exactly(a: Mat2, p: SymPosDef2) -> bool:
    """A^T P + P A <= 0 for the float A and P given, decided in rationals: a
    symmetric 2x2 matrix is negative semidefinite iff its trace is <= 0 and
    its determinant >= 0."""
    f11, f12, f22 = _lyap_form(_exact(a), Fraction(p.p11), Fraction(p.p12), Fraction(p.p22))
    return f11 + f22 <= 0 and f11 * f22 >= f12 * f12
