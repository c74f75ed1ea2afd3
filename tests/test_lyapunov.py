import math
from fractions import Fraction

import numpy as np
import pytest

from delayreach.lyap import (
    A_MODE1,
    A_MODE2,
    DECAY_MARGIN,
    Mat2,
    NoFeasibleLambda,
    NotHurwitz,
    SingularSystem,
    SymPosDef2,
    _min_margin,
    blend,
    default_certificate,
    find_capital_lambda,
    is_hurwitz,
    lyapunov_residual,
    solve_lyapunov,
    stability_constants,
    sym_eigvals,
)


def kron_lyapunov(a: Mat2) -> np.ndarray:
    """Independent oracle: solve A^T P + P A = -I via the Kronecker system."""
    aa = a.as_array()
    m = np.kron(np.eye(2), aa.T) + np.kron(aa.T, np.eye(2))
    vec_p = np.linalg.solve(m, -np.eye(2).reshape(-1))
    return vec_p.reshape(2, 2)


def sym(p: SymPosDef2) -> np.ndarray:
    """P as a numpy array, for the numpy oracles."""
    return np.array([[p.p11, p.p12], [p.p12, p.p22]])


def exact_margin_holds(lam: float, p0: SymPosDef2, a1: Mat2, a2: Mat2) -> bool:
    """Independent oracle: both eigenvalues of -(A^T P0 + P0 A) - m I are >= 0
    for A = lam A1 + (1 - lam) A2, from the trace and determinant in rationals."""
    lam, m = Fraction(lam), Fraction(DECAY_MARGIN)
    a = [[lam * Fraction(x) + (1 - lam) * Fraction(y) for x, y in zip(r1, r2)]
         for r1, r2 in zip(a1.as_array().tolist(), a2.as_array().tolist())]
    p = [[Fraction(v) for v in row] for row in sym(p0).tolist()]
    q = [[-sum(a[k][i] * p[k][j] + p[i][k] * a[k][j] for k in range(2)) - (m if i == j else 0)
          for j in range(2)] for i in range(2)]
    return q[0][0] + q[1][1] >= 0 and q[0][0] * q[1][1] - q[0][1] * q[1][0] >= 0


class TestMat2:
    def test_round_trip(self):
        a = Mat2.from_array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(a.as_array(), [[1.0, 2.0], [3.0, 4.0]])
        assert a.trace == 5.0
        assert a.det == 1.0 * 4.0 - 2.0 * 3.0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Mat2(0.0, math.nan, 0.0, 0.0)

    @pytest.mark.parametrize("arr", [[[0.0, 2.0, 7.0], [-0.5, -0.1, 7.0], [7.0, 7.0, 7.0]],
                                     [[0.0, 2.0], [-0.5, -0.1], [7.0, 7.0]], [1.0, 2.0, 3.0, 4.0]])
    def test_rejects_wrong_shape(self, arr):
        with pytest.raises(ValueError, match="2x2"):
            Mat2.from_array(arr)


class TestHurwitz:
    def test_against_eigenvalue_oracle(self, rng):
        for _ in range(200):
            a = Mat2.from_array(rng.uniform(-2.0, 2.0, size=(2, 2)))
            eigs = np.linalg.eigvals(a.as_array())
            assert is_hurwitz(a) == bool((eigs.real < 0.0).all())

    def test_marginal_cases(self):
        assert not is_hurwitz(Mat2(0.0, 1.0, -1.0, 0.0))  # pure rotation
        assert is_hurwitz(Mat2(-1.0, 0.0, 0.0, -1.0))
        assert not is_hurwitz(Mat2(1.0, 0.0, 0.0, -3.0))  # saddle

    def test_both_modes_hurwitz(self):
        assert is_hurwitz(A_MODE1)
        assert is_hurwitz(A_MODE2)


class TestSymEigvals:
    def test_against_numpy(self, rng):
        for _ in range(100):
            p11, p12, p22 = rng.uniform(-3.0, 3.0, size=3)
            lo, hi = sym_eigvals(p11, p12, p22)
            ref = np.linalg.eigvalsh(np.array([[p11, p12], [p12, p22]]))
            assert lo == pytest.approx(ref[0], abs=1e-12)
            assert hi == pytest.approx(ref[1], abs=1e-12)


class TestSolveLyapunov:
    def test_reference_matrix_exact(self):
        # closed-form solution for the lam=0 gain, checked by the residual
        p = solve_lyapunov(A_MODE2)
        assert (p.p11, p.p12, p.p22) == (25.0, -1.0, 6.3)
        assert lyapunov_residual(A_MODE2, p) <= 1e-12

    def test_overflowing_solution_is_singular_system(self):
        # Hurwitz, but tr(A) = -1e-309 puts p11 = (det + a21^2 + a22^2) / (2 |tr| det) past
        # the largest float
        with pytest.raises(SingularSystem, match="float matrix"):
            solve_lyapunov(Mat2(-1e-309, 1.0, -1.0, 0.0))

    def test_against_kronecker_oracle(self, rng):
        count = 0
        while count < 50:
            a = Mat2.from_array(rng.uniform(-2.0, 2.0, size=(2, 2)))
            if not is_hurwitz(a):
                continue
            count += 1
            p = solve_lyapunov(a)
            ref = kron_lyapunov(a)
            assert np.allclose(sym(p), ref, atol=1e-9)

    def test_rejects_non_hurwitz(self):
        with pytest.raises(NotHurwitz):
            solve_lyapunov(Mat2(1.0, 0.0, 0.0, 1.0))

    def test_quad_matches_matrix_form(self, rng):
        p = solve_lyapunov(A_MODE2)
        for _ in range(20):
            x = rng.uniform(-5.0, 5.0, size=2)
            assert p.quad(x) == pytest.approx(float(x @ sym(p) @ x), rel=1e-12)

    def test_eigen_bounds_sandwich_quad(self, rng):
        p = solve_lyapunov(A_MODE2)
        for _ in range(50):
            x = rng.uniform(-3.0, 3.0, size=2)
            n2 = float(x @ x)
            assert p.c1 * n2 - 1e-9 <= p.quad(x) <= p.c2 * n2 + 1e-9


class TestCapitalLambda:
    def test_boundary_is_sharp(self, cert):
        lam = cert.capital_lambda
        p0 = cert.p0

        def margin(l):
            a = blend(A_MODE1, A_MODE2, l).as_array()
            q = -(a.T @ sym(p0) + sym(p0) @ a)
            return float(np.linalg.eigvalsh(q)[0])

        assert margin(lam - 1e-6) >= 0.5
        assert margin(lam + 1e-3) < 0.5
        assert 0.0 < lam < 0.05

    def test_default_boundary_sharp_to_rounding(self, cert):
        lam = cert.capital_lambda
        assert type(lam) is float
        # the largest float at which the margin holds exactly, for the float P0
        assert lam == 0.010887501745916624
        assert exact_margin_holds(lam, cert.p0, A_MODE1, A_MODE2)
        assert not exact_margin_holds(math.nextafter(lam, 1.0), cert.p0, A_MODE1, A_MODE2)
        assert _min_margin(lam, cert.p0, A_MODE1, A_MODE2) >= DECAY_MARGIN
        assert _min_margin(lam * (1.0 + 1e-12), cert.p0, A_MODE1, A_MODE2) < DECAY_MARGIN

    def test_feasible_on_whole_interval_gives_one(self):
        a1 = Mat2(-2.0, 0.0, 0.0, -2.0)
        a2 = Mat2(-1.0, 0.0, 0.0, -1.0)
        # Q(lam) = (1 + lam) I
        assert find_capital_lambda(solve_lyapunov(a2), a1, a2) == 1.0

    def test_random_pairs_sound_and_sharp(self, rng):
        def hurwitz():
            while True:
                a = Mat2(*rng.uniform(-2.0, 2.0, 4))
                if is_hurwitz(a):
                    return a

        for _ in range(40):
            a1, a2 = hurwitz(), hurwitz()
            p0 = solve_lyapunov(a2)
            lam = find_capital_lambda(p0, a1, a2)
            assert 0.0 < lam <= 1.0
            for l in np.linspace(0.0, lam, 201):
                assert exact_margin_holds(float(l), p0, a1, a2)
            if lam < 1.0:
                assert not exact_margin_holds(math.nextafter(lam, 1.0), p0, a1, a2)

    def test_infeasible_margin_raises(self):
        # P0 = I is not the Lyapunov matrix of A(0), as with user gains from
        # the `lyapunov` config
        with pytest.raises(NoFeasibleLambda):
            find_capital_lambda(SymPosDef2.from_entries(1.0, 0.0, 1.0), A_MODE1, A_MODE2)


class TestNoCommonQuadraticLyapunov:
    @pytest.mark.parametrize("own,lam_other", [(A_MODE1, 0.0), (A_MODE2, 1.0)])
    def test_each_modes_w_grows_under_the_other_mode(self, own, lam_other):
        # the exact descent check of acceptance criterion 3, on a case that
        # fails it: A^T P + P A has a positive eigenvalue for each mode's P
        # under the other mode's A. So no quadratic W descends under both,
        # which is what lets switching escape.
        worst = -_min_margin(lam_other, solve_lyapunov(own), A_MODE1, A_MODE2)
        assert worst == pytest.approx(44.92, abs=0.01)


class TestConstants:
    def test_formulas(self, cert):
        assert cert == stability_constants(cert.p0, A_MODE1, A_MODE2)
        assert cert.k == pytest.approx(math.sqrt(2.0 * cert.p0.c2 / cert.p0.c1), rel=1e-14)
        assert cert.p == pytest.approx(min(1.0, 1.0 / (4.0 * cert.p0.c2)), rel=1e-14)
        assert cert.p0.c1 == pytest.approx(np.linalg.eigvalsh(sym(cert.p0))[0])
        assert cert.p0.c2 == pytest.approx(np.linalg.eigvalsh(sym(cert.p0))[1])

    def test_default_certificate_memoized(self):
        assert default_certificate() is default_certificate()


class TestSymPosDef2:
    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            SymPosDef2.from_entries(1.0, 2.0, 1.0)
