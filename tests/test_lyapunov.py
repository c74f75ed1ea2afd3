import math

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


class TestMat2:
    def test_round_trip(self):
        a = Mat2.from_array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(a.as_array(), [[1.0, 2.0], [3.0, 4.0]])
        assert a.trace == 5.0
        assert a.det == 1.0 * 4.0 - 2.0 * 3.0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Mat2(0.0, math.nan, 0.0, 0.0)


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
        assert p.p11 == pytest.approx(25.0, abs=1e-12)
        assert p.p12 == pytest.approx(-1.0, abs=1e-12)
        assert p.p22 == pytest.approx(6.3, abs=1e-12)
        assert lyapunov_residual(A_MODE2, p) <= 1e-12

    def test_against_kronecker_oracle(self, rng):
        count = 0
        while count < 50:
            a = Mat2.from_array(rng.uniform(-2.0, 2.0, size=(2, 2)))
            if not is_hurwitz(a):
                continue
            count += 1
            p = solve_lyapunov(a)
            ref = kron_lyapunov(a)
            assert np.allclose(p.as_array(), ref, atol=1e-9)

    def test_rejects_non_hurwitz(self):
        with pytest.raises(NotHurwitz):
            solve_lyapunov(Mat2(1.0, 0.0, 0.0, 1.0))

    def test_quad_matches_matrix_form(self, rng):
        p = solve_lyapunov(A_MODE2)
        for _ in range(20):
            x = rng.uniform(-5.0, 5.0, size=2)
            assert p.quad(x) == pytest.approx(float(x @ p.as_array() @ x), rel=1e-12)

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
            q = -(a.T @ p0.as_array() + p0.as_array() @ a)
            return float(np.linalg.eigvalsh(q)[0])

        assert margin(lam - 1e-6) >= 0.5
        assert margin(lam + 1e-3) < 0.5
        assert 0.0 < lam < 0.05

    def test_default_boundary_sharp_to_rounding(self, cert):
        lam = cert.capital_lambda
        assert type(lam) is float
        assert lam == pytest.approx(0.01088750171661377, abs=1e-9)
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
                assert _min_margin(l, p0, a1, a2) >= DECAY_MARGIN
            if lam < 1.0:
                assert _min_margin(lam + 1e-9, p0, a1, a2) < DECAY_MARGIN

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
        assert cert.p0.c1 == pytest.approx(np.linalg.eigvalsh(cert.p0.as_array())[0])
        assert cert.p0.c2 == pytest.approx(np.linalg.eigvalsh(cert.p0.as_array())[1])

    def test_default_certificate_memoized(self):
        assert default_certificate() is default_certificate()


class TestSymPosDef2:
    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            SymPosDef2.from_entries(1.0, 2.0, 1.0)
