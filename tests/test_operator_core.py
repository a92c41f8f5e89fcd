import numpy as np
import pytest

from hypokit import errors, gallery
from hypokit import operator_core as core


def random_matrix(rng, n, norm_cap=None):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if norm_cap is not None:
        A *= norm_cap / max(np.linalg.norm(A, 2), 1e-300)
    return A


class TestHermitianSplit:
    def test_ck_family(self):
        k = 3
        dec = core.hermitian_split(gallery.ck_matrix(k))
        np.testing.assert_allclose(dec.R, np.diag([0.0, 1.0]), atol=1e-14)
        np.testing.assert_allclose(dec.J, k * np.array([[0, -1], [1, 0]]), atol=1e-14)

    def test_hermitian_input_has_zero_skew(self):
        rng = np.random.default_rng(0)
        A = random_matrix(rng, 5)
        H = (A + A.conj().T) / 2
        dec = core.hermitian_split(H)
        np.testing.assert_allclose(dec.R, H, atol=1e-14)
        assert np.abs(dec.J).max() <= 1e-14

    def test_pure_skew_input(self):
        C = np.array([[0.0, 1.0], [-1.0, 0.0]])
        dec = core.hermitian_split(C)
        assert np.abs(dec.R).max() == 0.0
        np.testing.assert_allclose(dec.J, [[0, -1], [1, 0]], atol=1e-15)

    def test_reconstruction_and_projection(self):
        rng = np.random.default_rng(1)
        for n in (2, 5, 9):
            A = random_matrix(rng, n)
            dec = core.hermitian_split(A)
            np.testing.assert_allclose(dec.R - dec.J, A, atol=1e-14)
            # splitting R - J again returns (R, J) exactly
            again = core.hermitian_split(dec.R - dec.J)
            np.testing.assert_allclose(again.R, dec.R, atol=1e-14)
            np.testing.assert_allclose(again.J, dec.J, atol=1e-14)
            # R Hermitian, J skew-Hermitian
            assert np.abs(dec.R - dec.R.conj().T).max() <= 1e-14 * np.abs(dec.R).max()
            assert np.abs(dec.J + dec.J.conj().T).max() <= 1e-14 * max(np.abs(dec.J).max(), 1)

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(errors.DimensionError):
            core.hermitian_split(np.ones((2, 3)))
        bad = np.eye(2)
        bad = bad.astype(complex)
        bad[0, 1] = np.nan
        with pytest.raises(errors.InvalidEntryError):
            core.hermitian_split(bad)


class TestAsMatrix:
    @pytest.mark.parametrize(
        "A, dtype",
        [
            ([[1.0, 2.0], [3.0, 4.0]], np.float64),
            (np.arange(4).reshape(2, 2), np.float64),
            (np.eye(2, dtype=np.float32), np.float64),
            ([[1.0, 2.0j], [3.0, 4.0]], np.complex128),
            (np.eye(2, dtype=np.complex64), np.complex128),
        ],
    )
    def test_real_stays_real(self, A, dtype):
        M = core.as_matrix(A)
        assert M.dtype == dtype
        np.testing.assert_array_equal(M, np.asarray(A))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite_real(self, bad):
        with pytest.raises(errors.InvalidEntryError):
            core.as_matrix([[1.0, bad], [0.0, 1.0]])


class TestRealArithmetic:
    """Real input gives real results equal to the complexified call."""

    @staticmethod
    def close(real, cplx):
        assert np.isrealobj(real)
        scale = max(np.abs(cplx).max(), 1e-300)
        assert np.abs(real - cplx).max() <= 1e-14 * scale

    def test_matrix_exponential(self):
        rng = np.random.default_rng(8)
        for n in (1, 4, 17):
            A = rng.standard_normal((n, n))
            real = core.matrix_exponential(A, 0.7)
            self.close(real, core.matrix_exponential(A.astype(complex), 0.7))

    def test_spectral_norm(self):
        A = np.random.default_rng(9).standard_normal((9, 6))
        self.close(core.spectral_norm(A), core.spectral_norm(A.astype(complex)))

    def test_min_eig_hermitian(self):
        G = np.random.default_rng(10).standard_normal((12, 12))
        H = G + G.T
        self.close(core.min_eig_hermitian(H), core.min_eig_hermitian(H.astype(complex)))

    def test_psd_sqrt(self):
        G = np.random.default_rng(11).standard_normal((10, 10))
        R = G.T @ G
        self.close(core.psd_sqrt(R), core.psd_sqrt(R.astype(complex)))


class TestMatrixExponential:
    def test_zero_matrix(self):
        np.testing.assert_allclose(core.matrix_exponential(np.zeros((3, 3)), 7.5), np.eye(3))

    def test_planar_rotation(self):
        theta = 0.73
        A = np.array([[0.0, -theta], [theta, 0.0]])
        expected = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        np.testing.assert_allclose(core.matrix_exponential(A, 1.0), expected, atol=1e-14)

    def test_matches_ck_closed_form_norm(self):
        # independent closed-form oracle for the 2x2 family at t = 1
        P = core.matrix_exponential(-gallery.ck_matrix(1), 1.0)
        assert abs(core.spectral_norm(P) - gallery.ck_closed_form_norm(1, 1.0)) <= 1e-10

    def test_semigroup_property(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            A = random_matrix(rng, rng.integers(2, 7), norm_cap=5.0)
            s, t = rng.uniform(0.05, 1.0, size=2)
            lhs = core.matrix_exponential(A, s + t)
            rhs = core.matrix_exponential(A, s) @ core.matrix_exponential(A, t)
            assert core.spectral_norm(lhs - rhs) <= 1e-10

    def test_skew_generator_is_unitary(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            S = random_matrix(rng, n)
            J = (S - S.conj().T) / 2
            U = core.matrix_exponential(J, rng.uniform(0, 4))
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert abs(np.linalg.norm(U @ x) - np.linalg.norm(x)) <= 1e-12 * np.linalg.norm(x)

    def test_accretive_semi_dissipativity(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            G = random_matrix(rng, n)
            R = G.conj().T @ G / n
            S = random_matrix(rng, n)
            C = R - (S - S.conj().T) / 2
            for t in (0.0, 0.3, 1.7, 12.0):
                assert core.spectral_norm(core.matrix_exponential(-C, t)) <= 1 + 1e-12

    def test_overflow_guard(self):
        with pytest.raises(errors.RangeError):
            core.matrix_exponential(np.eye(2) * 1000.0, 1.0)


class TestSpectralNorm:
    def test_identity(self):
        assert core.spectral_norm(np.eye(7)) == pytest.approx(1.0, abs=1e-15)

    def test_diagonal(self):
        assert core.spectral_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0, abs=1e-14)

    def test_nilpotent(self):
        assert core.spectral_norm([[0.0, 2.0], [0.0, 0.0]]) == pytest.approx(2.0, abs=1e-14)


class TestMinEigHermitian:
    def test_diagonal(self):
        assert core.min_eig_hermitian(np.diag([0.5, 1.5])) == pytest.approx(0.5, abs=1e-15)

    def test_lorentz_weight(self):
        from hypokit import lorentz

        Y = lorentz.lyapunov_weight(1, 0.5, 4).Y
        assert core.min_eig_hermitian(Y) == pytest.approx(0.5, abs=1e-12)

    def test_windowed_lorentz_mixing_form(self):
        # the 3x3 window of the mixing form is diag(1.25, 0.5, 1.25)
        from hypokit import lorentz

        assert lorentz.kappa_truncated(1) == pytest.approx(0.5, abs=1e-13)

    def test_rejects_grossly_nonhermitian(self):
        with pytest.raises(errors.ContractViolationError):
            core.min_eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("rel, rejected", [(1e-6, True), (1e-13, False)])
    def test_relative_asymmetry_threshold(self, rel, rejected):
        # ||(A - A*)/2||_2 = rel * ||H||_2: far above the 1e-8 tolerance is
        # rejected, roundoff-sized asymmetry is symmetrized away
        rng = np.random.default_rng(7)
        G = random_matrix(rng, 20)
        H = (G + G.conj().T) / 2
        K = random_matrix(rng, 20)
        K = (K - K.conj().T) / 2
        A = H + rel * np.linalg.norm(H, 2) / np.linalg.norm(K, 2) * K
        if rejected:
            with pytest.raises(errors.ContractViolationError):
                core.min_eig_hermitian(A)
        else:
            assert core.min_eig_hermitian(A) == pytest.approx(np.linalg.eigvalsh(H)[0], abs=1e-10)


class TestPsdSqrt:
    def test_diagonal(self):
        np.testing.assert_allclose(core.psd_sqrt(np.diag([4.0, 0.0])), np.diag([2.0, 0.0]), atol=1e-13)
        np.testing.assert_allclose(core.psd_sqrt(np.diag([0.0, 1.0])), np.diag([0.0, 1.0]), atol=1e-13)

    def test_projection_is_own_root(self):
        rng = np.random.default_rng(5)
        Q, _ = np.linalg.qr(random_matrix(rng, 6))
        P = Q[:, :3] @ Q[:, :3].conj().T
        np.testing.assert_allclose(core.psd_sqrt(P), P, atol=1e-12)

    def test_roundtrip_campaign(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(2, 65))
            G = random_matrix(rng, n)
            R = G.conj().T @ G / n
            S = core.psd_sqrt(R)
            scale = max(core.spectral_norm(R), 1e-300)
            assert core.spectral_norm(S @ S - R) <= 1e-11 * scale
            assert np.abs(S - S.conj().T).max() <= 1e-12 * scale

    def test_rejects_indefinite(self):
        with pytest.raises(errors.NotPSDError):
            core.psd_sqrt(np.diag([1.0, -0.5]))


class TestSpectralAbscissa:
    def test_ck_decay_rate(self):
        for k in (1, 2, 5):
            assert core.spectral_abscissa(-gallery.ck_matrix(k)) == pytest.approx(-0.5, abs=1e-12)

    def test_diagonal(self):
        assert core.spectral_abscissa(np.diag([-1.0, -2.0, -3.0])) == pytest.approx(-1.0, abs=1e-14)

    def test_skew(self):
        J = np.array([[0.0, -2.0], [2.0, 0.0]])
        assert abs(core.spectral_abscissa(J)) <= 1e-12


class TestMatrixJson:
    def test_roundtrip_exact(self):
        rng = np.random.default_rng(7)
        A = random_matrix(rng, 4)
        B = core.matrix_from_json(core.matrix_to_json(A))
        assert np.array_equal(A, B)

    def test_bare_real_entries(self):
        obj = {"n_rows": 2, "n_cols": 2, "entries": [1, 0, [0.0, -1.0], 2.5]}
        A = core.matrix_from_json(obj)
        np.testing.assert_array_equal(A, np.array([[1, 0], [-1j, 2.5]]))

    def test_rejects_malformed(self):
        with pytest.raises(errors.DimensionError):
            core.matrix_from_json({"n_rows": 2, "n_cols": 2, "entries": [1, 2, 3]})
        with pytest.raises(errors.InvalidEntryError):
            core.matrix_from_json({"n_rows": 1})
