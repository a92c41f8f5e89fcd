import math
from fractions import Fraction

import numpy as np
import pytest

from hypokit import errors, gallery, lorentz
from hypokit import operator_core as core

from helpers import bench_planted_pair, ck_closed_form_norm


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
        for dtype in (float, complex):
            E = core.matrix_exponential(np.zeros((3, 3), dtype=dtype), 7.5)
            assert E.dtype == np.dtype(dtype)
            np.testing.assert_array_equal(E, np.eye(3))

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
        assert abs(core.spectral_norm(P) - ck_closed_form_norm(1, 1.0)) <= 1e-10

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

    def test_overflow_guard_at_negative_time(self):
        # a result is refused only when it is not finite: exp(705) is, and
        # exp(710) is not
        A = np.diag([-705.0, 1.0])
        np.testing.assert_array_equal(core.matrix_exponential(A, -1.0),
                                      np.diag(np.exp([705.0, -1.0])))
        core.matrix_exponential(-A, -1.0)
        with pytest.raises(errors.RangeError, match="at t = -1$"):
            core.matrix_exponential(np.diag([-710.0, 1.0]), -1.0)

    def test_non_finite_time_is_invalid(self):
        for t in (np.inf, -np.inf, np.nan):
            with pytest.raises(errors.InvalidEntryError):
                core.matrix_exponential(np.eye(2), t)

    @pytest.mark.parametrize(
        "C, t",
        [([[0.0, 1.0], [-1.0, 1.0]], 1e50), ([[0.0, 1.0], [-1.0, 1.0]], 1e100),
         ([[1e200, 1e200], [0.0, 1.0]], 1e200), ([[1.0, 1e160], [0.0, -1.0]], 1e200),
         (gallery.ck_matrix(2), 1e308)],
        ids=["1e+50", "1e+100", "upper-1e200", "upper-1e160", "ck_2-1e+308"],
    )
    def test_overflowing_powers_raise_range_error(self, C, t):
        # exp(-C t) may be tiny, but the powers of C t that choose the Pade
        # degree overflow before the scaling, to inf or to NaN (inf - inf)
        with pytest.raises(errors.RangeError):
            core.matrix_exponential(-np.asarray(C), t)

    def test_one_by_one(self):
        assert core.matrix_exponential([[2.0]], 0.5)[0, 0] == math.exp(1.0)
        z = 0.3 + 2.0j
        assert core.matrix_exponential([[z]])[0, 0] == np.exp(z)

    def test_diagonal_is_entrywise(self):
        d = np.array([-3.0, 0.5, 2.0, -0.25])
        E = core.matrix_exponential(np.diag(d), 1.5)
        np.testing.assert_array_equal(E, np.diag(np.exp(1.5 * d)))
        dc = d + 1j * np.arange(4)
        np.testing.assert_array_equal(core.matrix_exponential(np.diag(dc)), np.diag(np.exp(dc)))

    def test_random_against_scipy(self):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(14)
        for i in range(200):
            n = int(rng.integers(1, 13))
            A = rng.standard_normal((n, n))
            if i % 2:
                A = A + 1j * rng.standard_normal((n, n))
            A *= 10.0 ** rng.uniform(-3.0, 1.0) / np.linalg.norm(A, 2)
            E, ref = core.matrix_exponential(A), scipy_linalg.expm(A)
            assert E.dtype == ref.dtype
            assert np.linalg.norm(E - ref, 2) <= 1e-12 * np.linalg.norm(ref, 2)


#: Working precision of the reference exponential: mpmath's at 40 digits.
_BITS = 136


def _fixed(X: np.ndarray, e: int) -> np.ndarray:
    """floor(X / 2^e) entrywise for a real float array, as exact Python ints."""
    scale = Fraction(2) ** -e
    ints = [math.floor(Fraction(float(x)) * scale) for x in X.ravel()]
    return np.array(ints, dtype=object).reshape(X.shape)


class _Exact:
    """The matrix (re + 1j*im) * 2^e, with re and im object arrays of Python
    ints and im None for a real matrix.  Sums and products are exact integer
    arithmetic; after each one the largest entry is cut back to _BITS bits, so
    this is floating point with one exponent per matrix."""

    def __init__(self, re, im, e: int):
        bits = max(int(v).bit_length() for part in (re, im) if part is not None for v in part.flat)
        k = max(bits - _BITS, 0)
        self.re, self.im, self.e = re >> k, None if im is None else im >> k, e + k

    @classmethod
    def of(cls, X) -> "_Exact":
        X = np.asarray(X)
        e = math.frexp(float(np.abs(X).max()))[1] - _BITS
        return cls(_fixed(X.real, e), _fixed(X.imag, e) if np.iscomplexobj(X) else None, e)

    def __add__(self, other: "_Exact") -> "_Exact":
        e = min(self.e, other.e)
        ims = [x.im << (x.e - e) for x in (self, other) if x.im is not None]
        re = (self.re << (self.e - e)) + (other.re << (other.e - e))
        return _Exact(re, sum(ims) if ims else None, e)

    def __matmul__(self, other: "_Exact") -> "_Exact":
        a, b, c, d = self.re, self.im, other.re, other.im
        if b is None and d is None:
            re, im = a.dot(c), None
        elif b is None:
            re, im = a.dot(c), a.dot(d)
        elif d is None:
            re, im = a.dot(c), b.dot(c)
        else:  # three real products
            k1, k2, k3 = (a + b).dot(c), a.dot(d - c), b.dot(c + d)
            re, im = k1 - k3, k1 + k2
        return _Exact(re, im, self.e + other.e)

    def over_factorial(self, k: int) -> "_Exact":
        c = (1 << _BITS) // math.factorial(k)
        return _Exact(self.re * c, None if self.im is None else self.im * c, self.e - _BITS)


def _exp_reference(X: np.ndarray) -> _Exact:
    """exp(X) at _BITS bits: the Taylor series of Y = 2^-s X, ||Y||_2 <= 1/2,
    summed (Paterson-Stockmeyer) until the next term is below 2^-(_BITS+4),
    then squared s times."""
    norm = float(np.linalg.norm(X, 2)) * (1.0 + 1e-10)
    s = max(math.ceil(math.log2(2.0 * norm)), 0) if norm else 0
    theta = norm * 2.0**-s
    K = 1
    while theta ** (K + 1) / math.factorial(K + 1) > 2.0 ** -(_BITS + 4):
        K += 1
    q = max(math.isqrt(K), 1)
    n = X.shape[0]
    powers = [_Exact(np.eye(n, dtype=int).astype(object), None, 0), _Exact.of(X * 2.0**-s)]
    while len(powers) <= q:
        powers.append(powers[-1] @ powers[1])
    acc = None
    for j in reversed(range(0, K + 1, q)):
        part = powers[0].over_factorial(j)
        for i in range(1, min(q, K + 1 - j)):
            part = part + powers[i].over_factorial(j + i)
        acc = part if acc is None else acc @ powers[q] + part
    for _ in range(s):
        acc = acc @ acc
    return acc


def _rel_error(X: np.ndarray, ref: _Exact) -> float:
    """||X - ref||_2 / ||ref||_2, with X - ref taken exactly."""
    as_float = np.vectorize(float, otypes=[float])
    zero = 0 * ref.re
    ref_im = zero if ref.im is None else ref.im
    diff = as_float(_fixed(X.real, ref.e) - ref.re) + 1j * as_float(_fixed(np.imag(X), ref.e) - ref_im)
    exact = as_float(ref.re) + 1j * as_float(ref_im)
    return float(np.linalg.norm(diff, 2) / np.linalg.norm(exact, 2))


def _planted60() -> np.ndarray:
    """The planted n = 60, index-4 input of the benchmark's index-audit workload (seed 1)."""
    return bench_planted_pair(1, 0, 60, 12)


def _lorentz_block(n: int, parity: int) -> np.ndarray:
    """Even (parity 0) or odd (parity 1) block of the magnitude-n generator at M = 40."""
    R, K = lorentz._even_blocks(40)
    return (R - n * K)[parity:, parity:]


EXPM_CASES = {
    **{f"ck_{k}": (lambda k=k: gallery.ck_matrix(k)) for k in (2, 3, 4, 5)},
    **{f"ek_{k}": (lambda k=k: gallery.ek_matrix(k)) for k in (3, 8, 16)},
    **{
        f"lorentz_n{n}_{name}": (lambda n=n, p=p: _lorentz_block(n, p))
        for n in (1, 10)
        for p, name in enumerate(("even", "odd"))
    },
    "planted60": _planted60,
}


class TestExpmAccuracy:
    """``core.matrix_exponential`` against an exponential in exact integer
    arithmetic at mpmath's 40-digit precision, with scipy's error on the same
    input as the yardstick.  mpmath's own matrix products take about 0.1 s
    each at n = 41, so mpmath checks the reference on small cases only."""

    def test_reference_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for C in (gallery.ck_matrix(2), gallery.ek_matrix(3), _lorentz_block(1, 1)[:6, :6]):
                for tn in (1.0, 30.0):
                    X = -core.as_matrix(C) * (tn / np.linalg.norm(C, 2))
                    ref = _exp_reference(X)
                    want = mpmath.expm(mpmath.matrix(X.tolist()))
                    im = 0 * ref.re if ref.im is None else ref.im
                    got = mpmath.matrix([
                        [mpmath.mpc(mpmath.ldexp(int(ref.re[i, j]), ref.e),
                                    mpmath.ldexp(int(im[i, j]), ref.e)) for j in range(X.shape[1])]
                        for i in range(X.shape[0])
                    ])
                    assert mpmath.mnorm(got - want, 1) < 1e-35 * mpmath.mnorm(want, 1)

    @pytest.mark.parametrize("case", list(EXPM_CASES))
    def test_no_worse_than_twice_scipy(self, case):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        C = core.as_matrix(EXPM_CASES[case](), square=True)
        norm = np.linalg.norm(C, 2)
        for tn in (1e-4, 0.3, 1.0, 30.0, 300.0):
            t = tn / norm
            ref = _exp_reference(-C * t)
            ours = _rel_error(core.matrix_exponential(-C, t), ref)
            theirs = _rel_error(scipy_linalg.expm(-C * t), ref)
            assert ours <= max(2.0 * theirs, 1e-14), (tn, ours, theirs)


class TestPadeBranches:
    """Every degree and the squaring phase of Al-Mohy & Higham's choice."""

    G = np.random.default_rng(12).standard_normal((6, 6))
    G /= np.linalg.norm(G, 2)

    @pytest.mark.parametrize(
        "scale, degree, squared",
        [(1e-2, 3, False), (0.1, 5, False), (0.5, 7, False), (1.5, 9, False),
         (3.0, 13, False), (30.0, 13, True)],
    )
    def test_branch(self, scale, degree, squared):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        A = scale * self.G  # real, so the result must stay real
        m, s, _ = core._pade_degree(A)
        assert (m, s > 0) == (degree, squared)
        E = core.matrix_exponential(A)
        assert E.dtype == np.float64
        ref = _exp_reference(A)
        assert _rel_error(E, ref) <= max(2.0 * _rel_error(scipy_linalg.expm(A), ref), 1e-14)

    def test_nilpotent_needs_no_scaling(self):
        # A^2 = 0: every eta is zero, degree 3 with s = 0, and r_3(A) = I + A
        A = np.array([[0.0, 1e6], [0.0, 0.0]])
        assert core._pade_degree(A)[:2] == (3, 0)
        np.testing.assert_array_equal(core._expm(A, 1.0), np.eye(2) + A)


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

        Y = lorentz.lyapunov_weight(1, 4)
        assert core.min_eig_hermitian(Y) == pytest.approx(0.5, abs=1e-12)

    def test_windowed_lorentz_mixing_form(self):
        # the 3x3 window of the mixing form is diag(1.25, 0.5, 1.25)
        from hypokit import lorentz

        assert lorentz.kappa_truncated(1) == pytest.approx(0.5, abs=1e-13)

    def test_rejects_grossly_nonhermitian(self):
        with pytest.raises(errors.ContractViolationError):
            core.min_eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
        # its Hermitian part [[2, .5], [.5, 1]] has a root, but psd_sqrt refuses it
        with pytest.raises(errors.ContractViolationError, match="R is not Hermitian"):
            core.psd_sqrt(np.array([[2.0, 1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("rel, rejected", [(1e-6, True), (1e-13, False)])
    def test_relative_asymmetry_threshold(self, rel, rejected):
        # ||(A - A*)/2||_2 = rel * ||H||_2: far above the 1e-8 tolerance is
        # rejected, roundoff-sized asymmetry is symmetrized away, by the one
        # Hermitian test of min_eig_hermitian and psd_sqrt alike (H is PSD so
        # that psd_sqrt takes it)
        rng = np.random.default_rng(7)
        G = random_matrix(rng, 20)
        H = G @ G.conj().T / 20
        K = random_matrix(rng, 20)
        K = (K - K.conj().T) / 2
        A = H + rel * np.linalg.norm(H, 2) / np.linalg.norm(K, 2) * K
        if rejected:
            for fn in (core.min_eig_hermitian, core.psd_sqrt):
                with pytest.raises(errors.ContractViolationError):
                    fn(A)
        else:
            assert core.min_eig_hermitian(A) == pytest.approx(np.linalg.eigvalsh(H)[0], abs=1e-10)
            np.testing.assert_allclose(core.psd_sqrt(A), core.psd_sqrt(H), atol=1e-10)


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
