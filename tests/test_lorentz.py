import dataclasses
import json
import math

import numpy as np
import pytest

from hypokit import decay, errors, hc_index, lorentz
from hypokit import operator_core as core

from helpers import lorentz_reference

KAPPA = lorentz.KAPPA_LIMIT
LAM0 = lorentz.LAMBDA0


class TestVelocityOperators:
    """R and K, read off the real generator R - K."""

    def test_m1_entries(self):
        C = lorentz.modal_generator(1.0, 1)
        np.testing.assert_array_equal(C, [[1.0, -0.5, 0.0], [0.5, 0.0, -0.5], [0.0, 0.5, 1.0]])

    @pytest.mark.parametrize("M", [1, 3, 16])
    def test_structure(self, M):
        C = lorentz.modal_generator(1.0, M)
        assert C.dtype == np.float64
        R, K = (C + C.T) / 2, (C.T - C) / 2
        np.testing.assert_array_equal(R @ R, R)
        np.testing.assert_array_equal(K.T, -K)
        assert core.spectral_norm(K) <= 1.0 + 1e-12

    def test_zero_mode_generator_is_R(self):
        np.testing.assert_array_equal(lorentz.modal_generator(0.0, 2), np.diag([1.0, 1, 0, 1, 1]))
        with pytest.raises(errors.PreconditionError, match="nonnegative"):
            lorentz.modal_generator(-1.0, 2)

    def test_rejects_m0(self):
        with pytest.raises(errors.DimensionError):
            lorentz.modal_generator(1.0, 0)


class TestKappaTruncated:
    def test_m1_is_half(self):
        assert lorentz.kappa_truncated(1) == pytest.approx(0.5, abs=1e-14)

    def test_converges_to_limit(self):
        assert abs(lorentz.kappa_truncated(200) - KAPPA) <= 1e-3

    def test_monotone_and_above_limit(self):
        vals = [lorentz.kappa_truncated(M) for M in (1, 3, 5, 10, 25, 50)]
        assert all(vals[i + 1] <= vals[i] + 1e-12 for i in range(len(vals) - 1))
        assert all(v >= KAPPA - 1e-6 for v in vals)

    def test_block_certificate(self):
        # subtracting the shifted PSD 3x3 blocks leaves a diagonal remainder
        # with entries >= kappa
        M = 50
        R, J10 = lorentz_reference(M + 1)
        Y = (R + J10 @ R @ J10.conj().T)[1:-1, 1:-1]
        B = np.array(
            [[0.25 - KAPPA / 2, 0.0, 0.25], [0.0, 0.0, 0.0], [0.25, 0.0, 1.25 - KAPPA / 2]]
        )
        # antidiagonal transpose: flip both axes
        Bt = B[::-1, ::-1]
        # 3x3 block of B is PSD exactly at this kappa
        assert np.linalg.eigvalsh(B)[0] >= -1e-15
        rem = Y.copy().astype(complex)
        c = M  # array index of j=0
        for k in range(0, M - 1):
            rem[c + k : c + k + 3, c + k : c + k + 3] -= B
            rem[c - k - 2 : c - k + 1, c - k - 2 : c - k + 1] -= Bt
        off = rem - np.diag(np.diag(rem))
        assert np.abs(off).max() <= 1e-12
        assert np.min(np.diag(rem).real) >= KAPPA - 1e-12


class TestModalGenerators:
    def test_index_one_with_uniform_kappa(self):
        M = 24
        R, J10 = lorentz_reference(M)
        floor = lorentz.kappa_truncated(M)
        for n in (1, 2, 7):
            dec = core.OperatorDecomposition(C=R - n * J10, R=R, J=n * J10)
            rep = hc_index.index_via_powers(dec, "j_powers")
            assert rep.index == 1
            assert rep.kappa >= floor - 1e-9

    def test_scaling_identity(self):
        R, J10 = lorentz_reference(12)
        JRJ = J10 @ R @ J10.conj().T
        for n in (2, 5):
            diff = n * n * JRJ - JRJ
            assert core.min_eig_hermitian(diff) >= -1e-12

    def test_norm_bound(self):
        C = lorentz.modal_generator(4.0, 8)
        assert core.spectral_norm(C) <= 1.0 + 4.0 + 1e-12


def parity_basis(M):
    """U = D Q from its definition: D = diag(i^j) and Q the even (j = 0..M)
    then odd (j = 1..M) eigenvectors of e_j -> (-1)^j e_(-j)."""
    dim = 2 * M + 1
    Q = np.zeros((dim, dim))
    Q[M, 0] = 1.0
    for j in range(1, M + 1):
        Q[M + j, j] = Q[M + j, M + j] = 1 / math.sqrt(2)
        Q[M - j, j] = (-1) ** j / math.sqrt(2)
        Q[M - j, M + j] = -((-1) ** j) / math.sqrt(2)
    return np.exp(0.5j * math.pi * np.arange(-M, M + 1))[:, None] * Q


def tridiagonal(diag, upper, lower):
    return np.diag(diag) + np.diag(upper, 1) + np.diag(lower, -1)


class TestParityBlocks:
    @pytest.mark.parametrize(
        "n, M, sigma", [(1.0, 1, 1.0), (3.0, 2, 0.5), (2.5, 8, 2.0), (7.0, 17, 1.0)]
    )
    def test_generator_blocks_are_explicit_tridiagonals(self, n, M, sigma):
        R, J10 = lorentz_reference(M)
        C = sigma * R - n * J10
        U = parity_basis(M)
        np.testing.assert_allclose(U.conj().T @ U, np.eye(2 * M + 1), rtol=0, atol=1e-14)
        B = U.conj().T @ C @ U
        assert np.abs(B.imag).max() <= 1e-14
        assert np.abs(B[: M + 1, M + 1 :]).max() <= 1e-14
        assert np.abs(B[M + 1 :, : M + 1]).max() <= 1e-14
        upper = np.full(M, -n / 2)
        upper[0] = -n / math.sqrt(2)
        even = tridiagonal([0.0] + [sigma] * M, upper, -upper)
        odd = tridiagonal([sigma] * M, np.full(M - 1, -n / 2), np.full(M - 1, n / 2))
        np.testing.assert_allclose(B[: M + 1, : M + 1].real, even, rtol=0, atol=1e-14)
        np.testing.assert_allclose(B[M + 1 :, M + 1 :].real, odd, rtol=0, atol=1e-14)
        R_e, K_e = lorentz._even_blocks(M)
        G = sigma * R_e - n * K_e
        assert G.dtype == np.float64
        np.testing.assert_allclose(G, even, rtol=0, atol=1e-14)
        np.testing.assert_allclose(G[1:, 1:], odd, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("M", [1, 8, 40])
    @pytest.mark.parametrize("n", [1.0, 2.5, 7.0])
    def test_odd_block_norm_is_exp_minus_t_and_even_block_dominates(self, n, M):
        # why a mode's propagator norm is that of its even block alone
        ts = np.linspace(0.0, 3.0, 31)
        R, K = lorentz._even_blocks(M)
        G = R - n * K
        odd = decay.propagator_norm_curve(G[1:, 1:], ts).norms
        even = decay.propagator_norm_curve(G, ts).norms
        np.testing.assert_allclose(odd, np.exp(-ts), rtol=0, atol=1e-14)
        assert np.all(even >= np.exp(-ts) - 1e-15)

    @pytest.mark.parametrize("M", [1, 2, 8, 40])
    def test_hermitian_forms_are_even_block_and_its_submatrix(self, M):
        # the identity behind taking lambda_min from the even block alone
        def kappa3_form(n):
            def form(R, J):
                C = R - n * J
                return R + C.conj().T @ R @ C

            return form

        forms = [
            lambda R, J: R + J @ R @ J.conj().T,
            kappa3_form(1.0),
            kappa3_form(2.5),
            lambda R, J: J.conj().T @ R @ J,
            lambda R, J: R - 0.3 * np.eye(len(R)),
        ]
        U = parity_basis(M)
        for form in forms:
            B = U.conj().T @ self.dense_form(M, form) @ U
            E = lorentz._even_form(M, form)
            assert E.dtype == np.float64 and E.shape == (M + 1, M + 1)
            want = np.zeros_like(B)
            want[: M + 1, : M + 1], want[M + 1 :, M + 1 :] = E, E[1:, 1:]
            np.testing.assert_allclose(B, want, rtol=0, atol=1e-14)

    def test_block_builders_reject_m0(self):
        ts = np.linspace(0.0, 1.0, 3)
        for call in (
            lambda: lorentz.kappa_truncated(0),
            lambda: lorentz.kappa3_truncated(0),
            lambda: lorentz.constrained_mixing_infimum(0, 0.1),
            lambda: lorentz._modal_norm_curve(1.0, 0, ts),
        ):
            with pytest.raises(errors.DimensionError, match="M must be at least 1"):
                call()

    def test_norms_match_dense_complex_expm(self, consts):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        # tau is raised so that the grid reaches well-decayed norms
        ts = np.linspace(0.0, 3.0, 13)
        rep = lorentz.full_propagator_bounds(3, 8, dataclasses.replace(consts, tau=3.0), ts)
        R, J10 = lorentz_reference(8)
        for n in (1, 2, 3):
            C = R - n * J10
            ref = [np.linalg.norm(scipy_linalg.expm(-C * t), 2) for t in ts]
            np.testing.assert_allclose(rep.norms[n - 1], ref, rtol=0, atol=1e-13)
        curve = lorentz._modal_norm_curve(2.0, 8, ts)
        np.testing.assert_allclose(curve.norms, rep.norms[1], rtol=0, atol=1e-15)

    @staticmethod
    def dense_form(M, form):
        return form(*lorentz_reference(M + 1))[1:-1, 1:-1]

    @pytest.mark.parametrize("M", [1, 2, 8, 40])
    def test_kappas_match_dense_complex_eigvalsh(self, M):
        W = self.dense_form(M, lambda R, J: R + J @ R @ J.conj().T)
        assert lorentz.kappa_truncated(M) == pytest.approx(np.linalg.eigvalsh(W)[0], abs=1e-13)
        W = self.dense_form(M, lambda R, J: R + (R - J).conj().T @ R @ (R - J))
        assert lorentz.kappa3_truncated(M) == pytest.approx(np.linalg.eigvalsh(W)[0], abs=1e-13)

    @pytest.mark.parametrize("M", [1, 2, 8, 40])
    def test_mixing_infimum_matches_dense_complex_dual(self, M):
        # at M = 1 the exact value; elsewhere the dense dual at the returned
        # multiplier, a lower bound, and the value of its eigenvector, which is
        # feasible (<v, R v> = delta) up to roundoff and so an upper bound
        A = self.dense_form(M, lambda R, J: J.conj().T @ R @ J)
        R = lorentz_reference(M)[0]
        for delta in (0.0763932, 0.3):
            got = lorentz.constrained_mixing_infimum(M, delta)
            if M == 1:
                assert got == pytest.approx(math.sqrt(0.5 - delta / 4.0), abs=1e-13)
                continue
            mu, _ = lorentz._mixing_multiplier(lorentz._even_form(M, lambda R, K: K.T @ R @ K), delta)
            w, V = np.linalg.eigh(A + mu * (R - delta * np.eye(2 * M + 1)))
            v = V[:, 0]
            assert np.real(np.vdot(v, R @ v)) <= delta + 1e-15
            assert got == pytest.approx(math.sqrt(w[0]), abs=1e-13)
            assert got == pytest.approx(math.sqrt(np.real(np.vdot(v, A @ v))), abs=1e-13)


class TestLyapunovWeight:
    def test_eigenvalues_exact(self):
        for n in (1, 2, 5):
            Y = lorentz.lyapunov_weight(n, 6)
            w = np.sort(np.linalg.eigvalsh(Y))
            assert abs(w[0] - (1 - 0.5 / n)) <= 1e-12
            assert abs(w[-1] - (1 + 0.5 / n)) <= 1e-12
            assert np.abs(w[1:-1] - 1.0).max() <= 1e-12

    def test_rejects_indefinite_weight(self):
        # the eigenvalue 1 - ALPHA / n_abs is 0 at n_abs = ALPHA
        with pytest.raises(errors.PreconditionError):
            lorentz.lyapunov_weight(lorentz.ALPHA, 4)

    def test_margin_certifies_rate(self):
        assert lorentz.lyapunov_margin(1, 64) >= -1e-10
        assert lorentz.lyapunov_margin(5, 64) >= lorentz.lyapunov_margin(1, 64) - 1e-12

    @staticmethod
    def essential_block(n):
        """The 4x4 non-diagonal core of C*Y + YC on the indices j = -1..2,
        for the weight with ALPHA = 1/2."""
        a = lorentz.ALPHA
        return np.array(
            [
                [2.0, 0.0, -a / 2.0, 0.0],
                [0.0, a, -1j * a / n, a / 2.0],
                [-a / 2.0, 1j * a / n, 2.0 - a, 0.0],
                [0.0, a / 2.0, 0.0, 2.0],
            ],
            dtype=complex,
        )

    def test_essential_block_minimum(self):
        # its smallest eigenvalue is 3 LAMBDA0 at n = 1 and grows with n
        Z1 = self.essential_block(1.0)
        assert np.linalg.eigvalsh(Z1)[0] == pytest.approx(3 * LAM0, abs=1e-10)
        assert np.linalg.eigvalsh(self.essential_block(3.0))[0] >= 3 * LAM0


class TestModalPropagatorNorm:
    @staticmethod
    def within_envelope(n, curve):
        """||P_n(t)|| <= min(1, sqrt((2n+1)/(2n-1)) e^(-LAMBDA0 t)) + 1e-8; the
        prefactor is the condition number of the Lyapunov weight."""
        pref = math.sqrt((2.0 * n + 1.0) / (2.0 * n - 1.0))
        bounds = np.minimum(1.0, pref * np.exp(-LAM0 * curve.times))
        return bool(np.all(curve.norms <= bounds + 1e-8))

    def test_time_zero(self):
        curve = lorentz._modal_norm_curve(1.0, 8, np.linspace(0.0, 1.0, 5))
        assert curve.norms[0] == pytest.approx(1.0, abs=1e-13)
        assert self.within_envelope(1, curve)

    def test_uniform_bound_small(self):
        ts = np.linspace(0.0, 20.0, 80)
        for n in (1, 2, 5):
            assert self.within_envelope(n, lorentz._modal_norm_curve(float(n), 32, ts))
            pref = math.sqrt((2 * n + 1) / (2 * n - 1))
            assert pref <= math.sqrt(3.0) + 1e-15

    def test_short_time_exponent_three(self):
        ts = np.geomspace(5e-3, 2.0, 120)
        fit = decay.fit_short_time(lorentz._modal_norm_curve(1.0, 16, ts))
        assert fit.a_rounded == 3


@pytest.fixture(scope="module")
def consts():
    return lorentz.appendix_constants(32)


class TestAppendixConstants:
    def test_relations_and_positivity(self, consts):
        assert consts.all_positive()
        assert consts.relations_hold()
        assert consts.delta == min(consts.kappa1 / 5, consts.kappa3 / 2)
        assert consts.c1 == consts.delta / 12

    def test_root_residuals(self, consts):
        assert lorentz._grow_rate_initial(consts.tau1) == pytest.approx(consts.delta, rel=1e-10)
        assert lorentz._grow_rate_cubic(consts.tau3) == pytest.approx(
            consts.delta / 12, rel=1e-10
        )

    def test_crossover_definition(self, consts):
        t_r = consts.tau / consts.r + math.log1p(1 / (consts.r - 0.5)) / (2 * consts.lambda0)
        assert t_r == pytest.approx(consts.tau, rel=1e-8)
        # endpoint equality collapses c3 to delta / (12 r); the root r carries
        # an intrinsic ~1e-5 relative fuzz through the implicit definition
        assert consts.c3 == pytest.approx(consts.delta / (12 * consts.r), rel=1e-4)

    def test_mixing_infimum_bracket(self, consts):
        sig = lorentz.constrained_mixing_infimum(32, consts.delta)
        assert sig >= 2.0 * math.sqrt(consts.delta) - 1e-9
        # sampled feasible vectors give an upper bound
        rng = np.random.default_rng(0)
        R, J10 = lorentz_reference(32)
        A = J10.conj().T @ R @ J10
        best = np.inf
        dim = 2 * 32 + 1
        for _ in range(800):
            x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            x[32] = 30.0 * abs(x[32])
            x /= np.linalg.norm(x)
            if np.real(np.vdot(x, R @ x)) <= consts.delta:
                best = min(best, math.sqrt(np.real(np.vdot(x, A @ x))))
        assert sig <= best + 1e-9

    def test_stabilizes_in_M(self):
        assert lorentz.kappa3_truncated(16) == pytest.approx(
            lorentz.kappa3_truncated(48), abs=1e-9
        )

    def test_rejects_small_M(self):
        with pytest.raises(errors.PreconditionError):
            lorentz.appendix_constants(8)


class TestScalarSolvers:
    """The pipeline's private bisection against scipy."""

    @pytest.mark.parametrize(
        "fn, lo, hi",
        [(lambda x: x * x - 2.0, 0.0, 2.0), (lambda x: math.tanh(x - 0.3), -5.0, 7.0),
         (lambda x: x - 1.0, 0.0, 2.0), (lambda t: lorentz._grow_rate_cubic(t) - 1e-3, 1e-8, 10.0)],
    )
    def test_bracketed_root_is_a_sign_change_between_adjacent_floats(self, fn, lo, hi):
        x = lorentz._bracketed_root(fn, lo, hi)
        fx = fn(x)
        assert fx == 0.0 or any(
            fx * fn(y) < 0.0 for y in (math.nextafter(x, -math.inf), math.nextafter(x, math.inf))
        )

    def test_bracketed_root_rejects_a_bracket_without_sign_change(self):
        with pytest.raises(errors.NumericalError):
            lorentz._bracketed_root(lambda x: x * x + 1.0, -1.0, 1.0)
        with pytest.raises(errors.NumericalError):  # decreasing: f(lo) > 0 > f(hi)
            lorentz._bracketed_root(lambda x: 1.0 - x, 0.0, 2.0)

    @pytest.mark.parametrize("M", [32, 96])
    def test_roots_within_two_ulp_of_brentq(self, M):
        scipy_optimize = pytest.importorskip("scipy.optimize")
        c = lorentz.appendix_constants(M)

        def gap(x):
            return c.tau / x + math.log1p(1.0 / (x - 0.5)) / (2.0 * c.lambda0) - c.tau

        hi = 2.0
        while gap(hi) >= 0.0:
            hi *= 2.0
        for got, fn, lo, up in (
            (c.tau1, lambda t: lorentz._grow_rate_initial(t) - c.delta, 1e-8, 10.0),
            (c.tau3, lambda t: lorentz._grow_rate_cubic(t) - c.delta / 12.0, 1e-8, 10.0),
            (c.r, lambda x: -gap(x), 1.0 + 1e-9, hi),
        ):
            # brentq at its tightest tolerance: rtol = 4 eps and no absolute slack
            ref = scipy_optimize.brentq(fn, lo, up, xtol=1e-300, rtol=8.9e-16)
            assert abs(got - ref) <= 2.0 * math.ulp(ref)


class TestCubicAndSandwich:
    def test_cubic_bound_small(self, consts):
        rep = lorentz.cubic_bound_verify(5, 32, consts, samples=20)
        assert rep.ok
        assert rep.worst_margin >= -1e-9

    def test_equality_at_zero(self, consts):
        rep = lorentz.cubic_bound_verify(1, 16, consts, samples=5)
        assert rep.ok

    @pytest.mark.parametrize("samples", [-1, 0, 1])
    def test_fewer_than_two_samples_is_a_precondition_error(self, consts, samples):
        with pytest.raises(errors.PreconditionError, match="at least 2 samples"):
            lorentz.cubic_bound_verify(2, 8, consts, samples)

    def test_sandwich_small(self, consts):
        ts = np.linspace(0.0, consts.tau, 12)
        rep = lorentz.full_propagator_bounds(5, 16, consts, ts)
        assert rep.ok
        # the envelope is attained by the slowest-mixing mode at small times
        assert np.abs(rep.sup_norms[1:4] - rep.norms[0, 1:4]).max() <= 1e-12


class TestSimulate:
    def test_equilibrium_is_fixed_point(self):
        field = lorentz.LorentzField(2, 4)
        field[0, 0, 0] = 2.5
        out, rep = lorentz.simulate(field, 5.0)
        assert rep.distance == 0.0
        assert out.mass == 2.5
        np.testing.assert_array_equal(out.coeffs, field.coeffs)

    def test_single_mode_decay(self):
        field = lorentz.LorentzField(2, 16)
        field[1, 0, 2] = 1.0
        _, rep = lorentz.simulate(field, 10.0)
        assert rep.distance <= math.sqrt(3) * math.exp(-10 * LAM0) + 1e-8
        assert rep.bound_ok and rep.mass_ok

    def test_random_field_conserves_mass_exactly(self):
        rng = np.random.default_rng(1)
        field = lorentz.LorentzField.random(rng, 3, 8)
        out, rep = lorentz.simulate(field, 7.0)
        assert out.mass == field.mass
        assert rep.bound_ok

    def test_curve_matches_pointwise_evolution(self):
        rng = np.random.default_rng(2)
        field = lorentz.LorentzField.random(rng, 2, 6)
        grids = [
            np.linspace(0.0, 3.0, 7),
            np.linspace(0.5, 3.0, 6),  # uniform, starting after 0
            np.array([0.1, 0.3, 1.0, 1.2, 2.5, 3.0]),  # non-uniform
        ]
        for ts in grids:
            final, reports = lorentz.simulate_curve(field, ts)
            assert len(reports) == ts.size
            for t, rep in zip(ts, reports):
                _, single = lorentz.simulate(field, float(t))
                assert rep.distance == pytest.approx(single.distance, abs=1e-10)
                assert rep.bound_ok and rep.mass_ok
            direct, _ = lorentz.simulate(field, float(ts[-1]))
            err = np.linalg.norm(final.coeffs - direct.coeffs)
            assert err <= 1e-12 * np.linalg.norm(direct.coeffs)

    def test_field_matches_modewise_expm(self):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        # independent reference: every spatial mode evolved by its own expm
        rng = np.random.default_rng(4)
        field = lorentz.LorentzField.random(rng, 2, 5)
        t = 1.7
        out, _ = lorentz.simulate(field, t)
        R, J10 = lorentz_reference(5)
        for n1 in range(-2, 3):
            for n2 in range(-2, 3):
                C = R - math.hypot(n1, n2) * J10
                ref = scipy_linalg.expm(-C * t) @ field.coeffs[n1 + 2, n2 + 2]
                np.testing.assert_allclose(out.coeffs[n1 + 2, n2 + 2], ref, rtol=0, atol=1e-12)

    def test_one_propagator_per_magnitude_and_step_length(self, monkeypatch):
        # modes of equal magnitude share one propagator, computed again only
        # when the step length changes; the zero mode is the magnitude 0
        calls = []
        expm = core._expm
        monkeypatch.setattr(core, "_expm", lambda A, t: calls.append(t) or expm(A, t))
        rand = lorentz.LorentzField.random(np.random.default_rng(3), 2, 6)
        for field, ts, lengths in ((rand, np.linspace(0.0, 3.0, 7), 1),
                                   (rand, np.linspace(0.4, 3.0, 6), 2),
                                   (rand, [0.1, 0.3, 1.0], 3),
                                   (lorentz.LorentzField(0, 6), np.linspace(0.0, 3.0, 7), 1)):
            calls.clear()
            lorentz.simulate_curve(field, ts)
            assert len(calls) == lengths * len(lorentz._mode_groups(field.N))

    @pytest.mark.parametrize("ts", [np.linspace(0.0, 3.0, 7), [0.1, 0.3, 1.0, 1.2, 2.5, 3.0]],
                             ids=["uniform", "non-uniform"])
    def test_zero_mode_relaxes_entrywise(self, ts):
        # the zero mode's propagator is exp(-R h) = diag(e^-h, .., 1, .., e^-h):
        # each of the six steps rounds e^-h and one product (2 eps relative a
        # step), and j = 0 is multiplied by exp(0) = 1, exactly
        rng = np.random.default_rng(6)
        c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        field = lorentz.LorentzField(1, 4)
        field.coeffs[1, 1] = c
        out, reports = lorentz.simulate_curve(field, ts)
        expected = c * math.exp(-3.0)
        rel = np.abs(np.delete(out.coeffs[1, 1] - expected, 4)) / np.abs(np.delete(expected, 4))
        assert rel.max() <= 6 * 2 * np.finfo(float).eps
        assert out.coeffs[1, 1, 4] == c[4] and all(r.mass_ok for r in reports)
        out.coeffs[1, 1] = 0.0
        assert not out.coeffs.any()

    def test_zero_mode_velocity_relaxation(self):
        field = lorentz.LorentzField(1, 4)
        field[0, 0, 3] = 1.0
        _, rep = lorentz.simulate(field, 2.0)
        assert rep.distance == pytest.approx(math.exp(-2.0), abs=1e-12)


    @pytest.mark.parametrize("k", [-600, 600])
    def test_powers_of_two_scale_every_output_exactly(self, k):
        # distance_to_equilibrium norms the field divided by a power of 2, so
        # 2^k times a field evolves to 2^k times the final field, distances
        # and bounds, bit for bit
        field = lorentz.LorentzField.random(np.random.default_rng(5), 2, 6)
        ts = np.linspace(0.0, 3.0, 7)
        final, reports = lorentz.simulate_curve(field, ts)
        final_k, reports_k = lorentz.simulate_curve(
            lorentz.LorentzField(2, 6, field.coeffs * 2.0**k), ts)
        np.testing.assert_array_equal(final_k.coeffs, final.coeffs * 2.0**k)
        assert [r.distance for r in reports_k] == [r.distance * 2.0**k for r in reports]
        assert [r.bound for r in reports_k] == [r.bound * 2.0**k for r in reports]

    @pytest.mark.parametrize("where, value", [((0, 0, 0), 1e160), ((1, 0, 1), 1e200),
                                              ((1, 0, 1), 5e-324)],
                             ids=["mass-1e160", "mode-1e200", "mode-subnormal"])
    def test_distance_at_any_finite_scale(self, where, value):
        # |mass|^2 overflowed (OverflowError) above about 1.3e154, and a
        # square of 1e200 read inf
        field = lorentz.LorentzField(1, 2)
        field[where] = value
        field[0, 1, -1] = value / 2
        d = field.distance_to_equilibrium()
        expected = value / 2 if where == (0, 0, 0) else math.hypot(value, value / 2)
        assert d == pytest.approx(expected, rel=1e-15)
        assert lorentz.simulate(field, 1.0)[1].distance <= d

    def test_a_field_past_double_range_is_a_range_error(self):
        field = lorentz.LorentzField(1, 2, np.full((3, 3, 5), 1e308))
        with pytest.raises(errors.RangeError, match="at t = 0"):
            lorentz.simulate_curve(field, [0.0, 1.0])


class TestFieldJson:
    def test_roundtrip(self):
        rng = np.random.default_rng(3)
        field = lorentz.LorentzField.random(rng, 2, 3)
        back = lorentz.field_from_json(json.loads(lorentz.field_to_json(field)))
        np.testing.assert_array_equal(back.coeffs, field.coeffs)

    @pytest.mark.parametrize("seed", range(20))
    def test_text_is_that_of_json_dumps(self, seed):
        # the dict the writer built before it wrote text, through json.dumps
        rng = np.random.default_rng(seed)
        field = lorentz.LorentzField.random(rng, int(rng.integers(0, 3)), int(rng.integers(1, 4)))
        special = [-0.0, 0.0, 5e-324, 1e16, 1e22, 1.797e308, -1.797e308, 1e-300, 0.1, 2.0**53]
        flat = field.coeffs.reshape(-1)
        picks = rng.integers(0, flat.size, size=min(flat.size, 8))
        flat[picks] = rng.choice(special, picks.size) + 1j * rng.choice(special, picks.size)
        n1, n2, j = np.nonzero(field.coeffs)
        z = field.coeffs[n1, n2, j]
        old = {"N": field.N, "M": field.M, "coeffs": [
            {"n": [a, b], "j": c, "re": re, "im": im}
            for a, b, c, re, im in zip((n1 - field.N).tolist(), (n2 - field.N).tolist(),
                                       (j - field.M).tolist(), z.real.tolist(), z.imag.tolist())
        ]}
        assert lorentz.field_to_json(field) == json.dumps(old, sort_keys=True)

    def test_text_of_an_empty_field(self):
        assert lorentz.field_to_json(lorentz.LorentzField(0, 1)) == '{"M": 1, "N": 0, "coeffs": []}'

    def test_sparse_input(self):
        obj = {"N": 1, "M": 2, "coeffs": [{"n": [1, 0], "j": -2, "re": 1.0, "im": -0.5}]}
        field = lorentz.field_from_json(obj)
        assert field[1, 0, -2] == 1.0 - 0.5j
        assert np.linalg.norm(field.coeffs) == pytest.approx(abs(1.0 - 0.5j))

    def test_rejects_out_of_range(self):
        obj = {"N": 1, "M": 2, "coeffs": [{"n": [2, 0], "j": 0, "re": 1.0, "im": 0.0}]}
        with pytest.raises(errors.DimensionError):
            lorentz.field_from_json(obj)
