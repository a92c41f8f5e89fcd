import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from hypokit import decay, errors, gallery, hc_index, lorentz, staircase
from hypokit import operator_core as core

from helpers import (
    bench_planted_pair, ck_closed_form_norm, ck_short_time_constant_exact, random_accretive,
)


class TestPropagatorNormCurve:
    def test_matches_ck_closed_form(self):
        ts = np.linspace(1e-6, 3.0, 200)
        curve = decay.propagator_norm_curve(gallery.ck_matrix(1), ts)
        oracle = ck_closed_form_norm(1, ts)
        assert np.abs(curve.norms - oracle).max() <= 1e-8

    def test_coercive_diagonal(self):
        ts = np.linspace(0.0, 2.0, 40)
        curve = decay.propagator_norm_curve(np.diag([1.0, 2.0]), ts)
        assert np.abs(curve.norms - np.exp(-ts)).max() <= 1e-12

    def test_time_zero_is_one(self):
        curve = decay.propagator_norm_curve(gallery.ek_matrix(3), [0.0, 1.0])
        assert curve.norms[0] == pytest.approx(1.0, abs=1e-14)

    def test_uniform_grid_tail_matches_pointwise_expm(self):
        # the envelope constant of ek_rescale_factor multiplies these norms by
        # up to e^40, so stepping must stay accurate relative to the decayed norm
        scipy_linalg = pytest.importorskip("scipy.linalg")
        C = gallery.ek_matrix(5)
        gap = -core.spectral_abscissa(-C)
        ts = np.linspace(0.0, 40.0 / gap, 2001)
        curve = decay.propagator_norm_curve(C, ts)
        ref = np.array([np.linalg.norm(scipy_linalg.expm(-C * t), 2) for t in ts])
        np.testing.assert_allclose(curve.norms, ref, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize(
        "ts",
        [np.linspace(0.0, 3.0, 31), np.linspace(0.2, 3.0, 15), np.geomspace(1e-3, 3.0, 12)],
    )
    def test_real_generator_matches_complex(self, ts):
        dec = random_accretive(np.random.default_rng(12), 9)
        C = (dec.C + dec.C.conj()).real / 2  # a real accretive generator
        real = decay.propagator_norm_curve(C, ts)
        cplx = decay.propagator_norm_curve(C.astype(complex), ts)
        np.testing.assert_allclose(real.norms, cplx.norms, rtol=1e-14, atol=0.0)

    def test_geometric_grid_equals_pointwise_matrix_exponential(self):
        dec = random_accretive(np.random.default_rng(5), 12)
        ts = np.geomspace(1e-4, 10.0, 40)
        curve = decay.propagator_norm_curve(dec.C, ts)
        ref = [core.spectral_norm(core.matrix_exponential(-dec.C, t)) for t in ts]
        assert curve.norms.tolist() == ref

    def test_geometric_grid_raises_range_error_where_expm_overflows(self):
        with pytest.raises(errors.RangeError):
            decay.propagator_norm_curve(gallery.ck_matrix(1), np.geomspace(1.0, 1e50, 5))

    def test_geometric_grid_guard_covers_the_last_point(self):
        # ||exp(-C t)|| = e^t leaves double range after t = 709.78
        C = np.diag([-1.0, 1.0]).astype(complex)
        decay.propagator_norm_curve(C, np.geomspace(1.0, 650.0, 30))
        with pytest.raises(errors.RangeError):
            decay.propagator_norm_curve(C, np.geomspace(1.0, 750.0, 30))
        with pytest.raises(errors.InvalidEntryError):
            decay.propagator_norm_curve(C, [0.1, np.nan, 1.0])

    def test_stepped_overflow_raises_range_error(self):
        # exp(-C t) grows like e^t on diag(-1, 1): the stepped product leaves
        # double range after t = 709.78, and no numpy warning may escape
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(errors.RangeError):
                decay.propagator_norm_curve(np.diag([-1.0, 1.0]), np.linspace(0.0, 1000.0, 11))

    def test_finite_non_accretive_propagator_is_returned(self):
        # ||exp(-C t)|| = e^-t ||[[1, -100 t], [0, 1]]||, finite at t = 20
        # although the logarithmic norm of -C t is 980
        scipy_linalg = pytest.importorskip("scipy.linalg")
        C = np.array([[1.0, 100.0], [0.0, 1.0]])
        pointwise = decay.propagator_norm_curve(C, [0.0, 20.0]).norms[-1]
        stepped = decay.propagator_norm_curve(C, [0.0, 10.0, 20.0]).norms[-1]
        ref = np.linalg.norm(scipy_linalg.expm(-20.0 * C), 2)
        assert stepped == pytest.approx(pointwise, rel=1e-12, abs=0.0)
        assert pointwise == pytest.approx(ref, rel=1e-12, abs=0.0)
        assert stepped == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_submultiplicative_norms(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            dec = random_accretive(rng, 5)
            grid = np.array([0.25, 0.5, 0.75, 1.0, 1.5, 2.0])
            curve = decay.propagator_norm_curve(dec.C, grid)
            value = dict(zip(grid, curve.norms))
            for s in (0.25, 0.5, 0.75, 1.0):
                for t in (0.25, 0.5, 1.0):
                    if s + t in value:
                        assert value[s + t] <= value[s] * value[t] + 1e-10


class TestUniformGrid:
    def test_grid_far_below_unit_time_is_normed_pointwise(self):
        # spacings 1e-15 and 4e-15 are not equal; a fixed absolute slack of
        # 1e-14 read them as equal and stepped the second point by 1e-15
        C, ts = 1e14 * gallery.ck_matrix(1), np.array([0.0, 1e-15, 5e-15])
        assert not decay.is_uniform_grid(ts)
        curve = decay.propagator_norm_curve(C, ts)
        ref = [core.spectral_norm(core.matrix_exponential(-C, t)) for t in ts]
        assert curve.norms.tolist() == ref
        np.testing.assert_allclose(
            curve.norms, ck_closed_form_norm(1, 1e14 * ts), rtol=1e-12, atol=0.0
        )

    @pytest.mark.parametrize(
        "tmax, points",
        [
            (3.0, 100001),
            (1e-13, 301),
            (3.0, 151),  # decay --steps 150, the norm-curves grid
            (30.0, 21),  # lorentz simulate at its defaults
            ("tau", 25),  # lorentz verify --M-constants 96 --steps 25
        ],
    )
    def test_linspace_grids_stay_uniform(self, tmax, points):
        if tmax == "tau":
            tmax = lorentz.appendix_constants(96).tau
        assert decay.is_uniform_grid(np.linspace(0.0, tmax, points))

    def test_short_time_curve_takes_mu_from_one_eigvalsh(self, monkeypatch):
        # mu = max(0, lambda_max(-R)) is the one eigen-solve of the window
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda A: calls.append(A) or eigvalsh(A))
        dec = core.hermitian_split(-np.diag([1.0, -0.5]))
        decay.short_time_curve(dec, np.geomspace(1e-3, 1.0, 20))
        assert len(calls) == 1


def _law(C) -> dict | None:
    return hc_index.equivalence_audit(core.hermitian_split(C)).short_time_law


def _stacked_svd_constant(C, m: int) -> float:
    """The constant from the kernel of the stacked [sqrt(R) C^j, j < m] by
    SVD and the raw power C^m, independent of the staircase: the minimum of
    <C^m x, R C^m x> over unit x in that kernel, over (2m+1)! binom(2m, m)."""
    dec = core.hermitian_split(C)
    S = core.psd_sqrt(dec.R)
    K = np.vstack([S @ np.linalg.matrix_power(C, j) for j in range(m)])
    _, sv, Vh = np.linalg.svd(K)
    B = Vh[int(np.count_nonzero(sv >= 1e-10 * sv[0])) :].conj().T
    Cm = np.linalg.matrix_power(C, m)
    lam = np.linalg.eigvalsh(B.conj().T @ Cm.conj().T @ dec.R @ Cm @ B)[0]
    return lam / (math.factorial(2 * m + 1) * math.comb(2 * m, m))


class TestShortTimeConstant:
    """c of ||exp(-C t)|| = 1 - c t^(2m+1) + ..., read off the staircase chain
    by ``hc_index.equivalence_audit``."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_ck_family(self, k):
        exact = ck_short_time_constant_exact(k)
        assert exact == Fraction(k * k, 12)
        law = _law(gallery.ck_matrix(k))
        assert (law["m"], law["exponent"], law["reason"]) == (1, 3, None)
        assert law["c"] == pytest.approx(float(exact), rel=1e-14)

    def test_coercive_case_is_min_eig(self):
        law = _law(np.diag([1.0, 2.0]))
        assert (law["m"], law["exponent"]) == (0, 1)
        assert law["c"] == pytest.approx(1.0, rel=1e-14)

    def test_e2(self):
        law = _law(gallery.ek_matrix(2))
        assert (law["m"], law["exponent"]) == (1, 3)
        assert law["c"] == pytest.approx(1.0 / 12.0, rel=1e-14)

    @pytest.mark.parametrize("k", range(2, 26))
    def test_ek_family(self, k):
        # the chain of E_k couples e_(k-1) to e_0 with unit weights, so
        # c = 1 / ((2m+1)! binom(2m, m)) with m = k - 1
        law = _law(gallery.ek_matrix(k))
        assert (law["m"], law["exponent"]) == (k - 1, 2 * k - 1)
        exact = 1 / (math.factorial(2 * k - 1) * math.comb(2 * k - 2, k - 1))
        assert law["c"] == pytest.approx(exact, rel=1e-14)

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_ek_matches_stacked_svd_kernel(self, k):
        C = gallery.ek_matrix(k)
        assert _law(C)["c"] == pytest.approx(_stacked_svd_constant(C, k - 1), rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_generic_matches_stacked_svd_kernel(self, seed):
        # R = G G^T of rank 2 weights the chain unevenly (E_k and C_k have
        # W = [1]); found within 6.8e-13 relative, index 2
        rng = np.random.default_rng(seed)
        G, S = rng.standard_normal((6, 2)), rng.standard_normal((6, 6))
        C = G @ G.T - (S - S.T) / 2
        law = _law(C)
        assert law["c"] == pytest.approx(_stacked_svd_constant(C, law["m"]), rel=1e-10)

    @pytest.mark.parametrize("M", [8, 64, 512])
    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_lorentz_modes(self, n, M):
        # one step from the kernel e_0 of R to its range, by couplings n / 2;
        # the law reads the form alone, so the families (4 s at M = 512) wait
        dec = core.hermitian_split(lorentz.modal_generator(n, M))
        form = staircase.build_staircase(dec.R, dec.J)
        law = hc_index._short_time_law(form)
        assert (law["m"], law["exponent"]) == (1, 3)
        assert law["c"] == pytest.approx(n * n / 24, rel=1e-14)

    def test_no_index_has_no_law(self):
        assert _law(np.array([[0.0, 1.0], [-1.0, 0.0]])) is None

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_planted_pairs_of_the_benchmark(self, seed):
        # the C^m B route raised on (100, 11) and (60, 4): ||B|| reached 6e7
        pairs = [bench_planted_pair(seed, 0, 60, 12), bench_planted_pair(seed, 0, 50, 7),
                 bench_planted_pair(seed, 1, 100, 11)]
        if seed == 1:
            pairs.append(bench_planted_pair(1, 0, 60, 4))
        for C in pairs:
            audit = hc_index.equivalence_audit(core.hermitian_split(C))
            law = audit.short_time_law
            assert law["m"] == audit.index_per_method["staircase"]
            assert law["c"] >= np.finfo(float).tiny and law["reason"] is None

    @pytest.mark.parametrize("C, m", [(gallery.ek_matrix(100), 99),
                                      (1e-170 * gallery.ek_matrix(4), 3)],
                             ids=["ek_100", "1e-170 ek_4"])
    def test_constant_outside_double_range_is_none(self, C, m):
        # (2m+1)! alone passes double range from m = 85; 1e-170^7 / 100800
        # is far below it
        law = _law(C)
        assert (law["m"], law["exponent"], law["c"]) == (m, 2 * m + 1, None)
        assert law["reason"].endswith("is not a positive normal double")


class TestFitShortTime:
    def test_ck_grid(self):
        C = gallery.ck_matrix(1)
        s = core.spectral_norm(C)
        fit = decay.fit_short_time(
            decay.propagator_norm_curve(C, np.geomspace(1e-4 / s, 1e-1 / s, 120))
        )
        assert fit.a_rounded == 3
        assert not fit.flagged
        assert abs(fit.c_est - 1.0 / 12.0) <= 0.05 / 12.0

    def test_coercive_exponent_one(self):
        C = np.diag([1.0, 2.0])
        s = core.spectral_norm(C)
        fit = decay.fit_short_time(
            decay.propagator_norm_curve(C, np.geomspace(1e-4 / s, 1e-1 / s, 120))
        )
        assert fit.a_rounded == 1
        assert abs(fit.c_est - 1.0) <= 0.05

    def test_e4_exponent_seven(self):
        curve = decay.propagator_norm_curve(gallery.ek_matrix(4), np.geomspace(1e-3, 3.0, 200))
        fit = decay.fit_short_time(curve)
        assert fit.a_rounded == 7
        assert abs(fit.a_est - 7.0) <= 0.2

    def test_underflowed_constant_is_flagged(self):
        # on analyze's grid the fit of 1e-170 E_4 reads the exponent 7, but
        # its constant, about 1e-1195, underflows to 0.0
        dec = core.hermitian_split(1e-170 * gallery.ek_matrix(4))
        times = np.geomspace(1e-4 / dec.norm, 10.0 / dec.norm, 220)
        fit = decay.fit_short_time(decay.short_time_curve(dec, times))
        assert fit.a_rounded == 7 and fit.odd_gap <= 0.2
        assert fit.c_est == 0.0 and fit.flagged

    def test_skew_generator_has_no_decay(self):
        J = np.array([[0.0, -1.0], [1.0, 0.0]])
        curve = decay.propagator_norm_curve(J, np.geomspace(1e-4, 1.0, 50))
        with pytest.raises(errors.NoDecayError):
            decay.fit_short_time(curve)

    def test_sandwich_property_on_gallery(self):
        # fitted exponent 2m+1 within 0.1 and constant within [0.8, 1.25] of
        # the analytic one
        cases = [
            (gallery.ck_matrix(1), 1, None),
            (gallery.ck_matrix(2), 1, None),
            (gallery.ek_matrix(2), 1, np.geomspace(1e-4, 1.0, 200)),
            (gallery.ek_matrix(3), 2, np.geomspace(1e-3, 2.0, 200)),
            (gallery.ek_matrix(4), 3, np.geomspace(1e-3, 3.0, 200)),
        ]
        for C, m, grid in cases:
            if grid is None:
                s = core.spectral_norm(C)
                grid = np.geomspace(1e-4 / s, 1e-1 / s, 120)
            fit = decay.fit_short_time(decay.propagator_norm_curve(C, grid))
            assert abs(fit.a_est - (2 * m + 1)) <= 0.1
            c_ref = hc_index.equivalence_audit(core.hermitian_split(C)).short_time_law["c"]
            assert 0.8 <= fit.c_est / c_ref <= 1.25


class TestStabilityCheck:
    def test_ck(self):
        rep = decay.stability_check(core.hermitian_split(gallery.ck_matrix(2)))
        assert rep.stable
        assert rep.spectral_gap == pytest.approx(0.5, abs=1e-12)
        assert rep.t0 == pytest.approx(6.0, rel=1e-12)  # 3 / gap

    def test_skew_is_not_stable(self):
        J = np.array([[0.0, -2.0], [2.0, 0.0]])
        rep = decay.stability_check(core.hermitian_split(J))
        assert not rep.stable
        assert abs(rep.spectral_gap) <= 1e-10
        assert rep.t0 == 0.5  # 1 / ||J||

    def test_zero_generator_reads_t0_one(self):
        # 1 / ||C|| has no scale to take from C = 0
        rep = decay.stability_check(core.hermitian_split(np.zeros((2, 2))))
        assert not rep.stable and rep.t0 == 1.0 and rep.norm_at_t0 == 1.0

    @pytest.mark.parametrize("C", [2.0**-1020 * gallery.ek_matrix(4),
                                   1e-320 * np.array([[0.0, 1.0], [-1.0, 0.0]])],
                             ids=["3/gap", "1/norm"])
    def test_t0_past_double_range_is_a_range_error(self, C):
        # 3 / gap of 2^-1020 E_4 and 1 / ||C|| of a subnormal skew C (gap 0)
        # overflow; 2^-1019 E_4 still reads t0 = 1.6e308
        with pytest.raises(errors.RangeError, match="t0 = inf"):
            decay.stability_check(core.hermitian_split(C))
        rep = decay.stability_check(core.hermitian_split(2.0**-1019 * gallery.ek_matrix(4)))
        assert rep.stable and 1.6e308 < rep.t0 < math.inf

    def test_block_assembly_gap_is_minimum(self):
        A = gallery.make_example("ek_blockdiag", blocks=8)
        rep = decay.stability_check(core.hermitian_split(A))
        gaps = [-core.spectral_abscissa(-gallery.ek_matrix(k)) for k in range(1, 9)]
        assert rep.spectral_gap == pytest.approx(min(gaps), abs=1e-12)
        assert rep.spectral_gap <= 1.0 / 8.0 + 1e-12
        assert rep.t0 == pytest.approx(3.0 / min(gaps), rel=1e-10)


class TestPerturbedInitial:
    def test_ck_cubic_cancellation(self):
        # for kernel data the perturbed datum x_tau = x0 + (tau/2) C x0 (the
        # coefficients b = [1, 1/2] at m = 1) realizes the cubic law up to a
        # higher-order remainder
        C = gallery.ck_matrix(1)
        dec = core.hermitian_split(C)
        x0 = np.array([1.0, 0.0], dtype=complex)
        c1 = np.linalg.norm(core.psd_sqrt(dec.R) @ (C @ x0)) ** 2 / 12.0
        taus = np.array([0.2, 0.1, 0.05, 0.025])
        vals = []
        for tau in taus:
            x_tau = x0 + 0.5 * tau * (C @ x0)
            y = core.matrix_exponential(-C, float(tau)) @ x_tau
            g = np.linalg.norm(y) ** 2 - np.linalg.norm(x_tau) ** 2
            vals.append(abs(g + 2 * c1 * tau**3))
        slopes = np.diff(np.log(vals)) / np.diff(np.log(taus))
        assert np.all(slopes >= 3.9)


class TestQuadraticFormFloor:
    def test_lambda_plus_mu_exceeds_kappa(self):
        # for index-1 operators the two first quadratic forms never vanish
        # simultaneously below the kappa level
        rng = np.random.default_rng(7)
        for C in (gallery.ck_matrix(1), gallery.ck_matrix(3), gallery.ek_matrix(2)):
            dec = core.hermitian_split(C)
            rep = hc_index.index_via_powers(dec)
            assert rep.index == 1
            n = C.shape[0]
            X = rng.standard_normal((n, 10_000)) + 1j * rng.standard_normal((n, 10_000))
            X /= np.linalg.norm(X, axis=0)
            lam = np.einsum("ij,ik,kj->j", X.conj(), dec.R, X).real
            CX = dec.C @ X
            mu = np.einsum("ij,ik,kj->j", CX.conj(), dec.R, CX).real
            assert (lam + mu).min() >= rep.kappa - 1e-9
