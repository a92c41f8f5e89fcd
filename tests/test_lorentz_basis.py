"""hypokit.lorentz builds its operators in one real basis, conj(d) . d with
d_j = i^j; these tests compare it with the physical complex reference of
``helpers``.  They need numpy only."""

import math

import numpy as np
import pytest

from hypokit import lorentz
from hypokit import operator_core as core

from helpers import lorentz_reference


def phases(M):
    """d_j = i^j for j = -M..M, from the exact table (1, i, -1, -i)."""
    return np.array([1, 1j, -1, -1j])[np.arange(-M, M + 1) % 4]


def physical_weight(n, alpha, M):
    """The Lyapunov weight in the physical basis: I plus -i alpha/n at
    (j=0, j=1) and its conjugate at (j=1, j=0)."""
    Y = np.eye(2 * M + 1, dtype=complex)
    Y[M, M + 1] = -1j * alpha / n
    Y[M + 1, M] = 1j * alpha / n
    return Y


@pytest.mark.parametrize("M", [1, 8, 40])
@pytest.mark.parametrize("n", [1.0, 2.5, math.sqrt(5.0)])
def test_generator_is_the_physical_one_in_the_real_basis(n, M):
    R, J10 = lorentz_reference(M)
    d = phases(M)
    ref = d.conj()[:, None] * (R - n * J10) * d
    C = lorentz.modal_generator(n, M)
    assert C.dtype == np.float64
    assert np.all(ref.imag == 0.0)
    assert np.all(C == ref)


@pytest.mark.parametrize("M", [2, 8, 64])
def test_lyapunov_margin_matches_the_physical_form(M):
    R, J10 = lorentz_reference(M)
    d = phases(M)
    for n in range(1, 6):
        Y = physical_weight(n, lorentz.ALPHA, M)
        assert np.all(lorentz.lyapunov_weight(n, M) == d.conj()[:, None] * Y * d)
        C = R - n * J10
        S = C.conj().T @ Y + Y @ C - 2.0 * lorentz.LAMBDA0 * Y
        ref = np.linalg.eigvalsh(S)[0]
        assert abs(lorentz.lyapunov_margin(n, M) - ref) <= 1e-13


def test_curve_at_time_zero_returns_the_field_bit_for_bit():
    field = lorentz.LorentzField.random(np.random.default_rng(5), 2, 7)
    out, (rep,) = lorentz.simulate_curve(field, [0.0])
    assert out.coeffs.tobytes() == field.coeffs.tobytes()
    assert rep.distance == field.distance_to_equilibrium()


def test_simulate_matches_the_physical_modewise_evolution():
    N, M, t = 2, 6, 1.3
    field = lorentz.LorentzField.random(np.random.default_rng(6), N, M)
    out, rep = lorentz.simulate(field, t)
    R, J10 = lorentz_reference(M)
    for n1 in range(-N, N + 1):
        for n2 in range(-N, N + 1):
            P = core.matrix_exponential(-(R - math.hypot(n1, n2) * J10), t)
            ref = P @ field.coeffs[n1 + N, n2 + N]
            np.testing.assert_allclose(out.coeffs[n1 + N, n2 + N], ref, rtol=0, atol=1e-12)
    # the report is that of the returned field, bit for bit
    assert out.mass == field.mass
    assert rep.distance == out.distance_to_equilibrium()



@pytest.mark.parametrize("mode", [(0, 1), (-1, 0), (1, 1), (-1, 1)])
def test_final_field_is_in_the_frame_of_each_mode(mode):
    # simulate_curve steps the lattice mode at angle phi = atan2(n2, n1) with
    # the phi = 0 generator of its magnitude.  The physical generator is
    # R - |n| E J10 E* with E = diag(e^(-i j phi)), so the physical evolution
    # is E P_0(t) E* c(0): hypokit's evolution of E* c(0), rotated back by E.
    N, M, t = 1, 6, 0.7
    n1, n2 = mode
    phi = math.atan2(n2, n1)
    E = np.exp(-1j * np.arange(-M, M + 1) * phi)
    R, J10 = lorentz_reference(M)
    P = core.matrix_exponential(-(R - math.hypot(n1, n2) * (E[:, None] * J10 * E.conj())), t)
    field = lorentz.LorentzField.random(np.random.default_rng(8), N, M)
    c0 = field.coeffs[n1 + N, n2 + N]
    rotated = field.copy()
    rotated.coeffs[n1 + N, n2 + N] = E.conj() * c0
    out, _ = lorentz.simulate(rotated, t)
    np.testing.assert_allclose(E * out.coeffs[n1 + N, n2 + N], P @ c0, rtol=0, atol=1e-12)
    # the unrotated answer is not the physical one at these angles; the
    # propagator norm is, as E is diagonal and unitary
    plain, _ = lorentz.simulate(field, t)
    assert np.linalg.norm(plain.coeffs[n1 + N, n2 + N] - P @ c0) > 0.5
    P0 = core.matrix_exponential(-lorentz.modal_generator(math.hypot(n1, n2), M), t)
    assert core.spectral_norm(P) == pytest.approx(core.spectral_norm(P0), rel=1e-13)

def mixing_block(M):
    """The even block A of K^T R K, the matrix of the mixing dual."""
    return lorentz._even_form(M, lambda R, K: K.T @ R @ K)


def mixing_dual(M, delta, mu):
    """lambda_min(A + mu (R_e - delta I)) by a full eigenvalue evaluation."""
    shift = lorentz._even_blocks(M)[0] - delta * np.eye(M + 1)
    return np.linalg.eigvalsh(mixing_block(M) + mu * shift)[0]


@pytest.mark.parametrize("delta", [0.01, 0.0763932, 0.3, 0.6, 0.95])
def test_mixing_infimum_at_m1_is_exact(delta):
    # A = diag(1/2, 1/4): the dual mu (1 - delta) + min(1/2 - mu, 1/4) peaks
    # at the kink mu = 1/4
    assert lorentz._mixing_multiplier(mixing_block(1), delta)[0] == pytest.approx(0.25, rel=1e-14)
    got = lorentz.constrained_mixing_infimum(1, delta)
    assert got == pytest.approx(math.sqrt(0.5 - delta / 4.0), rel=1e-15)


@pytest.mark.parametrize("M, delta", [(2, 0.3), (8, 0.6), (96, 0.0763932), (96, 0.95), (128, 0.3)])
def test_interior_optimum_has_the_constrained_e0_weight(M, delta):
    # at an interior optimum the supergradient (1 - delta) - x_0^2 vanishes
    mu, _ = lorentz._mixing_multiplier(mixing_block(M), delta)
    shift = lorentz._even_blocks(M)[0] - delta * np.eye(M + 1)
    w, V = np.linalg.eigh(mixing_block(M) + mu * shift)
    assert mu > 1e-3
    assert abs(V[0, 0] ** 2 - (1.0 - delta)) <= 1e-12
    assert lorentz.constrained_mixing_infimum(M, delta) == pytest.approx(math.sqrt(w[0]), rel=1e-14)


def test_kink_optimum():
    # M = 3: A's smallest eigenvector has no e_0 part, so the dual is the
    # line a_1 + mu (1 - delta) up to the kink where the secular branch
    # starts, and at delta = 0.6 the branch falls from there on
    M, delta = 3, 0.6
    a, V = np.linalg.eigh(mixing_block(M))
    assert abs(V[0, 0]) <= 1e-15
    kink = 1.0 / np.sum(V[0, 1:] ** 2 / (a[1:] - a[0]))
    mu, _ = lorentz._mixing_multiplier(mixing_block(M), delta)
    assert mu == pytest.approx(kink, rel=1e-12)
    peak = a[0] + mu * (1.0 - delta)
    got = lorentz.constrained_mixing_infimum(M, delta)
    assert got == pytest.approx(math.sqrt(peak), rel=1e-14)
    h = 1e-6 * mu
    left, right = mixing_dual(M, delta, mu - h), mixing_dual(M, delta, mu + h)
    assert (peak - left) / h == pytest.approx(1.0 - delta, rel=1e-6)
    assert right < peak and left < peak


def test_optimum_at_zero():
    # M = 2 at delta = 0.6: x_0^2 of A's smallest eigenvector is 1/2 >= 1 - delta,
    # so the dual falls from mu = 0 and the value is sqrt(lambda_min(A))
    M, delta = 2, 0.6
    mu, _ = lorentz._mixing_multiplier(mixing_block(M), delta)
    assert 0.0 <= mu <= 1e-14
    assert mixing_dual(M, delta, 1e-6) < mixing_dual(M, delta, 0.0)
    got = lorentz.constrained_mixing_infimum(M, delta)
    assert got == math.sqrt(np.linalg.eigvalsh(mixing_block(M))[0])
    assert got == pytest.approx(math.sin(math.pi / 8.0), rel=1e-15)


#: sigma_inf at (M, delta) from the Brent search (scipy's bounded method,
#: xatol = 1e-10) that the secular-equation solver replaced, for delta in
#: MIXING_DELTAS.  Brent stops short at kink optima, so the new values may
#: lie above these, by up to 1.1e-9 relative at M = 1.
MIXING_DELTAS = (0.01, 0.0763932, 0.3, 0.6, 0.95)
BRENT_MIXING_INFIMA = {
    1: (0.7053367989648747, 0.6934707635483579, 0.6519202403115897, 0.5916079776776857, 0.5123475382690352),
    2: (0.6554721684424508, 0.5587252558859024, 0.4194793976819446, 0.38268343236508984, 0.38268343236508984),
    3: (0.6554721684424508, 0.5587252558859024, 0.4194793976819446, 0.36563383847171393, 0.31664819257543597),
    8: (0.6553367990002801, 0.5552743624866835, 0.3782161836444874, 0.21201534175533138, 0.1564344650402311),
    16: (0.6553367989832943, 0.5552741645337411, 0.37805911239074125, 0.20452289889143369, 0.08715574274765867),
    33: (0.6553367989832943, 0.5552741645332487, 0.3780589617678236, 0.20430988088212276, 0.04597277076864123),
    40: (0.6553367989832943, 0.5552741645332487, 0.378058961767682, 0.2043096516903514, 0.037437169870296695),
    96: (0.6553367989832943, 0.5552741645332487, 0.3780589617676819, 0.20430964368922008, 0.025435264641680794),
    97: (0.6553367989832943, 0.5552741645332487, 0.3780589617676819, 0.2043096436892201, 0.025435264641669758),
    128: (0.6553367989832943, 0.5552741645332487, 0.3780589617676819, 0.20430964368922497, 0.025086403449481022),
}


@pytest.mark.parametrize("M", sorted(BRENT_MIXING_INFIMA))
def test_mixing_infimum_never_below_the_brent_values(M):
    for delta, ref in zip(MIXING_DELTAS, BRENT_MIXING_INFIMA[M]):
        assert lorentz.constrained_mixing_infimum(M, delta) >= ref * (1.0 - 1e-12), delta
