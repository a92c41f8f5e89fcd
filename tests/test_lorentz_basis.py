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
        Y = physical_weight(n, 0.5, M)
        assert np.all(lorentz.lyapunov_weight(n, 0.5, M) == d.conj()[:, None] * Y * d)
        C = R - n * J10
        S = C.conj().T @ Y + Y @ C - 2.0 * lorentz.LAMBDA0 * Y
        ref = np.linalg.eigvalsh(S)[0]
        assert abs(lorentz.lyapunov_margin(n, 0.5, M) - ref) <= 1e-13


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
