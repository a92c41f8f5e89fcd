"""Shared test helpers: random accretive instances, planted staircase and
obstruction pairs, a pair whose weak coupling the rank cut drops, the
benchmark's planted pairs, the CLI command shapes, the physical Lorentz
velocity matrices and the closed forms of the 2x2 family ``ck``."""

import importlib.util
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from hypokit import operator_core as core

#: Every command that evaluates a propagator, a modal norm or a constant;
#: ``{ck2}`` stands for the path of a JSON file holding ``ck_matrix(2)``.
CLI_COMMANDS = [
    ["lorentz", "verify", "--N", "2", "--M", "8", "--M-constants", "32", "--steps", "6"],
    ["lorentz", "simulate", "--random", "--N", "2", "--M", "8"],
    ["lorentz", "constants", "--M", "32"],
    ["analyze", "--input", "{ck2}"],
    ["decay", "--input", "{ck2}"],
    ["gallery", "--name", "ek_rescaled", "--blocks", "2"],
]


def random_accretive(rng: np.random.Generator, n: int) -> core.OperatorDecomposition:
    """Random accretive test instance: R = G*G (rank-deficient with probability
    1/2), J skew.

    Rank deficiency is injected by zeroing a random number of eigenvalues of
    R, which spans both the generic and the degenerate branches of the index
    theory.
    """
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    R = G.conj().T @ G / n
    if rng.random() < 0.5:
        w, V = np.linalg.eigh(R)
        k = int(rng.integers(1, n))
        w[:k] = 0.0
        R = (V * w) @ V.conj().T
        R = (R + R.conj().T) / 2.0
    S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    J = (S - S.conj().T) / 2.0
    return core.OperatorDecomposition(C=R - J, R=R, J=J)


def random_unitary(rng, n):
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, T = np.linalg.qr(Z)
    return Q * (np.diag(T) / np.abs(np.diag(T)))


def planted_staircase_pair(rng, dims):
    """(R, J) in staircase form with block sizes ``dims``, in a random basis.

    R is definite on the first block; J is block tridiagonal with generic
    subdiagonal blocks, of full row rank when ``dims`` does not increase, so
    the index is then len(dims) - 1.
    """
    n = sum(dims)
    edges = np.concatenate([[0], np.cumsum(dims)])
    sl = [slice(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:])]
    R = np.zeros((n, n), dtype=complex)
    G = rng.standard_normal((dims[0], dims[0])) + 1j * rng.standard_normal((dims[0], dims[0]))
    R[sl[0], sl[0]] = G @ G.conj().T / dims[0] + np.eye(dims[0])
    S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    J = np.zeros((n, n), dtype=complex)
    for i in range(len(dims)):
        J[sl[i], sl[i]] = (S[sl[i], sl[i]] - S[sl[i], sl[i]].conj().T) / 2
        if i + 1 < len(dims):
            J[sl[i + 1], sl[i]] = S[sl[i + 1], sl[i]]
            J[sl[i], sl[i + 1]] = -S[sl[i + 1], sl[i]].conj().T
    U = random_unitary(rng, n)
    R, J = U @ R @ U.conj().T, U @ J @ U.conj().T
    return (R + R.conj().T) / 2, (J - J.conj().T) / 2


def forced_obstruction_pair(rng, n):
    """PSD R and skew J such that some eigenvector of J lies in ker R."""
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    R = G.conj().T @ G / n
    S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    J = (S - S.conj().T) / 2
    _, V = np.linalg.eigh(1j * J)
    v = V[:, 0]
    P = np.eye(n) - np.outer(v, v.conj())
    R = P @ R @ P.conj().T
    return (R + R.conj().T) / 2, J


def dropped_coupling_pair() -> np.ndarray:
    """C = R - J with R = diag(1, 1, 0, 0) and J coupling e0 -> e2 at 1,
    e1 -> e3 at 1e-12 and e2 -> e3 at 1.  The index is 1, but the rank cut
    (1e-10 ||J||, with ||J|| = sqrt(2)) drops the weak coupling, so the
    staircase reads 2 while every family is coercive at level 1."""
    J = np.zeros((4, 4))
    J[2, 0], J[3, 1], J[3, 2] = 1.0, 1e-12, 1.0
    return np.diag([1.0, 1.0, 0.0, 0.0]) - (J - J.T)


def bench_planted_pair(seed: int, stream: int, n: int, block: int) -> np.ndarray:
    """A planted pair of the benchmark's index-audit workloads
    (perfbench/workloads.py, numpy only): ``index-audit`` draws (60, 12) from
    stream 0, ``index-audit-known-wrong`` (50, 7) and (100, 11) from streams
    0 and 1."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(workloads)
    return workloads.planted_pair(workloads._rng(seed, stream), n, block)[0]


def lorentz_reference(M: int) -> tuple[np.ndarray, np.ndarray]:
    """The physical (complex) Lorentz velocity matrices at cutoff M, indices
    j = -M..M: the collision projection complement R = diag(1 - delta_j0) and
    the unit transport J10 with -i/2 off the diagonal.

    ``hypokit.lorentz`` builds everything in the real basis conj(d) . d with
    d_j = i^j; these are the reference it is compared against.
    """
    dim = 2 * M + 1
    R = np.eye(dim, dtype=complex)
    R[M, M] = 0.0
    J10 = np.zeros((dim, dim), dtype=complex)
    for i in range(dim - 1):
        J10[i, i + 1] = -0.5j
        J10[i + 1, i] = -0.5j
    return R, J10


def ck_closed_form_norm(k: int, t):
    """Exact propagator norm of ``gallery.ck_matrix(k)``: sqrt(e^-t m_+(t)).

    m_+ is the larger eigenvalue of e^t P(t)*P(t), written through
    delta = sqrt(4k^2 - 1) and alpha = 1/(2k); the two eigenvalue branches
    touch periodically, which is where the norm has its kinks.
    """
    t = np.asarray(t, dtype=float)
    delta = math.sqrt(4.0 * k * k - 1.0)
    alpha = 1.0 / (2.0 * k)
    A = (1.0 - alpha**2 * np.cos(delta * t)) / (1.0 - alpha**2)
    m_plus = np.sqrt(np.maximum(A * A - 1.0, 0.0)) + A
    out = np.sqrt(np.exp(-t) * m_plus)
    return float(out) if out.ndim == 0 else out


def ck_short_time_constant_exact(k: int) -> Fraction:
    """Exact rational short-time constant of ``gallery.ck_matrix(k)``.

    The kernel of the Hermitian part is spanned by the first basis vector,
    so the constrained minimum is a single rational quadratic form; the
    normalization is 3! * binom(2,1) = 12.
    """
    C = [[Fraction(0), Fraction(k)], [Fraction(-k), Fraction(1)]]
    x = [Fraction(1), Fraction(0)]  # spans ker of the Hermitian part diag(0, 1)
    v = [C[0][0] * x[0] + C[0][1] * x[1], C[1][0] * x[0] + C[1][1] * x[1]]
    quad = v[1] * v[1]  # <v, diag(0,1) v>
    return quad / (math.factorial(3) * math.comb(2, 1))
