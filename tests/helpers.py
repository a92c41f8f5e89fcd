"""Shared test helpers: random accretive instances and the CLI command shapes."""

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
