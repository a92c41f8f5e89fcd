"""Shared test helpers: random accretive instances, the benchmark's planted
pairs, the CLI command shapes and the physical Lorentz velocity matrices."""

import importlib.util
import sys
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
