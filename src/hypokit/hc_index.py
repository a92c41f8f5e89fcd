"""Hypocoercivity index from one staircase reduction, cross-checked by the
coercive partial sums.

The index of an accretive C = R - J is the number of steps before the chain
of subdiagonal blocks of the staircase form of (J, R) ends (Paige 1981,
"Properties of numerical algorithms related to computing controllability").
One ``build_staircase`` call yields the index, the Kalman defect sweep (the
block dimensions) and, when the terminal block is nonzero, an eigenvector
obstruction.  The four families of partial sums sum_{j<=m} (C*)^j R C^j (and
three equivalent ones) become coercive at the same minimal m in exact
arithmetic, and their achieved coercivity constants may differ.  They share
the staircase's decision about ker R: sqrt(R) and the accretivity check come
from the eigendecomposition of R that made block 0 (``core._psd_cut``), so
they cross-check only the chain of J-steps, not the cut of R.

Each family is a Gram matrix sum_{j<=m} F_j* F_j, and its smallest
eigenvalue is the squared smallest singular value of the stacked factors.
Neither the sum (which would lose half the digits below the index) nor the
stack is formed: one n x n triangular factor with the same Gram matrix is
updated by a QR per level, O(n^3) per level instead of an SVD of the whole
(m+1) n x n stack (its floor: ``_family_search``).

The staircase's rank decisions are scale-free (``staircase`` module
docstring); the families' default threshold 1e-9 * max(||C||, 1) is not.
Under C -> sC the level values lambda_m scale like s^(2m+1) while the
threshold scales like s (or not at all below ||C|| = 1), so on a strongly
scaled input the families read another index than the staircase, or none,
and ``analyze`` reports the disagreement (exit 3), until the families
decide against a scale-free threshold.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import operator_core as core
from . import staircase
from .errors import NumericalError, PreconditionError

__all__ = [
    "METHODS",
    "IndexReport",
    "ObstructionWitness",
    "AuditReport",
    "index_via_powers",
    "kalman_kernel_defect",
    "eigenvector_obstruction",
    "equivalence_audit",
]

#: The four equivalent coercivity families.
METHODS = ("c_powers_right", "c_powers_left", "j_powers", "commutators")

#: Scale-relative default for deciding "coercive" in floating point.
DEFAULT_KAPPA_RTOL = 1e-9

#: Scale-relative residual bound of an obstruction witness.
WITNESS_RTOL = 1e-8


@dataclass
class IndexReport:
    """Outcome of an index search up to m_max.

    ``index`` is None when no partial sum reached the threshold ("none up to
    m_max"); ``kappa`` is the smallest eigenvalue achieved at the reported
    index (0.0 when no index was found).
    """

    index: int | None
    kappa: float
    method: str
    per_m_min_eigs: list[float]
    m_max: int
    kappa_threshold: float

    @property
    def found(self) -> bool:
        return self.index is not None

    def to_json_dict(self) -> dict:
        return {**asdict(self), "index": self.index if self.found else "none-up-to-m_max"}


@dataclass
class ObstructionWitness:
    """Unit vector v with J v = lambda v and R v = 0 up to the stated residuals."""

    eigenvalue: complex
    vector: np.ndarray
    residual_J: float
    residual_R: float

    def to_json_dict(self) -> dict:
        return {
            "eigenvalue": [self.eigenvalue.real, self.eigenvalue.imag],
            "vector": [[z.real, z.imag] for z in self.vector],
            "residual_J": self.residual_J,
            "residual_R": self.residual_R,
        }


def _family_setup(
    dec: core.OperatorDecomposition,
    kappa_threshold: float | None,
    m_max: int | None,
    r_cut: core._PsdCut,
) -> tuple[np.ndarray, float, int]:
    """What every power family shares: the default threshold and m_max, and
    sqrt(R) from the cut of R (which already checked that C is accretive)."""
    if kappa_threshold is None:
        kappa_threshold = DEFAULT_KAPPA_RTOL * max(core.spectral_norm(dec.C), 1.0)
    if not 0.0 < kappa_threshold < math.inf:
        raise PreconditionError(
            f"kappa_threshold must be positive and finite, got {kappa_threshold}"
        )
    if m_max is None:
        m_max = dec.dim
    if m_max < 0:
        raise PreconditionError("m_max must be nonnegative")
    return r_cut.root(), kappa_threshold, m_max


def _family_search(
    dec: core.OperatorDecomposition,
    method: str,
    S: np.ndarray,
    kappa_threshold: float,
    m_max: int,
) -> IndexReport:
    """The search of ``index_via_powers`` on prepared inputs (see ``_family_setup``).

    F_0 = S = sqrt(R); F_m = F_{m-1} X with X = C, C* or J* gives the factors
    of (C*)^j R C^j, C^j R (C*)^j and J^j R (J*)^j, and
    F_m = J F_{m-1} - F_{m-1} J those of the commutators.  Level m replaces T
    by the triangular factor of the QR of [T; F_m], so T* T = sum_{j<=m}
    F_j* F_j, and reads lambda_m = sigma_min(T)^2.  Householder QR is
    backward stable: sigma_min(T) is within delta = O((m+1) n eps ||stack||)
    of sigma_min of the stack [F_0; ...; F_m], so lambda_m is within
    delta (2 sqrt(lambda_m) + delta) <= 3 delta ||stack|| of its value, and a
    level that is singular in exact arithmetic reads at most about delta^2.
    ||stack|| grows like ||S|| ||X||^m, so this floor can pass the fixed
    threshold on long chains.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    J = dec.J
    powers = {"c_powers_right": dec.C, "c_powers_left": dec.C.conj().T, "j_powers": J.conj().T}
    X = powers.get(method)  # None for the commutators
    F, T = S, np.empty((0, dec.dim), dtype=S.dtype)
    eigs: list[float] = []
    index, kappa = None, 0.0
    for m in range(m_max + 1):
        T = np.linalg.qr(np.vstack([T, F]), mode="r")
        lam = float(np.linalg.svd(T, compute_uv=False)[-1] ** 2)
        eigs.append(lam)
        if lam >= kappa_threshold:
            index, kappa = m, lam
            break
        F = J @ F - F @ J if X is None else F @ X
    return IndexReport(
        index=index,
        kappa=kappa,
        method=method,
        per_m_min_eigs=eigs,
        m_max=m_max,
        kappa_threshold=kappa_threshold,
    )


def index_via_powers(
    dec: core.OperatorDecomposition,
    method: str = "c_powers_right",
    kappa_threshold: float | None = None,
    m_max: int | None = None,
) -> IndexReport:
    """Smallest m <= m_max whose partial sum has min-eigenvalue >= threshold.

    ``kappa_threshold`` defaults to 1e-9 * max(||C||, 1) (an exact-zero test is
    meaningless in floating point); ``m_max`` defaults to the dimension,
    beyond which the rank conditions cannot improve.  sqrt(R) is cut at the
    staircase's default rank_tol of 1e-10.
    """
    setup = _family_setup(dec, kappa_threshold, m_max, core._psd_cut(dec.R))
    return _family_search(dec, method, *setup)


def _defect_sweep(form: staircase.StaircaseForm, m_max: int) -> list[int]:
    """Kalman defects n - dim span{J^j range R : j <= m}, m = 0..m_max.

    Blocks 0..m of the staircase span that space and the terminal block is
    never reached, so the sweep is monotone and first vanishes at the index.
    """
    dims = form.block_dims
    return [sum(dims) - sum(dims[: min(m + 1, len(dims) - 1)]) for m in range(m_max + 1)]


def _terminal_witness(
    form: staircase.StaircaseForm, R, J, tol: float
) -> ObstructionWitness | None:
    """Eigenvector of J on the terminal block (J-invariant, killed by R).

    Residuals above max(tol, rank_tol) times ||J|| resp. ||R|| mean a wrong
    rank decision and raise NumericalError.
    """
    if form.terminal_dim == 0:
        return None
    T = form.block_slices()[-1]
    _, U = np.linalg.eigh(1j * form.J_hat[T, T])
    v = form.basis[:, T] @ U[:, 0]
    v = v / np.linalg.norm(v)
    lam = complex(np.vdot(v, J @ v))
    residual_J = float(np.linalg.norm(J @ v - lam * v))
    residual_R = float(np.linalg.norm(R @ v))
    bound = max(tol, form.rank_tol)
    scale_J = max(core.spectral_norm(J), 1e-300)
    scale_R = max(core.spectral_norm(R), 1e-300)
    if residual_J > bound * scale_J or residual_R > bound * scale_R:
        raise NumericalError(
            f"terminal-block witness fails its residual check "
            f"(||Jv - lambda v|| = {residual_J:.3g}, ||Rv|| = {residual_R:.3g})"
        )
    return ObstructionWitness(
        eigenvalue=lam, vector=v, residual_J=residual_J, residual_R=residual_R
    )


def kalman_kernel_defect(R, J, m: int, rank_tol: float = 1e-10) -> int:
    """Dimension of the joint kernel of sqrt(R) (J*)^j, j = 0..m.

    Read off the staircase form of (J, R): n minus the dimensions of its
    blocks 0..m.  Defect 0 means the Kalman-type spanning condition holds at
    level m.
    """
    if m < 0:
        raise PreconditionError("m must be nonnegative")
    return _defect_sweep(staircase.build_staircase(R, J, rank_tol), m)[m]


def eigenvector_obstruction(R, J) -> ObstructionWitness | None:
    """Unit eigenvector of skew-Hermitian J killed by R, or None.

    Such a vector exists iff the staircase form of (J, R) has a nonzero
    terminal block; the witness is an eigenvector of J restricted to that
    block, its residuals checked against max(WITNESS_RTOL, rank_tol) =
    1e-8.  In finite dimensions a witness exists iff the Kalman spanning
    condition fails at every level.
    """
    R, J = staircase._check_pair(R, J)
    return _terminal_witness(staircase.build_staircase(R, J), R, J, WITNESS_RTOL)


@dataclass
class AuditReport:
    """Staircase index, defect sweep and witness, and the four power families."""

    index_per_method: dict[str, int | None]
    kappa_per_method: dict[str, float]
    reports: dict[str, IndexReport] = field(repr=False)
    defect_sweep: list[int]
    obstruction: ObstructionWitness | None
    agree: bool

    def to_json_dict(self) -> dict:
        return {
            "index_per_method": {
                k: (v if v is not None else "none-up-to-m_max")
                for k, v in self.index_per_method.items()
            },
            "kappa_per_method": dict(self.kappa_per_method),
            "defect_sweep": list(self.defect_sweep),
            "obstruction": None if self.obstruction is None else self.obstruction.to_json_dict(),
            "agree": self.agree,
        }


def equivalence_audit(
    dec: core.OperatorDecomposition,
    kappa_threshold: float | None = None,
    m_max: int | None = None,
    rank_tol: float = 1e-10,
) -> AuditReport:
    """Index, defect sweep and obstruction from one staircase form, checked
    against the four power families.

    The staircase index is reported as method "staircase" (None when the
    terminal block is nonzero or the index exceeds m_max).  A disagreement
    with any power family is reported, not raised: it signals a tolerance
    problem in the inputs, and the per-method data is exactly what is needed
    to diagnose it.  Coercivity constants are allowed to differ between the
    families.
    """
    if m_max is None:
        m_max = dec.dim
    form = staircase.build_staircase(dec.R, dec.J, rank_tol)
    setup = _family_setup(dec, kappa_threshold, m_max, form.r_cut)
    reports = {method: _family_search(dec, method, *setup) for method in METHODS}
    indices = {method: rep.index for method, rep in reports.items()}
    kappas = {method: rep.kappa for method, rep in reports.items()}
    index = form.index
    indices["staircase"] = index if index is not None and index <= m_max else None
    return AuditReport(
        index_per_method=indices,
        kappa_per_method=kappas,
        reports=reports,
        defect_sweep=_defect_sweep(form, m_max),
        obstruction=_terminal_witness(form, dec.R, dec.J, WITNESS_RTOL),
        agree=len(set(indices.values())) == 1,
    )
