"""Hypocoercivity index from one staircase reduction, confirmed by each
coercive partial-sum family at that one level.

The index of an accretive C = R - J is the number of steps before the chain
of subdiagonal blocks of the staircase form of (J, R) ends (Paige 1981,
"Properties of numerical algorithms related to computing controllability").
One ``build_staircase`` call yields the index m, the Kalman defect sweep (the
block dimensions) and, when the terminal block is nonzero, an eigenvector
obstruction; with no index that witness decides, and the families read
"none" without being evaluated.

The four families of partial sums sum_{j<=m} (C*)^j R C^j (and three
equivalent ones) become coercive at the same minimal m in exact arithmetic,
so each family confirms the staircase's m at that one level: singular at
m - 1, coercive at m.  Their factors come from the cut of R that made
block 0 (``core._psd_cut``), so they cross-check the chain of J-steps, not
the cut of R.  A level is a Gram matrix sum_{j<=m} F_j* F_j whose smallest
eigenvalue lambda_m is sigma_min^2 of the stack [F_0; ...; F_m], never read
from the sum, which would lose half the digits.  Every family vanishes on
the Kalman kernel, of dimension at least n - (m+1) r for a cut of R of rank
r, so a level below the counting bound m0 = ceil(n / r) - 1 reads exactly
0.0 with no SVD (and m >= m0).

The decision is scale-free: the power families take F_0 = S / ||S|| with
S = diag(sqrt(w)) V_r*, the r x n factor of the kept eigenpairs of R, and
F_j = F_{j-1} X / ||X|| for X = C, C* or J*; the commutators take
F_0 = sqrt(R) / ||sqrt(R)|| and F_j = [X, F_{j-1}] with X = J / ||J||.

One kernel, ``_level``, reads every level.  It sorts the rows of the stack
by decreasing norm and takes one Householder QR, which is then row-wise
backward stable (Cox and Higham 1998, "Stability of Householder QR
factorization for weighted least squares problems"), and the singular
values s of the n x n factor T.  A singular stack leaves sigma_min of order
eps sqrt(n) ||stack||, and ||T|| = ||stack||, so the roundoff of the
stack's own level is

    floor = eps^2 n s_max^2,

and every decision is value >= 10 floor.  A family reads "inconclusive"
when lambda_{m-1} >= 10 floor_m (coercive below the staircase's index;
level m's floor bounds that of its sub-stack), else m ("resolved") when
lambda_m >= 10 floor_m, else "unresolved": level m is lost in the roundoff
of the power basis (E_40), which says nothing against m.

A family's coercivity constant kappa_m is lambda_m of its unnormalized
factors (S and X, or sqrt(R) and J), as in the paper; it decides nothing.
The same kernel reads it, and a kappa_m below 10 times its own floor is
reported as None: on 1e-12 E_8 every family resolves m = 7, but kappa_7,
about 1e-180, reads 0.0 against a floor of about 4e-43.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

#: Scale-relative residual bound of an obstruction witness.
WITNESS_RTOL = 1e-8


@dataclass
class IndexReport:
    """One family's check of the staircase index m = ``level`` (module
    docstring): its ``verdict``, the normalized levels m - 1 and m that
    ``floor`` decided and kappa_m, None where its own stack cannot resolve
    it.  With no index, the verdict is "none", the levels and the floor are
    None and kappa is 0.0."""

    method: str
    verdict: str
    level: int | None
    lambda_prev: float | None
    lambda_m: float | None
    floor: float | None
    kappa: float | None
    rank_bound: int

    @property
    def index(self) -> int | str:
        """The family's reading: m when resolved, else its verdict."""
        return self.level if self.verdict == "resolved" else self.verdict

    def to_json_dict(self) -> dict:
        return {"verdict": self.verdict, "lambda_prev": self.lambda_prev,
                "lambda": self.lambda_m, "floor": self.floor}


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


def _level(blocks: list[np.ndarray]) -> tuple[float, float]:
    """(lambda, floor) of the stack [F_0; ...; F_m]: sigma_min^2 of one QR of
    its rows sorted by decreasing norm, and its roundoff eps^2 n sigma_max^2
    (module docstring)."""
    A = np.vstack(blocks)
    A = A[np.argsort(-np.linalg.norm(A, axis=1), kind="stable")]
    s = np.linalg.svd(np.linalg.qr(A, mode="r"), compute_uv=False)
    return float(s[-1] ** 2), float(np.finfo(float).eps ** 2 * A.shape[1] * s[0] ** 2)


def _family_checks(
    dec: core.OperatorDecomposition, form: staircase.StaircaseForm, methods=METHODS
) -> dict[str, IndexReport]:
    """Each family's check of ``form.index`` (module docstring)."""
    cut, n, m = form.r_cut, dec.dim, form.index
    r = cut.rank
    m0 = -(-n // r) - 1 if r else n + 1  # r = 0 has no index
    if m is None:
        return {method: IndexReport(method, "none", None, None, None, None, 0.0, m0)
                for method in methods}
    top = float(np.sqrt(cut.w[-1]))
    S = (cut.V[:, n - r:] * np.sqrt(cut.w[n - r:] / cut.w[-1])).conj().T  # r x n, norm 1
    C, J = dec.C, dec.J
    norm_C, norm_J = (max(v, 1e-300) for v in core.spectral_norm(np.stack([C, J])))
    factors = {
        "c_powers_right": (S, C, norm_C),
        "c_powers_left": (S, C.conj().T, norm_C),
        "j_powers": (S, J.conj().T, norm_J),
        "commutators": (cut.root() / top, J, norm_J),
    }
    reports = {}
    for method in methods:
        F, X, norm_X = factors[method]
        X = X / norm_X
        blocks = [F]
        for _ in range(m):
            F = X @ F - F @ X if method == "commutators" else F @ X
            blocks.append(F)
        lam, floor = _level(blocks)
        prev = _level(blocks[:-1])[0] if m - 1 >= m0 else 0.0
        verdict = ("inconclusive" if prev >= 10.0 * floor
                   else "resolved" if lam >= 10.0 * floor else "unresolved")
        # the paper's factors: block j times top * ||X||^j
        kappa, kappa_floor = _level([F * (top * norm_X**j) for j, F in enumerate(blocks)])
        if kappa < 10.0 * kappa_floor:
            kappa = None
        reports[method] = IndexReport(method, verdict, m, prev, lam, floor, kappa, m0)
    return reports


def index_via_powers(dec: core.OperatorDecomposition, method: str = "c_powers_right") -> IndexReport:
    """The staircase index of C, checked by one family (module docstring).

    The staircase and sqrt(R) are cut at ``core.RANK_RTOL``.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    form = staircase.build_staircase(dec.R, dec.J)
    return _family_checks(dec, form, (method,))[method]


def _defect_sweep(form: staircase.StaircaseForm) -> list[int]:
    """Kalman defects n - dim span{J^j range R : j <= m}, one per non-terminal
    block m of the staircase (blocks 0..m span that space).

    The sweep is decreasing; it ends at 0 at the index, or at the terminal
    dimension, which every later level keeps, when there is no index.
    """
    dims = form.block_dims
    return [sum(dims[m + 1 :]) for m in range(len(dims) - 1)]


def _terminal_witness(form: staircase.StaircaseForm, R, J) -> ObstructionWitness | None:
    """Eigenvector of J on the terminal block (J-invariant, killed by R).

    Residuals above ``WITNESS_RTOL`` times ||J|| resp. ||R|| mean a wrong
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
    scale_J = max(core.spectral_norm(J), 1e-300)
    scale_R = max(core.spectral_norm(R), 1e-300)
    if residual_J > WITNESS_RTOL * scale_J or residual_R > WITNESS_RTOL * scale_R:
        raise NumericalError(
            f"terminal-block witness fails its residual check "
            f"(||Jv - lambda v|| = {residual_J:.3g}, ||Rv|| = {residual_R:.3g})"
        )
    return ObstructionWitness(
        eigenvalue=lam, vector=v, residual_J=residual_J, residual_R=residual_R
    )


def kalman_kernel_defect(R, J, m: int) -> int:
    """Dimension of the joint kernel of sqrt(R) (J*)^j, j = 0..m.

    Read off the staircase form of (J, R): n minus the dimensions of its
    blocks 0..m.  Defect 0 means the Kalman-type spanning condition holds at
    level m.
    """
    if m < 0:
        raise PreconditionError("m must be nonnegative")
    dims = staircase.build_staircase(R, J).block_dims
    return sum(dims[min(m + 1, len(dims) - 1) :])


def eigenvector_obstruction(R, J) -> ObstructionWitness | None:
    """Unit eigenvector of skew-Hermitian J killed by R, or None.

    Such a vector exists iff the staircase form of (J, R) has a nonzero
    terminal block; the witness is an eigenvector of J restricted to that
    block, its residuals checked against ``WITNESS_RTOL`` = 1e-8.  In finite
    dimensions a witness exists iff the Kalman spanning condition fails at
    every level.
    """
    R, J = staircase._check_pair(R, J)
    return _terminal_witness(staircase.build_staircase(R, J), R, J)


@dataclass
class AuditReport:
    """Staircase index (None when there is none) and each family's reading,
    defect sweep, witness, warnings and the counting bound; ``agree`` means
    that no family reads "inconclusive"."""

    index_per_method: dict[str, int | str | None]
    kappa_per_method: dict[str, float | None]
    reports: dict[str, IndexReport] = field(repr=False)
    defect_sweep: list[int]
    obstruction: ObstructionWitness | None
    agree: bool
    rank_bound: int
    warnings: list[str]

    def to_json_dict(self) -> dict:
        return {
            "index_per_method": {
                k: (v if v is not None else "none") for k, v in self.index_per_method.items()
            },
            "kappa_per_method": dict(self.kappa_per_method),
            "family_checks": {k: rep.to_json_dict() for k, rep in self.reports.items()},
            "defect_sweep": list(self.defect_sweep),
            "obstruction": None if self.obstruction is None else self.obstruction.to_json_dict(),
            "agree": self.agree,
            "rank_bound": self.rank_bound,
            "staircase_warnings": list(self.warnings),
        }


def equivalence_audit(dec: core.OperatorDecomposition) -> AuditReport:
    """Index, defect sweep, obstruction and warnings from one staircase form
    (the index as method "staircase"), and the four families' checks of that
    index (module docstring).  An "inconclusive" family is reported, not
    raised: its values and floor are what is needed to diagnose it."""
    form = staircase.build_staircase(dec.R, dec.J)
    reports = _family_checks(dec, form)
    return AuditReport(
        index_per_method={**{k: rep.index for k, rep in reports.items()}, "staircase": form.index},
        kappa_per_method={method: rep.kappa for method, rep in reports.items()},
        reports=reports,
        defect_sweep=_defect_sweep(form),
        obstruction=_terminal_witness(form, dec.R, dec.J),
        agree=all(rep.verdict != "inconclusive" for rep in reports.values()),
        rank_bound=reports[METHODS[0]].rank_bound,
        warnings=list(form.warnings),
    )
