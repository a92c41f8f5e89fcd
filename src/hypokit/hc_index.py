"""Hypocoercivity index from one staircase reduction, confirmed by each
coercive partial-sum family at that one level.

The index of an accretive C = R - J is the number of steps before the chain
of subdiagonal blocks of the staircase form of (J, R) ends (Paige 1981,
"Properties of numerical algorithms related to computing controllability").
Every reading takes the one form of the record, ``dec.form``: the index m,
the Kalman defects (``kalman_kernel_defect``, from the block dimensions) and,
when the terminal block is nonzero, an ``eigenvector_obstruction``; with no
index that witness decides, and the families read "none" unevaluated.

The four families of partial sums sum_{j<=m} (C*)^j R C^j (and three
equivalent ones) become coercive at the same minimal m in exact arithmetic,
so each family confirms the staircase's m at that one level
(``index_via_powers``): singular at m - 1, coercive at m.  Their factors come
from the cut of R that made block 0 (``core._psd_cut``), so they cross-check the chain of J-steps, not
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
The same kernel reads it and its own floor, reported as ``kappa_floor``,
and a kappa_m below 10 times that floor is reported as None: on 1e-12 E_8
every family resolves m = 7, but kappa_7, about 1e-180, reads 0.0 against
a floor of about 4e-43.  Both are None where that floor is not a positive
finite double: the weights or their squares leave double range.
"""

from __future__ import annotations

import math
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
    it, with the floor of its unnormalized stack, ``kappa_floor``.  With no
    index, the verdict is "none", the levels and both floors are None and
    kappa is 0.0."""

    method: str
    verdict: str
    level: int | None
    lambda_prev: float | None
    lambda_m: float | None
    floor: float | None
    kappa: float | None
    kappa_floor: float | None
    rank_bound: int

    @property
    def index(self) -> int | str:
        """The family's reading: m when resolved, else its verdict."""
        return self.level if self.verdict == "resolved" else self.verdict

    def to_json_dict(self) -> dict:
        return {"verdict": self.verdict, "lambda_prev": self.lambda_prev,
                "lambda": self.lambda_m, "floor": self.floor, "kappa_floor": self.kappa_floor}


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


def index_via_powers(dec: core.OperatorDecomposition, method: str = "c_powers_right") -> IndexReport:
    """One family's check of the index of ``dec.form`` (module docstring);
    sqrt(R) is the form's cut of R, at ``core.RANK_RTOL``."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    form, n = dec.form, dec.dim
    cut, m, r = form.r_cut, form.index, form.r_cut.rank
    m0 = -(-n // r) - 1 if r else n + 1  # r = 0 has no index
    if m is None:
        return IndexReport(method, "none", None, None, None, None, 0.0, None, m0)
    top = float(np.sqrt(cut.w[-1]))
    X = {"c_powers_right": dec.C, "c_powers_left": dec.C.conj().T,
         "j_powers": dec.J.conj().T, "commutators": dec.J}[method]
    norm_X = form.norm_J if method in ("j_powers", "commutators") else max(dec.norm, 1e-300)
    F = (cut.root() / top if method == "commutators"  # else r x n, norm 1
         else (cut.V[:, n - r:] * np.sqrt(cut.w[n - r:] / cut.w[-1])).conj().T)
    X = X / norm_X
    blocks = [F]
    for _ in range(m):
        F = X @ F - F @ X if method == "commutators" else F @ X
        blocks.append(F)
    lam, floor = _level(blocks)
    prev = _level(blocks[:-1])[0] if m - 1 >= m0 else 0.0
    verdict = ("inconclusive" if prev >= 10.0 * floor
               else "resolved" if lam >= 10.0 * floor else "unresolved")
    # the paper's factors: block j times top * ||X||^j.  Where the weights
    # (inf, not an OverflowError) or their squares leave double range, kappa
    # and its floor are None
    with np.errstate(over="ignore", invalid="ignore"):
        weighted = [F * (top * np.float64(norm_X) ** j) for j, F in enumerate(blocks)]
        finite = all(np.isfinite(B).all() for B in weighted)
        kappa, kappa_floor = _level(weighted) if finite else (0.0, math.inf)
    if not 0.0 < kappa_floor < math.inf:
        kappa = kappa_floor = None
    elif kappa < 10.0 * kappa_floor:
        kappa = None
    return IndexReport(method, verdict, m, prev, lam, floor, kappa, kappa_floor, m0)


def kalman_kernel_defect(dec: core.OperatorDecomposition, m: int) -> int:
    """Dimension of the joint kernel of sqrt(R) (J*)^j, j = 0..m: n minus the
    dimensions of blocks 0..m of ``dec.form``.  It decreases to 0 at the index
    (the Kalman-type spanning condition holds), or else to the terminal
    dimension, which every later level keeps."""
    if m < 0:
        raise PreconditionError("m must be nonnegative")
    dims = dec.form.block_dims
    return sum(dims[min(m, len(dims) - 2) + 1 :])


def eigenvector_obstruction(dec: core.OperatorDecomposition) -> ObstructionWitness | None:
    """Unit eigenvector of skew J killed by R, or None: one exists iff the Kalman
    spanning condition fails at every level, iff ``dec.form`` has a nonzero
    terminal block, on which J's eigenvector is taken.  Residuals above
    ``WITNESS_RTOL`` = 1e-8 times ||J|| resp. ||R||, the scales the form
    carries, mean a wrong rank decision and raise NumericalError."""
    form, R, J = dec.form, dec.R, dec.J
    if form.terminal_dim == 0:
        return None
    T = form.block_slices()[-1]
    _, U = np.linalg.eigh(1j * form.J_hat[T, T])
    v = form.basis[:, T] @ U[:, 0]
    v = v / np.linalg.norm(v)
    lam = complex(np.vdot(v, J @ v))
    residual_J = float(np.linalg.norm(J @ v - lam * v))
    residual_R = float(np.linalg.norm(R @ v))
    if residual_J > WITNESS_RTOL * form.norm_J or residual_R > WITNESS_RTOL * form.r_cut.norm:
        raise NumericalError(
            f"terminal-block witness fails its residual check "
            f"(||Jv - lambda v|| = {residual_J:.3g}, ||Rv|| = {residual_R:.3g})"
        )
    return ObstructionWitness(
        eigenvalue=lam, vector=v, residual_J=residual_J, residual_R=residual_R
    )


def _short_time_law(form: staircase.StaircaseForm) -> dict:
    """{m, exponent: 2m + 1, c, reason} of ||exp(-C t)|| = 1 - c t^(2m+1) + ...
    at the index m.  Block m is the kernel of sqrt(R) C^j, j < m, which m
    steps of the form take to block 0 only through the couplings J_hat_(i,i+1):
    c = sigma_min(sqrt(W) J_hat_01 ... J_hat_(m-1,m))^2 / ((2m+1)! binom(2m, m)),
    W the kept eigenvalues of R, largest first as in block 0.  Powers of 2 scale
    each factor and one ``ldexp`` undoes them: c of 2^k C is bitwise 2^(k(2m+1)) c
    where the form scales bitwise; c is None unless normal (frexp exponent -1021..1024)."""
    m, cut, blocks = form.index, form.r_cut, form.block_slices()
    a, b = (math.frexp(x)[1] - 1 for x in (cut.norm, form.norm_J))
    P, e = np.diag(np.sqrt(cut.w[cut.w.size - cut.rank:][::-1] / 2.0**a)), a + 2 * m * b
    for i in range(m):
        P = P @ (form.J_hat[blocks[i], blocks[i + 1]] / 2.0**b)
        unit = math.frexp(float(np.abs(P).max()))[1] - 1
        P, e = P / 2.0**unit, e + 2 * unit
    s, s_exp = math.frexp(float(np.linalg.svd(P, compute_uv=False)[-1]))
    N = math.factorial(2 * m + 1) * math.comb(2 * m, m)
    frac, e = s * s / (N / 2 ** (N.bit_length() - 1)), e + 2 * s_exp - N.bit_length() + 1
    c = math.ldexp(frac, e) if frac and -1021 <= math.frexp(frac)[1] + e <= 1024 else None
    reason = None if c else f"c = {frac:.6g} * 2^{e} is not a positive normal double"
    return {"m": m, "exponent": 2 * m + 1, "c": c, "reason": reason}


@dataclass
class AuditReport:
    """Staircase index (None when there is none) and each family's reading,
    defect sweep, witness, warnings, counting bound and short-time law;
    ``agree`` means that no family reads "inconclusive"."""

    index_per_method: dict[str, int | str | None]
    kappa_per_method: dict[str, float | None]
    reports: dict[str, IndexReport] = field(repr=False)
    defect_sweep: list[int]
    obstruction: ObstructionWitness | None
    agree: bool
    rank_bound: int
    warnings: list[str]
    short_time_law: dict | None

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
    """Index, defect sweep, obstruction, warnings and short-time law from one
    staircase form (the index as method "staircase"), and the four families'
    checks of that index (module docstring).  An "inconclusive" family is
    reported, not raised: its values and floor are what is needed to diagnose it."""
    form = dec.form
    reports = {method: index_via_powers(dec, method) for method in METHODS}
    return AuditReport(
        index_per_method={**{k: rep.index for k, rep in reports.items()}, "staircase": form.index},
        kappa_per_method={method: rep.kappa for method, rep in reports.items()},
        reports=reports,
        defect_sweep=[kalman_kernel_defect(dec, m) for m in range(form.n_blocks - 1)],
        obstruction=eigenvector_obstruction(dec),
        agree=all(rep.verdict != "inconclusive" for rep in reports.values()),
        rank_bound=reports[METHODS[0]].rank_bound,
        warnings=list(form.warnings),
        short_time_law=None if form.index is None else _short_time_law(form),
    )
