"""Quantitative decay analysis of the propagator P(t) = exp(-C t).

Covers sampled propagator-norm curves, the short-time law
``||P(t)|| = 1 - c t^(2m+1) + o(t^(2m+1))`` attached to the hypocoercivity
index m, the analytic constant c evaluated on the exact kernel intersection,
exponential-stability checks, the Taylor machinery for ||P(t)x||^2, and the
worst-case initial-data perturbation that realizes the lower decay bound.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from . import operator_core as core
from . import staircase
from .errors import (
    ContractViolationError,
    DimensionError,
    InvalidEntryError,
    NoDecayError,
    NumericalError,
    PreconditionError,
    RangeError,
)

__all__ = [
    "DecayCurve",
    "ShortTimeFit",
    "TaylorSeriesData",
    "StabilityReport",
    "is_uniform_grid",
    "propagator_norm_curve",
    "default_fit_times",
    "fit_short_time",
    "short_time_constant",
    "stability_check",
    "taylor_U",
    "sum_of_squares_residual",
    "perturbation_coefficients",
    "perturbed_initial",
    "energy_change",
]


@dataclass
class DecayCurve:
    """Sampled spectral norms of exp(-C t) over an increasing time grid."""

    times: np.ndarray
    norms: np.ndarray
    generator_norm: float

    def to_csv(self) -> str:
        lines = ["t,norm"]
        for t, v in zip(self.times, self.norms):
            lines.append(f"{t:.17g},{v:.17g}")
        return "\n".join(lines) + "\n"


@dataclass
class ShortTimeFit:
    """Log-log fit of the initial norm drop 1 - ||P(t)|| ~ c t^a.

    ``a_rounded`` is the nearest odd integer; ``flagged`` marks fits whose
    estimated exponent strays more than 0.2 from it.
    """

    a_est: float
    a_rounded: int
    c_est: float
    residual: float
    fit_window: tuple[float, float]
    odd_gap: float
    flagged: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass
class TaylorSeriesData:
    """Coefficient matrices of the expansion exp(-C*t)exp(-Ct) = sum t^j/j! U_j."""

    U: list[np.ndarray]
    jmax: int


@dataclass
class StabilityReport:
    stable: bool
    t0: float
    norm_at_t0: float
    spectral_gap: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def is_uniform_grid(ts: np.ndarray) -> bool:
    """Whether an increasing grid of three or more times is equally spaced."""
    return ts.size > 2 and bool(
        np.allclose(np.diff(ts), ts[1] - ts[0], rtol=1e-12, atol=1e-14)
    )


def propagator_norm_curve(C, times) -> DecayCurve:
    """Spectral norm of exp(-C t) at each grid time.

    This is the one evaluation of ||exp(-C t)|| on a grid, with two paths:

    - on a uniform grid, E = exp(-C dt) is computed once (plus exp(-C t0)
      when t0 > 0) and P(t_k) = P(t_(k-1)) E is stepped.  After k steps the
      absolute error is at most k*eps*max_(s<=t) ||P(s)||^2, so at most
      k*eps for accretive C.  A product that overflows raises ``RangeError``
      (a bound at the last time would refuse stable non-normal generators);
    - on any other grid (the geometric short-time grids) every point gets
      its own ``expm``, and the overflow guard of ``core.matrix_exponential``
      runs once, at the last time, which bounds the logarithmic norm of
      every earlier point.

    A real generator is stepped in real arithmetic (``core.as_matrix`` keeps
    its dtype).  The top singular value is ``core.spectral_norm`` (a full
    SVD), not the Gram eigenvalue sqrt(lambda_max(P*P)): on a 220-point grid
    at n = 60 (2-core box, OpenBLAS, two BLAS threads) expm + SVD took
    0.84-0.98 s against 2.6-3.1 s for expm + Gram.  At one thread, the CLI
    default, the 220 numpy expm (``core._expm``) take 0.12 s (scipy's took
    0.13 s) and their norms 0.11 s by SVD against 0.06 s by Gram (best of 7,
    same box), so the choice is worth measuring again.
    """
    C = core.as_matrix(C, square=True)
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise DimensionError("times must be a nonempty 1-d grid")
    if not np.all(np.isfinite(ts)):
        raise InvalidEntryError("times must be finite")
    if np.any(ts < 0) or np.any(np.diff(ts) <= 0):
        raise PreconditionError("times must be strictly increasing and nonnegative")
    if is_uniform_grid(ts):
        E = core.matrix_exponential(-C, ts[1] - ts[0])
        P = core.matrix_exponential(-C, ts[0]) if ts[0] > 0 else np.eye(C.shape[0], dtype=C.dtype)
        norms = np.empty(ts.size)
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(ts.size):
                try:
                    norms[i] = core.spectral_norm(P)
                except InvalidEntryError:  # E and P(t0) are finite: the product overflowed
                    raise RangeError(f"exp(-C t) overflows at t = {ts[i]:.6g}") from None
                if i + 1 < ts.size:
                    P = P @ E
    else:
        A = -C
        core._check_exp_range(A, ts[-1])
        norms = np.array([core.spectral_norm(core._expm(A, t)) for t in ts])
    return DecayCurve(times=ts, norms=norms, generator_norm=core.spectral_norm(C))


def default_fit_times(C, num: int = 120) -> np.ndarray:
    """Logarithmic grid on [1e-4, 1e-1] scaled by 1/||C||, inside the Taylor regime."""
    scale = max(core.spectral_norm(core.as_matrix(C, square=True)), 1e-300)
    return np.geomspace(1e-4 / scale, 1e-1 / scale, num)


def fit_short_time(
    curve: DecayCurve, drop_min: float = 1e-10, drop_max: float = 1e-2
) -> ShortTimeFit:
    """Least-squares fit of log(1 - ||P(t)||) = log c + a log t.

    Only samples whose norm drop lies in [drop_min, drop_max] participate:
    below drop_min the drop is roundoff, above drop_max the Taylor law no
    longer dominates.
    """
    drop = 1.0 - curve.norms
    mask = (drop >= drop_min) & (drop <= drop_max) & (curve.times > 0)
    if int(mask.sum()) < 10:
        raise NoDecayError(
            f"only {int(mask.sum())} samples show a usable norm drop in "
            f"[{drop_min:g}, {drop_max:g}]; cannot fit (skew generator or grid too narrow)"
        )
    T = np.log(curve.times[mask])
    L = np.log(drop[mask])
    A = np.vstack([np.ones_like(T), T]).T
    coef, *_ = np.linalg.lstsq(A, L, rcond=None)
    a_est = float(coef[1])
    c_est = float(np.exp(coef[0]))
    resid = float(np.sqrt(np.mean((A @ coef - L) ** 2)))
    a_rounded = max(1, 2 * round((a_est - 1.0) / 2.0) + 1)
    odd_gap = abs(a_est - a_rounded)
    return ShortTimeFit(
        a_est=a_est,
        a_rounded=a_rounded,
        c_est=c_est,
        residual=resid,
        fit_window=(float(curve.times[mask][0]), float(curve.times[mask][-1])),
        odd_gap=odd_gap,
        flagged=odd_gap > 0.2,
    )


def short_time_constant(
    dec: core.OperatorDecomposition, m: int, rank_tol: float = 1e-10
) -> float:
    """Leading coefficient c of the short-time law 1 - c t^(2m+1) for index m.

    Evaluates the constrained minimum of ||sqrt(C_H) C^m x||^2 over the joint
    kernel of sqrt(C_H) C^j, j < m (the shrinking-neighborhood limit in the
    analytic definition collapses to this exact kernel in finite dimensions),
    normalized by (2m+1)! * binom(2m, m).  The kernel is read off the
    staircase form of (J, R): it is spanned by the basis columns after the
    first m blocks.  Building it raises ``NotPSDError`` when C is not accretive.
    """
    if m < 0:
        raise PreconditionError("m must be nonnegative")
    form = staircase.build_staircase(dec.R, dec.J, rank_tol)
    B = form.basis[:, sum(form.block_dims[:m]) :]
    if B.shape[1] == 0:
        raise ContractViolationError(
            f"the kernel intersection at level m={m} is trivial; m is not the index"
        )
    for _ in range(m):
        B = dec.C @ B
    lam = core.min_eig_hermitian(B.conj().T @ dec.R @ B)
    return lam / (math.factorial(2 * m + 1) * math.comb(2 * m, m))


def stability_check(C) -> StabilityReport:
    """Exponential stability marker ||exp(-C t0)|| < 1 plus the spectral gap.

    For a bounded generator the sharp asymptotic rate equals the spectral
    gap min Re sigma(C); a norm strictly below one at any single time already
    certifies uniform exponential stability.  t0 = min(max(1, 3/gap), 1e5),
    about three decay times, or 1 when the gap is at most 1e-8.
    """
    C = core.as_matrix(C, square=True)
    gap = -core.spectral_abscissa(-C)
    t0 = min(max(1.0, 3.0 / gap), 1e5) if gap > 1e-8 else 1.0
    norm = core.spectral_norm(core.matrix_exponential(-C, t0))
    return StabilityReport(stable=norm < 1.0 - 1e-12, t0=t0, norm_at_t0=norm, spectral_gap=gap)


def taylor_U(C, jmax: int) -> TaylorSeriesData:
    """Matrices U_j = (-1)^j sum_k binom(j,k) (C*)^k C^(j-k), j = 0..jmax.

    Each U_j with j >= 1 is cross-validated against its factored form
    -2 * (-1)^(j-1) sum_k binom(j-1,k) (C*)^k C_H C^(j-1-k); a mismatch would
    indicate power accumulation error.
    """
    C = core.as_matrix(C, square=True)
    if jmax < 1:
        raise PreconditionError("jmax must be at least 1")
    norm = core.spectral_norm(C)
    if jmax * math.log(max(2.0 * norm, 1e-300)) > 700.0:
        raise RangeError(f"(2||C||)^jmax overflows for jmax={jmax}, ||C||={norm:.3g}")
    n = C.shape[0]
    CH = (C + C.conj().T) / 2.0
    Cp = [np.eye(n, dtype=complex)]
    Sp = [np.eye(n, dtype=complex)]
    for _ in range(jmax):
        Cp.append(Cp[-1] @ C)
        Sp.append(Sp[-1] @ C.conj().T)
    U = []
    for j in range(jmax + 1):
        T = sum(math.comb(j, k) * (Sp[k] @ Cp[j - k]) for k in range(j + 1))
        U.append((-1.0) ** j * T)
    for j in range(1, jmax + 1):
        alt = sum(math.comb(j - 1, k) * (Sp[k] @ CH @ Cp[j - 1 - k]) for k in range(j))
        alt = 2.0 * (-1.0) ** j * alt
        scale = max(float(np.abs(U[j]).max()), 1e-300)
        if float(np.abs(U[j] - alt).max()) > 1e-10 * scale:
            raise NumericalError(f"factored form of U_{j} disagrees beyond 1e-10 relative")
    return TaylorSeriesData(U=U, jmax=jmax)


def _delta_coefficient(m: int, j: int, k: int) -> float:
    """Ratio binom(k,m)binom(j-k-1,m) / (binom(k+m,m)binom(j-k-1+m,m)); <= 1."""
    num = math.comb(k, m) * math.comb(j - k - 1, m)
    den = math.comb(k + m, m) * math.comb(j - k - 1 + m, m)
    return num / den


def sum_of_squares_residual(U, V, W, m: int, t: float, jmax: int) -> float:
    """Max-norm gap between the two sides of the sum-of-squares rearrangement.

    The double power series sum_j t^j/j! sum_k binom(j-1,k) U^k V W^(j-1-k)
    is regrouped into m+1 weighted squares plus a tail with coefficients
    bounded by one; both sides are evaluated truncated at jmax.
    """
    U = core.as_matrix(U, square=True)
    V = core.as_matrix(V, square=True)
    W = core.as_matrix(W, square=True)
    if not (U.shape == V.shape == W.shape):
        raise DimensionError("U, V, W must share one square shape")
    if m < 0 or t < 0:
        raise PreconditionError("m and t must be nonnegative")
    nu = max(core.spectral_norm(U), core.spectral_norm(V), core.spectral_norm(W), 1.0)
    if t > 0 and jmax * math.log(nu * t) - math.lgamma(jmax + 1) > math.log(1e-13):
        raise RangeError(
            f"series tail bound (max norm * t)^jmax / jmax! exceeds 1e-13 at jmax={jmax}"
        )
    n = U.shape[0]
    Up = [np.eye(n, dtype=complex)]
    Wp = [np.eye(n, dtype=complex)]
    for _ in range(jmax + 1):
        Up.append(Up[-1] @ U)
        Wp.append(Wp[-1] @ W)

    lhs = np.zeros_like(U)
    for j in range(1, jmax + 1):
        S = np.zeros_like(U)
        for k in range(j):
            S += math.comb(j - 1, k) * (Up[k] @ V @ Wp[j - 1 - k])
        lhs += (t**j / math.factorial(j)) * S

    rhs = np.zeros_like(U)
    for j in range(m + 1):
        SU = np.zeros_like(U)
        SW = np.zeros_like(U)
        for k in range(jmax - j + 1):
            coef = (
                math.factorial(2 * j + 1)
                / math.factorial(k + 2 * j + 1)
                * math.comb(k + j, j)
            )
            SU += coef * t**k * Up[k + j]
            SW += coef * t**k * Wp[k + j]
        rhs += (t ** (2 * j + 1) / math.factorial(2 * j + 1) / math.comb(2 * j, j)) * (
            SU @ V @ SW
        )
    for j in range(2 * m + 3, jmax + 1):
        S = np.zeros_like(U)
        for k in range(m + 1, j - m - 1):
            S += (
                math.comb(j - 1, k)
                * _delta_coefficient(m + 1, j, k)
                * (Up[k] @ V @ Wp[j - 1 - k])
            )
        rhs += (t**j / math.factorial(j)) * S

    return float(np.abs(lhs - rhs).max())


def perturbation_coefficients(m: int) -> list[Fraction]:
    """Exact coefficients b_0..b_m of the slow-direction perturbation.

    They solve the lower-triangular system
    sum_{r<=l} (-1)^(m-r) c_{l,l-r} b_r = 0 with b_0 = 1 and
    c_{l,k} = (2(m-l)+1)!/(k+2(m-l)+1)! * binom(k+m-l, m-l); they depend only
    on m, so exact rationals are both feasible and reproducible.
    """
    if m < 1:
        raise PreconditionError("m must be at least 1")

    def c(l: int, k: int) -> Fraction:
        mm = m - l
        return Fraction(
            math.factorial(2 * mm + 1), math.factorial(k + 2 * mm + 1)
        ) * math.comb(k + mm, mm)

    b = [Fraction(1)]
    for l in range(1, m + 1):
        s = sum((-1) ** (m - r) * c(l, l - r) * b[r] for r in range(l))
        b.append(-s / ((-1) ** (m - l) * c(l, 0)))
    return b


def perturbed_initial(
    dec: core.OperatorDecomposition, m: int, x0, tau: float
) -> np.ndarray:
    """x_tau = x0 + sum_l b_l tau^l C^l x0, the near-worst-case initial datum.

    Starting from x0 in the slow directions this perturbation pushes the
    norm drop of exp(-C tau) x_tau down to its t^(2m+1) leading term.
    """
    x0 = np.asarray(x0, dtype=complex).ravel()
    if x0.shape[0] != dec.dim:
        raise DimensionError(f"x0 has length {x0.shape[0]}, expected {dec.dim}")
    if np.linalg.norm(x0) == 0.0:
        raise PreconditionError("x0 must be nonzero")
    limit = min(1.0, 1.0 / max(core.spectral_norm(dec.C), 1e-300))
    if not (0.0 <= tau < limit):
        raise PreconditionError(f"tau must lie in [0, {limit:.6g})")
    b = perturbation_coefficients(m)
    x = x0.copy()
    v = x0.copy()
    for l in range(1, m + 1):
        v = dec.C @ v
        x = x + float(b[l]) * tau**l * v
    return x


def energy_change(C, x, t: float) -> float:
    """||exp(-C t) x||^2 - ||x||^2 (nonpositive for accretive C)."""
    C = core.as_matrix(C, square=True)
    x = np.asarray(x, dtype=complex).ravel()
    y = core.matrix_exponential(-C, t) @ x
    return float(np.linalg.norm(y) ** 2 - np.linalg.norm(x) ** 2)
