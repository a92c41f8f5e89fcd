"""Spectrally truncated Lorentz kinetic equation on the 2-torus with unit
speed and unit relaxation rate.

Velocity space is discretized by Fourier modes j in [-M, M]; the collision
part acts as the projection complement R = diag(1 - delta_{j0}) and the
transport part of a spatial mode of magnitude n acts (up to a rotation that
does not affect norms) as n times the tridiagonal skew matrix with -i/2 off
the diagonal.  On top of the modal generators this module provides the
coercivity constant of the mixing form, Lyapunov-weight decay certificates,
the uniform short-time constant pipeline, and full-field simulation.

Norms and smallest eigenvalues are computed on real parity blocks, built
directly.  The diagonal similarity D = diag(i^j) makes R and J10 real, and
both commute with the signed reflection e_j -> (-1)^j e_(-j).  In the
unitary basis U = D Q of its eigenvectors, even (e_0 and
(e_j + (-1)^j e_(-j))/sqrt 2, j = 1..M) then odd ((e_j - (-1)^j e_(-j))/sqrt 2),
R and J10 are block diagonal.  The even blocks, of size M+1, are
R_e = diag(0, 1, ..., 1) and the skew tridiagonal K_e with superdiagonal
(1/sqrt 2, 1/2, ..., 1/2); the odd blocks are R_e[1:, 1:] = I and K_e[1:, 1:].
The odd block of the generators sigma R - n J10 and of the forms R + J R J*,
R + C* R C, J* R J and R - delta I is likewise the even one without its
first row and column: index 0 is the only even index without an odd partner,
R vanishes there, and in each product R stands between the factors of J10,
so every path through index 0 has weight zero.
Hence lambda_min of a form is that of its even block E alone, as
lambda_min(E) <= lambda_min(E[1:, 1:]) by Cauchy interlacing.

The propagator norm of a mode is likewise that of its even block
G = R_e - n K_e alone, for another reason.  The odd block is
G[1:, 1:] = I - n K_o with K_o = K_e[1:, 1:] real and skew, so
exp(-G[1:, 1:] t) = e^(-t) exp(n t K_o) has norm exactly e^(-t).  The even
block is G = I - B with B = e_0 e_0^T + n K_e and B + B^T = 2 e_0 e_0^T >= 0,
so along y = exp(t B) x the energy grows, d/dt ||y||^2 = 2 (e_0^T y)^2 >= 0,
and ||exp(-G t)|| = e^(-t) ||exp(t B)|| >= e^(-t).  The larger of the two
norms is always the even one.

Truncated products of banded operators are wrong in their outermost rows.
Each product has one factor of J10 on either side of R, so a form built at
cutoff M+1 without the last row and column of its even block (indices
+-(M+1)) has the entries of the untruncated operator at |j| <= M.  The
complex (2M+1)-dimensional matrices stay as the reference, used by
``build_velocity_operators``, ``modal_generator``, ``lyapunov_margin`` (the
weight Y has no parity symmetry) and ``simulate_curve``.

The scalar solves of the constant pipeline are small private routines:
bisection to adjacent floats for the monotone time limits and the crossover
magnitude, and Brent's bounded minimization for the mixing dual.
"""

from __future__ import annotations

import math
from dataclasses import asdict, astuple, dataclass

import numpy as np

from . import decay
from . import operator_core as core
from .errors import (
    DimensionError,
    InvalidEntryError,
    NumericalError,
    PreconditionError,
)

__all__ = [
    "LAMBDA0",
    "KAPPA_LIMIT",
    "VelocityOperators",
    "ModalGenerator",
    "LyapunovWeight",
    "AppendixCConstants",
    "LorentzField",
    "ModalDecayResult",
    "CubicBoundReport",
    "SandwichReport",
    "SimulationReport",
    "build_velocity_operators",
    "modal_generator",
    "lyapunov_weight",
    "essential_block",
    "kappa_truncated",
    "kappa3_truncated",
    "constrained_mixing_infimum",
    "lyapunov_margin",
    "modal_propagator_norm",
    "appendix_constants",
    "cubic_bound_verify",
    "full_propagator_bounds",
    "simulate",
    "simulate_curve",
    "field_to_json",
    "field_from_json",
]

#: Certified exponential decay rate of the weighted norms (not sharp).
LAMBDA0 = 0.5 - 1.0 / (6.0 * math.sqrt(2.0)) - math.sqrt(7.0 / 16.0 + 1.0 / math.sqrt(8.0)) / 3.0

#: Large-cutoff limit of the mixing coercivity constant, (3 - sqrt 5) / 2.
KAPPA_LIMIT = (3.0 - math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class VelocityOperators:
    """Collision projection complement and unit transport matrix at cutoff M."""

    M: int
    R: np.ndarray
    J10: np.ndarray

    @property
    def dim(self) -> int:
        return 2 * self.M + 1


@dataclass(frozen=True)
class ModalGenerator:
    """Generator sigma*R - n_abs*J10 of one spatial mode of magnitude n_abs."""

    n_abs: float
    M: int
    sigma: float
    C: np.ndarray


@dataclass(frozen=True)
class LyapunovWeight:
    """Hermitian weight: identity plus an -i*alpha/n coupling between j=0 and j=1."""

    n_abs: float
    alpha: float
    M: int
    Y: np.ndarray


def _check_cutoff(M: int) -> None:
    if M < 1:
        raise DimensionError("M must be at least 1 (the j = +-1 couplings are essential)")


def build_velocity_operators(M: int) -> VelocityOperators:
    """Velocity-space matrices at Fourier cutoff M (indices j = -M..M)."""
    _check_cutoff(M)
    dim = 2 * M + 1
    R = np.eye(dim, dtype=complex)
    R[M, M] = 0.0
    J10 = np.zeros((dim, dim), dtype=complex)
    for i in range(dim - 1):
        J10[i, i + 1] = -0.5j
        J10[i + 1, i] = -0.5j
    return VelocityOperators(M=M, R=R, J10=J10)


def modal_generator(n_abs: float, M: int, sigma: float = 1.0) -> ModalGenerator:
    """Truncated generator of the spatial mode with Euclidean magnitude n_abs.

    Lattice modes sharing a magnitude evolve identically (the rotation that
    aligns them is unitary), so n_abs may be any positive real.
    """
    if n_abs <= 0:
        raise PreconditionError("n_abs must be positive")
    if sigma <= 0:
        raise PreconditionError("sigma must be positive")
    ops = build_velocity_operators(M)
    return ModalGenerator(n_abs=float(n_abs), M=M, sigma=float(sigma),
                          C=sigma * ops.R - n_abs * ops.J10)


def lyapunov_weight(n_abs: float, alpha: float, M: int) -> LyapunovWeight:
    """Weight matrix with eigenvalues 1 and 1 +- alpha/n_abs (positive definite)."""
    if M < 2:
        raise DimensionError("M must be at least 2")
    if not 0.0 < alpha < n_abs:
        raise PreconditionError("need 0 < alpha < n_abs for a positive definite weight")
    dim = 2 * M + 1
    Y = np.eye(dim, dtype=complex)
    Y[M, M + 1] = -1j * alpha / n_abs
    Y[M + 1, M] = 1j * alpha / n_abs
    return LyapunovWeight(n_abs=float(n_abs), alpha=float(alpha), M=M, Y=Y)


def essential_block(n_abs: float) -> np.ndarray:
    """The 4x4 non-diagonal core of C*Y + YC on the j = -1..2 indices, for the
    weight with alpha = 1/2.

    Its smallest eigenvalue at n_abs = 1 equals three times the certified
    rate LAMBDA0, and it only grows with n_abs.
    """
    n = float(n_abs)
    a = 0.5
    return np.array(
        [
            [2.0, 0.0, -a / 2.0, 0.0],
            [0.0, a, -1j * a / n, a / 2.0],
            [-a / 2.0, 1j * a / n, 2.0 - a, 0.0],
            [0.0, a / 2.0, 0.0, 2.0],
        ],
        dtype=complex,
    )


def _even_blocks(M: int) -> tuple[np.ndarray, np.ndarray]:
    """The real even parity blocks R_e and K_e of R and J10 at cutoff M.

    Both are (M+1)x(M+1); the odd blocks are R_e[1:, 1:] and K_e[1:, 1:]
    (module docstring).
    """
    _check_cutoff(M)
    R = np.eye(M + 1)
    R[0, 0] = 0.0
    upper = np.full(M, 0.5)
    upper[0] = math.sqrt(0.5)  # 1/sqrt 2 correctly rounded; 1/math.sqrt(2) is not
    return R, np.diag(upper, 1) - np.diag(upper, -1)


def _even_form(M: int, form) -> np.ndarray:
    """Even block of the form ``form(R_e, K_e)`` at cutoff M: built at cutoff
    M+1, without its last row and column (module docstring)."""
    _check_cutoff(M)
    return form(*_even_blocks(M + 1))[:-1, :-1]


def kappa_truncated(M: int) -> float:
    """Smallest eigenvalue of the mixing form R + J10 R J10* at cutoff M.

    Monotone nonincreasing in M and converging (exponentially fast, the
    minimizer is localized at j = 0) to (3 - sqrt 5)/2.
    """
    return core.min_eig_hermitian(_even_form(M, lambda R, K: R + K @ R @ K.T))


def kappa3_truncated(M: int, n_abs: float = 1.0) -> float:
    """Smallest eigenvalue of R + C* R C for the magnitude-n_abs generator."""

    def form(R, K):
        C = R - n_abs * K
        return R + C.T @ R @ C

    return core.min_eig_hermitian(_even_form(M, form))


def _bounded_minimum(f, lo: float, hi: float, xatol: float) -> float:
    """Minimizer of f on [lo, hi] by Brent's method (golden section plus
    parabolic steps), as in Brent, "Algorithms for Minimization without
    Derivatives" (1973), ch. 5, and in the same arithmetic as
    ``scipy.optimize.minimize_scalar(method="bounded")``, so both return the
    same x.

    It stops when the bracket [a, b] around the best point x has
    |x - (a + b)/2| <= 2 tol - (b - a)/2 with tol = sqrt(eps)|x| + xatol/3,
    so x is located to about sqrt(eps)|x|, not to ``xatol``, once
    |x| > xatol / sqrt(eps); or after scipy's default of 500 evaluations.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = f(xf)
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    for _ in range(499):  # at most 500 evaluations of f, as scipy
        if abs(xf - xm) <= tol2 - 0.5 * (b - a):
            break
        golden = True
        if abs(e) > tol1:  # try a parabola through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = p / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 if xm >= xf else -tol1
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e
        x = xf + (1.0 if rat >= 0.0 else -1.0) * max(abs(rat), tol1)
        fu = f(x)
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
    return xf


def constrained_mixing_infimum(M: int, delta: float) -> float:
    """inf ||sqrt(R) J10 x|| over unit x with <x, R x> <= delta.

    Evaluated through the concave dual mu -> lambda_min(J10* R J10 +
    mu (R - delta I)), whose maximum equals the constrained minimum for this
    pair of quadratic forms; cross-checked against sampled feasible vectors
    in the tests.  lambda_min is read off the even parity block (module
    docstring).  Every mu >= 0 gives a lower bound.  ``_bounded_minimum``
    with xatol = 1e-10 stops at sqrt(eps)|mu| + xatol/3, which is 1.8e-8 at
    the optimum mu = 1.2047 of M = 96 (delta = 0.0764): mu is known to that
    width, not to 1e-10.  The dual is flat there (it moves by 2e-16 over
    mu +- 2e-8), so the value is not affected.
    """
    if not 0.0 < delta < 1.0:
        raise PreconditionError("delta must lie in (0, 1)")
    A = _even_form(M, lambda R, K: K.T @ R @ K)
    shift = _even_blocks(M)[0] - delta * np.eye(M + 1)

    def dual(mu: float) -> float:
        return core.min_eig_hermitian(A + mu * shift)

    mu = _bounded_minimum(lambda mu: -dual(mu), 0.0, 1e3, xatol=1e-10)
    best = max(dual(0.0), dual(mu))
    return math.sqrt(max(best, 0.0))


def lyapunov_margin(n_abs: float, alpha: float, M: int) -> float:
    """lambda_min of C*Y + YC - 2 LAMBDA0 Y for the magnitude-n_abs generator.

    A margin >= -1e-10 certifies the decay rate LAMBDA0 in the Y-weighted
    norm at this truncation; the truncated form coincides with the window of
    the full operator because the weight is banded.
    """
    if n_abs < 1:
        raise PreconditionError("n_abs must be at least 1")
    gen = modal_generator(n_abs, M)
    Y = lyapunov_weight(n_abs, alpha, M).Y
    C = gen.C
    S = C.conj().T @ Y + Y @ C - 2.0 * LAMBDA0 * Y
    return core.min_eig_hermitian(S)


@dataclass
class ModalDecayResult:
    """Propagator-norm curve of one mode plus the uniform decay envelope."""

    curve: decay.DecayCurve
    bounds: np.ndarray
    worst_margin: float
    ok: bool


def _modal_norm_curve(n_abs: float, M: int, times) -> decay.DecayCurve:
    """||exp(-C t)|| of the magnitude-n_abs mode: the norm of its even block
    (module docstring)."""
    R, K = _even_blocks(M)
    return decay.propagator_norm_curve(R - n_abs * K, times)


def modal_propagator_norm(n_abs: float, M: int, times) -> ModalDecayResult:
    """Norm curve of exp(-C_n t) checked against min(1, prefactor * e^(-lambda0 t)).

    The prefactor sqrt((2n+1)/(2n-1)) is the condition number of the
    Lyapunov weight; a violation beyond 1e-8 signals a too-small truncation.
    """
    if n_abs < 1:
        raise PreconditionError("n_abs must be at least 1")
    curve = _modal_norm_curve(n_abs, M, times)
    pref = math.sqrt((2.0 * n_abs + 1.0) / (2.0 * n_abs - 1.0))
    bounds = np.minimum(1.0, pref * np.exp(-LAMBDA0 * curve.times))
    margins = bounds + 1e-8 - curve.norms
    return ModalDecayResult(
        curve=curve,
        bounds=bounds,
        worst_margin=float(margins.min()),
        ok=bool(margins.min() >= 0.0),
    )


def _exp_tail(z: float, k0: int) -> float:
    """sum_{k >= k0} z^k / k!, stable for small z where naive subtraction cancels."""
    if z <= 0.0:
        return 0.0
    if z < 1.0:
        term = z**k0 / math.factorial(k0)
        total = 0.0
        k = k0
        while term > total * 1e-18 + 1e-320 and k < k0 + 300:
            total += term
            k += 1
            term *= z / k
        return total
    head = sum(z**k / math.factorial(k) for k in range(k0))
    return math.exp(z) - head


def _grow_rate_initial(tau: float) -> float:
    """(e^(4 tau) - 1 - 4 tau) / (2 tau): strictly increasing from 0."""
    return _exp_tail(4.0 * tau, 2) / (2.0 * tau)


def _grow_rate_cubic(tau: float) -> float:
    """(e^(4 tau) - cubic Taylor head) / (2 tau^3): strictly increasing from 0."""
    return _exp_tail(4.0 * tau, 4) / (2.0 * tau**3)


def _bracketed_root(fn, lo: float, hi: float) -> float:
    """Root of fn on [lo, hi], fn(lo) < 0 < fn(hi), by bisection down to two
    adjacent floats; returns the one with the smaller |fn|, or a point where
    fn is exactly zero."""
    flo, fhi = fn(lo), fn(hi)
    if not (flo < 0.0 < fhi):
        raise NumericalError(
            f"root bracketing failed on [{lo:g}, {hi:g}]: f(lo)={flo:.3g}, f(hi)={fhi:.3g}"
        )
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        fmid = fn(mid)
        if fmid == 0.0:
            return mid
        if fmid < 0.0:
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    return lo if -flo <= fhi else hi


@dataclass
class AppendixCConstants:
    """Constant chain certifying the n-uniform cubic short-time bound.

    Fixed relations: delta = min(kappa1/5, kappa3/2), tau = min(tau1, tau2,
    tau3, 1), c1 = delta/12, c2 = c1/(1 + 1/(lambda0 tau))^3, c = min(c2, c3);
    all entries are strictly positive.
    """

    kappa1: float
    kappa3: float
    delta: float
    tau1: float
    tau2: float
    tau3: float
    tau: float
    c1: float
    c2: float
    c3: float
    c: float
    r: float
    lambda0: float

    def relations_hold(self) -> bool:
        """The fixed relations, each to 1e-12 relative."""
        close = lambda a, b: abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1e-300)
        return (
            close(self.delta, min(self.kappa1 / 5.0, self.kappa3 / 2.0))
            and close(self.tau, min(self.tau1, self.tau2, self.tau3, 1.0))
            and close(self.c1, self.delta / 12.0)
            and close(self.c2, self.c1 / (1.0 + 1.0 / (self.lambda0 * self.tau)) ** 3)
            and close(self.c, min(self.c2, self.c3))
        )

    def all_positive(self) -> bool:
        return all(v > 0.0 for v in astuple(self))

    def to_json_dict(self) -> dict:
        return asdict(self)


def appendix_constants(M: int) -> AppendixCConstants:
    """Run the four-step constant pipeline at velocity cutoff M.

    Step 1 fixes delta from the two coercivity constants; step 2 turns the
    exponential remainder bounds into the time limits tau1, tau2; step 3 does
    the same for the cubic remainder (tau3); step 4 couples the cubic
    short-time bound with the exponential long-time decay, which costs the
    reduction from c1 to c2 (all modes up to the crossover magnitude r) and
    c3 (beyond it).
    """
    if M < 32:
        raise PreconditionError("M must be at least 32 for the constants to stabilize")
    kappa1 = kappa_truncated(M)
    kappa3 = kappa3_truncated(M)
    delta = min(kappa1 / 5.0, kappa3 / 2.0)

    tau1 = _bracketed_root(lambda t: _grow_rate_initial(t) - delta, 1e-8, 10.0)
    sigma_inf = constrained_mixing_infimum(M, delta)
    tau2 = math.sqrt(12.0 * delta) / (sigma_inf + math.sqrt(delta))
    tau3 = _bracketed_root(lambda t: _grow_rate_cubic(t) - delta / 12.0, 1e-8, 10.0)
    tau = min(tau1, tau2, tau3, 1.0)

    c1 = delta / 12.0
    c2 = c1 / (1.0 + 1.0 / (LAMBDA0 * tau)) ** 3

    def crossover_gap(x: float) -> float:
        # t_x - tau, where t_x is the time the exponential envelope of the
        # magnitude-x mode drops back to one.
        return tau / x + math.log1p(1.0 / (x - 0.5)) / (2.0 * LAMBDA0) - tau

    hi = 2.0
    while crossover_gap(hi) >= 0.0:
        hi *= 2.0
        if hi > 1e12:
            raise NumericalError("no crossover magnitude r found below 1e12")
    r = _bracketed_root(lambda x: -crossover_gap(x), 1.0 + 1e-9, hi)

    # Endpoint comparison at t = tau for the magnitude-r mode.  By the
    # definition of r the envelope factor equals one there, so the exponent
    # s below is zero up to root-finding error; expm1/log1p keep the tiny
    # residual from being swamped by cancellation.
    s = 0.5 * math.log1p(1.0 / (r - 0.5)) - LAMBDA0 * tau * (1.0 - 1.0 / r)
    a = delta * tau**3 / (12.0 * r)
    c3 = (a * math.exp(s) - math.expm1(s)) / tau**3

    c = min(c2, c3)
    consts = AppendixCConstants(
        kappa1=kappa1, kappa3=kappa3, delta=delta,
        tau1=tau1, tau2=tau2, tau3=tau3, tau=tau,
        c1=c1, c2=c2, c3=c3, c=c, r=r, lambda0=LAMBDA0,
    )
    if not consts.all_positive():
        raise NumericalError(f"constant pipeline produced a nonpositive entry: {consts}")
    return consts


@dataclass
class CubicBoundReport:
    """Worst margin of ||P_n(t)|| <= 1 - c t^3 over modes and the time grid."""

    ok: bool
    worst_margin: float
    worst_mode: float
    worst_time: float
    modes: list[float]
    samples: int

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_sandwich(cls, sandwich: SandwichReport) -> CubicBoundReport:
        """Read the cubic check off the sandwich's (mode x time) norm stack.

        The worst entry is the first minimal margin in (mode, time) order.
        """
        margins = sandwich.upper - sandwich.norms
        n, i = np.unravel_index(int(np.argmin(margins)), margins.shape)
        worst = float(margins[n, i])
        return cls(
            ok=worst >= -1e-9,
            worst_margin=worst,
            worst_mode=float(n + 1),
            worst_time=float(sandwich.times[i]),
            modes=[float(k) for k in range(1, margins.shape[0] + 1)],
            samples=int(sandwich.times.size),
        )


def cubic_bound_verify(
    N: int, M: int, consts: AppendixCConstants, samples: int = 50
) -> CubicBoundReport:
    """Check ||P_n(t)|| <= 1 - c t^3 + 1e-9 on [0, tau] for n = 1..N."""
    return CubicBoundReport.from_sandwich(
        full_propagator_bounds(N, M, consts, np.linspace(0.0, consts.tau, samples))
    )


@dataclass
class SandwichReport:
    """Envelope of the modal norms against its cubic upper and modal lower bound.

    ``norms`` is the (mode x time) stack ||P_n(t)|| for n = 1..N.
    """

    ok: bool
    times: np.ndarray
    norms: np.ndarray
    sup_norms: np.ndarray
    upper: np.ndarray
    worst_upper_margin: float
    worst_lower_margin: float

    @property
    def lower(self) -> np.ndarray:
        """The modal lower bound ||P_1(t)||."""
        return self.norms[0]

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "times": [float(t) for t in self.times],
            "sup_norms": [float(v) for v in self.sup_norms],
            "worst_upper_margin": self.worst_upper_margin,
            "worst_lower_margin": self.worst_lower_margin,
        }


def full_propagator_bounds(
    N: int, M: int, consts: AppendixCConstants, times
) -> SandwichReport:
    """sup over modes 1..N of ||P_n(t)|| must lie in [||P_1(t)||, 1 - c t^3]."""
    ts = np.asarray(times, dtype=float)
    if N < 1 or ts.size < 2:
        raise PreconditionError("need N >= 1 and at least 2 samples")
    if np.any(ts < 0) or np.any(ts > consts.tau + 1e-15):
        raise PreconditionError("times must lie in [0, tau]")
    stack = np.vstack([_modal_norm_curve(float(n), M, ts).norms for n in range(1, N + 1)])
    sup = stack.max(axis=0)
    upper = 1.0 - consts.c * ts**3
    worst_upper = float((upper + 1e-9 - sup).min())
    worst_lower = float((sup - stack[0]).min())
    return SandwichReport(
        ok=bool(worst_upper >= 0.0 and worst_lower >= -1e-12),
        times=ts,
        norms=stack,
        sup_norms=sup,
        upper=upper,
        worst_upper_margin=worst_upper,
        worst_lower_margin=worst_lower,
    )


class LorentzField:
    """Fourier coefficients of a phase-space field, indexed by spatial mode
    (n1, n2) with |n_i| <= N componentwise and velocity mode j in [-M, M]."""

    def __init__(self, N: int, M: int, coeffs: np.ndarray | None = None):
        if N < 0 or M < 1:
            raise DimensionError("need N >= 0 and M >= 1")
        self.N = N
        self.M = M
        shape = (2 * N + 1, 2 * N + 1, 2 * M + 1)
        if coeffs is None:
            coeffs = np.zeros(shape, dtype=complex)
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != shape:
            raise DimensionError(f"coeffs must have shape {shape}, got {coeffs.shape}")
        if not np.all(np.isfinite(coeffs)):
            raise InvalidEntryError("field coefficients contain NaN or Inf")
        self.coeffs = coeffs

    def copy(self) -> "LorentzField":
        return LorentzField(self.N, self.M, self.coeffs.copy())

    def __getitem__(self, key):
        n1, n2, j = key
        return self.coeffs[n1 + self.N, n2 + self.N, j + self.M]

    def __setitem__(self, key, value):
        n1, n2, j = key
        self.coeffs[n1 + self.N, n2 + self.N, j + self.M] = value

    @property
    def mass(self) -> complex:
        """The (n=0, j=0) coefficient; conserved by the evolution."""
        return complex(self.coeffs[self.N, self.N, self.M])

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def distance_to_equilibrium(self) -> float:
        """Norm of the field minus its constant equilibrium component."""
        total = float(np.sum(np.abs(self.coeffs) ** 2))
        return math.sqrt(max(total - abs(self.mass) ** 2, 0.0))

    @classmethod
    def random(cls, rng: np.random.Generator, N: int, M: int) -> "LorentzField":
        field = cls(N, M)  # checks the cutoffs before drawing
        shape = field.coeffs.shape
        field.coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return field


def field_to_json(field: LorentzField) -> dict:
    """Serialize nonzero coefficients, ordered by (n1, n2, j)."""
    items = []
    for n1 in range(-field.N, field.N + 1):
        for n2 in range(-field.N, field.N + 1):
            for j in range(-field.M, field.M + 1):
                z = field[n1, n2, j]
                if z != 0:
                    items.append(
                        {"n": [n1, n2], "j": j, "re": float(z.real), "im": float(z.imag)}
                    )
    return {"N": field.N, "M": field.M, "coeffs": items}


def field_from_json(obj: dict) -> LorentzField:
    try:
        N = int(obj["N"])
        M = int(obj["M"])
        items = obj["coeffs"]
    except (KeyError, TypeError) as exc:
        raise InvalidEntryError(f"malformed field object: {exc}") from exc
    field = LorentzField(N, M)
    for item in items:
        n1, n2 = int(item["n"][0]), int(item["n"][1])
        j = int(item["j"])
        if abs(n1) > N or abs(n2) > N or abs(j) > M:
            raise DimensionError(f"coefficient index ({n1},{n2},{j}) outside cutoffs")
        field[n1, n2, j] = complex(float(item["re"]), float(item["im"]))
    return field


@dataclass
class SimulationReport:
    """Decay and conservation diagnostics of one evolution step."""

    t: float
    distance: float
    bound: float
    initial_distance: float
    mass_drift: float
    bound_ok: bool
    mass_ok: bool


def _mode_groups(N: int) -> dict[float, list[tuple[int, int]]]:
    """Lattice modes grouped by Euclidean magnitude (shared generator)."""
    groups: dict[float, list[tuple[int, int]]] = {}
    for n1 in range(-N, N + 1):
        for n2 in range(-N, N + 1):
            if n1 == 0 and n2 == 0:
                continue
            mag = round(math.hypot(n1, n2), 12)
            groups.setdefault(mag, []).append((n1, n2))
    return groups


def simulate(field0: LorentzField, t: float) -> tuple[LorentzField, SimulationReport]:
    """Evolve every spatial mode independently for time t: ``simulate_curve`` on [t]."""
    final, (report,) = simulate_curve(field0, [t])
    return final, report


def simulate_curve(field0: LorentzField, times) -> tuple[LorentzField, list[SimulationReport]]:
    """Evolve along an increasing time grid; return the final field and one
    report per grid time.

    The relaxation rate is the unit rate of the module: the mode of
    magnitude n has the generator R - n J10 (``modal_generator`` at
    sigma = 1).  The grid must be nonempty, finite, strictly increasing and
    nonnegative, as for ``decay.propagator_norm_curve``.

    Each step advances the previous state by the time since the last grid
    point (the first by ``times[0]``).  Modes of equal magnitude share one
    propagator, computed again only when the step length changes, so a
    uniform grid costs one ``expm`` per magnitude (two when it starts after
    0).  The zero mode relaxes by the diagonal collision semigroup exp(-R t),
    which fixes the mass exactly.
    """
    ts = decay._time_grid(times)
    steps = np.diff(ts, prepend=0.0)
    if decay.is_uniform_grid(ts):
        steps[1:] = ts[1] - ts[0]
    N, M = field0.N, field0.M
    ops = build_velocity_operators(M)
    groups = _mode_groups(N)
    index = [tuple(np.array(modes).T + N) for modes in groups.values()]

    d0 = field0.distance_to_equilibrium()
    mass0 = field0.mass
    state = field0.copy()
    reports = []
    h_prev = 0.0
    for t, h in zip(ts, steps):
        if h > 0:
            if h != h_prev:
                props = [
                    core.matrix_exponential(-(ops.R - mag * ops.J10), h)
                    for mag in groups
                ]
                diag = np.full(2 * M + 1, math.exp(-h), dtype=complex)
                diag[M] = 1.0
                h_prev = h
            state.coeffs[N, N, :] *= diag
            for P, idx in zip(props, index):
                state.coeffs[idx] = (P @ state.coeffs[idx].T).T
        d = state.distance_to_equilibrium()
        bound = math.sqrt(3.0) * math.exp(-LAMBDA0 * float(t)) * d0
        drift = abs(state.mass - mass0)
        reports.append(
            SimulationReport(
                t=float(t), distance=d, bound=bound, initial_distance=d0,
                mass_drift=drift, bound_ok=d <= bound + 1e-8,
                mass_ok=drift <= 1e-14 * max(1.0, abs(mass0)),
            )
        )
    return state, reports
