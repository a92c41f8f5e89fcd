"""Spectrally truncated Lorentz kinetic equation on the 2-torus with unit
speed and unit relaxation rate.

Velocity space is discretized by Fourier modes j in [-M, M], and every
operator is built in one real basis.  The collision part is the projection
complement R = diag(1 - delta_{j0}); the transport part of a spatial mode of
magnitude n is (up to a rotation that does not affect norms) n K, with K real,
skew and tridiagonal, +1/2 above the diagonal and -1/2 below, so the mode's
generator is R - n K (R for the zero mode).  The physical transport is D K D*
with D = diag(d), d_j = i^j, which commutes with R; a field passes into this
basis and back by multiplying its coefficients by conj(d) and by d, exactly,
as each d_j is one of 1, i, -1, -i.  Only the field coefficients are complex.
On top of the modal generators this module provides the coercivity constant
of the mixing form, Lyapunov-weight decay certificates, the uniform
short-time constant pipeline, and full-field simulation.

Norms and smallest eigenvalues are computed on real parity blocks, built
directly.  R and K commute with the signed reflection e_j -> (-1)^j e_(-j).
In the orthogonal basis Q of its eigenvectors, even (e_0 and
(e_j + (-1)^j e_(-j))/sqrt 2, j = 1..M) then odd ((e_j - (-1)^j e_(-j))/sqrt 2),
R and K are block diagonal.  The even blocks, of size M+1, are
R_e = diag(0, 1, ..., 1) and the skew tridiagonal K_e with superdiagonal
(1/sqrt 2, 1/2, ..., 1/2); the odd blocks are R_e[1:, 1:] = I and K_e[1:, 1:].
The odd block of the generators R - n K and of the forms R + K R K^T,
R + C^T R C, K^T R K and R - delta I is likewise the even one without its
first row and column: index 0 is the only even index without an odd partner,
R vanishes there, and in each product R stands between the factors of K,
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
Each product has one factor of K on either side of R, so a form built at
cutoff M+1 without the last row and column of its even block (indices
+-(M+1)) has the entries of the untruncated operator at |j| <= M.  The
full (2M+1)-dimensional generator is built by ``modal_generator``, for
``lyapunov_margin`` (the weight Y has no parity symmetry) and
``simulate_curve`` (every lattice mode, the zero mode included).

The constant pipeline uses one private routine, bisection to adjacent floats
for every scalar solve: the time limits tau1 and tau3, the crossover
magnitude r, and the multiplier mu of the mixing dual.
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
    RangeError,
)

__all__ = [
    "ALPHA",
    "LAMBDA0",
    "KAPPA_LIMIT",
    "AppendixCConstants",
    "LorentzField",
    "CubicBoundReport",
    "SimulationReport",
    "modal_generator",
    "lyapunov_weight",
    "kappa_truncated",
    "kappa3_truncated",
    "constrained_mixing_infimum",
    "lyapunov_margin",
    "appendix_constants",
    "cubic_bound_verify",
    "full_propagator_bounds",
    "simulate",
    "simulate_curve",
    "field_to_json",
    "field_from_json",
]

#: The one weight of the Lyapunov decay certificate: Y has eigenvalues 1 and
#: 1 +- ALPHA / n (``lyapunov_weight``).  LAMBDA0 and the factor
#: sqrt(cond Y) = sqrt((1 + ALPHA) / (1 - ALPHA)) of ``simulate_curve``'s
#: bound at n = 1 are derived for this value alone.
ALPHA = 0.5

#: Certified exponential decay rate of the weighted norms (not sharp).
#: 3 * LAMBDA0 is lambda_min of the 4x4 essential block of C*Y + YC (indices
#: j = -1..2) at n = 1 and ALPHA; tests/test_lorentz.py
#: ``test_essential_block_minimum`` checks it.
LAMBDA0 = 0.5 - 1.0 / (6.0 * math.sqrt(2.0)) - math.sqrt(7.0 / 16.0 + 1.0 / math.sqrt(8.0)) / 3.0

#: Large-cutoff limit of the mixing coercivity constant, (3 - sqrt 5) / 2.
KAPPA_LIMIT = (3.0 - math.sqrt(5.0)) / 2.0


def _check_cutoff(M: int) -> None:
    if M < 1:
        raise DimensionError("M must be at least 1 (the j = +-1 couplings are essential)")


def modal_generator(n_abs: float, M: int) -> np.ndarray:
    """Truncated generator R - n_abs K of the spatial mode with Euclidean
    magnitude n_abs, in the real basis (module docstring), indices j = -M..M.

    Lattice modes sharing a magnitude evolve identically (the rotation that
    aligns them is unitary), so n_abs may be any nonnegative real; at 0 it is R.
    """
    if n_abs < 0:
        raise PreconditionError("n_abs must be nonnegative")
    _check_cutoff(M)
    half = np.full(2 * M, 0.5)
    K = np.diag(half, 1) - np.diag(half, -1)
    C = np.eye(2 * M + 1) - n_abs * K
    C[M, M] = 0.0
    return C


def lyapunov_weight(n_abs: float, M: int) -> np.ndarray:
    """Weight matrix with eigenvalues 1 and 1 +- ALPHA/n_abs (positive definite):
    in the real basis (module docstring), the identity plus ALPHA/n_abs at
    (j=0, j=1) and (j=1, j=0)."""
    if M < 2:
        raise DimensionError("M must be at least 2")
    if not ALPHA < n_abs:
        raise PreconditionError(f"need n_abs > ALPHA = {ALPHA} for a positive definite weight")
    Y = np.eye(2 * M + 1)
    Y[M, M + 1] = Y[M + 1, M] = ALPHA / n_abs
    return Y


def _even_blocks(M: int) -> tuple[np.ndarray, np.ndarray]:
    """The even parity blocks R_e and K_e of R and K at cutoff M.

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
    """Smallest eigenvalue of the mixing form R + K R K^T at cutoff M.

    Monotone nonincreasing in M and converging (exponentially fast, the
    minimizer is localized at j = 0) to (3 - sqrt 5)/2.
    """
    return core.min_eig_hermitian(_even_form(M, lambda R, K: R + K @ R @ K.T))


def kappa3_truncated(M: int) -> float:
    """Smallest eigenvalue of R + C^T R C for the magnitude-1 generator C = R - K."""

    def form(R, K):
        C = R - K
        return R + C.T @ R @ C

    return core.min_eig_hermitian(_even_form(M, form))


def _mixing_multiplier(A: np.ndarray, delta: float) -> tuple[float, float]:
    """The maximizer mu >= 0 of the mixing dual (``constrained_mixing_infimum``)
    and dual(0) = lambda_min(A)."""
    a, V = np.linalg.eigh(A)
    z2 = V[0] ** 2

    def supergradient(lam: float) -> float:
        w = z2 / (a - lam)
        return float((1.0 - delta) - w.sum() ** 2 / (w / (a - lam)).sum())

    lam = a[0] - 4.0 * math.ulp(1.0) * max(float(np.abs(a).max()), 1.0)
    if supergradient(lam) > 0.0:
        lam = _bracketed_root(supergradient, a[0] - 2.0 * A[0, 0] / delta, lam)
    return float(1.0 / (z2 / (a - lam)).sum()), float(a[0])


def constrained_mixing_infimum(M: int, delta: float) -> float:
    """inf ||sqrt(R) K x|| over unit x with <x, R x> <= delta.

    The maximum over mu >= 0 of the concave dual lambda_min(A + mu (R - delta I)),
    A = K^T R K, on the even parity blocks (module docstring), where
    R_e - delta I = (1 - delta) I - e_0 e_0^T makes it mu (1 - delta) +
    lambda_min(A - mu e_0 e_0^T), a rank-one update (Golub 1973, SIAM Rev. 15).
    With A = V diag(a) V^T, a ascending, and z = V^T e_0, each lambda < a_1 is
    that eigenvalue for 1/mu = f = sum z_k^2 / (a_k - lambda); its eigenvector
    (A - lambda)^(-1) e_0 has e_0-weight x_0^2 = f^2 / sum z_k^2 / (a_k - lambda)^2.
    The supergradient (1 - delta) - x_0^2 rises with lambda; bisection finds
    its root on [a_1 - 2 A_00 / delta, a_1 - 4 eps max(|a|, 1)], O(M) a step.
    It is negative at the lower end: there mu >= a_1 - lambda (Weyl), and
    past mu = A_00 / delta the dual is below A_00 - mu delta < 0 <= dual(0).
    If it is not positive at the upper end, that end is the optimum: mu ~ 0,
    or, when z_1 = 0 (M = 1, odd M at larger delta), the kink where the
    branch meets the line a_1 + mu (1 - delta).  Every mu >= 0 gives a lower
    bound, so the value is the larger of dual(0) and dual(mu).
    """
    if not 0.0 < delta < 1.0:
        raise PreconditionError("delta must lie in (0, 1)")
    A = _even_form(M, lambda R, K: K.T @ R @ K)
    shift = _even_blocks(M)[0] - delta * np.eye(M + 1)
    mu, dual0 = _mixing_multiplier(A, delta)
    best = max(dual0, core.min_eig_hermitian(A + mu * shift))
    return math.sqrt(max(best, 0.0))


def lyapunov_margin(n_abs: float, M: int) -> float:
    """lambda_min of C^T Y + Y C - 2 LAMBDA0 Y for the magnitude-n_abs generator.

    A margin >= -1e-10 certifies the decay rate LAMBDA0 in the Y-weighted
    norm at this truncation; the truncated form coincides with the window of
    the full operator because the weight is banded.
    """
    if n_abs < 1:
        raise PreconditionError("n_abs must be at least 1")
    C = modal_generator(n_abs, M)
    Y = lyapunov_weight(n_abs, M)
    return core.min_eig_hermitian(C.T @ Y + Y @ C - 2.0 * LAMBDA0 * Y)


def _modal_norm_curve(n_abs: float, M: int, times) -> decay.DecayCurve:
    """||exp(-C t)|| of the magnitude-n_abs mode: the norm of its even block
    (module docstring)."""
    R, K = _even_blocks(M)
    return decay.propagator_norm_curve(R - n_abs * K, times)


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

    c3 holds about 5 correct digits: at M = 96 one ulp of kappa1 moves it by
    6e-6 relative (it divides a root-finding residual by tau^3 ~ 1.7e-9).
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
        close = lambda a, b: abs(a - b) <= 1e-12 * max(abs(a), abs(b))
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


_CUBIC_SLACK = 1e-9  # absolute slack of the cubic bound ||P_n(t)|| <= 1 - c t^3


@dataclass
class CubicBoundReport:
    """Modal norms ||P_n(t)||, n = 1..N, against the cubic bound 1 - c t^3.

    ``norms`` is the (mode x time) stack and ``sup_norms`` its envelope.  The
    first smallest margin ``upper - norms`` is ``worst_margin``, at
    ``worst_entry`` (mode index, time index).  ``ok`` is the one verdict of
    the cubic bound, worst_margin + _CUBIC_SLACK >= 0.
    """

    times: np.ndarray
    norms: np.ndarray
    upper: np.ndarray
    worst_entry: tuple[int, int]

    @property
    def sup_norms(self) -> np.ndarray:
        return self.norms.max(axis=0)

    @property
    def worst_margin(self) -> float:
        n, i = self.worst_entry
        return float(self.upper[i] - self.norms[n, i])

    @property
    def worst_upper_margin(self) -> float:
        n, i = self.worst_entry
        return float(self.upper[i] + _CUBIC_SLACK - self.norms[n, i])

    @property
    def ok(self) -> bool:
        return self.worst_upper_margin >= 0.0

    def to_json_dict(self) -> dict:
        """The ``cubic_bound`` and ``sandwich`` sections of ``lorentz verify``."""
        n, i = self.worst_entry
        return {
            "cubic_bound": {
                "ok": self.ok,
                "worst_margin": self.worst_margin,
                "worst_mode": float(n + 1),
                "worst_time": float(self.times[i]),
                "modes": [float(k) for k in range(1, self.norms.shape[0] + 1)],
                "samples": int(self.times.size),
            },
            "sandwich": {
                "ok": self.ok,
                "times": [float(t) for t in self.times],
                "sup_norms": [float(v) for v in self.sup_norms],
                "worst_upper_margin": self.worst_upper_margin,
            },
        }


def cubic_bound_verify(
    N: int, M: int, consts: AppendixCConstants, samples: int = 50
) -> CubicBoundReport:
    """Check ||P_n(t)|| <= 1 - c t^3 + _CUBIC_SLACK on [0, tau] for n = 1..N,
    at ``samples`` equally spaced times (at least 2)."""
    _check_grid(N, samples)
    return full_propagator_bounds(N, M, consts, np.linspace(0.0, consts.tau, samples))


def _check_grid(N: int, samples: int) -> None:
    """Modes 1..N and sample times of a cubic-bound check: N >= 1, samples >= 2."""
    if N < 1:
        raise PreconditionError(f"need N >= 1, got {N}")
    if samples < 2:
        raise PreconditionError(f"need at least 2 samples, got {samples}")


def full_propagator_bounds(
    N: int, M: int, consts: AppendixCConstants, times
) -> CubicBoundReport:
    """sup over modes 1..N of ||P_n(t)|| must lie below 1 - c t^3."""
    ts = np.asarray(times, dtype=float)
    _check_grid(N, ts.size)
    if np.any(ts < 0) or np.any(ts > consts.tau + 1e-15):
        raise PreconditionError("times must lie in [0, tau]")
    stack = np.vstack([_modal_norm_curve(float(n), M, ts).norms for n in range(1, N + 1)])
    upper = 1.0 - consts.c * ts**3
    n, i = np.unravel_index(int(np.argmin(upper - stack)), stack.shape)
    return CubicBoundReport(times=ts, norms=stack, upper=upper, worst_entry=(int(n), int(i)))


class LorentzField:
    """Fourier coefficients of a phase-space field, indexed by spatial mode
    (n1, n2) with |n_i| <= N componentwise and velocity mode j in [-M, M].

    ``simulate_curve`` reads each mode in the frame rotated by its angle
    (see there).
    """

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

    def distance_to_equilibrium(self) -> float:
        """Norm of the field minus its constant equilibrium component.

        It is taken of the moduli |c| divided by 2^e, max|c| / 2^e in [1, 2),
        and multiplied back: an exact scaling, under which no square
        overflows or underflows, so 2^k times a field has 2^k times its
        distance.  A field that is not finite, or a distance past double
        range, gives inf or nan.
        """
        moduli = np.abs(self.coeffs)
        unit = 2.0 ** (math.frexp(float(moduli.max()))[1] - 1)
        total = float(np.sum((moduli / unit) ** 2))
        return math.sqrt(max(total - (abs(self.mass) / unit) ** 2, 0.0)) * unit

    @classmethod
    def random(cls, rng: np.random.Generator, N: int, M: int) -> "LorentzField":
        field = cls(N, M)  # checks the cutoffs before drawing
        shape = field.coeffs.shape
        field.coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return field


def field_to_json(field: LorentzField) -> str:
    """The JSON text of the nonzero coefficients, ordered by (n1, n2, j):
    byte for byte ``json.dumps(..., sort_keys=True)`` of {"N", "M",
    "coeffs": [{"n": [n1, n2], "j", "re", "im"}, ...]}, written with one
    %-format per coefficient (a float as its repr, as ``json`` writes it)."""
    n1, n2, j = np.nonzero(field.coeffs)
    z = field.coeffs[n1, n2, j]
    items = ", ".join(
        '{"im": %r, "j": %d, "n": [%d, %d], "re": %r}' % item
        for item in zip(z.imag.tolist(), (j - field.M).tolist(), (n1 - field.N).tolist(),
                        (n2 - field.N).tolist(), z.real.tolist())
    )
    return '{"M": %d, "N": %d, "coeffs": [%s]}' % (field.M, field.N, items)


def field_from_json(obj: dict) -> LorentzField:
    try:
        N, M, items = obj["N"], obj["M"], obj["coeffs"]
    except (KeyError, TypeError) as exc:
        raise InvalidEntryError(f"malformed field object: {exc}") from exc
    if type(N) is not int or type(M) is not int or type(items) is not list:
        raise InvalidEntryError("malformed field object: N and M must be integers and coeffs a list")
    field = LorentzField(N, M)
    flat, seen = field.coeffs.reshape(-1), {}  # int flat index -> item; tuple keys cost a full GC
    for i, item in enumerate(items):
        try:
            (n1, n2), j = item["n"], item["j"]
            if not type(n1) is type(n2) is type(j) is int:
                raise TypeError("n and j must be integers")
            re, im = item["re"], item["im"]
            if type(re) not in core._JSON_NUMBER or type(im) not in core._JSON_NUMBER:
                raise TypeError("re and im must be numbers")
            re, im = float(re), float(im)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InvalidEntryError(f"coefficient {i} is malformed: {exc!r}") from None
        if abs(n1) > N or abs(n2) > N or abs(j) > M:
            raise DimensionError(f"coefficient index ({n1},{n2},{j}) outside cutoffs")
        if not (math.isfinite(re) and math.isfinite(im)):
            raise InvalidEntryError(f"coefficient {i} is not finite")
        k = ((n1 + N) * (2 * N + 1) + n2 + N) * (2 * M + 1) + j + M
        if (first := seen.setdefault(k, i)) != i:
            raise InvalidEntryError(f"coefficients {first} and {i} share the index ({n1},{n2},{j})")
        flat[k] = complex(re, im)
    return field


@dataclass
class SimulationReport:
    """Decay and conservation diagnostics of one evolution step."""

    t: float
    distance: float
    bound: float
    bound_ok: bool
    mass_ok: bool


def _mode_groups(N: int) -> dict[float, list[tuple[int, int]]]:
    """Lattice modes, (0, 0) included, grouped by magnitude (shared generator)."""
    groups: dict[float, list[tuple[int, int]]] = {}
    for n1 in range(-N, N + 1):
        for n2 in range(-N, N + 1):
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
    magnitude n has the generator R - n K of ``modal_generator``.  The grid
    must be nonempty, finite, strictly increasing and nonnegative, as for
    ``decay.propagator_norm_curve``.

    The field is stepped in the real basis: its coefficients are multiplied
    by conj(d) once before the first step and by d once after the last
    (module docstring).  Both are exact and keep every |coefficient|, so the
    mass and the reported distances are those of the returned field.

    Each step advances the previous state by the time since the last grid
    point (the first by ``times[0]``).  Modes of equal magnitude share one
    generator and one propagator, computed again only when the step length
    changes, so a uniform grid costs one ``expm`` per magnitude (two when it
    starts after 0).  A propagator that is not finite raises ``RangeError``
    (``core._expm``), and so does a state whose distance or bound is not
    finite, naming its time.  The zero mode has the generator R; its diagonal
    propagator holds exp(0) = 1 at j = 0, which keeps the mass exact.

    Frame: every lattice mode (n1, n2) is stepped with the generator of its
    magnitude at angle 0.  The physical generator of the mode at angle
    phi = atan2(n2, n1) is E_phi (R - |n| J10) E_phi*, with
    E_phi = diag(e^(-i j phi)) and J10 the transport along n1 in the
    physical basis.  So this returns P_0(t) c(0) where the physical
    evolution is E_phi P_0(t) E_phi* c(0): each mode is read, on input and
    on output, in the frame rotated by its phi (x = E_phi* c), and the two
    differ wherever phi != 0.  The propagator norms, the decay bound and the
    mass are those of the physical evolution (E_phi is diagonal and
    unitary); the distances are those of the returned field.
    """
    ts = decay._time_grid(times)
    steps = np.diff(ts, prepend=0.0)
    if decay.is_uniform_grid(ts):
        steps[1:] = ts[1] - ts[0]
    N, M = field0.N, field0.M
    groups = _mode_groups(N)
    generators = [modal_generator(mag, M) for mag in groups]
    index = [tuple(np.array(modes).T + N) for modes in groups.values()]
    phase = np.array([1, 1j, -1, -1j])[np.arange(-M, M + 1) % 4]  # d_j = i^j, exactly

    d0 = field0.distance_to_equilibrium()
    mass0 = field0.mass
    state = field0.copy()
    state.coeffs *= phase.conj()
    reports = []
    h_prev = 0.0
    for t, h in zip(ts, steps):
        if h > 0:
            if h != h_prev:
                props = [core._expm(-C, h) for C in generators]
                h_prev = h
            for P, idx in zip(props, index):
                # P is real: one real GEMM on the coefficients as float pairs
                X = np.ascontiguousarray(state.coeffs[idx].T).view(np.float64)
                state.coeffs[idx] = (P @ X).view(complex).T
        d = state.distance_to_equilibrium()
        bound = math.sqrt((1.0 + ALPHA) / (1.0 - ALPHA)) * math.exp(-LAMBDA0 * float(t)) * d0
        if not (math.isfinite(d) and math.isfinite(bound)):
            raise RangeError(f"the field or its bound leaves double range at t = {t:.6g}")
        reports.append(
            SimulationReport(
                t=float(t), distance=d, bound=bound, bound_ok=d <= bound + 1e-8,
                mass_ok=abs(state.mass - mass0) <= 1e-14 * max(1.0, abs(mass0)),
            )
        )
    state.coeffs *= phase
    return state, reports
