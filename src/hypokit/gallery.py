"""Worked example operators with closed-form ground truth.

Two families carry most of the load: the 2x2 rotation-plus-leak matrices
(index 1, explicit propagator norm, explicit short-time constant k^2/12) and
the k x k shift-plus-corner matrices (index k-1, spectral gap <= 1/k).  The
remaining constructors realize finite sections of the block-diagonal and
compact-collision counterexamples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import decay, staircase
from . import operator_core as core
from .errors import PreconditionError

__all__ = [
    "EXAMPLE_NAMES",
    "make_example",
    "ck_matrix",
    "ek_matrix",
    "ck_closed_form_norm",
    "ck_kink_time",
    "ck_short_time_constant_exact",
    "CkReport",
    "ck_properties",
    "EkReport",
    "ek_properties",
    "RescaleReport",
    "ek_rescale_factor",
]

EXAMPLE_NAMES = (
    "ck",
    "ek",
    "remark25_block_family",
    "compact_R_family",
    "ek_blockdiag",
    "ek_rescaled",
)


def ck_matrix(k: int) -> np.ndarray:
    """[[0, k], [-k, 1]]: one leaky direction coupled to a fast rotation."""
    if k < 1:
        raise PreconditionError("k must be at least 1")
    return np.array([[0.0, k], [-k, 1.0]], dtype=complex)


def ek_matrix(k: int) -> np.ndarray:
    """k x k skew shift with +-1 off-diagonals and a single dissipative corner."""
    if k < 1:
        raise PreconditionError("k must be at least 1")
    C = np.zeros((k, k), dtype=complex)
    for i in range(k - 1):
        C[i, i + 1] = 1.0
        C[i + 1, i] = -1.0
    C[k - 1, k - 1] = 1.0
    return C


def _remark25_block(n: int) -> np.ndarray:
    return np.array([[1.0 / n, 1.0], [-1.0, 1.0]], dtype=complex)


def _blockdiag(blocks: list[np.ndarray]) -> np.ndarray:
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n), dtype=complex)
    i = 0
    for b in blocks:
        out[i : i + b.shape[0], i : i + b.shape[0]] = b
        i += b.shape[0]
    return out


def make_example(name: str, **params) -> np.ndarray:
    """Construct a gallery matrix by name.

    Parameters: ``ck``/``ek`` take k; ``remark25_block_family``,
    ``ek_blockdiag`` and ``ek_rescaled`` take blocks; ``compact_R_family``
    takes dim.
    """
    if name == "ck":
        return ck_matrix(int(params.get("k", 1)))
    if name == "ek":
        return ek_matrix(int(params.get("k", 1)))
    if name == "remark25_block_family":
        blocks = int(params.get("blocks", 1))
        if blocks < 1:
            raise PreconditionError("blocks must be at least 1")
        return _blockdiag([_remark25_block(n) for n in range(1, blocks + 1)])
    if name == "compact_R_family":
        dim = int(params.get("dim", 4))
        if dim < 1:
            raise PreconditionError("dim must be at least 1")
        R = np.diag([1.0 / (i + 1) for i in range(dim)]).astype(complex)
        J = np.zeros((dim, dim), dtype=complex)
        for i in range(dim - 1):
            J[i + 1, i] = 1.0
            J[i, i + 1] = -1.0
        return R - J
    if name == "ek_blockdiag":
        blocks = int(params.get("blocks", 1))
        if blocks < 1:
            raise PreconditionError("blocks must be at least 1")
        return _blockdiag([ek_matrix(k) for k in range(1, blocks + 1)])
    if name == "ek_rescaled":
        blocks = int(params.get("blocks", 1))
        if blocks < 1:
            raise PreconditionError("blocks must be at least 1")
        scaled = []
        for k in range(1, blocks + 1):
            rep = ek_rescale_factor(k)
            scaled.append(rep.r * ek_matrix(k))
        return _blockdiag(scaled)
    raise PreconditionError(f"unknown example {name!r}; expected one of {EXAMPLE_NAMES}")


def ck_closed_form_norm(k: int, t):
    """Exact propagator norm of the 2x2 family: sqrt(e^-t m_+(t)).

    m_+ is the larger eigenvalue of e^t P(t)*P(t), written through
    delta = sqrt(4k^2 - 1) and alpha = 1/(2k); the two eigenvalue branches
    touch periodically, which is where the norm has its kinks.
    """
    if k < 1:
        raise PreconditionError("k must be at least 1")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise PreconditionError("t must be nonnegative")
    delta = math.sqrt(4.0 * k * k - 1.0)
    alpha = 1.0 / (2.0 * k)
    A = (1.0 - alpha**2 * np.cos(delta * t)) / (1.0 - alpha**2)
    m_plus = np.sqrt(np.maximum(A * A - 1.0, 0.0)) + A
    out = np.sqrt(np.exp(-t) * m_plus)
    return float(out) if out.ndim == 0 else out


def ck_kink_time(k: int) -> float:
    """First positive time where the two norm branches touch: 2 pi / sqrt(4k^2-1)."""
    return 2.0 * math.pi / math.sqrt(4.0 * k * k - 1.0)


def ck_short_time_constant_exact(k: int) -> Fraction:
    """Exact rational short-time constant of the 2x2 family.

    The kernel of the Hermitian part is spanned by the first basis vector,
    so the constrained minimum is a single rational quadratic form; the
    normalization is 3! * binom(2,1) = 12.
    """
    if k < 1:
        raise PreconditionError("k must be at least 1")
    C = [[Fraction(0), Fraction(k)], [Fraction(-k), Fraction(1)]]
    x = [Fraction(1), Fraction(0)]  # spans ker of the Hermitian part diag(0, 1)
    v = [C[0][0] * x[0] + C[0][1] * x[1], C[1][0] * x[0] + C[1][1] * x[1]]
    quad = v[1] * v[1]  # <v, diag(0,1) v>
    return quad / (math.factorial(3) * math.comb(2, 1))


@dataclass
class CkReport:
    k: int
    eig_err: float
    envelope_max: float
    envelope_bound: float
    short_time_exact: Fraction
    short_time_float: float
    kink_time: float
    ok: bool


def ck_properties(k: int) -> CkReport:
    """Verify eigenvalues, the long-time envelope on 2001 times in [0, 10],
    and the exact cubic constant."""
    C = ck_matrix(k)
    ev = np.linalg.eigvals(C)
    ev = ev[np.argsort(ev.imag)]  # conjugate pair: real parts tie up to roundoff
    half_width = 0.5 * math.sqrt(4 * k * k - 1)
    expected = np.array([0.5 - 1j * half_width, 0.5 + 1j * half_width])
    eig_err = float(np.abs(ev - expected).max())

    t_grid = np.linspace(0.0, 10.0, 2001)
    norms = ck_closed_form_norm(k, t_grid)
    envelope = float(np.max(norms * np.exp(t_grid / 2.0)))
    bound = math.sqrt((2.0 * k + 1.0) / (2.0 * k - 1.0))

    exact = ck_short_time_constant_exact(k)
    dec = core.hermitian_split(C)
    flt = decay.short_time_constant(dec, 1)

    ok = (
        eig_err <= 1e-12
        and envelope <= bound + 1e-9
        and exact == Fraction(k * k, 12)
        and abs(flt - float(exact)) <= 1e-10 * max(1.0, float(exact))
    )
    return CkReport(
        k=k,
        eig_err=eig_err,
        envelope_max=envelope,
        envelope_bound=bound,
        short_time_exact=exact,
        short_time_float=flt,
        kink_time=ck_kink_time(k),
        ok=ok,
    )


@dataclass
class EkReport:
    k_max: int
    indices: list[int | None]
    gaps: list[float]
    assembly_gap: float
    ok: bool


def ek_properties(k_max: int) -> EkReport:
    """Index ladder m(E_k) = k-1 (staircase index) and the trace-forced gap
    decay mu_k <= 1/k."""
    if k_max < 1:
        raise PreconditionError("k_max must be at least 1")
    indices: list[int | None] = []
    gaps: list[float] = []
    for k in range(1, k_max + 1):
        C = ek_matrix(k)
        dec = core.hermitian_split(C)
        indices.append(staircase.build_staircase(dec.R, dec.J).index)
        gaps.append(-core.spectral_abscissa(-C))
    assembly = make_example("ek_blockdiag", blocks=k_max)
    assembly_gap = -core.spectral_abscissa(-assembly)
    ok = (
        all(indices[k - 1] == k - 1 for k in range(1, k_max + 1))
        and all(0.0 < gaps[k - 1] <= 1.0 / k + 1e-12 for k in range(1, k_max + 1))
        and abs(assembly_gap - min(gaps)) <= 1e-10
    )
    return EkReport(k_max=k_max, indices=indices, gaps=gaps, assembly_gap=assembly_gap, ok=ok)


@dataclass
class RescaleReport:
    k: int
    gap: float
    envelope_constant: float
    r: float
    norm_at_unit_time: float
    boundary_warning: bool
    ok: bool


def ek_rescale_factor(k: int) -> RescaleReport:
    """Rescaling r_k = (1 + log c_k)/mu_k making ||exp(-r_k E_k)|| <= 1/e.

    c_k is the empirical envelope constant sup_t ||exp(-E_k t)|| e^(mu_k t)
    over the transient window, 2001 times in [0, 40/mu_k]; a maximum
    attained at the last of them is flagged.
    """
    C = ek_matrix(k)
    gap = -core.spectral_abscissa(-C)
    curve = decay.propagator_norm_curve(C, np.linspace(0.0, 40.0 / gap, 2001))
    vals = curve.norms * np.exp(gap * curve.times)
    c_env = float(vals.max())
    # earliest index within roundoff of the max, so a flat envelope does not
    # spuriously report a boundary maximum
    i = int(np.argmax(vals >= c_env * (1.0 - 1e-12)))
    boundary = i == vals.size - 1
    r = (1.0 + math.log(c_env)) / gap
    norm1 = core.spectral_norm(core.matrix_exponential(-r * C, 1.0))
    return RescaleReport(
        k=k,
        gap=gap,
        envelope_constant=c_env,
        r=r,
        norm_at_unit_time=norm1,
        boundary_warning=boundary,
        ok=norm1 <= 1.0 / math.e + 1e-6,
    )
