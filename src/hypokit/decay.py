"""Quantitative decay analysis of the propagator P(t) = exp(-C t).

Covers sampled propagator-norm curves, the short-time law
``||P(t)|| = 1 - c t^(2m+1) + o(t^(2m+1))`` attached to the hypocoercivity
index m, fitted here (``hc_index`` reads the exact c off the staircase form),
and exponential-stability checks.

One kernel, ``_norms``, takes every propagator norm that hypokit reports.
It writes the propagators into one buffer of at most ``_CHUNK_BYTES``
(1 MiB; one propagator if a single one is larger) and norms each full
buffer with one batched ``core.spectral_norm`` call, so the memory is
bounded whatever the grid length and the per-call overhead, which dominates
on small blocks, is paid once per buffer.  LAPACK factors each slice of a
stack exactly as that matrix alone, so the norms are bitwise those of one
``spectral_norm`` call per propagator.  It keeps the one overflow rule of
``operator_core``: a propagator is refused exactly when it is not finite,
with a ``RangeError`` naming its time.  Two sources feed it:

- stepping, on a uniform grid of three or more times: E = exp(-C dt) is
  computed once (plus exp(-C t0) when t0 > 0) and P(t_k) = P(t_(k-1)) E.
  After k steps the absolute error is at most k*eps*max_(s<=t) ||P(s)||^2,
  so at most k*eps for accretive C.  An overflowing product is caught at
  its own time (a bound at the last time would refuse stable non-normal
  generators).  A real generator is stepped in real arithmetic;
- pointwise, everywhere else: one ``_expm`` per time, which raises the
  ``RangeError`` itself where exp(-C t) is not finite.  This serves the
  other grids of ``propagator_norm_curve``, ``short_time_curve`` and the
  single times of ``stability_check`` and ``gallery.ek_rescale_factor``.

``analyze`` fits the law on a geometric grid, but the fit reads only the
points whose drop 1 - ||P(t)|| lies in ``FIT_DROPS``.  ``short_time_curve``
finds the part of the grid that can hold them with one bisection per edge
and evaluates only that part.  Its certificate is the growth bound
``||P(t)|| <= ||P(s)|| e^(mu (t - s))`` for t >= s, with
mu = max(0, -lambda_min((C + C*)/2)) (mu = 0 for accretive C, where the norm
does not increase).  The lower edge is certified where the norm at a probe
bounds every earlier drop below FIT_DROPS[0] / 10, the upper edge where it
bounds every later drop above 10 * FIT_DROPS[1]; the factor 10 on each side
leaves room for roundoff in the computed norms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import operator_core as core
from .errors import (
    DimensionError,
    InvalidEntryError,
    NoDecayError,
    PreconditionError,
    RangeError,
)

__all__ = [
    "DecayCurve",
    "ShortTimeFit",
    "StabilityReport",
    "is_uniform_grid",
    "propagator_norm_curve",
    "short_time_curve",
    "fit_short_time",
    "stability_check",
]


@dataclass
class DecayCurve:
    """Sampled spectral norms of exp(-C t) over an increasing time grid."""

    times: np.ndarray
    norms: np.ndarray

    def to_csv(self) -> str:
        lines = ["t,norm"]
        for t, v in zip(self.times, self.norms):
            lines.append(f"{t:.17g},{v:.17g}")
        return "\n".join(lines) + "\n"


@dataclass
class ShortTimeFit:
    """Log-log fit of the initial norm drop 1 - ||P(t)|| ~ c t^a.

    ``a_rounded`` is the nearest odd integer; ``flagged`` marks fits whose
    estimated exponent strays more than 0.2 from it, or whose ``c_est`` is
    not a positive normal float: exp of the intercept under- or overflowed,
    as on 1e-170 E_4, whose c is about 1e-1195.
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
class StabilityReport:
    stable: bool
    t0: float
    norm_at_t0: float
    spectral_gap: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def is_uniform_grid(ts: np.ndarray) -> bool:
    """Whether an increasing grid of three or more times is equally spaced.

    Each spacing may differ from the first by 1e-12 of it plus 8 eps |t_max|,
    the rounding of ``np.linspace`` on [0, t_max] with room to spare; the
    slack scales with the grid, so a grid on [0, 1e-15] is judged as one on
    [0, 1].
    """
    return ts.size > 2 and bool(
        np.allclose(np.diff(ts), ts[1] - ts[0], rtol=1e-12,
                    atol=8.0 * np.finfo(float).eps * abs(ts[-1]))
    )


def _time_grid(times) -> np.ndarray:
    """``times`` as a float array, checked to be a nonempty, finite, strictly
    increasing and nonnegative 1-d grid."""
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise DimensionError("times must be a nonempty 1-d grid")
    if not np.all(np.isfinite(ts)):
        raise InvalidEntryError("times must be finite")
    if np.any(ts < 0) or np.any(np.diff(ts) <= 0):
        raise PreconditionError("times must be strictly increasing and nonnegative")
    return ts


#: Size of the buffer of propagators that ``_norms`` norms in one call (at
#: least one propagator).
_CHUNK_BYTES = 2**20

#: The drops 1 - ||P(t)|| that ``fit_short_time`` reads: below the first the
#: drop is roundoff, above the second the Taylor law no longer dominates.
FIT_DROPS = (1e-10, 1e-2)


def _norms(A: np.ndarray, ts: np.ndarray, propagators=None) -> np.ndarray:
    """The kernel of the module docstring: ||P|| for each propagator P of A
    that ``propagators`` yields, one per time in ``ts``.  The default source
    is the pointwise one, exp(A t) by ``_expm``.  A propagator that is not
    finite raises ``RangeError`` naming its time."""
    if propagators is None:
        propagators = (core._expm(A, t) for t in ts)
    n = A.shape[0]
    buf = np.empty((min(ts.size, max(1, _CHUNK_BYTES // (n * n * A.itemsize))), n, n), dtype=A.dtype)
    norms = np.empty(ts.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, ts.size, len(buf)):
            chunk = buf[: min(len(buf), ts.size - start)]
            for out, P in zip(chunk, propagators):
                out[...] = P
            try:
                norms[start : start + len(chunk)] = core.spectral_norm(chunk)
            except InvalidEntryError:
                first = start + int(np.argmin(np.isfinite(chunk).all(axis=(1, 2))))
                raise RangeError(f"exp(-C t) overflows at t = {ts[first]:.6g}") from None
    return norms


def propagator_norm_curve(C, times) -> DecayCurve:
    """Spectral norm of exp(-C t) at each grid time, from the one kernel of
    the module docstring: stepped on a uniform grid of three or more times,
    pointwise on any other."""
    C = core.as_matrix(C, square=True)
    ts = _time_grid(times)
    A = -C
    if not is_uniform_grid(ts):
        return DecayCurve(times=ts, norms=_norms(A, ts))
    E = core.matrix_exponential(A, ts[1] - ts[0])
    P0 = core.matrix_exponential(A, ts[0]) if ts[0] > 0 else np.eye(C.shape[0], dtype=C.dtype)
    steps = itertools.accumulate(itertools.repeat(E, ts.size - 1), np.matmul, initial=P0)
    return DecayCurve(times=ts, norms=_norms(A, ts, steps))


def short_time_curve(dec: core.OperatorDecomposition, times) -> DecayCurve:
    """The points of the curve of ||exp(-C t)|| on ``times`` that can hold a
    point of the ``fit_short_time`` window, for C = ``dec.C``.

    The result is a contiguous run of the grid, normed by the pointwise
    source of the kernel (module docstring).  On a grid that is not uniform
    its norms are bitwise those of ``propagator_norm_curve``, so
    ``fit_short_time`` gives the same fit (or the same ``NoDecayError``) on
    it as on the full curve.

    One bisection over the grid index finds each edge of the run, with mu
    as in the module docstring.  The run starts at the first index l where
    1 - ||P(t_l)|| e^(-mu t_l), a bound on every drop up to l, is not below
    FIT_DROPS[0] / 10.  It stops at the first later index b where
    1 - ||P(t_b)|| e^(mu (t_N - t_b)), a bound on every drop from b on, is
    above 10 * FIT_DROPS[1].  Each bisection probes its last candidate
    first, so a generator whose drop stays roundoff costs one ``_expm``.
    Probe norms are reused, and the rest of the run is normed in one batch.
    Where no point survives, the curve is empty.
    """
    ts = _time_grid(times)
    A = -dec.C
    mu = max(0.0, float(np.linalg.eigvalsh(-dec.R)[-1]))
    low, high = 0.1 * FIT_DROPS[0], 10.0 * FIT_DROPS[1]
    norms = np.full(ts.size, np.nan)

    def edge(lo: int, hi: int, below) -> int:
        """Bisect (lo, hi), hi - 1 first: lo moves up to each probe i where
        ``below(||P(t_i)||, t_i)``, hi down to the others; returns hi."""
        probe = hi - 1
        while hi - lo > 1:
            if np.isnan(norms[probe]):
                norms[probe] = _norms(A, ts[probe : probe + 1])[0]
            if below(norms[probe], ts[probe]):
                lo = probe
            else:
                hi = probe
            probe = (lo + hi) // 2
        return hi

    first = edge(-1, ts.size, lambda v, t: 1.0 - v * math.exp(-mu * t) < low)
    # 1 - v e^(mu (t_N - t)) <= high, written with e^(-mu (t_N - t)), which cannot overflow
    stop = edge(first - 1, ts.size, lambda v, t: v >= (1.0 - high) * math.exp(-mu * (ts[-1] - t)))
    todo = [i for i in range(first, stop) if np.isnan(norms[i])]
    if todo:
        norms[todo] = _norms(A, ts[todo])
    return DecayCurve(times=ts[first:stop], norms=norms[first:stop])


def fit_short_time(curve: DecayCurve) -> ShortTimeFit:
    """Least-squares fit of log(1 - ||P(t)||) = log c + a log t.

    Only samples at t > 0 whose norm drop lies in ``FIT_DROPS``,
    [1e-10, 1e-2], participate.  The fit is ``flagged`` where c_est is not
    a positive normal float, as well as where a_est is not near an odd
    integer (``ShortTimeFit``).
    """
    drop = 1.0 - curve.norms
    mask = (drop >= FIT_DROPS[0]) & (drop <= FIT_DROPS[1]) & (curve.times > 0)
    if int(mask.sum()) < 10:
        raise NoDecayError(
            f"only {int(mask.sum())} samples show a usable norm drop in "
            f"[{FIT_DROPS[0]:g}, {FIT_DROPS[1]:g}]; cannot fit (skew generator or grid too narrow)"
        )
    T = np.log(curve.times[mask])
    L = np.log(drop[mask])
    A = np.vstack([np.ones_like(T), T]).T
    coef, *_ = np.linalg.lstsq(A, L, rcond=None)
    a_est = float(coef[1])
    with np.errstate(over="ignore"):  # an infinite c_est is flagged below
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
        flagged=odd_gap > 0.2 or not np.finfo(float).tiny <= c_est < math.inf,
    )


def stability_check(dec: core.OperatorDecomposition) -> StabilityReport:
    """Exponential stability marker ||exp(-C t0)|| < 1 plus the spectral gap.

    For a bounded generator C = ``dec.C`` the sharp asymptotic rate equals the
    spectral gap min Re sigma(C); a norm strictly below one at any single time
    already certifies uniform exponential stability.  t0 = 3/gap, about three
    decay times, when the gap exceeds 1e-12 ||C||, else 1/||C|| (1 for C = 0),
    with ||C|| read from the record (``dec.norm``, measured once).  Both are
    relative to the scale of C, so s C reads t0 / s.
    """
    gap = -core.spectral_abscissa(-dec.C)
    norm_C = dec.norm
    t0 = 3.0 / gap if gap > 1e-12 * norm_C else 1.0 / norm_C if norm_C > 0 else 1.0
    norm = float(propagator_norm_curve(dec.C, [t0]).norms[0])
    return StabilityReport(stable=norm < 1.0 - 1e-12, t0=t0, norm_at_t0=norm, spectral_gap=gap)
