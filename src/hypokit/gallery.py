"""Worked example operators with closed-form ground truth.

Two families carry most of the load: the 2x2 rotation-plus-leak matrices
(index 1, with a closed-form propagator norm and short-time constant k^2/12
that the tests check against) and the k x k shift-plus-corner matrices
(index k-1, spectral gap <= 1/k).  The remaining constructors realize finite
sections of the block-diagonal and compact-collision counterexamples.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import decay
from . import operator_core as core
from .errors import NumericalError, PreconditionError

__all__ = [
    "EXAMPLE_NAMES",
    "make_example",
    "ck_matrix",
    "ek_matrix",
    "RescaleReport",
    "ek_rescale_factor",
]

#: Example name -> the one parameter it takes.
_PARAMETER = {
    "ck": "k",
    "ek": "k",
    "remark25_block_family": "blocks",
    "compact_R_family": "dim",
    "ek_blockdiag": "blocks",
    "ek_rescaled": "blocks",
}

#: Parameter -> its value when it is not given; every one is an integer >= 1.
_DEFAULT = {"k": 1, "blocks": 1, "dim": 4}

EXAMPLE_NAMES = tuple(_PARAMETER)


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
    takes dim, which defaults to 4; the others default to 1.  Any other
    parameter, or a value that is not an integer of at least 1, raises
    ``PreconditionError``.
    """
    if name not in _PARAMETER:
        raise PreconditionError(f"unknown example {name!r}; expected one of {EXAMPLE_NAMES}")
    param = _PARAMETER[name]
    extra = sorted(set(params) - {param})
    if extra:
        raise PreconditionError(f"example {name!r} takes only {param}, not {', '.join(extra)}")
    value = params.get(param, _DEFAULT[param])
    try:
        value = operator.index(value)
    except TypeError:
        raise PreconditionError(f"{param} must be an integer, got {value!r}") from None
    if value < 1:
        raise PreconditionError(f"{param} must be at least 1")
    if name == "ck":
        return ck_matrix(value)
    if name == "ek":
        return ek_matrix(value)
    if name == "remark25_block_family":
        return _blockdiag([_remark25_block(n) for n in range(1, value + 1)])
    if name == "compact_R_family":
        R = np.diag([1.0 / (i + 1) for i in range(value)]).astype(complex)
        J = np.zeros((value, value), dtype=complex)
        for i in range(value - 1):
            J[i + 1, i] = 1.0
            J[i, i + 1] = -1.0
        return R - J
    if name == "ek_blockdiag":
        return _blockdiag([ek_matrix(k) for k in range(1, value + 1)])
    scaled = []  # ek_rescaled
    for k in range(1, value + 1):
        rep = ek_rescale_factor(k)
        if not rep.ok or rep.boundary_warning:
            raise NumericalError(
                f"rescaling of E_{k} failed: ||exp(-r E_k)|| = {rep.norm_at_unit_time:.6g}"
                f" (bound 1/e), envelope maximum at the window end: {rep.boundary_warning}"
            )
        scaled.append(rep.r * ek_matrix(k))
    return _blockdiag(scaled)


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
    norm1 = float(decay.propagator_norm_curve(r * C, [1.0]).norms[0])
    return RescaleReport(
        k=k,
        gap=gap,
        envelope_constant=c_env,
        r=r,
        norm_at_unit_time=norm1,
        boundary_warning=boundary,
        ok=norm1 <= 1.0 / math.e + 1e-6,
    )
