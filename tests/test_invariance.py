"""The index decisions do not depend on the basis, on complex conjugation or
on the scale of C, and the propagator norm rescales exactly with time.

For C = R - J and a unitary U, U C U* has the same staircase up to the basis;
conj(C) is the same operator on conjugated vectors; and s C for s > 0 has the
same staircase, since every rank cut is relative to the norm it cuts
(``operator_core.RANK_RTOL``), with exp(-(s C)(t / s)) = exp(-C t).  So the
readings below, all integers, verdicts and strings, must match exactly.  The
coercivity constants kappa are not compared: they move in their fifth digit
under a unitary similarity.
"""

import numpy as np
import pytest

from hypokit import decay, gallery, hc_index, staircase
from hypokit import operator_core as core

from helpers import bench_planted_pair, random_unitary


def _generic50() -> np.ndarray:
    """A = R - J with R = G G* / n of rank r and J = (S - S*) / 2, drawn from
    ``default_rng(7)`` at (n, r) = (50, 7); the index is 7."""
    rng = np.random.default_rng(7)
    n, r = 50, 7
    G = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return G @ G.conj().T / n - (S - S.conj().T) / 2


#: The benchmark's planted pair of ``index-audit`` at seed 1 (index 4), E_16
#: (index 15) and a generic pair (index 7).
INPUTS = {
    "planted60": lambda: bench_planted_pair(1, 0, 60, 12),
    "ek16": lambda: gallery.ek_matrix(16),
    "generic50": _generic50,
}


def _similar(C: np.ndarray) -> np.ndarray:
    U = random_unitary(np.random.default_rng(31), C.shape[0])
    return U @ C @ U.conj().T


TRANSFORMS = {
    "similarity": _similar,
    "conjugate": np.conj,
    "scale-1e-6": lambda C: 1e-6 * C,
    "scale-1e6": lambda C: 1e6 * C,
}


def _readings(C: np.ndarray) -> dict:
    dec = core.hermitian_split(C)
    audit = hc_index.equivalence_audit(dec)
    return {
        "index_per_method": audit.index_per_method,
        "verdicts": {method: rep.verdict for method, rep in audit.reports.items()},
        "block_dims": staircase.build_staircase(dec.R, dec.J).block_dims,
        "defect_sweep": audit.defect_sweep,
        "warnings": audit.warnings,
    }


@pytest.mark.parametrize("transform", TRANSFORMS)
@pytest.mark.parametrize("name", INPUTS)
def test_readings_are_invariant(name, transform):
    C = INPUTS[name]()
    assert _readings(TRANSFORMS[transform](C)) == _readings(C)


@pytest.mark.parametrize("s", [1e-6, 1e6])
@pytest.mark.parametrize("name", INPUTS)
def test_norm_curve_rescales_with_time(name, s):
    # the stepped path (a uniform grid) and the pointwise one (geometric)
    C = INPUTS[name]()
    for ts in (np.linspace(0.0, 2.0, 21), np.geomspace(1e-3, 2.0, 12)):
        ref = decay.propagator_norm_curve(C, ts).norms
        got = decay.propagator_norm_curve(s * C, ts / s).norms
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)
