"""The index decisions do not depend on the basis, on complex conjugation or
on the scale of C, the propagator norm and the stability marker rescale
exactly with time, and the short-time constant c of s C is s^(2m+1) times
that of C (bitwise for s = 2^k where the staircase scales bitwise), while
a unitary similarity or conjugation moves c by at most 1e-9 relative.
Far outside double range (1e160 C, 2^900 C) the index holds, and kappa and
c read null.

For C = R - J and a unitary U, U C U* has the same staircase up to the basis;
conj(C) is the same operator on conjugated vectors; and s C for s > 0 has the
same staircase, since every rank cut is relative to the norm it cuts
(``operator_core.RANK_RTOL``), with exp(-(s C)(t / s)) = exp(-C t).  So the
readings below, all integers, verdicts and strings, must match exactly.  The
power families' coercivity constants kappa hold to 1e-9 relative under a
unitary similarity and conjugation (found: at most 3.2e-11); the
commutators' kappa is not compared, since on E_25 it moves by 7.5e-3.
"""

import json
import math
import warnings

import numpy as np
import pytest

from hypokit import cli, decay, gallery, hc_index, staircase
from hypokit import operator_core as core

from helpers import bench_planted_pair, random_unitary


def _generic(n_target: int) -> np.ndarray:
    """A = R - J with R = G G* / n of rank r and J = (S - S*) / 2, drawn from
    ``default_rng(7)`` at (n, r) = (50, 7), then (100, 11); the index is 7,
    then 9."""
    rng = np.random.default_rng(7)
    for n, r in ((50, 7), (100, 11)):
        G = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
        S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if n == n_target:
            return G @ G.conj().T / n - (S - S.conj().T) / 2
    raise ValueError(n_target)


#: The benchmark's planted pair of ``index-audit`` at seed 1 (index 4), E_16
#: (index 15) and two generic pairs (index 7 and 9).
INPUTS = {
    "planted60": lambda: bench_planted_pair(1, 0, 60, 12),
    "ek16": lambda: gallery.ek_matrix(16),
    "generic50": lambda: _generic(50),
    "generic100": lambda: _generic(100),
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


@pytest.mark.parametrize("transform", ["similarity", "conjugate"])
@pytest.mark.parametrize("name", INPUTS)
def test_power_kappa_is_invariant(name, transform):
    C = INPUTS[name]()
    ref = hc_index.equivalence_audit(core.hermitian_split(C)).kappa_per_method
    got = hc_index.equivalence_audit(core.hermitian_split(TRANSFORMS[transform](C))).kappa_per_method
    for method in hc_index.METHODS[:3]:
        assert got[method] == pytest.approx(ref[method], rel=1e-9), method


@pytest.mark.parametrize("s", [1e-12, 1e-6, 1e6])
@pytest.mark.parametrize("name", INPUTS)
def test_stability_marker_rescales_with_time(name, s):
    # t0 = 3 / gap, or 1 / ||C|| below a gap of 1e-12 ||C||: s C reads t0 / s,
    # up to the gap's own eigenvalue error (found: 4e-11 relative on
    # planted60), and its norm is that of C at s t0
    C = INPUTS[name]()
    ref = decay.stability_check(core.hermitian_split(C))
    got = decay.stability_check(core.hermitian_split(s * C))
    assert got.stable == ref.stable
    assert got.t0 * s == pytest.approx(ref.t0, rel=1e-9)
    at_t0 = decay.propagator_norm_curve(C, [got.t0 * s]).norms[0]
    assert got.norm_at_t0 == pytest.approx(at_t0, rel=0.0, abs=1e-13)


@pytest.mark.parametrize("transform", ["similarity", "conjugate"])
@pytest.mark.parametrize("name", INPUTS)
def test_short_time_constant_is_invariant(name, transform):
    # found: at most 1.2e-14 relative under the similarity, 0 under conjugation
    C = INPUTS[name]()
    ref = hc_index.equivalence_audit(core.hermitian_split(C)).short_time_law
    got = hc_index.equivalence_audit(core.hermitian_split(TRANSFORMS[transform](C))).short_time_law
    assert got["m"] == ref["m"]
    assert got["c"] == pytest.approx(ref["c"], rel=1e-9)


@pytest.mark.parametrize("s", [1e-6, 1e6])
@pytest.mark.parametrize("name", INPUTS)
def test_short_time_constant_rescales_as_a_power(name, s):
    # 1 - c t^(2m+1) of s C at t / s is that of C at t, so s C has the
    # constant s^(2m+1) c (found within 7.2e-13 relative: 1e+-6 is not a
    # power of 2, so the form of s C is s times that of C only to roundoff)
    C = INPUTS[name]()
    ref = hc_index.equivalence_audit(core.hermitian_split(C)).short_time_law
    got = hc_index.equivalence_audit(core.hermitian_split(s * C)).short_time_law
    assert got["m"] == ref["m"]
    assert got["c"] == pytest.approx(s ** ref["exponent"] * ref["c"], rel=1e-9)


@pytest.mark.parametrize("k", [-40, -1, 1, 40])
@pytest.mark.parametrize("name", INPUTS)
def test_short_time_constant_scales_bitwise_by_powers_of_two(name, k):
    # s = 2^k gives the constant 2^(k(2m+1)) c: bitwise where the form of
    # s C is bitwise s times that of C (every case here), where that is a
    # normal double (E_16 at k = +-40 is not, and reads None)
    C = INPUTS[name]()
    dec, dec_s = core.hermitian_split(C), core.hermitian_split(2.0**k * C)
    form, form_s = (staircase.build_staircase(d.R, d.J) for d in (dec, dec_s))
    ref = hc_index._short_time_law(form)
    got = hc_index._short_time_law(form_s)
    try:
        expected = math.ldexp(ref["c"], k * ref["exponent"])
    except OverflowError:
        expected = None
    if expected is not None and expected < np.finfo(float).tiny:
        expected = None
    assert got["m"] == ref["m"] and (got["c"] is None) == (got["reason"] is not None)
    if expected is None:
        assert got["c"] is None
    elif (np.array_equal(form_s.J_hat, 2.0**k * form.J_hat)
          and np.array_equal(form_s.r_cut.w, 2.0**k * form.r_cut.w)
          and form_s.norm_J == 2.0**k * form.norm_J):
        assert got["c"] == expected
    else:
        assert got["c"] == pytest.approx(expected, rel=1e-14)


EXPONENTS = (-1000, -300, 200, 300, 500, 900)


@pytest.mark.parametrize("s", [1e160, *(2.0**k for k in EXPONENTS)],
                         ids=["1e160", *(f"2^{k}" for k in EXPONENTS)])
@pytest.mark.parametrize("name", ["ek4", "planted60"])
def test_analyze_far_outside_double_range(tmp_path, name, s):
    # every method reads the index of C, every kappa (whose weights
    # ||sqrt R|| ||X||^j, or their squares at 2^200, leave double range) and
    # c read null, and analyze exits 0 with no warning
    C = gallery.ek_matrix(4) if name == "ek4" else INPUTS[name]()
    index = hc_index.equivalence_audit(core.hermitian_split(C)).index_per_method["staircase"]
    src, out = tmp_path / "c.json", tmp_path / "out.json"
    src.write_text(cli._to_json(core.matrix_to_json(s * C)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["analyze", "--input", str(src), "--output", str(out)]) == 0
    d = json.loads(out.read_text())
    assert d["audit"]["index_per_method"] == dict.fromkeys((*hc_index.METHODS, "staircase"), index)
    assert d["audit"]["kappa_per_method"] == dict.fromkeys(hc_index.METHODS, None)
    if s > 1.0:
        assert all(c["kappa_floor"] is None for c in d["audit"]["family_checks"].values())
    assert d["short_time_law"]["m"] == index and d["short_time_law"]["c"] is None
