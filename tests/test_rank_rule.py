"""The one rank rule of the staircase: scale-free decisions, and a verifier
that accepts every form the builder returns.  numpy only."""

import json
import warnings

import numpy as np
import pytest

from hypokit import cli, errors, gallery, hc_index, staircase
from hypokit import operator_core as core
from hypokit.staircase import StaircaseForm, build_staircase, verify_staircase

from helpers import bench_planted_pair, random_accretive, random_unitary

SCALES = (1e-12, 1e-6, 1.0, 1e6)


def _weak_coupling_pair(weak=1e-12):
    """(R, J) whose first coupling block has singular values [1e-4, weak]
    next to ||J|| = 1e3, so a cut of 1e-7."""
    R = np.diag([1.0, 1.0, 0.0, 0.0, 0.0])
    J = np.zeros((5, 5))
    J[2, 0], J[3, 1], J[4, 2] = 1e-4, weak, 1e3
    return R, J - J.T


def _two_weak_couplings_pair(first=1e-4):
    """(R, J) coupling e0 -> e2 at ``first`` and e1 -> e3 at 1e-8, with a 1e3
    skew pair on (e3, e4), so a cut of 1e-7."""
    R = np.diag([1.0, 1.0, 0.0, 0.0, 0.0])
    J = np.zeros((5, 5))
    J[2, 0], J[3, 1], J[4, 3] = first, 1e-8, 1e3
    return R, J - J.T


def _pairs():
    rng = np.random.default_rng(2207)
    pairs = {}
    for i in range(12):
        dec = random_accretive(rng, int(rng.integers(2, 31)))
        pairs[f"random{i}_n{dec.dim}"] = (dec.R, dec.J)
    dec = core.hermitian_split(bench_planted_pair(1, 0, 60, 12))
    pairs["planted60"] = (dec.R, dec.J)
    for k in range(2, 17):
        dec = core.hermitian_split(gallery.ek_matrix(k))
        pairs[f"ek{k}"] = (dec.R, dec.J)
    pairs["weak_coupling"] = _weak_coupling_pair()
    pairs["two_weak_couplings"] = _two_weak_couplings_pair()
    return pairs


PAIRS = _pairs()


class TestRankCut:
    def test_counts_values_at_or_above_the_cut(self):
        assert core._rank_cut(np.array([3.0, 1.0, 0.999, -2.0]), 1.0) == (2, True)

    def test_band_is_a_factor_ten_on_each_side(self):
        assert core._rank_cut(np.array([10.0, 0.1]), 1.0) == (1, True)
        assert core._rank_cut(np.array([10.01, 0.0999, 0.0]), 1.0) == (1, False)
        assert core._rank_cut(np.array([-0.5]), 1.0) == (0, True)


@pytest.mark.parametrize("name", list(PAIRS))
def test_block_dims_do_not_change_with_scale(name):
    R, J = PAIRS[name]
    dims = {s: build_staircase(s * R, s * J).block_dims for s in SCALES}
    assert all(d == dims[1.0] for d in dims.values()), dims


@pytest.mark.parametrize("name", list(PAIRS))
def test_verifier_accepts_every_form_of_the_builder(name):
    R, J = PAIRS[name]
    for s in SCALES:
        form = build_staircase(s * R, s * J)
        report = verify_staircase(form, s * R, s * J)
        assert report.ok, (s, report.failures)


def test_weak_coupling_block_is_cut_against_the_norm_of_J():
    # 1e-12 < 1e-10 * ||J||: the second direction of the coupling block is
    # not kept, so the chain ends with a one-dimensional terminal block
    R, J = PAIRS["weak_coupling"]
    form = build_staircase(R, J)
    assert form.block_dims == [2, 1, 1, 1]
    assert form.warnings == []
    dec = core.OperatorDecomposition(C=R - J, R=R, J=J)
    assert hc_index.eigenvector_obstruction(dec) is not None


def test_verifier_accepts_the_weak_coupling_in_a_random_basis():
    # the basis of block 1 is accurate to about eps ||J|| / 1e-4, so the
    # later blocks are not exact here; the verifier still accepts the form
    R, J = _weak_coupling_pair()
    Q = random_unitary(np.random.default_rng(2208), 5)
    R, J = Q @ R @ Q.conj().T, Q @ J @ Q.conj().T
    assert verify_staircase(build_staircase(R, J), R, J).ok


@pytest.mark.parametrize("first, dims, off", [(5e-8, [2, 3], 5e-8), (1e-4, [2, 1, 2], 1e-8)])
def test_verifier_bounds_the_pattern_by_the_builders_cut(first, dims, off):
    # at first = 5e-8 both couplings lie below the cut 1e-7 and stay in the
    # J pattern, which the verifier must then accept
    R, J = _two_weak_couplings_pair(first)
    form = build_staircase(R, J)
    assert form.block_dims == dims
    report = verify_staircase(form, R, J)
    assert report.ok, report.failures
    assert report.checks["J_pattern"][1] == pytest.approx(off)


def test_verifier_refuses_a_pattern_entry_above_the_cut():
    # the form of the pair whose couplings both lie below the cut 1e-7, with
    # one of them raised to 2e-7 in J_hat
    R, J = _two_weak_couplings_pair(5e-8)
    form = build_staircase(R, J)
    form.J_hat[np.isclose(np.abs(form.J_hat), 5e-8, rtol=1e-6, atol=0.0)] *= 4.0
    assert "J_pattern" in verify_staircase(form, R, J).failures


@pytest.mark.parametrize("small, psd", [(-5e-11, True), (-2e-10, False)])
def test_psd_cut_admits_a_negative_eigenvalue_only_within_the_cut(small, psd):
    R = np.diag([1.0, small])
    if psd:
        assert core._psd_cut(R).rank == 1
    else:
        with pytest.raises(errors.NotPSDError):
            core._psd_cut(R)


def test_analyze_prints_the_staircase_warnings(tmp_path):
    # the seed-2208 basis of the weak-coupling pair: the coupling that ends
    # the chain reads within 10x of its cut, so the index 3 is ambiguous; no
    # family can resolve it, and analyze says so and exits 3
    R, J = _weak_coupling_pair()
    Q = random_unitary(np.random.default_rng(2208), 5)
    src, out = tmp_path / "pair.json", tmp_path / "out.json"
    src.write_text(cli._to_json(core.matrix_to_json(Q @ (R - J) @ Q.conj().T)))
    assert cli.main(["analyze", "--input", str(src), "--output", str(out)]) == 3
    audit = json.loads(out.read_text())["audit"]
    assert audit["staircase_warnings"] == [
        "rank decision at block 4 is within 10x of its cut 1e-10 * ||J|| = 1e-07"]
    assert audit["rank_bound"] == 2 and audit["agree"] is True
    assert audit["index_per_method"] == {
        **dict.fromkeys(hc_index.METHODS, "unresolved"), "staircase": 3}
    assert cli.main(["staircase", "--input", str(src), "--output", str(out)]) == 3
    assert json.loads(out.read_text())["warnings"] == audit["staircase_warnings"]


def test_a_value_near_the_cut_is_reported_where_it_ends_the_chain():
    form = build_staircase(*_weak_coupling_pair(5e-5))  # 500x the cut 1e-7: kept
    assert form.block_dims == [2, 2, 1, 0] and form.warnings == []
    form = build_staircase(*_weak_coupling_pair(5e-8))  # in the band: dropped
    assert form.block_dims == [2, 1, 1, 1]
    assert form.warnings == [
        "rank decision at block 2 is within 10x of its cut 1e-10 * ||J|| = 1e-07"]


@pytest.mark.parametrize("s", SCALES + (1e-170, 1e160))
def test_pair_checks_are_relative_to_the_operator(s):
    # an asymmetry of 1e-6 of the operator's size is rejected at every scale,
    # also where the squares in its norms underflow (1e-170) or overflow (1e160)
    good = np.array([[0.0, -1.0], [1.0, 0.0]])
    bad = np.array([[1.0, 1e-6], [0.0, 1.0]])
    with pytest.raises(errors.ContractViolationError, match="R is not Hermitian"):
        build_staircase(s * bad, s * good)
    with pytest.raises(errors.ContractViolationError, match="J is not skew-Hermitian"):
        build_staircase(s * np.eye(2), s * (good + np.diag([0.0, 1e-6])))
    with pytest.raises(errors.ContractViolationError, match="matrix is not Hermitian"):
        core.min_eig_hermitian(s * bad)


@pytest.mark.parametrize("s", SCALES + (1e-320,))
def test_hermitian_test_scales_exactly(tmp_path, s):
    # the complex s [[1, 1], [0, 1]] is refused at every scale, also where
    # max|A| is subnormal and a reciprocal 1 / 2^e would overflow; its
    # Hermitian and skew parts pass, and staircase reads them with no warning
    A = s * np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(errors.ContractViolationError, match="matrix is not Hermitian"):
        core.min_eig_hermitian(A)
    src, out = tmp_path / "a.json", tmp_path / "out.json"
    src.write_text(cli._to_json(core.matrix_to_json(A)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["staircase", "--input", str(src), "--output", str(out)]) == 0


#: Operators whose R or J is zero, so the one floor rule of ``operator_core``
#: is their norm: (C, index, block_dims, t0 of the stability marker).
ZERO_PARTS = {
    "C=0": (np.zeros((3, 3)), None, [0, 3], 1.0),
    "skew": (np.array([[0.0, 1.0], [-1.0, 0.0]]), None, [0, 2], 1.0),
    "R=I": (np.eye(3), 0, [3, 0], 3.0),
    "diag(1,0)": (np.diag([1.0, 0.0]), None, [1, 1], 1.0),
}


@pytest.mark.parametrize("name", ZERO_PARTS)
def test_zero_parts_are_read_against_the_floor(tmp_path, capsys, name):
    # a zero R or J is cut against the smallest normal double: R = 0 keeps no
    # eigenvalue and J = 0 no coupling, both commands exit 0 with no warning,
    # and only R = I (index 0) has a short-time fit and law
    C, index, dims, t0 = ZERO_PARTS[name]
    src = tmp_path / "c.json"
    src.write_text(cli._to_json(core.matrix_to_json(C)))
    out = {}
    for command in ("analyze", "staircase"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([command, "--input", str(src), "--output", str(tmp_path / command)]) == 0
        out[command] = json.loads((tmp_path / command).read_text())
    assert capsys.readouterr().err == ""
    form, audit = out["staircase"], out["analyze"]["audit"]
    assert form["block_dims"] == dims and form["warnings"] == []
    assert form["verification"]["ok"] and form["verification"]["hypocoercive_possible"] == (index == 0)
    reading = "none" if index is None else index
    assert audit["index_per_method"] == dict.fromkeys((*hc_index.METHODS, "staircase"), reading)
    assert audit["kappa_per_method"] == dict.fromkeys(hc_index.METHODS, 0.0 if index is None else 1.0)
    assert (audit["obstruction"] is None) == (index == 0)
    if audit["obstruction"] is not None:
        assert audit["obstruction"]["residual_R"] == 0.0
    assert out["analyze"]["stability"]["t0"] == t0
    assert out["analyze"]["stability"]["stable"] == (index == 0)
    assert (out["analyze"]["short_time_fit"] is None) == (index is None)
    assert (out["analyze"]["short_time_law"] is None) == (index is None)


@pytest.mark.parametrize("command, hermitian_tests", [("staircase", 4), ("analyze", 2)])
def test_each_scale_is_measured_once(tmp_path, monkeypatch, command, hermitian_tests):
    # the record builds one staircase form, whose builder cuts R and norms J
    # once, and the verifier, the families and the witness read both from the
    # form; the verifier tests the pair again.  analyze norms C once, in its
    # record, and staircase never
    C = bench_planted_pair(1, 0, 60, 12)
    J = core.hermitian_split(C).J
    src = tmp_path / "pair.json"
    src.write_text(cli._to_json(core.matrix_to_json(C)))
    calls = {"build_staircase": 0, "_psd_cut": 0, "_hermitian": 0, "norm_J": 0, "norm_C": 0}

    def counting(name, fn):
        def wrapped(A, *args):
            calls[name] += 1
            return fn(A, *args)
        return wrapped

    def norm(A, _fn=core.spectral_norm):
        for name, M in (("norm_J", J), ("norm_C", C)):
            calls[name] += any(np.array_equal(X, M) for X in np.reshape(A, (-1, *M.shape)))
        return _fn(A)

    monkeypatch.setattr(staircase, "build_staircase",
                        counting("build_staircase", staircase.build_staircase))
    monkeypatch.setattr(core, "_psd_cut", counting("_psd_cut", core._psd_cut))
    monkeypatch.setattr(core, "_hermitian", counting("_hermitian", core._hermitian))
    monkeypatch.setattr(core, "spectral_norm", norm)
    assert cli.main([command, "--input", str(src), "--output", str(tmp_path / "out")]) == 0
    norm_C = int(command == "analyze")
    assert calls == {"build_staircase": 1, "_psd_cut": 1, "_hermitian": hermitian_tests,
                     "norm_J": 1, "norm_C": norm_C}


def test_the_public_readings_of_one_record_share_one_form(monkeypatch):
    # every family check, defect, witness and the audit read the record's
    # form, built (and R cut) on the first of them
    dec = core.hermitian_split(bench_planted_pair(1, 0, 60, 12))
    calls = {"build_staircase": 0, "_psd_cut": 0}
    for module, name in ((staircase, "build_staircase"), (core, "_psd_cut")):
        def counting(*args, _fn=getattr(module, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(module, name, counting)
    reports = {m: hc_index.index_via_powers(dec, m) for m in hc_index.METHODS}
    defects = [hc_index.kalman_kernel_defect(dec, m) for m in range(6)]
    assert hc_index.eigenvector_obstruction(dec) is None
    audit = hc_index.equivalence_audit(dec)
    assert calls == {"build_staircase": 1, "_psd_cut": 1}
    assert audit.reports == reports and audit.defect_sweep == defects[:5] == [48, 36, 24, 12, 0]
    assert defects[5] == 0 and audit.index_per_method["staircase"] == 4


def test_witness_takes_its_scales_from_the_form(monkeypatch):
    R, J = _weak_coupling_pair()
    dec = core.OperatorDecomposition(C=R - J, R=R, J=J)
    vars(dec)["form"] = build_staircase(R, J)

    def no_svd(*args, **kwargs):
        raise AssertionError("the witness ran an SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    assert hc_index.eigenvector_obstruction(dec) is not None


@pytest.mark.parametrize("s", SCALES)
def test_failed_witness_raises_at_every_scale(s):
    # a terminal block that is not J-invariant: ||J v - lambda v|| = s
    R, J = s * np.diag([1.0, 0.0]), s * np.array([[0.0, -1.0], [1.0, 0.0]])
    dec = core.OperatorDecomposition(C=R - J, R=R, J=J)
    vars(dec)["form"] = StaircaseForm(basis=np.eye(2), block_dims=[1, 1], J_hat=J, R_hat=R,
                                      r_cut=core._psd_cut(R), norm_J=s)
    with pytest.raises(errors.NumericalError):
        hc_index.eigenvector_obstruction(dec)


def test_cli_on_scaled_ek8(tmp_path):
    # the staircase and the families decide on scale-free values, so
    # 1e-12 E_8 reads index 7 from all five methods and both commands exit 0
    src = tmp_path / "ek8.json"
    src.write_text(cli._to_json(core.matrix_to_json(1e-12 * gallery.ek_matrix(8))))
    out = tmp_path / "out.json"
    assert cli.main(["staircase", "--input", str(src), "--output", str(out)]) == 0
    form = json.loads(out.read_text())
    assert form["block_dims"] == [1] * 8 + [0] and form["verification"]["ok"]
    assert cli.main(["analyze", "--input", str(src), "--output", str(out)]) == 0
    audit = json.loads(out.read_text())["audit"]
    assert audit["obstruction"] is None
    assert audit["index_per_method"] == dict.fromkeys((*hc_index.METHODS, "staircase"), 7)
    # kappa_7 (1e-180 or 0.0) lies below the roundoff of its stack, about 4e-43
    assert audit["kappa_per_method"] == dict.fromkeys(hc_index.METHODS, None)
