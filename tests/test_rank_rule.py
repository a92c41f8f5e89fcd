"""The one rank rule of the staircase: scale-free decisions, and a verifier
that accepts every form the builder returns.  numpy only."""

import json

import numpy as np
import pytest

from hypokit import cli, errors, gallery, hc_index
from hypokit import operator_core as core
from hypokit.staircase import StaircaseForm, build_staircase, verify_staircase

from helpers import bench_planted_pair, random_accretive

SCALES = (1e-12, 1e-6, 1.0, 1e6)


def _random_unitary(rng, n):
    Q, T = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return Q * (np.diag(T) / np.abs(np.diag(T)))


def _weak_coupling_pair():
    """(R, J) whose first coupling block has singular values [1e-4, 1e-12]
    next to ||J|| = 1e3."""
    R = np.diag([1.0, 1.0, 0.0, 0.0, 0.0])
    J = np.zeros((5, 5))
    J[2, 0], J[3, 1], J[4, 2] = 1e-4, 1e-12, 1e3
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
    assert hc_index.eigenvector_obstruction(R, J) is not None


def test_verifier_accepts_the_weak_coupling_in_a_random_basis():
    # the basis of block 1 is accurate to about eps ||J|| / 1e-4, so the
    # later blocks are not exact here; the verifier still accepts the form
    R, J = _weak_coupling_pair()
    Q = _random_unitary(np.random.default_rng(2208), 5)
    R, J = Q @ R @ Q.conj().T, Q @ J @ Q.conj().T
    assert verify_staircase(build_staircase(R, J), R, J).ok


def test_a_value_near_the_cut_is_reported_where_it_ends_the_chain():
    R, J = PAIRS["weak_coupling"]
    form = build_staircase(R, J, rank_tol=2e-18)  # cut 2e-15 = 2e-18 ||J||: 1e-12 kept
    assert form.block_dims == [2, 2, 1, 0]
    form = build_staircase(R, J, rank_tol=2e-15)  # cut 2e-12: 1e-12 in the band
    assert form.block_dims == [2, 1, 1, 1]
    assert form.warnings == ["rank decision at block 2 is within 10x of rank_tol"]


@pytest.mark.parametrize("s", SCALES)
def test_pair_checks_are_relative_to_the_operator(s):
    # an asymmetry of 1e-6 of the operator's size is rejected at every scale
    good = np.array([[0.0, -1.0], [1.0, 0.0]])
    bad = np.array([[1.0, 1e-6], [0.0, 1.0]])
    with pytest.raises(errors.ContractViolationError, match="R is not Hermitian"):
        build_staircase(s * bad, s * good)
    with pytest.raises(errors.ContractViolationError, match="J is not skew-Hermitian"):
        build_staircase(s * np.eye(2), s * (good + np.diag([0.0, 1e-6])))


@pytest.mark.parametrize("s", SCALES)
def test_failed_witness_raises_at_every_scale(s):
    # a terminal block that is not J-invariant: ||J v - lambda v|| = s
    R, J = s * np.diag([1.0, 0.0]), s * np.array([[0.0, -1.0], [1.0, 0.0]])
    form = StaircaseForm(basis=np.eye(2), block_dims=[1, 1], J_hat=J, R_hat=R, rank_tol=1e-10)
    with pytest.raises(errors.NumericalError):
        hc_index._terminal_witness(form, R, J, hc_index.WITNESS_RTOL)


def test_cli_on_scaled_ek8(tmp_path):
    # the staircase reads index 7 and exits 0; analyze has no obstruction to
    # report and exits 3, since the families' fixed threshold reads "none"
    src = tmp_path / "ek8.json"
    src.write_text(cli._to_json(core.matrix_to_json(1e-12 * gallery.ek_matrix(8))))
    out = tmp_path / "out.json"
    assert cli.main(["staircase", "--input", str(src), "--output", str(out)]) == 0
    form = json.loads(out.read_text())
    assert form["block_dims"] == [1] * 8 + [0] and form["verification"]["ok"]
    assert cli.main(["analyze", "--input", str(src), "--output", str(out)]) == 3
    audit = json.loads(out.read_text())["audit"]
    assert audit["obstruction"] is None and audit["index_per_method"]["staircase"] == 7
