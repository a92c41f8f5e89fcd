import dataclasses

import numpy as np
import pytest

from hypokit import errors, hc_index, staircase
from hypokit import operator_core as core
from hypokit.staircase import build_staircase, verify_staircase

from helpers import lorentz_reference


def random_pair(rng, n, kernel_dim):
    """PSD R with prescribed kernel dimension plus a random skew J."""
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    R = G.conj().T @ G / n
    w, V = np.linalg.eigh(R)
    w[:kernel_dim] = 0.0
    R = (V * w) @ V.conj().T
    R = (R + R.conj().T) / 2
    S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return R, (S - S.conj().T) / 2


class TestBuildStaircase:
    def test_nonsingular_R_gives_two_blocks(self):
        rng = np.random.default_rng(0)
        S = rng.standard_normal((4, 4))
        J = (S - S.T) / 2
        form = build_staircase(np.eye(4), J)
        assert form.block_dims == [4, 0]
        assert verify_staircase(form, np.eye(4), J).ok

    def test_decoupled_kernel_terminates_immediately(self):
        R = np.diag([1.0, 0.0])
        J = np.zeros((2, 2))
        form = build_staircase(R, J)
        assert form.block_dims == [1, 1]
        report = verify_staircase(form, R, J)
        assert report.ok
        assert not report.hypocoercive_possible

    def test_three_chain(self):
        # J couples the kernel one dimension at a time: blocks [1, 1, 1, 0]
        R = np.diag([1.0, 0.0, 0.0])
        J = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
        form = build_staircase(R, J)
        assert form.block_dims == [1, 1, 1, 0]
        slices = form.block_slices()
        for i in (1, 2):
            blk = form.J_hat[slices[i], slices[i - 1]]
            assert abs(blk[0, 0]) > 1e-10
        assert verify_staircase(form, R, J).ok

    def test_zero_R(self):
        rng = np.random.default_rng(1)
        S = rng.standard_normal((3, 3))
        J = (S - S.T) / 2
        form = build_staircase(np.zeros((3, 3)), J)
        assert form.block_dims == [0, 3]
        report = verify_staircase(form, np.zeros((3, 3)), J)
        assert report.ok
        assert not report.hypocoercive_possible

    def test_rejects_bad_inputs(self):
        with pytest.raises(errors.ContractViolationError):
            build_staircase(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)))
        with pytest.raises(errors.DimensionError):
            build_staircase(np.eye(2), np.zeros((3, 3)))

    @pytest.mark.parametrize("small, flagged", [(3e-10, True), (1e-6, False)])
    def test_ambiguous_cut_of_R_is_flagged(self, small, flagged):
        # an eigenvalue of R within 10x of RANK_RTOL * ||R|| gets a warning
        R = np.diag([1.0, small])
        form = build_staircase(R, np.array([[0.0, -1.0], [1.0, 0.0]]))
        warning = ("rank decision for the Hermitian part is within 10x of its cut "
                   "1e-10 * max|eigenvalue of R| = 1e-10")
        assert form.warnings == ([warning] if flagged else [])
        assert form.block_dims == [2, 0]

    @pytest.mark.parametrize("rel, rejected", [(1e-6, True), (1e-13, False)])
    def test_relative_asymmetry_threshold(self, rel, rejected):
        # perturb R by a skew and J by a Hermitian matrix of relative size rel;
        # the builder and the verifier share the one Hermitian test
        rng = np.random.default_rng(8)
        R, J = random_pair(rng, 12, 4)
        S = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        K, H = (S - S.conj().T) / 2, (S + S.conj().T) / 2
        bad_R = R + rel * np.linalg.norm(R, 2) / np.linalg.norm(K, 2) * K
        bad_J = J + rel * np.linalg.norm(J, 2) / np.linalg.norm(H, 2) * H
        form = build_staircase(R, J)
        for pair in ((bad_R, J), (R, bad_J)):
            if rejected:
                with pytest.raises(errors.ContractViolationError):
                    build_staircase(*pair)
                with pytest.raises(errors.ContractViolationError):
                    verify_staircase(form, *pair)
            else:
                assert sum(build_staircase(*pair).block_dims) == 12
                assert verify_staircase(form, *pair).ok

    def test_real_pair_stays_real(self):
        rng = np.random.default_rng(3)
        G, S = rng.standard_normal((6, 2)), rng.standard_normal((6, 6))
        R, J = G @ G.T, (S - S.T) / 2
        form = build_staircase(R, J)
        assert form.block_dims == [2, 2, 2, 0]
        for M in (form.basis, form.J_hat, form.R_hat, *staircase._check_pair(R, J)):
            assert M.dtype == np.float64



class TestVerifyStaircase:
    @staticmethod
    def pair_with_terminal_block():
        """R = e0 e0* and J coupling the chain e0, e1, e2 and, apart from it,
        e3, e4, e5 (a J-invariant space in ker R), in a random basis: blocks
        [1, 1, 1, 3]."""
        J = np.zeros((6, 6), dtype=complex)
        for i, j, v in ((0, 1, 1.0), (1, 2, 0.7), (3, 4, 0.9), (4, 5, 0.4)):
            J[i, j], J[j, i] = v, -v
        rng = np.random.default_rng(9)
        U = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))[0]
        R = np.outer(U[:, 0], U[:, 0].conj())
        return (R + R.conj().T) / 2, U @ J @ U.conj().T

    def test_J_pattern_reads_each_forbidden_entry(self):
        R, J = self.pair_with_terminal_block()
        form = build_staircase(R, J)
        assert form.block_dims == [1, 1, 1, 3]
        base = verify_staircase(form, R, J)
        assert base.ok, base.failures
        s, slices = form.n_blocks, form.block_slices()
        forbidden = 0
        for i in range(s):
            for j in range(s):
                J_hat = form.J_hat.copy()
                J_hat[slices[i].stop - 1, slices[j].start] = 0.5j
                checks = verify_staircase(dataclasses.replace(form, J_hat=J_hat), R, J).checks
                if abs(i - j) >= 2 or {i, j} == {s - 2, s - 1}:
                    forbidden += 1
                    assert checks["J_pattern"] == (False, 0.5), (i, j)
                else:  # a diagonal or adjacent block
                    assert checks["J_pattern"] == base.checks["J_pattern"], (i, j)
        # (0, 2), (0, 3), (1, 3) and the last pair (2, 3), each both ways
        assert forbidden == 8

class TestStaircaseProperties:
    def test_random_campaign(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(3, 11))
            kd = int(rng.integers(1, n))
            R, J = random_pair(rng, n, kd)
            form = build_staircase(R, J)
            report = verify_staircase(form, R, J)
            assert report.ok, report.failures
            assert len(form.block_dims) <= kd + 2

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(3, 9))
            R, J = random_pair(rng, n, int(rng.integers(1, n)))
            form = build_staircase(R, J)
            before = np.sort(np.linalg.eigvalsh(1j * J))
            after = np.sort(np.linalg.eigvalsh(1j * form.J_hat))
            assert np.abs(before - after).max() <= 1e-9

    def test_idempotent_block_dims(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(3, 9))
            R, J = random_pair(rng, n, int(rng.integers(1, n)))
            form = build_staircase(R, J)
            again = build_staircase(form.R_hat, form.J_hat)
            assert again.block_dims == form.block_dims

    def test_nontrivial_terminal_block_implies_obstruction(self):
        rng = np.random.default_rng(5)
        found = 0
        for trial in range(60):
            n = int(rng.integers(2, 7))
            if trial % 2 == 0:
                # decouple a J-eigenvector from the range of R
                S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                J = (S - S.conj().T) / 2
                _, V = np.linalg.eigh(1j * J)
                v = V[:, 0]
                P = np.eye(n) - np.outer(v, v.conj())
                G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                R = P @ (G.conj().T @ G / n) @ P.conj().T
                R = (R + R.conj().T) / 2
                w, W = np.linalg.eigh(R)
                w[w < 1e-12 * max(w[-1], 1e-300)] = 0.0
                R = (W * w) @ W.conj().T
                R = (R + R.conj().T) / 2
            else:
                R, J = random_pair(rng, n, int(rng.integers(1, n)))
            form = build_staircase(R, J)
            if form.terminal_dim > 0:
                found += 1
                dec = core.OperatorDecomposition(C=R - J, R=R, J=J)
                assert hc_index.eigenvector_obstruction(dec) is not None
        assert found >= 10

    def test_lorentz_modal_pair_has_trivial_terminal_block(self):
        R, J10 = lorentz_reference(8)
        form = build_staircase(R, J10)
        assert form.terminal_dim == 0
        assert verify_staircase(form, R, J10).ok
        # consistent with index 1 of the modal generators
        dec = core.OperatorDecomposition(C=R - J10, R=R, J=J10)
        assert hc_index.index_via_powers(dec).index == 1

    def test_json_shape(self):
        form = build_staircase(np.diag([1.0, 0.0]), np.zeros((2, 2)))
        d = form.to_json_dict()
        assert set(d) == {"block_dims", "basis", "J_hat", "R_hat", "warnings"}
        B = core.matrix_from_json(d["basis"])
        assert B.shape == (2, 2)
