import numpy as np
import pytest

from hypokit import errors, gallery, hc_index
from hypokit import operator_core as core
from hypokit.staircase import StaircaseForm

from helpers import random_accretive


def _rj(C):
    dec = core.hermitian_split(C)
    return dec.R, dec.J


def stacked_svd_defect(R, J, m, rank_tol=1e-10):
    """Reference Kalman defect: n - rank [S; S J*; ...; S (J*)^m], S = sqrt(R).

    Independent of the staircase: the PSD root shares the rank cut, and the
    rank of the stacked matrix is cut relative to its top singular value.
    """
    n = R.shape[0]
    w, V = np.linalg.eigh(R)
    w = np.where(w >= rank_tol * max(w[-1], 0.0), w, 0.0)
    S = (V * np.sqrt(w)) @ V.conj().T
    blocks, P = [], np.eye(n, dtype=complex)
    for _ in range(m + 1):
        blocks.append(S @ P)
        P = P @ J.conj().T
    sv = np.linalg.svd(np.vstack(blocks), compute_uv=False)
    if sv[0] == 0.0:
        return n
    return n - int(np.count_nonzero(sv >= rank_tol * sv[0]))


def random_unitary(rng, n):
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, T = np.linalg.qr(Z)
    return Q * (np.diag(T) / np.abs(np.diag(T)))


def planted_staircase_pair(rng, dims):
    """(R, J) in staircase form with block sizes ``dims``, in a random basis.

    R is definite on the first block; J is block tridiagonal with square,
    generically invertible subdiagonal blocks, so the index is len(dims) - 1.
    """
    n = sum(dims)
    edges = np.concatenate([[0], np.cumsum(dims)])
    sl = [slice(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:])]
    R = np.zeros((n, n), dtype=complex)
    G = rng.standard_normal((dims[0], dims[0])) + 1j * rng.standard_normal((dims[0], dims[0]))
    R[sl[0], sl[0]] = G @ G.conj().T / dims[0] + np.eye(dims[0])
    S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    J = np.zeros((n, n), dtype=complex)
    for i in range(len(dims)):
        J[sl[i], sl[i]] = (S[sl[i], sl[i]] - S[sl[i], sl[i]].conj().T) / 2
        if i + 1 < len(dims):
            J[sl[i + 1], sl[i]] = S[sl[i + 1], sl[i]]
            J[sl[i], sl[i + 1]] = -S[sl[i + 1], sl[i]].conj().T
    U = random_unitary(rng, n)
    R, J = U @ R @ U.conj().T, U @ J @ U.conj().T
    return (R + R.conj().T) / 2, (J - J.conj().T) / 2


def forced_obstruction_pair(rng, n):
    """PSD R and skew J such that some eigenvector of J lies in ker R."""
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    R = G.conj().T @ G / n
    S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    J = (S - S.conj().T) / 2
    _, V = np.linalg.eigh(1j * J)
    v = V[:, 0]
    P = np.eye(n) - np.outer(v, v.conj())
    R = P @ R @ P.conj().T
    return (R + R.conj().T) / 2, J


class TestIndexViaPowers:
    @pytest.mark.parametrize("method", hc_index.METHODS)
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_ck_index_one(self, method, k):
        rep = hc_index.index_via_powers(core.hermitian_split(gallery.ck_matrix(k)), method)
        assert rep.index == 1
        assert rep.kappa >= rep.kappa_threshold

    def test_ek4_index_three(self):
        rep = hc_index.index_via_powers(core.hermitian_split(gallery.ek_matrix(4)))
        assert rep.index == 3

    def test_identity_is_coercive(self):
        rep = hc_index.index_via_powers(core.hermitian_split(np.eye(3)))
        assert rep.index == 0
        assert rep.kappa == pytest.approx(1.0, abs=1e-14)

    def test_remark_block_with_large_threshold(self):
        # ker R = {0}, yet a fixed threshold of 0.5 is reached only at m = 1
        C = np.array([[0.1, 1.0], [-1.0, 1.0]])
        rep = hc_index.index_via_powers(core.hermitian_split(C), "j_powers", kappa_threshold=0.5)
        assert rep.index == 1
        assert rep.kappa >= 1.0

    @pytest.mark.parametrize("n", [3, 10, 50])
    def test_threshold_caveat_scales_past_kernel_bound(self, n):
        # dim ker R = 0 bounds the rank-based index, but with a fixed positive
        # threshold the reported index can still be 1
        C = np.array([[1.0 / n, 1.0], [-1.0, 1.0]])
        rep = hc_index.index_via_powers(
            core.hermitian_split(C), "j_powers", kappa_threshold=0.5
        )
        assert rep.index == 1
        assert hc_index.kalman_kernel_defect(*_rj(C), 0) == 0

    def test_none_up_to_m_max(self):
        # R = diag(1, 0) with J = 0 has an invariant kernel: no index exists,
        # and the search reads the levels 0..n
        C = np.diag([1.0, 0.0]).astype(complex)
        rep = hc_index.index_via_powers(core.hermitian_split(C))
        assert rep.index is None
        assert len(rep.per_m_min_eigs) == 3

    def test_rejects_non_accretive(self):
        with pytest.raises(errors.PreconditionError):
            hc_index.index_via_powers(core.hermitian_split(-np.eye(2)))

    def test_monotone_partial_sums(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            dec = random_accretive(rng, int(rng.integers(2, 8)))
            for method in hc_index.METHODS:
                rep = hc_index.index_via_powers(dec, method, kappa_threshold=1e30)
                eigs = np.asarray(rep.per_m_min_eigs)
                scale = max(abs(eigs).max(), 1.0)
                assert np.all(np.diff(eigs) >= -1e-12 * scale)


class TestKalmanKernelDefect:
    def test_two_by_two_hand_case(self):
        R = np.diag([1.0, 0.0])
        J = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert hc_index.kalman_kernel_defect(R, J, 0) == 1
        assert hc_index.kalman_kernel_defect(R, J, 1) == 0

    def test_nonsingular_R(self):
        rng = np.random.default_rng(12)
        S = rng.standard_normal((4, 4))
        J = (S - S.T) / 2
        assert hc_index.kalman_kernel_defect(np.eye(4), J, 0) == 0

    def test_zero_R(self):
        S = np.random.default_rng(13).standard_normal((5, 5))
        J = (S - S.T) / 2
        for m in (0, 2, 5):
            assert hc_index.kalman_kernel_defect(np.zeros((5, 5)), J, m) == 5

    def test_defect_at_kernel_dim_suffices(self):
        # whenever the full sweep reaches zero it already reached it at
        # m = dim ker R
        rng = np.random.default_rng(14)
        for _ in range(50):
            dec = random_accretive(rng, int(rng.integers(2, 8)))
            n = dec.dim
            kdim = hc_index.kalman_kernel_defect(dec.R, dec.J, 0)
            if hc_index.kalman_kernel_defect(dec.R, dec.J, n) == 0:
                assert hc_index.kalman_kernel_defect(dec.R, dec.J, max(kdim, 0)) == 0

    def test_sweep_matches_stacked_svd(self):
        # the sweep has one entry per non-terminal block; every later level
        # keeps its last entry (0 at the index, else the terminal dimension)
        rng = np.random.default_rng(21)
        for trial in range(400):
            n = int(rng.integers(2, 9))
            if trial % 3 == 2:
                R, J = forced_obstruction_pair(rng, n)
            else:
                dec = random_accretive(rng, n)
                R, J = dec.R, dec.J
            dec = core.OperatorDecomposition(C=R - J, R=R, J=J)
            sweep = hc_index.equivalence_audit(dec).defect_sweep
            assert sweep == [stacked_svd_defect(R, J, m) for m in range(len(sweep))]
            tail = [stacked_svd_defect(R, J, m) for m in range(len(sweep), n + 1)]
            assert tail == [sweep[-1]] * len(tail)


class TestEigenvectorObstruction:
    def test_zero_R_reports_witness(self):
        J = np.array([[0.0, -1.0], [1.0, 0.0]])
        w = hc_index.eigenvector_obstruction(np.zeros((2, 2)), J)
        assert w is not None
        assert abs(abs(w.eigenvalue) - 1.0) <= 1e-12
        assert abs(w.eigenvalue.real) <= 1e-12
        # witness spans (1, -+i)/sqrt(2)
        v = w.vector
        assert abs(abs(v[0]) - abs(v[1])) <= 1e-12

    def test_full_rank_R_reports_none(self):
        rng = np.random.default_rng(15)
        S = rng.standard_normal((4, 4))
        assert hc_index.eigenvector_obstruction(np.eye(4), (S - S.T) / 2) is None

    def test_coupled_chain_has_no_obstruction(self):
        R = np.diag([1.0, 0.0, 0.0])
        J = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
        # every eigenvector of this J has a nonzero first component
        _, V = np.linalg.eigh(1j * J)
        assert np.all(np.abs(V[0, :]) > 1e-8)
        assert hc_index.eigenvector_obstruction(R, J) is None

    def test_forced_witness_is_verified(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            R, J = forced_obstruction_pair(rng, int(rng.integers(2, 7)))
            w = hc_index.eigenvector_obstruction(R, J)
            assert w is not None
            assert w.residual_R <= 1e-8 * max(np.linalg.norm(R, 2), 1.0)
            assert w.residual_J <= 1e-8 * max(np.linalg.norm(J, 2), 1.0)

    def test_failed_residual_raises(self):
        # a form whose terminal block is not J-invariant: the witness check
        # must refuse it instead of returning an unverified vector
        R = np.diag([1.0, 0.0]).astype(complex)
        J = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
        form = StaircaseForm(
            basis=np.eye(2, dtype=complex), block_dims=[1, 1], J_hat=J, R_hat=R, rank_tol=1e-10
        )
        with pytest.raises(errors.NumericalError):
            hc_index._terminal_witness(form, R, J, hc_index.WITNESS_RTOL)

    def test_matches_kalman_rank(self):
        rng = np.random.default_rng(17)
        for trial in range(120):
            n = int(rng.integers(2, 7))
            if trial % 3 == 2:
                R, J = forced_obstruction_pair(rng, n)
            else:
                dec = random_accretive(rng, n)
                R, J = dec.R, dec.J
            full_rank = stacked_svd_defect(R, J, n) == 0
            witness = hc_index.eigenvector_obstruction(R, J)
            assert full_rank == (witness is None)


class TestEquivalenceAudit:
    def test_e5_all_methods_agree_at_four(self):
        audit = hc_index.equivalence_audit(core.hermitian_split(gallery.ek_matrix(5)))
        assert audit.agree
        assert set(audit.index_per_method.values()) == {4}

    def test_c2_all_methods_agree_at_one(self):
        audit = hc_index.equivalence_audit(core.hermitian_split(gallery.ck_matrix(2)))
        assert audit.agree
        assert set(audit.index_per_method.values()) == {1}
        assert audit.obstruction is None
        assert audit.defect_sweep[0] == 1 and audit.defect_sweep[1] == 0

    def test_json_shape(self):
        audit = hc_index.equivalence_audit(core.hermitian_split(gallery.ck_matrix(1)))
        d = audit.to_json_dict()
        assert set(d) == {
            "index_per_method", "kappa_per_method", "defect_sweep", "obstruction", "agree",
            "rank_bound", "staircase_warnings",
        }

    def test_random_campaign_no_disagreement(self):
        rng = np.random.default_rng(18)
        for _ in range(60):
            dec = random_accretive(rng, 6)
            assert hc_index.equivalence_audit(dec).agree

    def test_planted_staircase_index_four(self):
        R, J = planted_staircase_pair(np.random.default_rng(22), [12] * 5)
        audit = hc_index.equivalence_audit(core.OperatorDecomposition(C=R - J, R=R, J=J))
        assert audit.index_per_method["staircase"] == 4
        assert audit.agree
        assert audit.defect_sweep == [48, 36, 24, 12, 0]
        assert audit.obstruction is None

    def test_rank_21_at_n_200_agrees(self):
        # generic index ceil(179 / 21) = 9 (blocks 21 x 9 + 11), which is the
        # counting bound ceil(200 / 21) - 1: no family decides a lower level
        rng = np.random.default_rng(23)
        n = 200
        G = rng.standard_normal((n, 21)) + 1j * rng.standard_normal((n, 21))
        R = G @ G.conj().T / n
        S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        J = (S - S.conj().T) / 2
        audit = hc_index.equivalence_audit(
            core.OperatorDecomposition(C=R - J, R=(R + R.conj().T) / 2, J=J)
        )
        assert audit.index_per_method == dict.fromkeys((*hc_index.METHODS, "staircase"), 9)
        assert audit.rank_bound == 9 and audit.defect_sweep.index(0) == 9
        assert audit.agree

    @pytest.mark.parametrize("rank_tol, index", [(1e-6, 1), (1e-10, 0)])
    def test_families_follow_the_rank_cut_of_R(self, rank_tol, index):
        # R's small eigenvalue 1e-8 is a kernel direction at rank_tol = 1e-6
        # (J then couples it in one step) and a coercive one at 1e-10
        C = np.diag([1.0, 1e-8]) - np.array([[0.0, -1.0], [1.0, 0.0]])
        audit = hc_index.equivalence_audit(core.hermitian_split(C), rank_tol=rank_tol)
        assert audit.index_per_method == dict.fromkeys((*hc_index.METHODS, "staircase"), index)
        assert audit.agree

    def test_generic_low_rank_pairs_agree(self):
        # complex Gaussian R = G G*/n of rank r and skew J, drawn in this
        # order from one generator; the families agree with the staircase
        # only if sqrt(R) drops R's roundoff eigenvalues as block 0 does
        rng = np.random.default_rng(7)
        for n, r, index in ((50, 7, 7), (100, 11, 9)):
            G = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
            R = G @ G.conj().T / n
            S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            J = (S - S.conj().T) / 2
            audit = hc_index.equivalence_audit(core.hermitian_split(R - J))
            assert audit.index_per_method == dict.fromkeys((*hc_index.METHODS, "staircase"), index)
            assert audit.agree


    def test_families_share_one_setup(self, monkeypatch):
        # one eigendecomposition of R per audit: the staircase's cut, which
        # also checks accretivity and gives the families their sqrt(R)
        dec = random_accretive(np.random.default_rng(31), 10)
        expected = {m: hc_index.index_via_powers(dec, m) for m in hc_index.METHODS}
        calls = {"_psd_cut": 0, "psd_sqrt": 0, "min_eig_hermitian": 0}
        for name in calls:
            def counting(*args, _fn=getattr(core, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(core, name, counting)
        audit = hc_index.equivalence_audit(dec)
        assert calls == {"_psd_cut": 1, "psd_sqrt": 0, "min_eig_hermitian": 0}
        assert audit.reports == expected
        assert audit.kappa_per_method == {m: r.kappa for m, r in expected.items()}


def _counting_bound_pairs():
    """Rank-deficient draws of ``random_accretive`` and planted pairs, among
    them blocks that shrink (index above the counting bound)."""
    rng = np.random.default_rng(51)
    decs = []
    while len(decs) < 30:
        dec = random_accretive(rng, int(rng.integers(2, 13)))
        if core._psd_cut(dec.R).rank < dec.dim:
            decs.append(dec)
    for dims in ([12] * 5, [5, 5, 3, 1], [4, 2, 2, 1, 1], [3] * 4):
        R, J = planted_staircase_pair(np.random.default_rng(52), dims)
        decs.append(core.OperatorDecomposition(C=R - J, R=R, J=J))
    return decs


class TestCountingBound:
    """Levels below m0 = ceil(n / rank R) - 1 are singular by counting."""

    def test_levels_below_the_bound_read_zero(self):
        for dec in _counting_bound_pairs():
            audit = hc_index.equivalence_audit(dec)
            r = core._psd_cut(dec.R).rank
            assert audit.rank_bound == (-(-dec.dim // r) - 1 if r else dec.dim + 1)
            for rep in audit.reports.values():
                assert rep.rank_bound == audit.rank_bound
                assert rep.per_m_min_eigs[: audit.rank_bound] == [0.0] * audit.rank_bound
            index = audit.index_per_method["staircase"]
            assert index is None or index >= audit.rank_bound

    def test_planted_shrinking_blocks_read_above_the_bound(self):
        R, J = planted_staircase_pair(np.random.default_rng(52), [5, 5, 3, 1])
        audit = hc_index.equivalence_audit(core.OperatorDecomposition(C=R - J, R=R, J=J))
        assert audit.rank_bound == 2
        assert audit.index_per_method == dict.fromkeys((*hc_index.METHODS, "staircase"), 3)

    def test_zero_R_decides_no_level(self):
        S = np.random.default_rng(53).standard_normal((4, 4))
        audit = hc_index.equivalence_audit(core.hermitian_split((S.T - S) / 2))
        assert audit.rank_bound == 5 and audit.defect_sweep == [4]
        assert set(audit.index_per_method.values()) == {None}
        for rep in audit.reports.values():
            assert rep.per_m_min_eigs == [0.0] * 5

    def test_no_svd_below_the_bound(self, monkeypatch):
        svd, search, active, calls = np.linalg.svd, hc_index._family_search, [], []

        def traced_search(*args):
            active.append(True)
            try:
                return search(*args)
            finally:
                active.pop()

        def traced_svd(*args, **kwargs):
            calls.extend(active[-1:])
            return svd(*args, **kwargs)

        monkeypatch.setattr(hc_index, "_family_search", traced_search)
        monkeypatch.setattr(np.linalg, "svd", traced_svd)
        for dec in _counting_bound_pairs():
            calls.clear()
            audit = hc_index.equivalence_audit(dec)
            levels = [len(rep.per_m_min_eigs) - rep.rank_bound for rep in audit.reports.values()]
            assert len(calls) == sum(levels)


class TestFactorUpdate:
    """The power families keep one n x n triangular factor per family."""

    @staticmethod
    def _stack(dec, method, m):
        """[F_0; ...; F_m] built directly: S X^j or the j-fold commutator."""
        S = core._psd_cut(dec.R).root()
        J = dec.J
        X = {"c_powers_right": dec.C, "c_powers_left": dec.C.conj().T, "j_powers": J.conj().T}
        blocks, F = [], S
        for j in range(m + 1):
            if method == "commutators":
                blocks.append(F)
                F = J @ F - F @ J
            else:
                blocks.append(S @ np.linalg.matrix_power(X[method], j))
        return np.vstack(blocks)

    def test_factor_stays_n_by_n(self, monkeypatch):
        n, index = 60, 4
        R, J = planted_staircase_pair(np.random.default_rng(22), [12] * (index + 1))
        dec = core.OperatorDecomposition(C=R - J, R=R, J=J)
        active, svd_rows, qr_calls = [], [], {m: 0 for m in hc_index.METHODS}
        search, svd, qr = hc_index._family_search, np.linalg.svd, np.linalg.qr

        def traced_search(dec, method, *args):
            active.append(method)
            try:
                return search(dec, method, *args)
            finally:
                active.pop()

        def traced_svd(a, *args, **kwargs):
            if active:
                svd_rows.append(a.shape[0])
            return svd(a, *args, **kwargs)

        def traced_qr(a, *args, **kwargs):
            if active:
                qr_calls[active[-1]] += 1
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(hc_index, "_family_search", traced_search)
        monkeypatch.setattr(np.linalg, "svd", traced_svd)
        monkeypatch.setattr(np.linalg, "qr", traced_qr)
        audit = hc_index.equivalence_audit(dec)
        assert audit.index_per_method == dict.fromkeys((*hc_index.METHODS, "staircase"), index)
        assert svd_rows and max(svd_rows) <= n
        assert qr_calls == dict.fromkeys(hc_index.METHODS, index + 1)

    def test_levels_match_the_explicit_stack(self):
        # the QR update is backward stable: each level is sigma_min^2 of the
        # explicit stack up to 10 (m+1) n eps ||stack||^2
        rng = np.random.default_rng(41)
        decs = [random_accretive(rng, int(rng.integers(2, 9))) for _ in range(40)]
        decs += [core.hermitian_split(gallery.ek_matrix(k)) for k in range(2, 13)]
        R, J = planted_staircase_pair(np.random.default_rng(22), [6] * 4)
        decs.append(core.OperatorDecomposition(C=R - J, R=R, J=J))
        eps = np.finfo(float).eps
        for dec in decs:
            for method in hc_index.METHODS:
                rep = hc_index.index_via_powers(dec, method, kappa_threshold=1e30)
                for m, lam in enumerate(rep.per_m_min_eigs):
                    sv = np.linalg.svd(self._stack(dec, method, m), compute_uv=False)
                    tol = 10 * (m + 1) * dec.dim * eps * sv[0] ** 2
                    assert abs(lam - sv[-1] ** 2) <= tol, (dec.dim, method, m)

    @pytest.mark.parametrize(
        "C",
        [gallery.ck_matrix(k) for k in (1, 2, 3)] + [gallery.ek_matrix(k) for k in range(2, 7)],
        ids=[f"ck_{k}" for k in (1, 2, 3)] + [f"ek_{k}" for k in range(2, 7)],
    )
    def test_kappa_matches_a_50_digit_gram_sum(self, C):
        mp = pytest.importorskip("mpmath")
        n = C.shape[0]
        # R is a 0/1 diagonal here, so sqrt(R) = R exactly
        assert not C.imag.any() and set(np.diag(C.real + C.real.T) / 2) <= {0.0, 1.0}
        dec = core.hermitian_split(C)
        for method in hc_index.METHODS:
            rep = hc_index.index_via_powers(dec, method)
            with mp.workdps(50):
                Cm = mp.matrix(C.real.tolist())
                Rm, Jm = (Cm + Cm.T) / 2, (Cm.T - Cm) / 2
                X = {"c_powers_right": Cm, "c_powers_left": Cm.T, "j_powers": Jm.T}.get(method)
                gram, F = mp.zeros(n, n), Rm
                for _ in range(rep.index + 1):
                    gram += F.T * F
                    F = Jm * F - F * Jm if X is None else F * X
                exact = min(mp.eigsy(gram, eigvals_only=True))
            assert abs(rep.kappa - exact) <= 1e-10 * exact, method


class TestVanishingFormEquivalence:
    """Kernel-intersection vectors annihilate all four quadratic-form families
    below the index level, and the four level-m forms coincide."""

    def _forms(self, dec, x, j):
        C, R, J = dec.C, dec.R, dec.J
        Cj = np.linalg.matrix_power(C, j)
        Jj = np.linalg.matrix_power(J, j)
        comm = core.psd_sqrt(R)
        for _ in range(j):
            comm = J @ comm - comm @ J
        return np.array(
            [
                np.vdot(x, Cj @ R @ Cj.conj().T @ x).real,
                np.vdot(x, Jj @ R @ Jj.conj().T @ x).real,
                np.vdot(x, Cj.conj().T @ R @ Cj @ x).real,
                np.vdot(x, comm.conj().T @ comm @ x).real,
            ]
        )

    def test_four_form_agreement(self):
        rng = np.random.default_rng(19)
        checked = 0
        while checked < 15:
            n = 6
            G = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
            R = G @ G.conj().T / n  # rank 2, so level-2 kernels are nontrivial
            S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            J = (S - S.conj().T) / 2
            dec = core.OperatorDecomposition(C=R - J, R=R, J=J)
            for m in (1, 2):
                Sq = core.psd_sqrt(R)
                rows = [Sq @ np.linalg.matrix_power(J.conj().T, j) for j in range(m)]
                _, sv, Vh = np.linalg.svd(np.vstack(rows))
                rank = int(np.sum(sv >= 1e-10 * sv[0]))
                if rank == n:
                    continue
                x = Vh.conj().T[:, -1]
                scale = max(np.linalg.norm(R, 2) * np.linalg.norm(J, 2) ** (2 * m), 1.0)
                for j in range(m):
                    assert np.all(np.abs(self._forms(dec, x, j)) <= 1e-9 * scale)
                level = self._forms(dec, x, m)
                assert np.abs(level - level[1]).max() <= 1e-9 * scale
                checked += 1


def test_random_accretive_generator_contract():
    rng = np.random.default_rng(20)
    saw_deficient = saw_full = False
    for _ in range(40):
        dec = random_accretive(rng, 5)
        assert core.min_eig_hermitian(dec.R) >= -1e-12
        assert np.abs(dec.J + dec.J.conj().T).max() <= 1e-12
        kdim = hc_index.kalman_kernel_defect(dec.R, dec.J, 0)
        saw_deficient |= kdim > 0
        saw_full |= kdim == 0
    assert saw_deficient and saw_full
