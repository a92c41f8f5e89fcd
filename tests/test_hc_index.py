import numpy as np
import pytest

from hypokit import errors, gallery, hc_index
from hypokit import operator_core as core
from hypokit.staircase import StaircaseForm

from helpers import (
    dropped_coupling_pair, forced_obstruction_pair, planted_staircase_pair, random_accretive,
)


def _record(R, J):
    """The record of C = R - J that keeps the raw pair (R, J) exact."""
    return core.OperatorDecomposition(C=R - J, R=R, J=J)


def stacked_svd_defect(R, J, m):
    """Reference Kalman defect: n - rank [S; S J*; ...; S (J*)^m], S = sqrt(R).

    Independent of the staircase: the PSD root shares the rank cut 1e-10, and
    the rank of the stacked matrix is cut relative to its top singular value.
    """
    rank_tol = 1e-10
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


def _stack(dec, method, m, normalized=True):
    """[F_0; ...; F_m] built directly from sqrt(R) and S X^j or the j-fold
    commutator with J; ``normalized`` divides sqrt(R) and X by their norms
    (the decision's stack), else it is the paper's stack of kappa."""
    S = core.psd_sqrt(dec.R)
    X = {"c_powers_right": dec.C, "c_powers_left": dec.C.conj().T,
         "j_powers": dec.J.conj().T, "commutators": dec.J}[method]
    if normalized:
        S, X = S / np.linalg.norm(S, 2), X / np.linalg.norm(X, 2)
    blocks, F = [], S
    for _ in range(m + 1):
        blocks.append(F)
        F = X @ F - F @ X if method == "commutators" else F @ X
    return np.vstack(blocks)


def _shrinking_planted_pairs():
    """Planted pairs whose blocks shrink, so the index lies above the counting
    bound and level m - 1 is evaluated."""
    rng = np.random.default_rng(52)
    decs = []
    for dims in ([5, 5, 3, 1], [4, 2, 2, 1, 1], [6, 4, 4, 2], [3, 3, 1, 1, 1], [7, 5, 2]):
        R, J = planted_staircase_pair(rng, dims)
        decs.append(core.OperatorDecomposition(C=R - J, R=R, J=J))
    return decs


class TestIndexViaPowers:
    @pytest.mark.parametrize("method", hc_index.METHODS)
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_ck_index_one(self, method, k):
        rep = hc_index.index_via_powers(core.hermitian_split(gallery.ck_matrix(k)), method)
        assert rep.index == 1 and rep.verdict == "resolved"
        assert rep.lambda_m >= 10 * rep.floor and rep.kappa > 0.0

    def test_ek4_index_three(self):
        rep = hc_index.index_via_powers(core.hermitian_split(gallery.ek_matrix(4)))
        assert rep.index == 3

    def test_identity_is_coercive(self):
        rep = hc_index.index_via_powers(core.hermitian_split(np.eye(3)))
        assert rep.index == 0
        assert rep.kappa == pytest.approx(1.0, abs=1e-14)

    def test_remark_block_reads_index_zero(self):
        # ker R = {0}: every family resolves level 0, at kappa = min eig R
        C = np.array([[0.1, 1.0], [-1.0, 1.0]])
        for method in hc_index.METHODS:
            rep = hc_index.index_via_powers(core.hermitian_split(C), method)
            assert rep.index == 0
            assert rep.kappa == pytest.approx(0.1, rel=1e-12)

    @pytest.mark.parametrize("n", [3, 10, 50])
    def test_weak_coercivity_reads_index_zero(self, n):
        # dim ker R = 0 gives index 0 however small R's least eigenvalue
        # 1 / n is, and the family resolves level 0 far above its floor
        C = np.array([[1.0 / n, 1.0], [-1.0, 1.0]])
        rep = hc_index.index_via_powers(core.hermitian_split(C), "j_powers")
        assert rep.index == 0 and rep.lambda_m >= 1e20 * rep.floor
        assert hc_index.kalman_kernel_defect(core.hermitian_split(C), 0) == 0

    def test_none_up_to_m_max(self):
        # R = diag(1, 0) with J = 0 has an invariant kernel: no index exists,
        # and no level of the family is evaluated
        C = np.diag([1.0, 0.0]).astype(complex)
        rep = hc_index.index_via_powers(core.hermitian_split(C))
        assert rep.index == "none" and rep.level is None
        assert rep.lambda_prev is rep.lambda_m is rep.floor is rep.kappa_floor is None
        assert rep.kappa == 0.0

    def test_rejects_non_accretive(self):
        with pytest.raises(errors.PreconditionError):
            hc_index.index_via_powers(core.hermitian_split(-np.eye(2)))

    def test_unknown_method_is_refused(self):
        with pytest.raises(ValueError, match="unknown method"):
            hc_index.index_via_powers(core.hermitian_split(np.eye(2)), "c_powers")

    def test_monotone_partial_sums(self):
        # the level m sum adds a PSD term to the level m - 1 sum
        rng = np.random.default_rng(11)
        decs = [random_accretive(rng, int(rng.integers(2, 8))) for _ in range(30)]
        evaluated = 0
        for dec in decs + _shrinking_planted_pairs():
            for method in hc_index.METHODS:
                rep = hc_index.index_via_powers(dec, method)
                if rep.level is None:
                    continue
                assert rep.lambda_prev <= rep.lambda_m + 1e-12 * (rep.level + 1)
                evaluated += rep.lambda_prev > 0.0
        assert evaluated >= 20


class TestKalmanKernelDefect:
    def test_two_by_two_hand_case(self):
        R = np.diag([1.0, 0.0])
        J = np.array([[0.0, -1.0], [1.0, 0.0]])
        dec = _record(R, J)
        assert hc_index.kalman_kernel_defect(dec, 0) == 1
        assert hc_index.kalman_kernel_defect(dec, 1) == 0

    def test_nonsingular_R(self):
        rng = np.random.default_rng(12)
        S = rng.standard_normal((4, 4))
        J = (S - S.T) / 2
        assert hc_index.kalman_kernel_defect(_record(np.eye(4), J), 0) == 0

    def test_zero_R(self):
        S = np.random.default_rng(13).standard_normal((5, 5))
        J = (S - S.T) / 2
        dec = _record(np.zeros((5, 5)), J)
        for m in (0, 2, 5):
            assert hc_index.kalman_kernel_defect(dec, m) == 5

    def test_defect_at_kernel_dim_suffices(self):
        # whenever the full sweep reaches zero it already reached it at
        # m = dim ker R
        rng = np.random.default_rng(14)
        for _ in range(50):
            dec = random_accretive(rng, int(rng.integers(2, 8)))
            n = dec.dim
            kdim = hc_index.kalman_kernel_defect(dec, 0)
            if hc_index.kalman_kernel_defect(dec, n) == 0:
                assert hc_index.kalman_kernel_defect(dec, max(kdim, 0)) == 0

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
            sweep = hc_index.equivalence_audit(_record(R, J)).defect_sweep
            assert sweep == [stacked_svd_defect(R, J, m) for m in range(len(sweep))]
            tail = [stacked_svd_defect(R, J, m) for m in range(len(sweep), n + 1)]
            assert tail == [sweep[-1]] * len(tail)


class TestEigenvectorObstruction:
    def test_zero_R_reports_witness(self):
        J = np.array([[0.0, -1.0], [1.0, 0.0]])
        w = hc_index.eigenvector_obstruction(_record(np.zeros((2, 2)), J))
        assert w is not None
        assert abs(abs(w.eigenvalue) - 1.0) <= 1e-12
        assert abs(w.eigenvalue.real) <= 1e-12
        # witness spans (1, -+i)/sqrt(2)
        v = w.vector
        assert abs(abs(v[0]) - abs(v[1])) <= 1e-12

    def test_full_rank_R_reports_none(self):
        rng = np.random.default_rng(15)
        S = rng.standard_normal((4, 4))
        assert hc_index.eigenvector_obstruction(_record(np.eye(4), (S - S.T) / 2)) is None

    def test_coupled_chain_has_no_obstruction(self):
        R = np.diag([1.0, 0.0, 0.0])
        J = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
        # every eigenvector of this J has a nonzero first component
        _, V = np.linalg.eigh(1j * J)
        assert np.all(np.abs(V[0, :]) > 1e-8)
        assert hc_index.eigenvector_obstruction(_record(R, J)) is None

    def test_forced_witness_is_verified(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            R, J = forced_obstruction_pair(rng, int(rng.integers(2, 7)))
            w = hc_index.eigenvector_obstruction(_record(R, J))
            assert w is not None
            assert w.residual_R <= 1e-8 * max(np.linalg.norm(R, 2), 1.0)
            assert w.residual_J <= 1e-8 * max(np.linalg.norm(J, 2), 1.0)

    def test_failed_residual_raises(self):
        # a form whose terminal block is not J-invariant: the witness check
        # must refuse it instead of returning an unverified vector
        R = np.diag([1.0, 0.0]).astype(complex)
        J = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
        dec = _record(R, J)
        vars(dec)["form"] = StaircaseForm(basis=np.eye(2, dtype=complex), block_dims=[1, 1],
                                          J_hat=J, R_hat=R, r_cut=core._psd_cut(R), norm_J=1.0)
        with pytest.raises(errors.NumericalError):
            hc_index.eigenvector_obstruction(dec)

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
            witness = hc_index.eigenvector_obstruction(_record(R, J))
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
            "index_per_method", "kappa_per_method", "family_checks", "defect_sweep",
            "obstruction", "agree", "rank_bound", "staircase_warnings",
        }
        assert audit.short_time_law == {
            "m": 1, "exponent": 3, "c": pytest.approx(1 / 12, rel=1e-14), "reason": None}
        # every decision carries its values and its floor, the roundoff
        # eps^2 n ||stack||^2 of the level-m stack, and every kappa the same
        # floor of the unnormalized stack it was judged against
        assert set(d["family_checks"]) == set(hc_index.METHODS)
        dec = core.hermitian_split(gallery.ck_matrix(1))
        eps = np.finfo(float).eps
        for method, check in d["family_checks"].items():
            assert set(check) == {"verdict", "lambda_prev", "lambda", "floor", "kappa_floor"}
            assert check["verdict"] == "resolved" and check["lambda"] >= 10 * check["floor"]
            top = np.linalg.norm(_stack(dec, method, 1), 2)
            assert check["floor"] == pytest.approx(eps**2 * 2 * top**2, rel=1e-12)
            top = np.linalg.norm(_stack(dec, method, 1, normalized=False), 2)
            assert check["kappa_floor"] == pytest.approx(eps**2 * 2 * top**2, rel=1e-12)
            kappa = d["kappa_per_method"][method]
            assert kappa is not None and kappa >= 10 * check["kappa_floor"]

    def test_random_campaign_no_disagreement(self):
        rng = np.random.default_rng(18)
        for _ in range(60):
            audit = hc_index.equivalence_audit(random_accretive(rng, 6))
            assert audit.agree
            index = audit.index_per_method["staircase"]
            expected = "none" if index is None else index
            assert set(audit.index_per_method.values()) == {index, expected}

    @pytest.mark.parametrize("n", [40, 80])
    def test_forced_obstruction_reads_none(self, n):
        # no index: the families are not evaluated and the witness decides
        R, J = forced_obstruction_pair(np.random.default_rng(n), n)
        audit = hc_index.equivalence_audit(core.OperatorDecomposition(C=R - J, R=R, J=J))
        assert audit.to_json_dict()["index_per_method"] == dict.fromkeys(
            (*hc_index.METHODS, "staircase"), "none")
        assert audit.kappa_per_method == dict.fromkeys(hc_index.METHODS, 0.0)
        assert audit.obstruction is not None and audit.agree

    def test_family_coercive_below_the_index_is_inconclusive(self):
        # the cut drops the 1e-12 coupling, so the staircase reads 2, but
        # every family is coercive at level 1 far above its floor
        audit = hc_index.equivalence_audit(core.hermitian_split(dropped_coupling_pair()))
        assert audit.index_per_method["staircase"] == 2 and not audit.agree
        for rep in audit.reports.values():
            assert rep.index == "inconclusive" and rep.lambda_prev >= 10 * rep.floor

    @pytest.mark.parametrize("C, resolved", [
        (1e-12 * gallery.ek_matrix(8), False), (gallery.ek_matrix(40), False),
        (gallery.ek_matrix(8), True), (gallery.ck_matrix(2), True),
    ], ids=["1e-12_ek_8", "ek_40", "ek_8", "ck_2"])
    def test_kappa_below_the_roundoff_of_its_stack_is_none(self, C, resolved):
        # kappa_m is None exactly when it is below 10 eps^2 n ||stack||^2 for
        # the paper's unnormalized stack: 1e-12 E_8 resolves m = 7 in every
        # family, but its kappa_7 = 1e-180 is lost, as is every kappa of the
        # unresolved E_40 (its commutators' 3.778e-7, against a floor of 1.9e12)
        dec = core.hermitian_split(C)
        audit = hc_index.equivalence_audit(dec)
        eps = np.finfo(float).eps
        for method, rep in audit.reports.items():
            sv = np.linalg.svd(_stack(dec, method, rep.level, normalized=False), compute_uv=False)
            floor = eps**2 * dec.dim * sv[0] ** 2
            if resolved:
                assert rep.kappa >= 1e3 * floor, method
            else:
                assert rep.kappa is None and audit.kappa_per_method[method] is None, method
                assert sv[-1] ** 2 < 10 * floor, method

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

    @pytest.mark.parametrize("small, index", [(1e-12, 1), (1e-8, 0)])
    def test_families_follow_the_rank_cut_of_R(self, small, index):
        # R's small eigenvalue is a kernel direction below the cut 1e-10
        # (J then couples it in one step) and a coercive one above it
        C = np.diag([1.0, small]) - np.array([[0.0, -1.0], [1.0, 0.0]])
        audit = hc_index.equivalence_audit(core.hermitian_split(C))
        assert audit.index_per_method == dict.fromkeys((*hc_index.METHODS, "staircase"), index)
        assert audit.agree

    def test_generic_low_rank_pairs_agree(self):
        # complex Gaussian R = G G*/n of rank r and skew J, drawn in this
        # order from one generator; the families agree with the staircase
        # only if sqrt(R) drops R's roundoff eigenvalues as block 0 does
        rng = np.random.default_rng(7)
        for n, r, index in ((50, 7, 7), (100, 11, 9), (200, 21, 9)):
            G = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
            R = G @ G.conj().T / n
            S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            J = (S - S.conj().T) / 2
            audit = hc_index.equivalence_audit(core.hermitian_split(R - J))
            assert audit.index_per_method == dict.fromkeys((*hc_index.METHODS, "staircase"), index)
            assert audit.agree
        # lambda_min of sum_j (S C^j)* (S C^j) with the stored floats as exact
        # data, from a Gaussian-integer Gram matrix and 60-digit Cholesky tests
        assert audit.kappa_per_method["c_powers_right"] == pytest.approx(0.0089501887, rel=2e-8)


    def test_families_share_one_setup(self, monkeypatch):
        # one eigendecomposition of R per audit: the staircase's cut, which
        # also checks accretivity and gives the families their sqrt(R); the
        # expected reports come from a separate record, which builds its own form
        dec = random_accretive(np.random.default_rng(31), 10)
        other = core.OperatorDecomposition(C=dec.C, R=dec.R, J=dec.J)
        expected = {m: hc_index.index_via_powers(other, m) for m in hc_index.METHODS}
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
            index = audit.index_per_method["staircase"]
            assert index is None or index >= audit.rank_bound
            for rep in audit.reports.values():
                assert rep.rank_bound == audit.rank_bound and rep.level == index
                if index is not None and index - 1 < audit.rank_bound:
                    assert rep.lambda_prev == 0.0

    def test_planted_shrinking_blocks_read_above_the_bound(self):
        R, J = planted_staircase_pair(np.random.default_rng(52), [5, 5, 3, 1])
        audit = hc_index.equivalence_audit(core.OperatorDecomposition(C=R - J, R=R, J=J))
        assert audit.rank_bound == 2
        assert audit.index_per_method == dict.fromkeys((*hc_index.METHODS, "staircase"), 3)

    def test_zero_R_decides_no_level(self):
        S = np.random.default_rng(53).standard_normal((4, 4))
        audit = hc_index.equivalence_audit(core.hermitian_split((S.T - S) / 2))
        assert audit.rank_bound == 5 and audit.defect_sweep == [4]
        assert set(audit.to_json_dict()["index_per_method"].values()) == {"none"}
        for rep in audit.reports.values():
            assert rep.lambda_prev is rep.lambda_m is None

    def test_no_svd_below_the_bound(self, monkeypatch):
        # each family reads level m twice (the decision and kappa) and level
        # m - 1 only from m0 on, each with one SVD: none for a level below m0
        svd, level, active, calls = np.linalg.svd, hc_index._level, [], []

        def traced_level(blocks):
            active.append([len(blocks) - 1, 0])
            try:
                return level(blocks)
            finally:
                calls.append(active.pop())

        def traced_svd(*args, **kwargs):
            if active:
                active[-1][1] += 1
            return svd(*args, **kwargs)

        monkeypatch.setattr(hc_index, "_level", traced_level)
        monkeypatch.setattr(np.linalg, "svd", traced_svd)
        for dec in _counting_bound_pairs() + _shrinking_planted_pairs():
            calls.clear()
            audit = hc_index.equivalence_audit(dec)
            m, m0 = audit.index_per_method["staircase"], audit.rank_bound
            if m is None:
                assert calls == []
                continue
            levels = [m, m] + ([m - 1] if m - 1 >= m0 else [])
            assert sorted(calls) == sorted([[lv, 1] for lv in levels] * len(hc_index.METHODS))


class TestFactorUpdate:
    """Each level is read from the n x n triangular factor of one QR of its
    stack, with the rows sorted by decreasing norm."""

    def test_factor_stays_n_by_n(self, monkeypatch):
        n, index = 60, 4
        R, J = planted_staircase_pair(np.random.default_rng(22), [12] * (index + 1))
        dec = core.OperatorDecomposition(C=R - J, R=R, J=J)
        active, svd_shapes, qr_rows = [], [], []
        level, svd, qr = hc_index._level, np.linalg.svd, np.linalg.qr

        def traced_level(*args):
            active.append(True)
            try:
                return level(*args)
            finally:
                active.pop()

        def traced_svd(a, *args, **kwargs):
            if active:
                svd_shapes.append(a.shape)
            return svd(a, *args, **kwargs)

        def traced_qr(a, *args, **kwargs):
            if active:
                norms = np.linalg.norm(a, axis=1)
                assert np.all(norms[:-1] >= norms[1:])
                qr_rows.append(a.shape[0])
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(hc_index, "_level", traced_level)
        monkeypatch.setattr(np.linalg, "svd", traced_svd)
        monkeypatch.setattr(np.linalg, "qr", traced_qr)
        audit = hc_index.equivalence_audit(dec)
        assert audit.index_per_method == dict.fromkeys((*hc_index.METHODS, "staircase"), index)
        # index = m0 = 4: two readings of level 4 (the decision and kappa) per
        # family, each one QR of the whole stack and one SVD of its factor
        per_family = {"c_powers_right": 12, "c_powers_left": 12, "j_powers": 12, "commutators": n}
        assert sorted(qr_rows) == sorted([(index + 1) * rows for rows in per_family.values()] * 2)
        assert svd_shapes == [(n, n)] * len(qr_rows)

    def test_levels_match_the_explicit_stack(self):
        # the QR and the SVD of the explicit normalized stack are backward
        # stable, so each reads sigma_min to delta = 10 (m+1) n eps ||stack||,
        # and the two squares differ by at most 4 delta (sigma_min + delta)
        rng = np.random.default_rng(41)
        decs = [random_accretive(rng, int(rng.integers(2, 9))) for _ in range(40)]
        decs += [core.hermitian_split(gallery.ek_matrix(k)) for k in range(2, 13)]
        R, J = planted_staircase_pair(np.random.default_rng(22), [6] * 4)
        decs.append(core.OperatorDecomposition(C=R - J, R=R, J=J))
        decs += _shrinking_planted_pairs()
        eps = np.finfo(float).eps
        for dec in decs:
            for method in hc_index.METHODS:
                rep = hc_index.index_via_powers(dec, method)
                m = rep.level
                if m is None:
                    continue
                for level, lam in ((m - 1, rep.lambda_prev), (m, rep.lambda_m)):
                    if level < 0:
                        assert lam == 0.0
                        continue
                    sv = np.linalg.svd(_stack(dec, method, level), compute_uv=False)
                    delta = 10 * (level + 1) * dec.dim * eps * sv[0]
                    tol = 4 * delta * (sv[-1] + delta)
                    assert abs(lam - sv[-1] ** 2) <= tol, (dec.dim, method, level)

    @pytest.mark.parametrize("g", [1e-6, 1e-8])
    @pytest.mark.parametrize("seed", range(5))
    def test_level_of_a_graded_stack_matches_60_digits(self, seed, g):
        # the small rows g B come first, so only the row sort keeps lambda,
        # about g^2, to its last digits: an unsorted QR reads it 3.5e-11 off
        # or worse
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(seed)
        blocks = [g * rng.standard_normal((6, 6)), rng.standard_normal((5, 6))]
        lam, _ = hc_index._level(blocks)
        with mp.workdps(60):
            A = mp.matrix(np.vstack(blocks).tolist())
            exact = min(mp.eigsy(A.T * A, eigvals_only=True))
        assert abs(lam - exact) <= 1e-13 * exact

    @pytest.mark.parametrize(
        "C, methods, rtol",
        [(gallery.ck_matrix(k), hc_index.METHODS, 1e-10) for k in (1, 2, 3)]
        + [(gallery.ek_matrix(k), hc_index.METHODS, 1e-10) for k in range(2, 7)]
        + [(gallery.ek_matrix(16), hc_index.METHODS, 1e-10),
           (gallery.ek_matrix(25), hc_index.METHODS[:3], 1e-8)],
        ids=[f"ck_{k}" for k in (1, 2, 3)] + [f"ek_{k}" for k in (2, 3, 4, 5, 6, 16, 25)],
    )
    def test_kappa_matches_a_50_digit_gram_sum(self, C, methods, rtol):
        # the Gram matrices are integer; on E_25 the 50-digit lambda_min agrees
        # with a 150-digit one to 1e-34.  The powers of E_25 read kappa to
        # 1.5e-9; its commutators, whose kappa is only 1.8 times 10 floors,
        # read 1.5e-6 off and are left out
        mp = pytest.importorskip("mpmath")
        n = C.shape[0]
        # R is a 0/1 diagonal here, so sqrt(R) = R exactly
        assert not C.imag.any() and set(np.diag(C.real + C.real.T) / 2) <= {0.0, 1.0}
        dec = core.hermitian_split(C)
        for method in methods:
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
            assert abs(rep.kappa - exact) <= rtol * exact, method


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
        kdim = hc_index.kalman_kernel_defect(dec, 0)
        saw_deficient |= kdim > 0
        saw_full |= kdim == 0
    assert saw_deficient and saw_full
