import math

import numpy as np
import pytest

from hypokit import errors, gallery, hc_index, staircase
from hypokit import operator_core as core

from helpers import ck_closed_form_norm


class TestMakeExample:
    def test_ck(self):
        np.testing.assert_array_equal(
            gallery.make_example("ck", k=2), np.array([[0.0, 2.0], [-2.0, 1.0]])
        )

    def test_ek(self):
        C = gallery.make_example("ek", k=3)
        dec = core.hermitian_split(C)
        np.testing.assert_allclose(dec.R, np.diag([0.0, 0.0, 1.0]), atol=1e-15)
        np.testing.assert_allclose(
            C - dec.R, np.array([[0, 1, 0], [-1, 0, 1], [0, -1, 0]]), atol=1e-15
        )

    def test_compact_R_family(self):
        C = gallery.make_example("compact_R_family", dim=4)
        dec = core.hermitian_split(C)
        np.testing.assert_allclose(dec.R, np.diag([1.0, 1 / 2, 1 / 3, 1 / 4]), atol=1e-15)
        np.testing.assert_allclose(
            dec.J, np.array([[0, -1, 0, 0], [1, 0, -1, 0], [0, 1, 0, -1], [0, 0, 1, 0]]),
            atol=1e-15,
        )

    def test_remark25_blocks(self):
        C = gallery.make_example("remark25_block_family", blocks=2)
        assert C.shape == (4, 4)
        np.testing.assert_allclose(C[2:, 2:], [[0.5, 1.0], [-1.0, 1.0]], atol=1e-15)

    def test_bad_name_and_params(self):
        with pytest.raises(errors.PreconditionError):
            gallery.make_example("nope")
        with pytest.raises(errors.PreconditionError):
            gallery.make_example("ck", k=0)
        with pytest.raises(errors.PreconditionError):
            gallery.make_example("compact_R_family", dim=0)
        with pytest.raises(errors.PreconditionError):
            gallery.make_example("ek", k=0)

    @pytest.mark.parametrize("value", [2.7, 2.0, "3", None])
    def test_parameter_must_be_an_integer(self, value):
        with pytest.raises(errors.PreconditionError, match="k must be an integer"):
            gallery.make_example("ck", k=value)
        assert gallery.make_example("ck", k=np.int64(2)).tolist() == [[0, 2], [-2, 1]]

    @pytest.mark.parametrize(
        "name, params",
        [
            ("ek_rescaled", {"k": 4}),
            ("ck", {"blocks": 2}),
            ("ek", {"k": 2, "dim": 3}),
            ("remark25_block_family", {"dim": 3}),
            ("compact_R_family", {"k": 2}),
            ("ek_blockdiag", {"k": 2}),
        ],
    )
    def test_rejects_a_parameter_the_example_does_not_take(self, name, params):
        with pytest.raises(errors.PreconditionError, match="takes only"):
            gallery.make_example(name, **params)


class TestCkClosedForm:
    def test_time_zero(self):
        for k in (1, 2, 7):
            assert ck_closed_form_norm(k, 0.0) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_matches_matrix_exponential(self, k):
        ts = np.linspace(0.0, 3.0, 151)
        oracle = ck_closed_form_norm(k, ts)
        C = gallery.ck_matrix(k)
        direct = np.array(
            [core.spectral_norm(core.matrix_exponential(-C, t)) for t in ts]
        )
        assert np.abs(oracle - direct).max() <= 1e-10

    def test_kink_location(self):
        # at the kink time 2 pi / sqrt(4k^2 - 1) the two branches of the
        # squared norm touch
        for k in (1, 3):
            delta = math.sqrt(4 * k * k - 1)
            tk = 2 * math.pi / delta
            alpha = 1 / (2 * k)
            A = (1 - alpha**2 * math.cos(delta * tk)) / (1 - alpha**2)
            assert A == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_eigenvalues(self, k):
        ev = np.linalg.eigvals(gallery.ck_matrix(k))
        ev = ev[np.argsort(ev.imag)]  # conjugate pair: real parts tie up to roundoff
        half_width = 0.5 * math.sqrt(4 * k * k - 1)
        expected = np.array([0.5 - 1j * half_width, 0.5 + 1j * half_width])
        assert np.abs(ev - expected).max() <= 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_long_time_envelope(self, k):
        # ||P(t)|| e^(t/2) <= sqrt((2k+1)/(2k-1)) on 2001 times in [0, 10]
        ts = np.linspace(0.0, 10.0, 2001)
        envelope = np.max(ck_closed_form_norm(k, ts) * np.exp(ts / 2.0))
        assert envelope <= math.sqrt((2.0 * k + 1.0) / (2.0 * k - 1.0)) + 1e-9


class TestEkLadder:
    def test_index_and_gap_ladder(self):
        # index m(E_k) = k - 1 and the trace-forced gap decay mu_k <= 1/k; a
        # block assembly has the smallest gap of its blocks
        gaps = []
        for k in range(1, 26):
            C = gallery.ek_matrix(k)
            dec = core.hermitian_split(C)
            assert staircase.build_staircase(dec.R, dec.J).index == k - 1
            gaps.append(-core.spectral_abscissa(-C))
            assert 0.0 < gaps[-1] <= 1.0 / k + 1e-12
        assert gaps[0] == pytest.approx(1.0, abs=1e-12)
        for blocks, tol in ((5, 1e-12), (25, 1e-10)):
            assembly = gallery.make_example("ek_blockdiag", blocks=blocks)
            gap = -core.spectral_abscissa(-assembly)
            assert gap == pytest.approx(min(gaps[:blocks]), abs=tol)


class TestEkRescale:
    def test_k1_exact(self):
        rep = gallery.ek_rescale_factor(1)
        assert rep.gap == pytest.approx(1.0, abs=1e-12)
        assert rep.envelope_constant == pytest.approx(1.0, abs=1e-12)
        assert rep.r == pytest.approx(1.0, abs=1e-10)
        assert rep.norm_at_unit_time == pytest.approx(1 / math.e, abs=1e-10)
        assert rep.ok and not rep.boundary_warning

    def test_k4_lower_bound(self):
        rep = gallery.ek_rescale_factor(4)
        assert rep.ok
        assert rep.r >= 1.0 / rep.gap >= 4.0

    def test_growth_in_k(self):
        rs = [gallery.ek_rescale_factor(k).r for k in range(1, 7)]
        assert all(rs[i + 1] > rs[i] for i in range(len(rs) - 1))


class TestFamilyTrends:
    def test_compact_R_coercivity_decays_with_dimension(self):
        # fixed level m: the coercivity of the partial sum collapses as the
        # truncation grows, so no uniform constant exists
        for m in (1, 2):
            vals = []
            for dim in (8, 16, 32, 64):
                C = gallery.make_example("compact_R_family", dim=dim)
                dec = core.hermitian_split(C)
                # min eig of sum_{j<=m} J^j R (J*)^j: sigma_min^2 of the stack
                # of its factors sqrt(R) (J*)^j
                S, Jt = core.psd_sqrt(dec.R), dec.J.conj().T
                stack = np.vstack([S @ np.linalg.matrix_power(Jt, j) for j in range(m + 1)])
                vals.append(np.linalg.svd(stack, compute_uv=False)[-1] ** 2)
            assert all(vals[i + 1] < vals[i] for i in range(len(vals) - 1))
            assert vals[-1] < 0.1 * vals[0]

    def test_remark25_uniform_kappa(self):
        for blocks in (2, 5, 10):
            C = gallery.make_example("remark25_block_family", blocks=blocks)
            dec = core.hermitian_split(C)
            S = dec.R + dec.J @ dec.R @ dec.J.conj().T
            assert core.min_eig_hermitian(S) >= 1.0 - 1e-12

    def test_every_gallery_matrix_passes_audit(self):
        items = [
            gallery.make_example("ck", k=1),
            gallery.make_example("ck", k=3),
            gallery.make_example("ek", k=2),
            gallery.make_example("ek", k=5),
            gallery.make_example("remark25_block_family", blocks=3),
            gallery.make_example("compact_R_family", dim=6),
            gallery.make_example("ek_blockdiag", blocks=3),
            gallery.make_example("ek_rescaled", blocks=3),
        ]
        for C in items:
            audit = hc_index.equivalence_audit(core.hermitian_split(C))
            assert audit.agree
