"""``decay.short_time_curve`` against the full short-time grid.

``analyze`` fits the short-time law on ``short_time_curve``, the part of its
220-point geometric grid that can hold the fit's points.  Every case here
evaluates the full grid with ``propagator_norm_curve`` as the reference.
The arithmetic per point is the same, so every comparison is exact.  This
module needs numpy alone.
"""

import math

import numpy as np
import pytest

from hypokit import decay, errors, gallery
from hypokit import operator_core as core

from helpers import bench_planted_pair, random_accretive

#: Points of the ``analyze`` grid.
GRID_POINTS = 220

#: Sizes of the seeded random cases.
RANDOM_SIZES = (2, 3, 5, 8)


def _analyze_grid(C) -> np.ndarray:
    """The geometric grid of ``analyze``: t * ||C|| from 1e-4 to 10."""
    s = max(core.spectral_norm(C), 1e-300)
    return np.geomspace(1e-4 / s, 10.0 / s, GRID_POINTS)


def _skew(rng, n) -> np.ndarray:
    S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (S - S.conj().T) / 2.0


def _with_min_eig(rng, n, ratio) -> np.ndarray:
    """R - J with lambda_min(R) = ratio * ||R|| (negative ratio: not accretive)."""
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w, V = np.linalg.eigh(G @ G.conj().T / n)
    w[0] = ratio * w[-1]
    return (V * w) @ V.conj().T - _skew(rng, n)


def _oscillating() -> np.ndarray:
    """A damped non-normal rotation beside a coercive mode.  lambda_min(R) is
    -0.009 * ||R||, far below the rank cut: it is not accretive.  Its norm dips
    below 1 and climbs back above it, so the search needs the growth rate mu."""
    a, b = 1e-3, 1.01
    return np.array([[a, b, 0.0], [-1.0 / b, a, 0.0], [0.0, 0.0, 1.0]])


CASES = {
    **{f"ck_{k}": (lambda k=k: gallery.ck_matrix(k)) for k in range(1, 6)},
    **{f"ek_{k}": (lambda k=k: gallery.ek_matrix(k)) for k in range(2, 41)},
    "planted50": lambda: bench_planted_pair(1, 0, 50, 7),
    "planted60": lambda: bench_planted_pair(1, 0, 60, 12),
    "planted100": lambda: bench_planted_pair(1, 1, 100, 11),
    "random_accretive40": lambda: random_accretive(np.random.default_rng(40), 40).C,
    "coercive": lambda: np.diag([1.0, 2.0, 3.0, 4.0]) - _skew(np.random.default_rng(1), 4),
    "skew": lambda: _skew(np.random.default_rng(2), 6),
    "near_psd": lambda: _with_min_eig(np.random.default_rng(3), 12, -5e-11),
    "non_accretive": _oscillating,
    # seeded small random pairs: accretive, lambda_min(R) just below 0 (inside
    # the rank cut), and non-accretive beyond it
    **{f"random{n}_accretive":
       (lambda n=n: random_accretive(np.random.default_rng(100 + n), n).C) for n in RANDOM_SIZES},
    **{f"random{n}_near_psd":
       (lambda n=n: _with_min_eig(np.random.default_rng(200 + n), n, -5e-11)) for n in RANDOM_SIZES},
    **{f"random{n}_non_accretive":
       (lambda n=n: _with_min_eig(np.random.default_rng(300 + n), n, -0.05)) for n in RANDOM_SIZES},
}


def _fit(curve):
    """The fit, or the message of its ``NoDecayError``."""
    try:
        return decay.fit_short_time(curve)
    except errors.NoDecayError as exc:
        return str(exc)


@pytest.fixture
def expm_calls(monkeypatch):
    """Counts the ``_expm`` calls made while the test runs."""
    calls = [0]
    expm = core._expm

    def counted(A, t):
        calls[0] += 1
        return expm(A, t)

    monkeypatch.setattr(core, "_expm", counted)
    return calls


class TestWindowEqualsFullGrid:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_same_fit_and_same_norms(self, name):
        C = CASES[name]()
        ts = _analyze_grid(C)
        full = decay.propagator_norm_curve(C, ts)
        window = decay.short_time_curve(core.hermitian_split(C), ts)
        assert _fit(window) == _fit(full)
        # a contiguous run of the grid, with the full curve's norms
        first = int(np.searchsorted(ts, window.times[0])) if window.times.size else 0
        assert window.times.tolist() == ts[first : first + window.times.size].tolist()
        assert window.norms.tolist() == full.norms[first : first + window.times.size].tolist()
        drop = 1.0 - full.norms
        mask = (drop >= decay.FIT_DROPS[0]) & (drop <= decay.FIT_DROPS[1]) & (ts > 0)
        assert set(ts[mask].tolist()) <= set(window.times.tolist())

    def test_cases_cover_both_outcomes(self):
        fits = [_fit(decay.propagator_norm_curve(C, _analyze_grid(C)))
                for C in (CASES[name]() for name in ("ck_3", "planted60", "ek_16", "skew"))]
        assert [isinstance(f, str) for f in fits] == [False, False, True, True]

    def test_non_accretive_case_is_refused_by_the_cut(self):
        with pytest.raises(errors.NotPSDError):
            core._psd_cut(core.hermitian_split(_oscillating()).R)
        full = decay.propagator_norm_curve(_oscillating(), _analyze_grid(_oscillating()))
        assert full.norms.max() > 1.0 and full.norms[-1] > full.norms.min()

    @pytest.mark.parametrize("n", RANDOM_SIZES)
    def test_random_cases_are_of_their_kind(self, n):
        def min_eig_ratio(kind):
            w = np.linalg.eigvalsh(core.hermitian_split(CASES[f"random{n}_{kind}"]()).R)
            return w[0] / np.abs(w).max()

        assert min_eig_ratio("accretive") > -1e-12
        assert -1e-10 < min_eig_ratio("near_psd") < 0.0
        assert -0.1 < min_eig_ratio("non_accretive") < -1e-10


class TestCost:
    @pytest.mark.parametrize("k", [16, 40])
    def test_high_index_costs_a_bisection(self, k, expm_calls):
        C = gallery.ek_matrix(k)
        decay.short_time_curve(core.hermitian_split(C), _analyze_grid(C))
        assert expm_calls[0] <= 2 * math.ceil(math.log2(GRID_POINTS)) + 2

    @pytest.mark.parametrize("name", ["ck_3", "planted60", "coercive", "non_accretive"])
    def test_probes_beyond_the_window_are_logarithmic(self, name, expm_calls):
        C = CASES[name]()
        window = decay.short_time_curve(core.hermitian_split(C), _analyze_grid(C))
        assert expm_calls[0] <= window.times.size + 3 * math.ceil(math.log2(GRID_POINTS)) + 1


class TestGrids:
    def test_overflowing_last_time_raises_range_error(self):
        # ||exp(-C t)|| = e^t leaves double range after t = 709.78
        C = np.diag([-1.0, 1.0]).astype(complex)
        decay.short_time_curve(core.hermitian_split(C), np.geomspace(1.0, 650.0, 30))
        with pytest.raises(errors.RangeError):
            decay.short_time_curve(core.hermitian_split(C), np.geomspace(1.0, 750.0, 30))

    def test_finite_non_accretive_curve_is_returned(self):
        # the logarithmic norm of -C t reaches 49000 on this grid, but every
        # propagator is finite; mu (t_N - t) > 709 must not overflow either
        C = np.array([[1.0, 100.0], [0.0, 1.0]])
        ts = np.geomspace(1e-3, 1e3, 50)
        window = decay.short_time_curve(core.hermitian_split(C), ts)
        assert window.times.size > 0
        first = int(np.searchsorted(ts, window.times[0]))
        full = decay.propagator_norm_curve(C, ts).norms[first : first + window.times.size]
        assert window.norms.tolist() == full.tolist()

    def test_invalid_grid_is_rejected(self):
        with pytest.raises(errors.PreconditionError):
            decay.short_time_curve(core.hermitian_split(gallery.ck_matrix(1)), [1.0, 0.5])
