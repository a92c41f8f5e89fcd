"""The batched propagator-norm kernel against per-point numpy loops.

``decay.propagator_norm_curve`` norms a buffer of consecutive propagators
with one ``core.spectral_norm`` call on the stack.  The references here are
the per-point loops that kernel replaces, and the arithmetic is the same, so
every comparison is exact.  This module needs numpy alone.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from hypokit import decay, errors
from hypokit import operator_core as core

from helpers import random_accretive


def _stack(rng, k, n, complex_):
    S = rng.standard_normal((k, n, n))
    return S + 1j * rng.standard_normal((k, n, n)) if complex_ else S


def _stepped_reference(C, ts):
    """One ``spectral_norm`` call per point of the stepped uniform grid."""
    E = core.matrix_exponential(-C, ts[1] - ts[0])
    P = core.matrix_exponential(-C, ts[0]) if ts[0] > 0 else np.eye(C.shape[0], dtype=C.dtype)
    norms = []
    for i in range(ts.size):
        norms.append(core.spectral_norm(P))
        if i + 1 < ts.size:
            P = P @ E
    return np.array(norms)


class TestStackedSpectralNorm:
    @pytest.mark.parametrize("complex_", [False, True])
    def test_equals_one_call_per_slice(self, complex_):
        S = _stack(np.random.default_rng(0), 9, 7, complex_)
        got = core.spectral_norm(S)
        assert got.shape == (9,)
        assert np.array_equal(got, [core.spectral_norm(P) for P in S])

    def test_rectangular_and_integer_slices(self):
        S = np.arange(24).reshape(2, 3, 4)
        assert np.array_equal(core.spectral_norm(S), [core.spectral_norm(P) for P in S])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_one_non_finite_slice_raises(self, bad):
        S = _stack(np.random.default_rng(1), 5, 4, True)
        S[3, 1, 2] = bad
        with pytest.raises(errors.InvalidEntryError):
            core.spectral_norm(S)

    def test_empty_stack_raises(self):
        with pytest.raises(errors.DimensionError):
            core.spectral_norm(np.zeros((0, 3, 3)))

    def test_matrix_gives_a_float(self):
        value = core.spectral_norm(np.array([[3.0, 0.0], [0.0, -4.0]]))
        assert type(value) is float and value == 4.0


#: Buffer sizes: one propagator, a few propagators with a short last chunk,
#: and the default of 1 MiB.
CHUNK_BYTES = [1, 5 * 60 * 60 * 16 + 1, decay._CHUNK_BYTES]


class TestChunkedCurve:
    @pytest.mark.parametrize("chunk_bytes", CHUNK_BYTES)
    def test_uniform_grid_over_several_chunks(self, monkeypatch, chunk_bytes):
        monkeypatch.setattr(decay, "_CHUNK_BYTES", chunk_bytes)
        C = random_accretive(np.random.default_rng(2), 60).C
        ts = np.linspace(0.0, 3.0, 301)  # 18 complex 60x60 propagators per MiB
        assert np.array_equal(decay.propagator_norm_curve(C, ts).norms, _stepped_reference(C, ts))

    def test_uniform_grid_from_a_positive_time(self):
        C = random_accretive(np.random.default_rng(3), 60).C
        ts = np.linspace(0.5, 3.0, 301)
        assert np.array_equal(decay.propagator_norm_curve(C, ts).norms, _stepped_reference(C, ts))

    @pytest.mark.parametrize("chunk_bytes", CHUNK_BYTES)
    def test_geometric_grid_over_several_chunks(self, monkeypatch, chunk_bytes):
        monkeypatch.setattr(decay, "_CHUNK_BYTES", chunk_bytes)
        C = random_accretive(np.random.default_rng(4), 60).C
        ts = np.geomspace(1e-4, 3.0, 45)
        ref = [core.spectral_norm(core._expm(-C, t)) for t in ts]
        assert np.array_equal(decay.propagator_norm_curve(C, ts).norms, ref)

    def test_real_generator_stays_real(self):
        C = random_accretive(np.random.default_rng(5), 12).C.real
        ts = np.linspace(0.0, 2.0, 101)
        assert np.array_equal(decay.propagator_norm_curve(C, ts).norms, _stepped_reference(C, ts))

    @pytest.mark.parametrize("chunk_bytes", CHUNK_BYTES)
    def test_overflow_in_a_later_chunk_names_its_time(self, monkeypatch, chunk_bytes):
        monkeypatch.setattr(decay, "_CHUNK_BYTES", chunk_bytes)
        C = np.eye(64)
        C[17, 17] = -1.0  # ||exp(-C t)|| = e^t first overflows at t = 710
        ts = np.linspace(0.0, 1000.0, 1001)  # 32 real 64x64 propagators per MiB
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(errors.RangeError, match=r"overflows at t = 710$"):
                decay.propagator_norm_curve(C, ts)

    def test_memory_stays_bounded(self):
        C = random_accretive(np.random.default_rng(6), 120).C
        ts = np.linspace(0.0, 3.0, 300)  # a full stack would take 69 MB
        tracemalloc.start()
        try:
            decay.propagator_norm_curve(C, ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
