"""Property campaign of the index engine: the staircase decides the index and
each family confirms it at that one level, at every scale.

Needs hypothesis; the numpy-only CI job skips this file.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from hypokit import hc_index  # noqa: E402
from hypokit import operator_core as core  # noqa: E402

from helpers import forced_obstruction_pair, planted_staircase_pair  # noqa: E402

CAMPAIGN = settings(derandomize=True, database=None, deadline=None, max_examples=300)

#: Nonincreasing block sizes of at most 6, n <= 40.
dims_strategy = (
    st.lists(st.integers(1, 6), min_size=1, max_size=8)
    .map(lambda dims: sorted(dims, reverse=True))
    .filter(lambda dims: sum(dims) <= 40)
)
scales = st.floats(-6.0, 6.0).map(lambda e: 10.0**e)
seeds = st.integers(0, 2**32 - 1)


def _audit(R, J, scale):
    R, J = scale * R, scale * J
    return hc_index.equivalence_audit(core.OperatorDecomposition(C=R - J, R=R, J=J))


@CAMPAIGN
@given(dims=dims_strategy, scale=scales, seed=seeds)
def test_planted_pairs_read_the_planted_index(dims, scale, seed):
    R, J = planted_staircase_pair(np.random.default_rng(seed), dims)
    audit = _audit(R, J, scale)
    index = len(dims) - 1
    assert audit.index_per_method["staircase"] == index
    assert audit.obstruction is None and audit.agree
    for method in hc_index.METHODS:
        assert audit.index_per_method[method] in (index, "unresolved"), method


@CAMPAIGN
@given(n=st.integers(2, 40), scale=scales, seed=seeds)
def test_forced_obstructions_read_none_with_a_witness(n, scale, seed):
    R, J = forced_obstruction_pair(np.random.default_rng(seed), n)
    audit = _audit(R, J, scale)
    assert audit.index_per_method["staircase"] is None
    assert audit.obstruction is not None
    for method in hc_index.METHODS:
        assert audit.index_per_method[method] == "none", method
        assert audit.kappa_per_method[method] == 0.0
