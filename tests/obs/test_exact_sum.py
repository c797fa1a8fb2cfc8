"""Property tests: the bucketed exact sum behind ``add_array`` is exact.

``QuantileSketch.add_array`` feeds ``_exact_chunk_heads`` a short list of
per-exponent bucket sums instead of every value. The heads are the
correctly rounded residuals of the exact sum, so they must come out
identical to the heads of ``arr.tolist()``, the retained oracle, for every
finite input: subnormals, values near overflow, mixed signs, heavy
cancellation, empty and one-element arrays.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import stream
from repro.obs.stream import QuantileSketch, _bucketed_sum_terms, _exact_chunk_heads

any_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
subnormal = st.floats(
    min_value=-2.2250738585072014e-308,
    max_value=2.2250738585072014e-308,
    width=64,
)
near_overflow = st.floats(min_value=1e307, max_value=1.7976931348623157e308, width=64).flatmap(
    lambda v: st.sampled_from([v, -v])
)
#: Normal doubles well inside the bucketed window, so the fast path runs.
in_window = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-300, max_value=1e280, width=64).flatmap(
        lambda v: st.sampled_from([v, -v])
    ),
)


@st.composite
def cancelling(draw, values=any_finite):
    """Values plus their negations (shuffled) plus a few small survivors."""
    base = draw(st.lists(values, max_size=30))
    small = draw(st.lists(st.floats(-1.0, 1.0, width=64), max_size=3))
    mixed = base + [-v for v in base] + small
    return draw(st.permutations(mixed))


arrays = st.one_of(
    st.lists(any_finite, max_size=60),
    st.lists(st.one_of(any_finite, subnormal, near_overflow), max_size=40),
    st.lists(in_window, max_size=60),
    cancelling(),
    cancelling(in_window),
    st.lists(any_finite, max_size=1),
)


def _heads(values):
    """Heads of the exact sum, or the overflow the oracle reports."""
    try:
        return _exact_chunk_heads(values)
    except OverflowError:
        return "overflow"


class TestBucketedSum:
    @given(arrays)
    @settings(max_examples=300, deadline=None)
    def test_heads_equal_the_tolist_oracle(self, values):
        arr = np.asarray(values, dtype=np.float64)
        terms = _bucketed_sum_terms(arr)
        oracle = _heads(arr.tolist())
        assert _heads(arr.tolist() if terms is None else terms) == oracle
        if terms is not None:
            assert oracle != "overflow"
            assert len(terms) <= 2 * len(values)

    @given(st.lists(in_window, min_size=1, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_normal_values_take_the_bucketed_path(self, values):
        terms = _bucketed_sum_terms(np.asarray(values, dtype=np.float64))
        assert terms is not None
        assert math.fsum(terms) == math.fsum(values)

    def test_extreme_exponents_and_empty_fall_back(self):
        assert _bucketed_sum_terms(np.array([5e-324, 1.0])) is None
        assert _bucketed_sum_terms(np.array([1.0, 1e300])) is None
        assert _bucketed_sum_terms(np.array([], dtype=np.float64)) is None

    def test_cancellation_to_a_tiny_residual(self):
        values = [1e16, 1.0, -1e16, 3e-5] * 1000
        terms = _bucketed_sum_terms(np.asarray(values))
        assert _exact_chunk_heads(terms) == _exact_chunk_heads(values)


class TestAddArrayState:
    @given(arrays)
    @settings(max_examples=150, deadline=None)
    def test_sketch_state_equals_the_oracle_path(self, values):
        arr = np.asarray(values, dtype=np.float64)
        fast = QuantileSketch()
        fast.add_array(arr)
        with mock.patch.object(stream, "_bucketed_sum_terms", return_value=None):
            oracle = QuantileSketch()
            oracle.add_array(arr)
        assert fast._sum_partials == oracle._sum_partials
        assert fast.to_dict() == oracle.to_dict()

    @pytest.mark.parametrize("relative_error", [0.01, 1e-6])
    def test_bucket_counts_match_scalar_adds(self, relative_error):
        # 1e-6 spreads the keys over ~1e8 slots: the sorted-unique branch.
        values = [1e-8, 1.0, 1.0, 3.0, 1e300, -1e200, -2.0, 0.0]
        vector = QuantileSketch(relative_error=relative_error)
        vector.add_array(np.asarray(values))
        scalar = QuantileSketch(relative_error=relative_error)
        for v in values:
            scalar.add(v)
        assert vector.to_dict() == scalar.to_dict()
