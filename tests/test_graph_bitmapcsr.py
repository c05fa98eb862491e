"""Unit + property tests for the BitmapCSR hybrid set format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphFormatError
from repro.graph import bitmapcsr as bc

WIDTHS = [w for w in bc.VALID_WIDTHS if w > 0]

sorted_sets = st.lists(
    st.integers(min_value=0, max_value=500), max_size=60, unique=True
).map(lambda xs: np.asarray(sorted(xs), dtype=np.int64))


class TestEncodeDecode:
    @pytest.mark.parametrize("width", bc.VALID_WIDTHS)
    def test_roundtrip_example(self, width):
        v = np.array([0, 1, 3, 4, 5, 6, 7, 31, 32, 100])
        assert np.array_equal(bc.decode(bc.encode(v, width), width), v)

    def test_width_zero_is_identity(self):
        v = np.array([3, 9, 27])
        assert np.array_equal(bc.encode(v, 0), v)

    def test_empty(self):
        assert bc.encode(np.array([], dtype=np.int64), 8).size == 0
        assert bc.decode(np.array([], dtype=np.int64), 8).size == 0

    def test_invalid_width_rejected(self):
        with pytest.raises(GraphFormatError):
            bc.encode(np.array([1]), 3)

    def test_compression(self):
        # 8 consecutive vertices in one block -> one word at width 8
        v = np.arange(8)
        assert bc.encode(v, 8).size == 1
        assert bc.encode(v, 4).size == 2
        assert bc.encode(v, 1).size == 8

    def test_words_sorted_by_block(self):
        v = np.array([0, 5, 9, 17, 25, 33])
        for width in WIDTHS:
            words = bc.encode(v, width)
            keys = words >> width
            assert np.all(np.diff(keys) > 0)

    @given(v=sorted_sets, width=st.sampled_from(WIDTHS))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, v, width):
        assert np.array_equal(bc.decode(bc.encode(v, width), width), v)

    @given(v=sorted_sets, width=st.sampled_from(WIDTHS))
    @settings(max_examples=60, deadline=None)
    def test_encoded_length_matches(self, v, width):
        assert bc.encoded_length(v, width) == bc.encode(v, width).size


class TestSetOps:
    @given(a=sorted_sets, b=sorted_sets, width=st.sampled_from(WIDTHS))
    @settings(max_examples=60, deadline=None)
    def test_intersection_property(self, a, b, width):
        got = bc.decode(
            bc.intersect_words(bc.encode(a, width), bc.encode(b, width),
                               width),
            width,
        )
        assert np.array_equal(got, np.intersect1d(a, b))

    @given(a=sorted_sets, b=sorted_sets, width=st.sampled_from(WIDTHS))
    @settings(max_examples=60, deadline=None)
    def test_difference_property(self, a, b, width):
        got = bc.decode(
            bc.difference_words(bc.encode(a, width), bc.encode(b, width),
                                width),
            width,
        )
        assert np.array_equal(got, np.setdiff1d(a, b))

    @given(v=sorted_sets, width=st.sampled_from(WIDTHS))
    @settings(max_examples=40, deadline=None)
    def test_count_vertices(self, v, width):
        assert bc.count_vertices(bc.encode(v, width), width) == v.size

    def test_intersect_width0(self):
        a, b = np.array([1, 2, 3]), np.array([2, 3, 4])
        assert np.array_equal(bc.intersect_words(a, b, 0), [2, 3])

    def test_partial_block_overlap(self):
        # vertices share a block but not bits
        a = bc.encode(np.array([0, 1]), 8)
        b = bc.encode(np.array([2, 3]), 8)
        assert bc.intersect_words(a, b, 8).size == 0

    def test_difference_partial_block(self):
        a = bc.encode(np.array([0, 1, 2]), 8)
        b = bc.encode(np.array([1]), 8)
        got = bc.decode(bc.difference_words(a, b, 8), 8)
        assert got.tolist() == [0, 2]
