"""Property tests for the cost record's key.

The contract the predictor relies on (see
:mod:`repro.sched.adaptive.features`): a query's shape is keyed by
:func:`~repro.service.pattern_cache_key` output, which is invariant under
pattern vertex relabeling, so two isomorphic submissions share one
result-cache entry and one record entry even though the matching-order
heuristic may compile them to superficially different plans.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import erdos_renyi
from repro.patterns.pattern import PATTERNS
from repro.sched.adaptive import query_features
from repro.service import pattern_cache_key

GRAPH = erdos_renyi(50, 6.0, seed=9, name="prop-features-er50")
FINGERPRINT = "prop-features-fp"


@st.composite
def pattern_and_permutation(draw):
    pattern = PATTERNS[draw(st.sampled_from(sorted(PATTERNS)))]
    perm = draw(st.permutations(range(pattern.num_vertices)))
    return pattern, list(perm)


class TestRelabelingInvariance:
    @given(pp=pattern_and_permutation(), induced=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_cache_key_is_relabeling_invariant(self, pp, induced):
        pattern, perm = pp
        relabeled = pattern.relabeled(perm)
        assert pattern_cache_key(relabeled, induced) == \
            pattern_cache_key(pattern, induced)

    @given(pp=pattern_and_permutation())
    @settings(max_examples=30, deadline=None)
    def test_labelled_patterns_stay_invariant(self, pp):
        pattern, perm = pp
        labelled = pattern.with_labels(
            [v % 3 for v in range(pattern.num_vertices)]
        )
        key_a = pattern_cache_key(labelled, True)
        key_b = pattern_cache_key(labelled.relabeled(perm), True)
        assert key_a == key_b
        # the labels stay in the key: an unlabelled copy is another shape
        assert key_a != pattern_cache_key(pattern, True)
        # the record's key is built from the cache key, so it matches too
        assert query_features(GRAPH, FINGERPRINT, key_a) == \
            query_features(GRAPH, FINGERPRINT, key_b)
