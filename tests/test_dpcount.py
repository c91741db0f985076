"""Tests for the zigzag DP (Algorithms 4–6): counting and uniform sampling."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.baselines.brute import count_zigzags_brute
from repro.core.dpcount import ZigzagDP, count_zigzags, count_zigzags_naive
from repro.graph.bigraph import BipartiteGraph

from .conftest import complete_bigraph, random_bigraph


def ordered(g):
    return g.degree_ordered()[0]


class TestCountKnown:
    def test_h1_is_edge_count(self, rng):
        for _ in range(10):
            g = ordered(random_bigraph(rng))
            assert count_zigzags(g, 1) == g.num_edges

    def test_complete_k22(self):
        g = ordered(complete_bigraph(2, 2))
        # Only one 2-zigzag: u0-v0-u1-v1 (strictly increasing both sides).
        assert count_zigzags(g, 2) == 1

    def test_complete_knn_closed_form(self):
        # In K_{n,n} the h-zigzag chooses h of n on each side: C(n,h)^2.
        from math import comb

        for n in range(2, 5):
            g = ordered(complete_bigraph(n, n))
            for h in range(1, n + 1):
                assert count_zigzags(g, h) == comb(n, h) ** 2

    def test_path_zigzags_match_brute(self):
        # Zigzag counts are defined w.r.t. the degree ordering, so a path's
        # count depends on how the ordering lands; pin it to the brute count.
        g = ordered(BipartiteGraph(2, 2, [(0, 0), (1, 0), (1, 1)]))
        assert count_zigzags(g, 2) == count_zigzags_brute(g, 2)

    def test_explicit_two_zigzag(self):
        # Degree-ordered by construction: u0 deg1 < u1 deg2; v0 deg1 < v1 deg2.
        g = BipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 1)])
        g = ordered(g)
        assert count_zigzags(g, 2) == count_zigzags_brute(g, 2)

    def test_empty_graph(self):
        g = BipartiteGraph(3, 3, [])
        assert count_zigzags(g, 2) == 0

    def test_h_longer_than_possible(self):
        g = ordered(complete_bigraph(2, 2))
        assert count_zigzags(g, 3) == 0


class TestCountRandomised:
    def test_matches_brute(self, rng):
        for _ in range(40):
            g = ordered(random_bigraph(rng))
            for h in range(1, 5):
                assert count_zigzags(g, h, exact=True) == count_zigzags_brute(g, h)

    def test_naive_matches_vectorised(self, rng):
        for _ in range(25):
            g = ordered(random_bigraph(rng))
            for h in (2, 3):
                assert count_zigzags_naive(g, h) == count_zigzags(g, h, exact=True)

    def test_float_close_to_exact(self, rng):
        for _ in range(20):
            g = ordered(random_bigraph(rng, density=0.7))
            for h in (2, 3):
                exact_value = count_zigzags(g, h, exact=True)
                approx = count_zigzags(g, h, exact=False)
                assert approx == pytest.approx(exact_value)

    def test_head_ranges_partition_total(self, rng):
        for _ in range(15):
            g = ordered(random_bigraph(rng, density=0.6))
            if g.num_edges == 0:
                continue
            dp = ZigzagDP(g, 3, exact=True)
            for h in (2, 3):
                total = dp.zigzag_count(h)
                split = sum(
                    dp.zigzag_count(h, dp.head_range_for_left(u))
                    for u in range(g.n_left)
                )
                assert split == total

    def test_invalid_h(self):
        g = ordered(complete_bigraph(2, 2))
        dp = ZigzagDP(g, 2)
        with pytest.raises(ValueError):
            dp.zigzag_count(3)
        with pytest.raises(ValueError):
            dp.zigzag_count(0)
        with pytest.raises(ValueError):
            ZigzagDP(g, 0)
        with pytest.raises(ValueError):
            count_zigzags_naive(g, 0)


class TestSampling:
    """Algorithm 6 through ``sample_batch``, checked against the definition."""

    def test_samples_are_valid_zigzags(self, rng):
        g = ordered(random_bigraph(rng, density=0.8))
        if count_zigzags(g, 2, exact=True) == 0:
            return
        dp = ZigzagDP(g, 2)
        lefts, rights = dp.sample_batch(2, 100, np.random.default_rng(1))
        for left, right in zip(lefts.tolist(), rights.tolist()):
            assert left[0] < left[1] and right[0] < right[1]
            assert g.has_edge(left[0], right[0])
            assert g.has_edge(left[1], right[0])
            assert g.has_edge(left[1], right[1])

    def test_uniformity_small_graph(self):
        g = ordered(
            BipartiteGraph(
                4, 4, [(u, v) for u in range(4) for v in range(4) if (u + v) % 3]
            )
        )
        total = count_zigzags_brute(g, 2)
        dp = ZigzagDP(g, 2)
        draws = 30000
        lefts, rights = dp.sample_batch(2, draws, np.random.default_rng(7))
        seen: Counter = Counter(
            zip(map(tuple, lefts.tolist()), map(tuple, rights.tolist()))
        )
        assert len(seen) == total
        expectation = draws / total
        for count in seen.values():
            assert abs(count - expectation) / expectation < 0.15

    def test_head_restricted_sampling(self):
        g = ordered(complete_bigraph(4, 4))
        dp = ZigzagDP(g, 2)
        head = dp.head_range_for_left(0)
        lefts, _ = dp.sample_batch(2, 50, np.random.default_rng(3), head)
        assert (lefts[:, 0] == 0).all()

    def test_sampling_empty_graph_raises(self):
        dp = ZigzagDP(BipartiteGraph(2, 2, []), 2)
        with pytest.raises(ValueError):
            dp.sample_batch(2, 1, np.random.default_rng(0))

    def test_sampling_no_zigzags_raises(self):
        g = ordered(BipartiteGraph(1, 1, [(0, 0)]))
        dp = ZigzagDP(g, 2)
        with pytest.raises(ValueError):
            dp.sample_batch(2, 1, np.random.default_rng(0))

    def test_h3_sample_validity(self):
        g = ordered(complete_bigraph(5, 5))
        dp = ZigzagDP(g, 3)
        lefts, rights = dp.sample_batch(3, 50, np.random.default_rng(5))
        assert lefts.shape == rights.shape == (50, 3)
        for left, right in zip(lefts.tolist(), rights.tolist()):
            assert left == sorted(left) and right == sorted(right)
            # Path edges exist.
            for i in range(3):
                assert g.has_edge(left[i], right[i])
                if i:
                    assert g.has_edge(left[i], right[i - 1])
