"""Property-based tests (hypothesis) for core invariants."""

from __future__ import annotations

from itertools import combinations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.brute import (
    count_all_bicliques_brute,
    count_bicliques_brute,
    count_zigzags_brute,
    enumerate_maximal_bicliques_brute,
)
from repro.core.dpcount import count_zigzags
from repro.core.epivoter import EPivoter, count_all, count_single
from repro.core.mbce import enumerate_maximal_bicliques
from repro.core.zigzag import star_counts
from repro.core.counts import BicliqueCounts
from repro.graph.bigraph import BipartiteGraph
from repro.graph.core_decomposition import alpha_beta_core
from repro.utils.combinatorics import binomial

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def bigraphs(draw, max_left: int = 6, max_right: int = 6):
    n_left = draw(st.integers(1, max_left))
    n_right = draw(st.integers(1, max_right))
    possible = [(u, v) for u in range(n_left) for v in range(n_right)]
    edges = draw(st.lists(st.sampled_from(possible), max_size=len(possible)))
    return BipartiteGraph(n_left, n_right, edges)


class TestEPivoterProperties:
    @SETTINGS
    @given(bigraphs(), st.sets(st.integers(0, 5)))
    def test_matches_brute_force(self, g, region):
        assert count_all(g, g.n_left, g.n_right) == count_all_bicliques_brute(
            g, g.n_left, g.n_right
        )
        # With a left region the vertex-list walk counts exactly the
        # bicliques whose minimal left vertex (degree ordering) is in it.
        ordered, _, _ = g.degree_ordered()
        expected = BicliqueCounts(g.n_left, g.n_right)
        for p in range(1, g.n_left + 1):
            for left in combinations(range(g.n_left), p):
                if left[0] in region:
                    c = len(ordered.common_neighbors_of_left(left))
                    for q in range(1, min(g.n_right, c) + 1):
                        expected.add(p, q, binomial(c, q))
        walk = EPivoter(ordered, mode="scalar")
        assert walk.count_all(g.n_left, g.n_right, left_region=region) == expected

    @SETTINGS
    @given(bigraphs(), st.integers(1, 4), st.integers(1, 4))
    def test_single_pair(self, g, p, q):
        assert count_single(g, p, q) == count_bicliques_brute(g, p, q)

    @SETTINGS
    @given(bigraphs())
    def test_relabelling_invariance(self, g):
        ordered, _, _ = g.degree_ordered()
        assert count_all(g, 4, 4) == count_all(ordered, 4, 4)

    @SETTINGS
    @given(bigraphs())
    def test_transpose_symmetry(self, g):
        a = count_all(g, 4, 4)
        b = count_all(g.swap_sides(), 4, 4)
        for p in range(1, 5):
            for q in range(1, 5):
                assert a[p, q] == b[q, p]

    @SETTINGS
    @given(bigraphs())
    def test_monotone_under_edge_removal(self, g):
        edges = list(g.edges())
        if not edges:
            return
        smaller = BipartiteGraph(g.n_left, g.n_right, edges[:-1])
        big = count_all(g, 3, 3)
        small = count_all(smaller, 3, 3)
        for p in range(1, 4):
            for q in range(1, 4):
                assert small[p, q] <= big[p, q]

    @SETTINGS
    @given(bigraphs())
    def test_pivot_choice_irrelevant(self, g):
        product = EPivoter(g, pivot="product").count_all(4, 4)
        exact = EPivoter(g, pivot="exact").count_all(4, 4)
        assert product == exact


class TestMaximalBicliqueProperties:
    @SETTINGS
    @given(bigraphs())
    def test_matches_brute(self, g):
        expected = {
            b for b in enumerate_maximal_bicliques_brute(g) if b[0] and b[1]
        }
        assert set(enumerate_maximal_bicliques(g)) == expected

    @SETTINGS
    @given(bigraphs())
    def test_count_at_least_distinct_neighborhoods(self, g):
        # Each distinct non-empty closed neighborhood yields >= 1 maximal.
        result = enumerate_maximal_bicliques(g)
        neighborhoods = {
            tuple(sorted(g.neighbors_left(u)))
            for u in range(g.n_left)
            if g.degree_left(u)
        }
        assert len(result) >= (1 if neighborhoods else 0)


class TestZigzagProperties:
    @SETTINGS
    @given(bigraphs())
    def test_dp_matches_brute(self, g):
        ordered, _, _ = g.degree_ordered()
        for h in (1, 2, 3):
            assert count_zigzags(ordered, h) == count_zigzags_brute(ordered, h)

    @SETTINGS
    @given(bigraphs())
    def test_zigzags_bound_bicliques(self, g):
        # C(p,p) * 1 <= zigzag count for h=p (each (p,p)-biclique holds >= 1).
        ordered, _, _ = g.degree_ordered()
        for h in (2, 3):
            bicliques = count_bicliques_brute(ordered, h, h)
            assert count_zigzags(ordered, h) >= bicliques


class TestCoreProperties:
    @SETTINGS
    @given(bigraphs(), st.integers(0, 3), st.integers(0, 3))
    def test_core_is_subgraph_with_bounds(self, g, alpha, beta):
        core, left_ids, right_ids = alpha_beta_core(g, alpha, beta)
        assert all(d >= alpha for d in core.degrees_left())
        assert all(d >= beta for d in core.degrees_right())
        for (lu, lv) in core.edges():
            assert g.has_edge(left_ids[lu], right_ids[lv])

    @SETTINGS
    @given(bigraphs())
    def test_core_nesting(self, g):
        # (2,2)-core is contained in the (1,1)-core.
        _, l1, r1 = alpha_beta_core(g, 1, 1)
        _, l2, r2 = alpha_beta_core(g, 2, 2)
        assert set(l2) <= set(l1)
        assert set(r2) <= set(r1)


class TestStarCountProperties:
    @SETTINGS
    @given(bigraphs())
    def test_stars_match_brute(self, g):
        counts = BicliqueCounts(4, 4)
        star_counts(g, counts)
        for q in range(1, 5):
            assert counts[1, q] == count_bicliques_brute(g, 1, q)
        for p in range(2, 5):
            assert counts[p, 1] == count_bicliques_brute(g, p, 1)

    @SETTINGS
    @given(bigraphs(), st.integers(0, 5))
    def test_region_stars_partition(self, g, split):
        ordered, _, _ = g.degree_ordered()
        cut = min(split, ordered.n_left)
        low = set(range(cut))
        high = set(range(cut, ordered.n_left))
        total = BicliqueCounts(3, 3)
        star_counts(ordered, total)
        a = BicliqueCounts(3, 3)
        star_counts(ordered, a, low)
        b = BicliqueCounts(3, 3)
        star_counts(ordered, b, high)
        for p in range(1, 4):
            for q in range(1, 4):
                assert a[p, q] + b[p, q] == total[p, q]
