"""Tests for the ZigZag / ZigZag++ estimators (Algorithms 7–8).

Exact assertions (closed-form star cells, decomposition identities,
unbiasedness identities computed by full enumeration) plus statistical
assertions with fixed seeds and generous tolerances.
"""

from __future__ import annotations

import pytest

from repro.baselines.brute import count_bicliques_brute
from repro.core import hybrid as hybrid_module
from repro.core import zigzag as zigzag_module
from repro.core.counts import BicliqueCounts
from repro.core.epivoter import count_all
from repro.core.zigzag import (
    star_counts,
    zigzag_count_all,
    zigzag_count_single,
    zigzagpp_count_all,
    zigzagpp_count_single,
)
from repro.core.hybrid import hybrid_count_single
from repro.graph.bigraph import BipartiteGraph
from repro.graph.generators import chung_lu_bipartite
from repro.graph.subgraph import edge_neighborhood_graph, two_hop_graph

from .conftest import complete_bigraph, random_bigraph


def ordered(g):
    return g.degree_ordered()[0]


class TestStarCounts:
    def test_full_graph(self, rng):
        for _ in range(20):
            g = random_bigraph(rng)
            counts = BicliqueCounts(4, 4)
            star_counts(g, counts)
            for q in range(1, 5):
                assert counts[1, q] == count_bicliques_brute(g, 1, q)
            for p in range(2, 5):
                assert counts[p, 1] == count_bicliques_brute(g, p, 1)

    def test_region_split_sums_to_total(self, rng):
        for _ in range(20):
            g = ordered(random_bigraph(rng))
            half = set(range(g.n_left // 2))
            rest = set(range(g.n_left)) - half
            full = BicliqueCounts(4, 4)
            star_counts(g, full)
            part1 = BicliqueCounts(4, 4)
            star_counts(g, part1, half)
            part2 = BicliqueCounts(4, 4)
            star_counts(g, part2, rest)
            for p in range(1, 5):
                for q in range(1, 5):
                    assert part1[p, q] + part2[p, q] == full[p, q]

    def test_empty_region(self):
        g = complete_bigraph(3, 3)
        counts = BicliqueCounts(3, 3)
        star_counts(g, counts, set())
        assert counts.total() == 0


class TestUnbiasednessIdentities:
    """Enumerate *all* zigzags of the local subgraphs and verify the exact
    decomposition identity Eq. (4) the estimators rely on: the estimator's
    expectation equals the true count."""

    def _all_zigzags(self, g, h):
        """Brute-force list of (left, right) h-zigzags of a small graph."""
        result = []

        def extend(left, right, remaining):
            if remaining == 0:
                result.append((tuple(left), tuple(right)))
                return
            u, v = left[-1], right[-1]
            for u2 in g.higher_neighbors_of_right(v, u):
                for v2 in g.higher_neighbors_of_left(u2, v):
                    extend(left + [u2], right + [v2], remaining - 1)

        for u, v in g.edges():
            extend([u], [v], h - 1)
        return result

    def _c_value(self, local, left, right, p, q):
        """c_{p,q}(Z): bicliques of the required local shape containing Z."""
        from repro.utils.combinatorics import binomial

        common_r = set(local.neighbors_left(left[0]))
        for u in list(left)[1:]:
            common_r &= set(local.neighbors_left(u))
        if not common_r.issuperset(right):
            return 0
        common_l = set(local.neighbors_right(right[0]))
        for v in list(right)[1:]:
            common_l &= set(local.neighbors_right(v))
        if p <= q:
            return binomial(len(common_r) - len(right), q - p)
        return binomial(len(common_l) - len(left), p - q)

    @pytest.mark.parametrize("p,q", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_zigzag_edge_decomposition(self, rng, p, q):
        from repro.utils.combinatorics import binomial

        for _ in range(8):
            g = ordered(random_bigraph(rng, 6, 6, density=0.6))
            truth = count_bicliques_brute(g, p, q)
            h = min(p, q) - 1
            acc = 0
            for u, v in g.edges():
                local = edge_neighborhood_graph(g, u, v)
                if local.graph.num_edges == 0:
                    continue
                for left, right in self._all_zigzags(local.graph, h):
                    acc += self._c_value(local.graph, left, right, p - 1, q - 1)
            denom = binomial(max(p, q) - 1, min(p, q) - 1)
            assert acc == denom * truth

    @pytest.mark.parametrize("p,q", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_zigzagpp_vertex_decomposition(self, rng, p, q):
        from repro.utils.combinatorics import binomial

        for _ in range(8):
            g = ordered(random_bigraph(rng, 6, 6, density=0.6))
            truth = count_bicliques_brute(g, p, q)
            h = min(p, q)
            acc = 0
            for w in range(g.n_left):
                local = two_hop_graph(g, w)
                if local.graph.num_edges == 0:
                    continue
                for left, right in self._all_zigzags(local.graph, h):
                    if local.left_ids[left[0]] != w:
                        continue  # only zigzags starting at the owner
                    acc += self._c_value(local.graph, left, right, p, q)
            denom = binomial(q, p) if p <= q else binomial(p - 1, q - 1)
            assert acc == denom * truth


class TestEstimatesStatistical:
    def setup_method(self):
        import random

        r = random.Random(99)
        self.graph = BipartiteGraph(
            9,
            9,
            [(u, v) for u in range(9) for v in range(9) if r.random() < 0.55],
        )
        self.exact = count_all(self.graph, 5, 5)

    def test_zigzag_accuracy(self):
        est = zigzag_count_all(self.graph, h_max=5, samples=50_000, seed=12)
        assert est.max_relative_error(self.exact) < 0.15

    def test_zigzagpp_accuracy(self):
        est = zigzagpp_count_all(self.graph, h_max=5, samples=50_000, seed=13)
        assert est.max_relative_error(self.exact) < 0.15

    def test_star_cells_exact(self):
        est = zigzag_count_all(self.graph, h_max=5, samples=500, seed=1)
        for q in range(1, 6):
            assert est[1, q] == self.exact[1, q]
            assert est[q, 1] == self.exact[q, 1]

    def test_seed_reproducibility(self):
        a = zigzag_count_all(self.graph, h_max=4, samples=2000, seed=5)
        b = zigzag_count_all(self.graph, h_max=4, samples=2000, seed=5)
        assert a == b

    def test_more_samples_reduce_error(self):
        errors = []
        for samples in (500, 50_000):
            per_seed = [
                zigzagpp_count_all(
                    self.graph, h_max=4, samples=samples, seed=s
                ).mean_relative_error(count_all(self.graph, 4, 4))
                for s in range(5)
            ]
            errors.append(sum(per_seed) / len(per_seed))
        assert errors[1] < errors[0]

    def test_stats_returned(self):
        est, stats = zigzag_count_all(
            self.graph, h_max=4, samples=2000, seed=2, return_stats=True
        )
        assert stats.zigzag_totals
        assert all(v >= 0 for v in stats.zigzag_totals.values())
        assert stats.samples

    def test_unbiased_mean_over_seeds(self):
        # Mean over many independent estimates approaches the exact value.
        p, q = 3, 3
        exact_value = self.exact[p, q]
        estimates = [
            zigzag_count_all(self.graph, h_max=3, samples=300, seed=s)[p, q]
            for s in range(60)
        ]
        mean = sum(estimates) / len(estimates)
        assert abs(mean - exact_value) / exact_value < 0.15


class TestSingleCounting:
    def setup_method(self):
        import random

        r = random.Random(5)
        self.graph = BipartiteGraph(
            8, 8, [(u, v) for u in range(8) for v in range(8) if r.random() < 0.6]
        )

    @pytest.mark.parametrize("p,q", [(2, 2), (2, 4), (4, 2), (3, 3)])
    def test_zigzag_single(self, p, q):
        exact_value = count_bicliques_brute(self.graph, p, q)
        est = zigzag_count_single(self.graph, p, q, samples=40_000, seed=3)
        assert est == pytest.approx(exact_value, rel=0.15)

    @pytest.mark.parametrize("p,q", [(2, 2), (2, 4), (4, 2), (3, 3)])
    def test_zigzagpp_single(self, p, q):
        exact_value = count_bicliques_brute(self.graph, p, q)
        est = zigzagpp_count_single(self.graph, p, q, samples=40_000, seed=4)
        assert est == pytest.approx(exact_value, rel=0.15)

    def test_min_one_is_exact(self):
        assert zigzag_count_single(self.graph, 1, 3, samples=10) == (
            count_bicliques_brute(self.graph, 1, 3)
        )
        assert zigzagpp_count_single(self.graph, 4, 1, samples=10) == (
            count_bicliques_brute(self.graph, 4, 1)
        )

    def test_invalid_pair(self):
        with pytest.raises(ValueError):
            zigzag_count_single(self.graph, 0, 2)
        with pytest.raises(ValueError):
            zigzagpp_count_single(self.graph, 2, 0)


#: Seeded single-cell estimates on ``chung_lu_bipartite(60, 50, 450,
#: seed=11)`` with 300 samples and seed 5, pinned from the estimators
#: that still filled every star cell before reading the one asked for.
PINNED_SINGLE = {
    "zigzag(3,4)": (lambda g: zigzag_count_single(g, 3, 4, samples=300, seed=5),
                    4792.658888888889),
    "zigzag++(4,4)": (lambda g: zigzagpp_count_single(g, 4, 4, samples=300, seed=5),
                      975.9133333333333),
    "zigzag++(5,2)": (lambda g: zigzagpp_count_single(g, 5, 2, samples=300, seed=5),
                      106965.13916666666),
    "hybrid(3,3)": (lambda g: hybrid_count_single(g, 3, 3, samples=300, seed=5),
                    7084.253333333333),
    "hybrid++(4,3)": (lambda g: hybrid_count_single(
        g, 4, 3, samples=300, seed=5, estimator="zigzag++"), 6969.8),
}


class TestSingleCellSkipsStars:
    """A single cell with min(p, q) >= 2 never reads a star cell, so
    the star pass is skipped; the estimates must not move."""

    @pytest.mark.parametrize("name", sorted(PINNED_SINGLE))
    def test_values_unchanged_without_star_pass(self, name, monkeypatch):
        estimate, pinned = PINNED_SINGLE[name]

        def no_stars(*_args, **_kwargs):
            raise AssertionError("star pass ran for a min(p, q) >= 2 cell")

        monkeypatch.setattr(zigzag_module, "star_counts", no_stars)
        monkeypatch.setattr(hybrid_module, "star_counts", no_stars)
        assert estimate(chung_lu_bipartite(60, 50, 450, seed=11)) == pinned


class TestParameterValidation:
    def test_h_max_too_small(self):
        g = complete_bigraph(3, 3)
        with pytest.raises(ValueError):
            zigzag_count_all(g, h_max=1)

    def test_samples_positive(self):
        g = complete_bigraph(3, 3)
        with pytest.raises(ValueError):
            zigzagpp_count_all(g, h_max=3, samples=0)

    def test_graph_without_edges(self):
        counts = zigzag_count_all(BipartiteGraph(3, 3, []), h_max=3, samples=100)
        assert counts.total() == 0
