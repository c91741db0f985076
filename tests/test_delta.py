"""Delta overlays and incremental maintenance: unit + randomized sweeps.

The acceptance property for the mutation subsystem: after *every*
batch of a seeded insert/delete sweep, the overlay view (and its
materialized CSR) is bit-identical to a graph rebuilt from scratch,
and every engine answers identically on both — EPivoter (scalar and
frontier), the matrix closed forms, and the seeded ZigZag++
estimator.
"""

from __future__ import annotations

import random

import pytest

from repro.core.epivoter import EPivoter
from repro.core.matrix import matrix_count_single
from repro.core.zigzag import zigzagpp_count_single
from repro.graph.bigraph import LEFT, RIGHT, BipartiteGraph
from repro.graph.butterflies import butterfly_count
from repro.graph.delta import DeltaOverlay
from repro.graph.generators import chung_lu_bipartite, erdos_renyi_bipartite
from repro.graph.intersect import apply_delta, intersect_size
from repro.graph.sparse import histogram_binomial_fold, overlap_histogram
from repro.service.mutation import DeltaTotals, MutableGraphState
from repro.utils.combinatorics import binomial

from .conftest import random_bigraph


@pytest.fixture
def rng():
    return random.Random(0xD317A)


# ----------------------------------------------------------------------
# apply_delta kernel
# ----------------------------------------------------------------------


class TestApplyDelta:
    def test_empty_delta_copies(self):
        base = [1, 4, 9]
        out = apply_delta(base, [], [])
        assert out == base and out is not base

    def test_oracle_random(self, rng):
        for _ in range(200):
            universe = range(30)
            base = sorted(rng.sample(universe, rng.randint(0, 20)))
            adds = sorted(
                rng.sample([x for x in universe if x not in base],
                           rng.randint(0, 6))
            )
            dels = sorted(rng.sample(base, min(len(base), rng.randint(0, 6))))
            expect = sorted((set(base) | set(adds)) - set(dels))
            assert apply_delta(base, adds, dels) == expect

    def test_interleaving_edges(self):
        assert apply_delta([5], [1, 9], []) == [1, 5, 9]
        assert apply_delta([1, 2, 3], [], [1, 3]) == [2]
        assert apply_delta([1, 2, 3], [0, 4], [2]) == [0, 1, 3, 4]


# ----------------------------------------------------------------------
# DeltaOverlay semantics
# ----------------------------------------------------------------------


class TestDeltaOverlay:
    def base(self):
        return BipartiteGraph(3, 3, [(0, 0), (0, 1), (1, 1), (2, 2)])

    def test_identity_view(self):
        overlay = DeltaOverlay(self.base())
        assert overlay.is_identity()
        assert overlay.materialize() is overlay.base
        assert list(overlay.edges()) == list(overlay.base.edges())

    def test_add_remove_resurrect_retract(self):
        overlay = DeltaOverlay(self.base())
        assert overlay.add_edge(2, 0) is True
        assert overlay.add_edge(2, 0) is False  # idempotent
        assert overlay.remove_edge(0, 1) is True
        assert overlay.remove_edge(0, 1) is False
        assert overlay.num_edges == 4
        # Resurrecting a tombstoned base edge clears the tombstone.
        assert overlay.add_edge(0, 1) is True
        # Retracting a pending add leaves no delta behind.
        assert overlay.remove_edge(2, 0) is True
        assert overlay.is_identity()
        assert overlay.delta_edges == 0

    def test_rows_and_degrees_match_view(self, rng):
        base = random_bigraph(rng, max_left=9, max_right=9)
        overlay = DeltaOverlay(base)
        current = set(base.edges())
        for _ in range(40):
            u = rng.randrange(base.n_left)
            v = rng.randrange(base.n_right)
            if (u, v) in current:
                overlay.remove_edge(u, v)
                current.discard((u, v))
            else:
                overlay.add_edge(u, v)
                current.add((u, v))
        for u in range(base.n_left):
            row = sorted(v for (x, v) in current if x == u)
            assert overlay.row_left(u) == row
            assert overlay.degree_left(u) == len(row)
        for v in range(base.n_right):
            col = sorted(u for (u, y) in current if y == v)
            assert overlay.row_right(v) == col
            assert overlay.degree_right(v) == len(col)
        assert overlay.num_edges == len(current)
        assert list(overlay.edges()) == sorted(current)
        view = overlay.materialize()
        assert view == BipartiteGraph(base.n_left, base.n_right, sorted(current))

    def test_growth(self):
        overlay = DeltaOverlay(self.base())
        with pytest.raises(IndexError):
            overlay.add_edge(3, 0)
        with pytest.raises(IndexError):
            overlay.add_edge(0, 3)
        overlay.grow(5, 4)
        assert overlay.add_edge(4, 3) is True
        view = overlay.materialize()
        assert (view.n_left, view.n_right) == (5, 4)
        assert list(view.row_left(4)) == [3]
        with pytest.raises(ValueError):
            overlay.grow(2, 2)


# ----------------------------------------------------------------------
# Overlap histograms: the shared exact-count code path
# ----------------------------------------------------------------------


class TestOverlapHistogram:
    def brute(self, graph, side):
        rows = (
            [set(graph.row_left(u)) for u in range(graph.n_left)]
            if side == LEFT
            else [set(graph.row_right(v)) for v in range(graph.n_right)]
        )
        hist = {}
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                m = len(rows[i] & rows[j])
                if m:
                    hist[m] = hist.get(m, 0) + 1
        return hist

    def test_matches_brute_force(self, rng):
        for _ in range(25):
            graph = random_bigraph(rng, max_left=10, max_right=10)
            for side in (LEFT, RIGHT):
                assert overlap_histogram(graph, side) == self.brute(graph, side)

    def test_fold_equals_binomial_sum(self, rng):
        graph = random_bigraph(rng, max_left=12, max_right=12, density=0.4)
        hist = overlap_histogram(graph, LEFT)
        for k in range(1, 5):
            assert histogram_binomial_fold(hist, k) == sum(
                count * binomial(m, k) for m, count in hist.items()
            )
        # k = 2 is the butterfly count.
        assert histogram_binomial_fold(hist, 2) == butterfly_count(graph)


# ----------------------------------------------------------------------
# Incremental totals == from-scratch totals, always
# ----------------------------------------------------------------------


class TestDeltaTotals:
    def assert_totals_equal(self, totals, view):
        fresh = DeltaTotals.from_graph(view)
        assert totals.deg_left == fresh.deg_left
        assert totals.deg_right == fresh.deg_right
        assert totals.pairs_left == fresh.pairs_left
        assert totals.pairs_right == fresh.pairs_right

    def test_incremental_matches_rebuild(self, rng):
        base = random_bigraph(rng, max_left=10, max_right=10, density=0.35)
        overlay = DeltaOverlay(base)
        totals = DeltaTotals.from_graph(base)
        for _ in range(120):
            u = rng.randrange(base.n_left)
            v = rng.randrange(base.n_right)
            if overlay.has_edge(u, v):
                overlay.remove_edge(u, v)
                totals.record_delete(overlay, u, v)
            else:
                overlay.add_edge(u, v)
                totals.record_insert(overlay, u, v)
            self.assert_totals_equal(totals, overlay.materialize())

    def test_count_closed_forms(self, rng):
        graph = random_bigraph(rng, max_left=11, max_right=11, density=0.4)
        totals = DeltaTotals.from_graph(graph)
        for p, q in [(1, 1), (1, 3), (2, 2), (2, 3), (2, 5), (4, 2), (1, 2)]:
            assert DeltaTotals.supported(p, q)
            assert totals.count(p, q, graph.num_edges) == matrix_count_single(
                graph, p, q
            )
        assert not DeltaTotals.supported(3, 3)


# ----------------------------------------------------------------------
# Seeded mutation sweeps: every engine, bit-identical to rebuild
# ----------------------------------------------------------------------


def _sweep(state, rng, n_batches, batch_size, pq_pairs, compact_probe=None):
    """Drive a seeded insert/delete sweep through a MutableGraphState.

    After every batch the overlay view must equal a from-scratch rebuild
    and every engine must answer identically on both.
    """
    current = set(state.base.edges())
    n_left, n_right = state.base.n_left, state.base.n_right
    for batch_i in range(n_batches):
        adds, removes = set(), set()
        for _ in range(batch_size):
            u = rng.randrange(n_left)
            v = rng.randrange(n_right)
            if (u, v) in current and (u, v) not in adds:
                removes.add((u, v))
            elif (u, v) not in current:
                adds.add((u, v))
        adds -= removes
        state.apply_batch(sorted(adds), sorted(removes))
        current = (current | adds) - removes

        view = state.view()
        rebuilt = BipartiteGraph(n_left, n_right, sorted(current))
        assert view == rebuilt
        assert view.content_fingerprint() == rebuilt.content_fingerprint()

        view_ordered = view.degree_ordered()[0]
        rebuilt_ordered = rebuilt.degree_ordered()[0]
        scalar_view = EPivoter(view_ordered, mode="scalar")
        scalar_rebuilt = EPivoter(rebuilt_ordered, mode="scalar")
        frontier_view = EPivoter(view_ordered, mode="frontier")
        frontier_rebuilt = EPivoter(rebuilt_ordered, mode="frontier")
        for p, q in pq_pairs:
            expect = scalar_rebuilt.count_single(p, q)
            assert scalar_view.count_single(p, q) == expect
            assert frontier_view.count_single(p, q) == expect
            assert frontier_rebuilt.count_single(p, q) == expect
            if DeltaTotals.supported(p, q):
                assert matrix_count_single(view, p, q) == matrix_count_single(
                    rebuilt, p, q
                ) == state.maintained_count(p, q, state.version)
            # Same seed, same graph content => the estimator draws the
            # same samples and lands on the same estimate.
            assert zigzagpp_count_single(
                view_ordered, p, q, samples=200, seed=7, workers=1
            ) == zigzagpp_count_single(
                rebuilt_ordered, p, q, samples=200, seed=7, workers=1
            )
        if compact_probe is not None:
            compact_probe(batch_i, state)
    return current


class TestMutationSweeps:
    def test_er_sweep_all_engines(self, rng):
        base = erdos_renyi_bipartite(12, 11, 0.3, seed=5)
        state = MutableGraphState(
            base, base.content_fingerprint(), compact_edges=10_000
        )
        _sweep(state, rng, n_batches=8, batch_size=7,
               pq_pairs=[(2, 2), (2, 3), (3, 3)])
        assert state.version == 8
        assert state.overlay_edges > 0

    def test_chung_lu_sweep_with_compaction_boundary(self, rng):
        base = chung_lu_bipartite(14, 12, 50, seed=11)
        # Tiny threshold: the sweep crosses the compaction boundary
        # mid-run, and correctness must hold on both sides of it.
        state = MutableGraphState(
            base, base.content_fingerprint(), compact_edges=12
        )
        compactions = []

        def probe(batch_i, st):
            if st.should_compact():
                st.compact()
                compactions.append(batch_i)
                assert st.overlay.is_identity()
                assert st.overlay_edges == 0

        current = _sweep(state, rng, n_batches=10, batch_size=6,
                         pq_pairs=[(2, 2), (3, 3)], compact_probe=probe)
        assert compactions, "sweep never crossed the compaction boundary"
        # Compaction preserves content, version, and fingerprint.
        assert state.view() == BipartiteGraph(
            base.n_left, base.n_right, sorted(current)
        )
        assert state.version == 10

    def test_fingerprint_deterministic_and_versioned(self, rng):
        base = erdos_renyi_bipartite(8, 8, 0.4, seed=3)
        fp = base.content_fingerprint()
        a = MutableGraphState(base, fp)
        b = MutableGraphState(base, fp)
        batches = [
            ([(0, 1), (1, 2)], []),
            ([], [(0, 1)]),
            ([(2, 3)], [(1, 2)]),
        ]
        for adds, removes in batches:
            ra = a.apply_batch(adds, removes)
            rb = b.apply_batch(adds, removes)
            assert ra.fingerprint == rb.fingerprint
            assert ra.version == rb.version
        assert a.fingerprint.startswith(fp + "#v")
        # A no-op batch bumps nothing.
        before = a.fingerprint
        result = a.apply_batch([(2, 3)], [])  # already present
        assert result.changed is False
        assert a.fingerprint == before

    def test_intersect_kernels_on_overlay_rows(self, rng):
        base = random_bigraph(rng, max_left=10, max_right=10, density=0.5)
        overlay = DeltaOverlay(base)
        for _ in range(30):
            u, v = rng.randrange(base.n_left), rng.randrange(base.n_right)
            if overlay.has_edge(u, v):
                overlay.remove_edge(u, v)
            else:
                overlay.add_edge(u, v)
        for a in range(base.n_left):
            for b in range(base.n_left):
                ra, rb = overlay.row_left(a), overlay.row_left(b)
                assert intersect_size(ra, rb) == len(set(ra) & set(rb))
