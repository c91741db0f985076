"""Tests for the BipartiteGraph container."""

from __future__ import annotations

import pytest

from repro.graph.bigraph import LEFT, RIGHT, BipartiteGraph

from .conftest import complete_bigraph


class TestConstruction:
    def test_empty_graph(self):
        g = BipartiteGraph(0, 0, [])
        assert g.shape == (0, 0, 0)

    def test_no_edges(self):
        g = BipartiteGraph(3, 2, [])
        assert g.num_edges == 0
        assert g.degrees_left() == [0, 0, 0]
        assert g.degrees_right() == [0, 0]

    def test_duplicate_edges_collapse(self):
        g = BipartiteGraph(2, 2, [(0, 0), (0, 0), (0, 0), (1, 1)])
        assert g.num_edges == 2

    def test_left_vertex_out_of_range(self):
        with pytest.raises(ValueError, match="left vertex"):
            BipartiteGraph(2, 2, [(2, 0)])

    def test_right_vertex_out_of_range(self):
        with pytest.raises(ValueError, match="right vertex"):
            BipartiteGraph(2, 2, [(0, 5)])

    def test_negative_vertex_rejected(self):
        with pytest.raises(ValueError):
            BipartiteGraph(2, 2, [(-1, 0)])

    def test_negative_sizes_rejected(self):
        with pytest.raises(ValueError):
            BipartiteGraph(-1, 2, [])

    def test_repr_mentions_shape(self):
        g = BipartiteGraph(2, 3, [(0, 0)])
        assert "|U|=2" in repr(g) and "|V|=3" in repr(g) and "|E|=1" in repr(g)


class TestAccessors:
    def test_neighbors_sorted(self):
        g = BipartiteGraph(1, 4, [(0, 3), (0, 1), (0, 2)])
        assert g.neighbors_left(0) == (1, 2, 3)

    def test_neighbors_right(self):
        g = BipartiteGraph(3, 1, [(2, 0), (0, 0)])
        assert g.neighbors_right(0) == (0, 2)

    def test_generic_neighbors(self):
        g = BipartiteGraph(2, 2, [(0, 1), (1, 1)])
        assert g.neighbors(LEFT, 0) == (1,)
        assert g.neighbors(RIGHT, 1) == (0, 1)

    def test_generic_neighbors_bad_side(self):
        g = BipartiteGraph(1, 1, [(0, 0)])
        with pytest.raises(ValueError):
            g.neighbors(2, 0)

    def test_degrees(self):
        g = complete_bigraph(2, 3)
        assert g.degree_left(0) == 3
        assert g.degree_right(2) == 2
        assert g.degrees_left() == [3, 3]
        assert g.degrees_right() == [2, 2, 2]

    def test_has_edge(self):
        g = BipartiteGraph(2, 3, [(0, 0), (0, 2), (1, 1)])
        assert g.has_edge(0, 0)
        assert g.has_edge(0, 2)
        assert not g.has_edge(0, 1)
        assert not g.has_edge(1, 2)

    def test_edges_iteration_sorted(self):
        g = BipartiteGraph(2, 2, [(1, 1), (0, 1), (1, 0), (0, 0)])
        assert list(g.edges()) == [(0, 0), (0, 1), (1, 0), (1, 1)]


class TestOrderingNeighbors:
    def test_higher_neighbors_of_right(self):
        g = BipartiteGraph(4, 1, [(0, 0), (1, 0), (3, 0)])
        assert g.higher_neighbors_of_right(0, 0) == (1, 3)
        assert g.higher_neighbors_of_right(0, 1) == (3,)
        assert g.higher_neighbors_of_right(0, 3) == ()

    def test_higher_neighbors_of_left(self):
        g = BipartiteGraph(1, 4, [(0, 0), (0, 2), (0, 3)])
        assert g.higher_neighbors_of_left(0, 0) == (2, 3)
        assert g.higher_neighbors_of_left(0, 2) == (3,)

    def test_higher_neighbors_with_nonmember_reference(self):
        # The reference vertex need not be a neighbor itself.
        g = BipartiteGraph(4, 1, [(0, 0), (2, 0)])
        assert g.higher_neighbors_of_right(0, 1) == (2,)


class TestCommonNeighbors:
    def test_common_of_left(self):
        g = BipartiteGraph(3, 3, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 1)])
        assert g.common_neighbors_of_left([0, 1, 2]) == {1}

    def test_common_of_right(self):
        g = complete_bigraph(3, 2)
        assert g.common_neighbors_of_right([0, 1]) == {0, 1, 2}

    def test_common_of_empty_raises(self):
        g = complete_bigraph(2, 2)
        with pytest.raises(ValueError):
            g.common_neighbors_of_left([])

    def test_common_short_circuit(self):
        g = BipartiteGraph(3, 2, [(0, 0), (1, 1), (2, 0), (2, 1)])
        assert g.common_neighbors_of_left([0, 1]) == set()


class TestDegreeOrdering:
    def test_already_ordered(self):
        g = BipartiteGraph(2, 2, [(1, 0), (1, 1)])
        assert g.is_degree_ordered()

    def test_not_ordered(self):
        g = BipartiteGraph(2, 2, [(0, 0), (0, 1)])
        assert not g.is_degree_ordered()

    def test_degree_ordered_is_permutation(self, rng):
        from .conftest import random_bigraph

        for _ in range(25):
            g = random_bigraph(rng)
            ordered, left_map, right_map = g.degree_ordered()
            assert sorted(left_map) == list(range(g.n_left))
            assert sorted(right_map) == list(range(g.n_right))
            assert ordered.num_edges == g.num_edges
            assert ordered.is_degree_ordered()

    def test_degree_ordered_preserves_adjacency(self):
        g = BipartiteGraph(3, 3, [(0, 0), (0, 1), (0, 2), (1, 2)])
        ordered, lmap, rmap = g.degree_ordered()
        for u, v in g.edges():
            assert ordered.has_edge(lmap[u], rmap[v])

    def test_tie_break_by_id(self):
        g = BipartiteGraph(3, 1, [(0, 0), (1, 0), (2, 0)])
        _, left_map, _ = g.degree_ordered()
        assert left_map == [0, 1, 2]


class TestTransformations:
    def test_swap_sides(self):
        g = BipartiteGraph(2, 3, [(0, 2), (1, 0)])
        s = g.swap_sides()
        assert s.shape == (3, 2, 2)
        assert s.has_edge(2, 0) and s.has_edge(0, 1)

    def test_swap_twice_identity(self):
        g = BipartiteGraph(2, 3, [(0, 2), (1, 0), (1, 1)])
        assert g.swap_sides().swap_sides() == g

    def test_induced_subgraph(self):
        g = complete_bigraph(3, 3)
        sub, left_ids, right_ids = g.induced_subgraph([0, 2], [1])
        assert sub.shape == (2, 1, 2)
        assert left_ids == [0, 2]
        assert right_ids == [1]

    def test_induced_subgraph_empty(self):
        g = complete_bigraph(2, 2)
        sub, _, _ = g.induced_subgraph([], [])
        assert sub.shape == (0, 0, 0)

    def test_induced_subgraph_dedupes_input(self):
        g = complete_bigraph(2, 2)
        sub, left_ids, _ = g.induced_subgraph([1, 1, 0], [0, 0])
        assert left_ids == [0, 1]
        assert sub.num_edges == 2


class TestEquality:
    def test_equal_graphs(self):
        g1 = BipartiteGraph(2, 2, [(0, 0), (1, 1)])
        g2 = BipartiteGraph(2, 2, [(1, 1), (0, 0)])
        assert g1 == g2
        assert hash(g1) == hash(g2)

    def test_unequal_edges(self):
        g1 = BipartiteGraph(2, 2, [(0, 0)])
        g2 = BipartiteGraph(2, 2, [(0, 1)])
        assert g1 != g2

    def test_unequal_shape(self):
        assert BipartiteGraph(1, 2, []) != BipartiteGraph(2, 1, [])

    def test_not_equal_to_other_type(self):
        assert BipartiteGraph(1, 1, []) != "graph"


class TestCsrLayout:
    def test_csr_buffers_shapes(self):
        g = BipartiteGraph(3, 2, [(0, 0), (0, 1), (2, 0)])
        indptr_l, indices_l, indptr_r, indices_r = g.csr_buffers()
        assert list(indptr_l) == [0, 2, 2, 3]
        assert list(indices_l) == [0, 1, 0]
        assert list(indptr_r) == [0, 2, 3]
        assert list(indices_r) == [0, 2, 0]

    def test_nbytes_counts_all_four_buffers(self):
        g = BipartiteGraph(3, 2, [(0, 0), (0, 1), (2, 0)])
        # (n_left+1) + E + (n_right+1) + E int64 slots.
        assert g.nbytes == 8 * (4 + 3 + 3 + 3)

    def test_rows_are_sorted_slices(self):
        g = BipartiteGraph(3, 3, [(0, 2), (0, 0), (1, 1)])
        assert list(g.row_left(0)) == [0, 2]
        assert list(g.row_right(1)) == [1]
        assert list(g.row_left(2)) == []

    def test_from_csr_roundtrip(self):
        g = BipartiteGraph(4, 3, [(0, 0), (1, 2), (3, 1), (3, 2)])
        rebuilt = BipartiteGraph.from_csr(g.n_left, g.n_right, *g.csr_buffers())
        assert rebuilt == g
        assert list(rebuilt.edges()) == list(g.edges())

    def test_from_csr_accepts_memoryviews(self):
        g = BipartiteGraph(2, 2, [(0, 0), (1, 1)])
        views = [memoryview(b) for b in g.csr_buffers()]
        rebuilt = BipartiteGraph.from_csr(2, 2, *views)
        assert rebuilt == g
        assert rebuilt.neighbors_left(0) == (0,)


class TestEdgeIdSpace:
    def test_edge_index_is_csr_offset(self):
        g = BipartiteGraph(3, 3, [(0, 1), (0, 2), (1, 0), (2, 1)])
        for eid, (u, v) in enumerate(g.edges()):
            assert g.edge_index(u, v) == eid
            assert g.edge_at(eid) == (u, v)

    def test_edge_index_missing_edge_raises(self):
        g = BipartiteGraph(2, 2, [(0, 0)])
        with pytest.raises(KeyError):
            g.edge_index(0, 1)

    def test_edge_at_out_of_range(self):
        g = BipartiteGraph(2, 2, [(0, 0)])
        with pytest.raises(IndexError):
            g.edge_at(1)
        with pytest.raises(IndexError):
            g.edge_at(-1)

    def test_edge_ids_skip_isolated_left_vertices(self):
        g = BipartiteGraph(4, 2, [(0, 1), (3, 0)])
        assert g.edge_index(0, 1) == 0
        assert g.edge_index(3, 0) == 1
        assert g.edge_at(1) == (3, 0)

    def test_edges_in_range_strict_bounds(self):
        g = BipartiteGraph(3, 3, [(0, 1), (0, 2), (1, 0), (2, 1)])
        n = g.num_edges
        # Every valid window, including the empty ones at both ends.
        assert g.edges_in_range(0, n) == list(g.edges())
        assert g.edges_in_range(0, 0) == []
        assert g.edges_in_range(n, n) == []
        assert g.edges_in_range(1, 3) == [g.edge_at(1), g.edge_at(2)]
        # Out-of-bounds and inverted windows fail loudly: a mis-cut
        # shard range must never silently drop edges from a count.
        for start, stop in [(-1, 2), (0, n + 1), (-3, n + 3), (n, n + 1), (3, 1)]:
            with pytest.raises(IndexError, match="edge-id range"):
                g.edges_in_range(start, stop)

    def test_edges_in_range_error_names_bounds(self):
        g = BipartiteGraph(2, 2, [(0, 0), (1, 1)])
        with pytest.raises(IndexError, match=r"\[0, 9\).*2 edges"):
            g.edges_in_range(0, 9)


class TestPickleByBuffer:
    def test_pickle_roundtrip(self):
        import pickle

        g = BipartiteGraph(5, 4, [(0, 0), (2, 3), (4, 1), (4, 2)])
        clone = pickle.loads(pickle.dumps(g))
        assert clone == g
        assert list(clone.edges()) == list(g.edges())
        assert clone.degrees_left() == g.degrees_left()

    def test_pickle_of_from_csr_view_graph(self):
        import pickle

        g = BipartiteGraph(3, 3, [(0, 0), (1, 2)])
        views = [memoryview(b) for b in g.csr_buffers()]
        wrapped = BipartiteGraph.from_csr(3, 3, *views)
        clone = pickle.loads(pickle.dumps(wrapped))
        assert clone == g

    def test_pickle_skips_validation_but_preserves_queries(self, rng):
        import pickle

        from .conftest import random_bigraph

        for _ in range(10):
            g = random_bigraph(rng)
            clone = pickle.loads(pickle.dumps(g))
            assert clone == g
            for u in range(g.n_left):
                assert clone.neighbors_left(u) == g.neighbors_left(u)


class TestDegreeCaches:
    def test_degrees_from_indptr(self):
        g = BipartiteGraph(3, 2, [(0, 0), (0, 1), (2, 0)])
        assert g.degrees_left() == [2, 0, 1]
        assert g.degrees_right() == [2, 1]

    def test_degree_sequences_are_cached_objects(self):
        g = BipartiteGraph(2, 2, [(0, 0)])
        assert g.degrees_left() is g.degrees_left()
        assert g.degrees_right() is g.degrees_right()


def assert_matches_edge_oracle(g, n_left, n_right, edges):
    """Every CSR row of ``g`` against a ``sorted(set(edges))`` oracle."""
    oracle = sorted(set(edges))
    assert list(g.edges()) == oracle
    assert g.num_edges == len(oracle)
    for u in range(n_left):
        assert g.neighbors_left(u) == tuple(v for x, v in oracle if x == u)
    for v in range(n_right):
        assert g.neighbors_right(v) == tuple(u for u, y in oracle if y == v)


class TestBuilderAgainstOracle:
    def test_shuffled_duplicates_match_oracle(self, rng):
        for _ in range(30):
            n_left = rng.randint(1, 12)
            n_right = rng.randint(1, 12)
            edges = [
                (rng.randrange(n_left), rng.randrange(n_right))
                for _ in range(rng.randint(0, 60))
            ]
            # Duplicates on top of whatever the draw produced.
            edges += edges[: len(edges) // 2]
            rng.shuffle(edges)
            g = BipartiteGraph(n_left, n_right, edges)
            assert_matches_edge_oracle(g, n_left, n_right, edges)

    def test_empty_edge_lists(self):
        for n_left, n_right in [(0, 0), (3, 0), (0, 4), (3, 4)]:
            g = BipartiteGraph(n_left, n_right, [])
            assert g.shape == (n_left, n_right, 0)
            assert_matches_edge_oracle(g, n_left, n_right, [])
            assert g.degrees_left() == [0] * n_left
            assert g.degrees_right() == [0] * n_right

    def test_isolated_vertices_on_both_sides(self):
        # Left 0 and 3, right 1 and 4 touch no edge.
        edges = [(2, 3), (1, 0), (2, 0), (1, 2), (2, 3), (1, 0)]
        g = BipartiteGraph(4, 5, edges)
        assert_matches_edge_oracle(g, 4, 5, edges)
        assert g.degrees_left() == [0, 2, 2, 0]
        assert g.degrees_right() == [2, 0, 1, 1, 0]


class TestContentFingerprint:
    def test_stable_across_construction_paths(self):
        import pickle

        g = BipartiteGraph(3, 4, [(0, 0), (0, 1), (1, 2), (2, 3)])
        fp = g.content_fingerprint()
        assert len(fp) == 64 and int(fp, 16) >= 0
        # Edge order must not matter (CSR canonicalises).
        shuffled = BipartiteGraph(3, 4, [(2, 3), (1, 2), (0, 1), (0, 0)])
        assert shuffled.content_fingerprint() == fp
        # Pickle round-trip preserves identity, equality, and hash.
        clone = pickle.loads(pickle.dumps(g))
        assert clone == g
        assert clone.content_fingerprint() == fp
        assert hash(clone) == hash(g)
        # from_csr wrapping of the same buffers too.
        rebuilt = BipartiteGraph.from_csr(g.n_left, g.n_right, *g.csr_buffers())
        assert rebuilt.content_fingerprint() == fp

    def test_different_graphs_differ(self):
        a = BipartiteGraph(2, 2, [(0, 0), (1, 1)])
        b = BipartiteGraph(2, 2, [(0, 1), (1, 0)])
        assert a.content_fingerprint() != b.content_fingerprint()
        # Same edges, different universe size: different content.
        c = BipartiteGraph(3, 2, [(0, 0), (1, 1)])
        assert c.content_fingerprint() != a.content_fingerprint()

    def test_hash_consistent_with_equality(self):
        a = BipartiteGraph(2, 3, [(0, 0), (0, 2), (1, 1)])
        b = BipartiteGraph(2, 3, [(1, 1), (0, 2), (0, 0)])
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
