"""Graph construction, validation, batching, and serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edgepool import batch, build_graph, gen_synthetic, load_tu, models, save_tu, symmetrize
from edgepool.graph import (
    BatchedGraph,
    Graph,
    _segment_sum,
    graph_from_json,
    graph_to_json,
    load_graph_file,
    to_dot,
)
from edgepool.rng import seeded_rng

from oracles import unique_symmetrize
from strategies import featured_digraphs, pool_levels, simple_digraphs


def features(n, f=1):
    return np.arange(n * f, dtype=np.float64).reshape(n, f)


class TestBuildGraph:
    def test_minimal_symmetric_pair(self):
        g = build_graph(2, [(0, 1), (1, 0)], features(2))
        assert g.num_nodes == 2
        assert g.num_edges == 2

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            build_graph(2, [(0, 2)], features(2))

    def test_negative_index(self):
        with pytest.raises(ValueError):
            build_graph(2, [(-1, 0)], features(2))

    def test_duplicate_edge(self):
        with pytest.raises(ValueError):
            build_graph(2, [(0, 1), (0, 1)], features(2))

    def test_self_loop(self):
        with pytest.raises(ValueError):
            build_graph(2, [(0, 0)], features(2))

    def test_feature_row_mismatch(self):
        with pytest.raises(ValueError):
            build_graph(3, [(0, 1)], features(2))

    def test_edge_feature_row_mismatch(self):
        with pytest.raises(ValueError):
            build_graph(2, [(0, 1)], features(2), np.zeros((2, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_node_features_rejected(self, bad):
        with pytest.raises(ValueError, match="node features must be finite"):
            build_graph(3, [(0, 1)], [[bad], [1.0], [2.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_edge_features_rejected(self, bad):
        with pytest.raises(ValueError, match="edge features must be finite"):
            build_graph(3, [(0, 1), (1, 2)], features(3), [[1.0], [bad]])

    @pytest.mark.parametrize("bad", [[["a"]], [[None]], [[True]]])
    def test_non_numeric_edge_features_rejected(self, bad):
        with pytest.raises(ValueError, match="edge features must be numeric"):
            build_graph(2, [(0, 1)], features(2), bad)

    def test_canonical_edge_order(self):
        g = build_graph(3, [(2, 1), (0, 1), (1, 0), (0, 2)], features(3))
        assert g.edges.tolist() == [[0, 1], [0, 2], [1, 0], [2, 1]]

    def test_canonical_order_permutes_edge_features(self):
        ef = np.asarray([[10.0], [20.0]])
        g = build_graph(3, [(2, 0), (0, 1)], features(3), ef)
        assert g.edges.tolist() == [[0, 1], [2, 0]]
        assert g.edge_features.tolist() == [[20.0], [10.0]]

    def test_roundtrip_is_canonical_for_any_valid_input(self):
        rng = seeded_rng(7, "canon")
        for _ in range(25):
            n = int(rng.integers(2, 9))
            pairs = {(int(a), int(b)) for a, b in rng.integers(0, n, size=(12, 2)) if a != b}
            g = build_graph(n, sorted(pairs), features(n))
            rebuilt = build_graph(n, g.edges, g.node_features)
            assert rebuilt.edges.tolist() == g.edges.tolist()
            key = [tuple(e) for e in g.edges.tolist()]
            assert key == sorted(key)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_edge_order_gives_the_same_graph(self, data):
        n, pairs = data.draw(simple_digraphs())
        shuffled = [pairs[k] for k in data.draw(st.permutations(range(len(pairs))))]

        def tag(edges):  # edge feature that names its edge
            return np.asarray([[100.0 * i + j] for i, j in edges]).reshape(-1, 1)

        ref = build_graph(n, sorted(pairs), features(n), tag(sorted(pairs)))
        got = build_graph(n, shuffled, features(n), tag(shuffled))
        assert [tuple(e) for e in ref.edges.tolist()] == sorted(pairs)
        assert np.array_equal(got.edges, ref.edges)
        assert np.array_equal(got.edge_features, ref.edge_features)
        assert np.array_equal(got.edge_features, tag(got.edges.tolist()))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_duplicate_reported_alike_from_sorted_or_shuffled_input(self, data):
        n, pairs = data.draw(simple_digraphs(min_edges=1))
        dup = data.draw(st.sampled_from(pairs))
        edges = pairs + [dup]
        shuffled = [edges[k] for k in data.draw(st.permutations(range(len(edges))))]
        with pytest.raises(ValueError) as from_sorted:
            build_graph(n, sorted(edges), features(n))
        with pytest.raises(ValueError) as from_shuffled:
            build_graph(n, shuffled, features(n))
        assert str(from_sorted.value) == f"duplicate directed edge {dup}"
        assert str(from_shuffled.value) == str(from_sorted.value)

    def test_num_nodes_bound_of_the_edge_key(self):
        # (n, 0) features allocate nothing, so the bound itself is testable.
        largest = 3037000499  # largest n with n**2 < 2**63
        assert build_graph(largest, [], np.zeros((largest, 0))).num_nodes == largest
        with pytest.raises(ValueError, match="too large"):
            build_graph(largest + 1, [], np.zeros((largest + 1, 0)))

    def test_immutable_arrays(self):
        g = build_graph(2, [(0, 1)], features(2))
        with pytest.raises(ValueError):
            g.edges[0, 0] = 1
        with pytest.raises(ValueError):
            g.node_features[0, 0] = 9.0


class TestSymmetrize:
    def test_adds_reverse(self):
        g = symmetrize(build_graph(2, [(0, 1)], features(2)))
        assert g.edges.tolist() == [[0, 1], [1, 0]]

    def test_identity_on_symmetric(self):
        g = symmetrize(build_graph(2, [(0, 1), (1, 0)], features(2)))
        assert symmetrize(g) is g

    def test_empty_edges_unchanged(self):
        g = symmetrize(build_graph(3, [], features(3)))
        assert g.num_edges == 0

    def test_idempotent(self):
        rng = seeded_rng(0, "sym")
        for _ in range(20):
            n = int(rng.integers(2, 8))
            pairs = {(int(a), int(b)) for a, b in rng.integers(0, n, size=(10, 2)) if a != b}
            once = symmetrize(build_graph(n, sorted(pairs), features(n)))
            twice = symmetrize(once)
            assert twice.edges.tolist() == once.edges.tolist()

    def test_reverse_copies_edge_features(self):
        g = build_graph(3, [(0, 1), (2, 1)], features(3), np.asarray([[5.0], [7.0]]))
        s = symmetrize(g)
        lookup = {tuple(e): f[0] for e, f in zip(s.edges.tolist(), s.edge_features.tolist())}
        assert lookup[(1, 0)] == 5.0
        assert lookup[(1, 2)] == 7.0
        assert lookup[(0, 1)] == 5.0

    def test_forward_features_win_over_added_reverse(self):
        # (0,1) and (1,0) both present with distinct features: unchanged.
        g = build_graph(2, [(0, 1), (1, 0)], features(2), np.asarray([[1.0], [2.0]]))
        s = symmetrize(g)
        assert s.edge_features.tolist() == [[1.0], [2.0]]

    @settings(max_examples=150, deadline=None)
    @given(g=featured_digraphs())
    def test_bitwise_equal_to_unique_reference(self, g):
        got, want = symmetrize(g), unique_symmetrize(g)
        assert_same_graph(got, want)
        assert symmetrize(got) is got


def graph_arrays(g):
    return [g.node_features, g.edge_src, g.edge_dst] + (
        [] if g.edge_features is None else [g.edge_features])


def assert_same_graph(got, want):
    assert got.num_nodes == want.num_nodes
    assert (got.edge_features is None) == (want.edge_features is None)
    for a, b in zip(graph_arrays(got), graph_arrays(want)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def assert_canonical(g):
    """Equal to ``build_graph`` of its own parts, with read-only arrays, its
    endpoints in two 1-D C-contiguous int64 columns, and ``edges`` their stack."""
    assert_same_graph(g, build_graph(g.num_nodes, g.edges, g.node_features, g.edge_features))
    for column in (g.edge_src, g.edge_dst):
        assert column.ndim == 1 and column.dtype == np.int64 and column.flags.c_contiguous
    assert not any(a.flags.writeable for a in graph_arrays(g))
    assert not g.edges.flags.writeable
    assert g.edges.tobytes() == np.stack([g.edge_src, g.edge_dst], axis=1).tobytes()


class TestGraphsBuiltFromCanonicalParts:
    """build_graph validates; every other constructor builds a Graph directly."""

    @settings(max_examples=100, deadline=None)
    @given(g=featured_digraphs())
    def test_build_graph(self, g):
        assert_canonical(g)

    @settings(max_examples=100, deadline=None)
    @given(g=featured_digraphs())
    def test_symmetrize(self, g):
        assert_canonical(symmetrize(g))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_batch(self, data):
        width = data.draw(st.integers(0, 2))
        dtype = data.draw(st.sampled_from([np.float32, np.float64]))
        parts = data.draw(st.lists(featured_digraphs(width, dtype), min_size=1, max_size=4))
        merged = batch(parts)
        assert_canonical(merged.graph)
        assert not merged.graph_id.flags.writeable

    @settings(max_examples=100, deadline=None)
    @given(level=pool_levels())
    def test_contract(self, level):
        assert_canonical(level[2])

    @settings(max_examples=100, deadline=None)
    @given(g=featured_digraphs())
    def test_with_node_features(self, g):
        # The caller's matrix is copied, so it stays writable.
        x = np.arange(g.num_nodes * 2, dtype=np.float64).reshape(-1, 2)
        assert_canonical(g.with_node_features(x))
        assert x.flags.writeable
        # Checked as build_graph checks node features: integers widen to float64.
        assert g.with_node_features(x.astype(np.int32)).node_features.dtype == np.float64
        for bad in (np.full((g.num_nodes, 1), "a"), np.full((g.num_nodes, 2), np.nan),
                    x[:-1], x[:, 0]):
            with pytest.raises(ValueError):
                g.with_node_features(bad)

    @settings(max_examples=100, deadline=None)
    @given(g=featured_digraphs())
    def test_models_copy_without_edge_features(self, g):
        assert_canonical(models._without_edge_features(g))

    @pytest.mark.parametrize("seed", range(3))
    def test_load_tu(self, tmp_path, seed):
        # A third of the lines dropped and a fifth repeated: load_tu restores
        # the missing reversals and drops the repeats.
        save_tu(gen_synthetic("path_proteinlike", {"num_graphs": 12}, seed=seed), tmp_path, "T")
        path = tmp_path / "T_A.txt"
        lines = path.read_text().splitlines()
        kept = [line for i, line in enumerate(lines) if i % 3] + lines[::5]
        path.write_text("\n".join(kept) + "\n")
        for g in load_tu(tmp_path, "T").graphs:
            assert_canonical(g)

    def test_any_construction_is_read_only(self):
        src, dst = np.asarray([0, 1]), np.asarray([1, 0])
        g = Graph(2, np.ones((2, 1)), src, dst, np.ones((2, 1)))
        assert not any(a.flags.writeable for a in graph_arrays(g))
        assert not BatchedGraph(g, np.zeros(2, dtype=np.int64)).graph_id.flags.writeable


def in_neighbors(g, j):
    """Row j of the cached in-adjacency: column indices, checked unit-weight."""
    a = g.in_adjacency
    row = slice(a.indptr[j], a.indptr[j + 1])
    assert np.all(a.data[row] == 1.0)
    return a.indices[row].tolist()


class TestInNeighbors:
    """In-neighbors of a node, read from the rows of ``Graph.in_adjacency``."""

    def test_path_middle(self):
        g = symmetrize(build_graph(3, [(0, 1), (1, 2)], features(3)))
        assert in_neighbors(g, 1) == [0, 2]

    def test_isolated_node(self):
        g = build_graph(3, [(0, 1)], features(3))
        assert in_neighbors(g, 2) == []

    def test_star_center(self):
        g = symmetrize(build_graph(4, [(0, 1), (0, 2), (0, 3)], features(4)))
        assert in_neighbors(g, 0) == [1, 2, 3]

    def test_sizes_sum_to_num_edges(self):
        rng = seeded_rng(3, "inn")
        for _ in range(10):
            n = int(rng.integers(2, 10))
            pairs = {(int(a), int(b)) for a, b in rng.integers(0, n, size=(15, 2)) if a != b}
            g = build_graph(n, sorted(pairs), features(n))
            assert g.in_adjacency.shape == (n, n)
            assert g.in_adjacency.nnz == g.num_edges

    @settings(max_examples=60, deadline=None)
    @given(case=simple_digraphs())
    def test_rows_list_sources_in_ascending_order(self, case):
        n, pairs = case
        g = build_graph(n, pairs, features(n))
        for j in range(n):
            assert in_neighbors(g, j) == sorted(i for i, k in pairs if k == j)

    def test_built_once(self):
        g = build_graph(3, [(0, 1), (2, 1)], features(3))
        assert g.in_adjacency is g.in_adjacency

    def test_edgeless_graph_gives_zero_rows(self):
        g = build_graph(3, [], features(3))
        assert g.in_adjacency.nnz == 0
        assert np.array_equal(g.in_adjacency @ np.ones((3, 2)), np.zeros((3, 2)))


class TestSegmentSum:
    @settings(max_examples=100, deadline=None)
    @given(
        index=st.lists(st.integers(0, 7), max_size=30),
        extra=st.integers(0, 3),
        seed=st.integers(0, 2**16),
    )
    def test_bitwise_equal_to_scatter_add(self, index, extra, seed):
        # num_segments above the largest index leaves trailing segments empty;
        # values of mixed magnitude make the summation order visible.
        index = np.asarray(index, dtype=np.int64)
        num_segments = 8 + extra
        rng = seeded_rng(seed, "segment-sum")
        values = rng.normal(size=(len(index), 3)) * 10.0 ** rng.integers(-8, 9, size=(len(index), 1))
        expected = np.zeros((num_segments, 3))
        np.add.at(expected, index, values)
        out = _segment_sum(index, values, num_segments)
        assert out.shape == (num_segments, 3)
        assert np.array_equal(out, expected)


class TestBatch:
    def test_offsets(self):
        a = build_graph(2, [(0, 1)], features(2))
        b = build_graph(3, [(0, 1), (1, 2)], features(3))
        merged = batch([a, b])
        assert merged.graph.num_nodes == 5
        assert [2, 3] in merged.graph.edges.tolist()
        assert merged.graph_id.tolist() == [0, 0, 1, 1, 1]

    def test_single_graph_identity(self):
        a = build_graph(2, [(0, 1)], features(2))
        merged = batch([a])
        assert np.bincount(merged.graph_id).tolist() == [2]
        assert merged.graph.edges.tolist() == a.edges.tolist()
        assert merged.graph_id.tolist() == [0, 0]

    def test_preserves_totals_and_no_cross_edges(self):
        rng = seeded_rng(11, "batch")
        graphs = []
        for _ in range(6):
            n = int(rng.integers(1, 7))
            pairs = {(int(a), int(b)) for a, b in rng.integers(0, n, size=(6, 2)) if a != b}
            graphs.append(build_graph(n, sorted(pairs), rng.normal(size=(n, 2))))
        merged = batch(graphs)
        assert merged.graph.num_nodes == sum(g.num_nodes for g in graphs)
        assert merged.graph.num_edges == sum(g.num_edges for g in graphs)
        stacked = np.vstack([g.node_features for g in graphs])
        assert np.array_equal(merged.graph.node_features, stacked)
        gid = merged.graph_id
        for i, j in merged.graph.edges:
            assert gid[i] == gid[j]

    def test_batch_count_arithmetic(self):
        # 1001 items at size 128: seven full batches plus one of 105.
        sizes = [min(128, 1001 - k * 128) for k in range((1001 + 127) // 128)]
        assert sizes == [128] * 7 + [105]

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            batch([])

    def test_width_mismatch_rejected(self):
        a = build_graph(2, [(0, 1)], features(2, 1))
        b = build_graph(2, [(0, 1)], features(2, 2))
        with pytest.raises(ValueError):
            batch([a, b])


class TestDot:
    @settings(max_examples=100, deadline=None)
    @given(g=featured_digraphs())
    def test_edge_lines_equal_unique_sorted_pairs(self, g):
        # One line per undirected pair, in the order of np.unique(axis=0).
        lines = [ln for ln in to_dot(g).splitlines() if "--" in ln]
        pairs = np.unique(np.sort(g.edges, axis=1), axis=0)
        assert lines == [f"  {u} -- {v};" for u, v in pairs]

    def test_single_node(self):
        g = build_graph(1, [], features(1))
        text = to_dot(g)
        assert "0" in text and "graph" in text

    def test_reverse_pair_rendered_once(self):
        g = symmetrize(build_graph(2, [(0, 1)], features(2)))
        text = to_dot(g)
        assert text.count("--") == 1

    def test_cluster_colors(self):
        g = symmetrize(build_graph(4, [(0, 1), (1, 2), (2, 3)], features(4)))
        text = to_dot(g, [0, 0, 1, 1])
        fills = [ln for ln in text.splitlines() if "fillcolor" in ln]
        assert len(fills) == 4
        palette = {ln.split("fillcolor=")[1].split(",")[0].split("]")[0] for ln in fills}
        assert len(palette) == 2


class TestJson:
    def test_roundtrip(self):
        g = build_graph(3, [(0, 1), (1, 2)], features(3, 2), np.asarray([[1.0], [2.0]]))
        obj = graph_to_json(g)
        h = graph_from_json(json.loads(json.dumps(obj)))
        assert h.edges.tolist() == g.edges.tolist()
        assert np.allclose(h.node_features, g.node_features)
        assert np.allclose(h.edge_features, g.edge_features)

    @pytest.mark.parametrize("graph, widths", [
        (build_graph(2, [], features(2), np.zeros((0, 3))), (1, 0)),
        (build_graph(0, [], np.zeros((0, 2))), (0, 0)),
    ], ids=["edgeless-with-edge-features", "no-nodes"])
    def test_empty_feature_matrix_reads_back_zero_wide(self, graph, widths):
        # JSON [] keeps no width, so an empty matrix reads back with none.
        h = graph_from_json(json.loads(json.dumps(graph_to_json(graph))))
        assert h.num_nodes == graph.num_nodes and h.edges.shape == (0, 2)
        assert h.node_features.tolist() == graph.node_features.tolist()
        assert (h.edge_features is None) == (graph.edge_features is None)
        assert (h.feature_width, h.edge_feature_width) == widths

    def test_required_keys(self):
        with pytest.raises(ValueError):
            graph_from_json({"num_nodes": 2, "edges": []})

    def test_file_roundtrip_with_labels(self, tmp_path):
        g = build_graph(2, [(0, 1)], features(2))
        path = tmp_path / "g.json"
        path.write_text(json.dumps(graph_to_json(g) | {"label": 1, "node_labels": [0, 1]}))
        h, label, node_labels = load_graph_file(path)
        assert label == 1
        assert node_labels.tolist() == [0, 1]
        assert h.edges.tolist() == g.edges.tolist()
