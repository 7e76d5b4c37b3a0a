"""Scoring, normalization, selection, contraction, and the exact backward."""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edgepool import (
    EdgeScores,
    PoolParams,
    build_graph,
    edgepool_backward,
    edgepool_forward,
    select_contractions,
    symmetrize,
    unpool_backward,
)
from edgepool.data import make_connected_erdos_renyi, make_cycle, make_star
from edgepool.pool import (
    apply_score_dropout,
    contract,
    hierarchy_to_json,
    normalize_scores,
    pool_hierarchy,
    raw_scores,
)
from edgepool.rng import seeded_rng

from oracles import (
    naive_contract_features,
    naive_matching,
    naive_normalize,
    scatter_edgepool_backward,
    sequential_greedy,
)
from strategies import pool_levels, signed_rows, simple_digraphs


def path_graph(n, feats=None):
    g = symmetrize(build_graph(n, [(i, i + 1) for i in range(n - 1)],
                               np.zeros((n, 1)) if feats is None else feats))
    return g


def random_graph(rng, n=8, f=3, p=0.45):
    g = make_connected_erdos_renyi(n, p, rng, feature_width=f)
    return g.with_node_features(rng.normal(0.0, 1.0, size=(n, f)))


def no_dropout(graph):
    return np.zeros(graph.num_edges, dtype=bool)


def random_simple_graph(rng, n, undirected):
    """Uniform random simple graph with ``2 * undirected`` directed edges."""
    u, v = rng.integers(0, n, size=(2, int(undirected * 1.1)))
    keep = u != v
    key = np.unique(np.minimum(u, v)[keep] * np.int64(n) + np.maximum(u, v)[keep])
    key = key[:undirected]
    g = symmetrize(build_graph(n, np.stack([key // n, key % n], axis=1), np.zeros((n, 1))))
    assert g.num_edges == 2 * undirected
    return g


class TestRawScores:
    def test_hand_dot_product(self):
        g = build_graph(2, [(0, 1)], np.asarray([[1.0], [2.0]]))
        r = raw_scores(g, PoolParams(weight=np.asarray([1.0, 1.0]), bias=0.0))
        assert r.tolist() == [3.0]

    def test_constant_map(self):
        g = path_graph(4)
        r = raw_scores(g, PoolParams(weight=np.zeros(2), bias=0.7))
        assert np.allclose(r, 0.7)

    def test_edge_feature_variant(self):
        g = build_graph(2, [(0, 1)], np.asarray([[1.0], [2.0]]), np.asarray([[4.0]]))
        r = raw_scores(g, PoolParams(weight=np.ones(3), bias=0.0))
        assert r.tolist() == [7.0]

    def test_width_mismatch(self):
        g = build_graph(2, [(0, 1)], np.asarray([[1.0], [2.0]]))
        with pytest.raises(ValueError):
            raw_scores(g, PoolParams(weight=np.ones(3), bias=0.0))

    def test_double_precision_output(self):
        g = build_graph(2, [(0, 1)], np.asarray([[1.0], [2.0]], dtype=np.float32))
        r = raw_scores(g, PoolParams(weight=np.ones(2, dtype=np.float32), bias=0.0))
        assert r.dtype == np.float64


class TestNormalizeScores:
    def test_singleton_incoming(self):
        g = build_graph(2, [(0, 1)], np.zeros((2, 1)))
        s = normalize_scores(g, np.asarray([3.7]), no_dropout(g))
        assert s.tolist() == [1.5]

    def test_equal_pair(self):
        g = build_graph(3, [(0, 2), (1, 2)], np.zeros((3, 1)))
        s = normalize_scores(g, np.asarray([0.4, 0.4]), no_dropout(g))
        assert np.allclose(s, [1.0, 1.0])

    def test_reference_two_scores(self):
        # softmax of {1, 2} is {0.26894..., 0.73105...}; plus the 0.5 shift.
        g = build_graph(3, [(0, 2), (1, 2)], np.zeros((3, 1)))
        s = normalize_scores(g, np.asarray([1.0, 2.0]), no_dropout(g))
        assert np.allclose(s, [0.7689414213699951, 1.2310585786300049], atol=1e-12)

    def test_dropped_edges_score_zero_and_leave_denominator(self):
        g = build_graph(3, [(0, 2), (1, 2)], np.zeros((3, 1)))
        dropped = np.asarray([True, False])
        s = normalize_scores(g, np.asarray([9.0, 2.0]), dropped)
        assert s[0] == 0.0
        assert s[1] == 1.5

    def test_max_subtraction_stability(self):
        g = build_graph(3, [(0, 2), (1, 2)], np.zeros((3, 1)))
        s = normalize_scores(g, np.asarray([1e4, 1e4 - 1.0]), no_dropout(g))
        assert np.all(np.isfinite(s))
        assert abs((s - 0.5).sum() - 1.0) < 1e-12

    def test_matches_naive_oracle(self):
        rng = seeded_rng(5, "norm-oracle")
        for trial in range(30):
            g = random_graph(rng, n=int(rng.integers(3, 9)), f=2)
            raw = rng.normal(0.0, 2.0, size=g.num_edges)
            dropped = rng.random(g.num_edges) < 0.25
            mine = normalize_scores(g, raw, dropped)
            ref = naive_normalize(g.edges, raw, dropped)
            assert np.allclose(mine, ref, atol=1e-12), f"trial {trial}"

    def test_non_finite_kept_raw_score_rejected(self):
        # 1e308 + 1e308 overflows the raw score to inf, which would make the
        # softmax NaN; the error names the scores, not a later stage.
        g = path_graph(4, np.ones((4, 1)))
        params = PoolParams(weight=np.asarray([1e308, 1e308]), bias=0.0)
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="edge scores must be finite"):
                edgepool_forward(g, params)
        raw = np.zeros(g.num_edges)
        raw[0] = np.nan
        with pytest.raises(ValueError, match="edge scores must be finite"):
            normalize_scores(g, raw, no_dropout(g))
        dropped = no_dropout(g)
        dropped[0] = True
        assert np.isfinite(normalize_scores(g, raw, dropped)).all()

    @settings(max_examples=150, deadline=None)
    @given(case=simple_digraphs(max_nodes=6, max_edges=30), seed=st.integers(0, 2**32 - 1),
           drop=st.sampled_from([0.0, 0.3]))
    def test_bitwise_equal_to_scatter_add_reference(self, case, seed, drop):
        # Few nodes, so destinations have several incoming edges whose sum
        # order shows in the last bits.
        n, pairs = case
        g = build_graph(n, pairs, np.zeros((n, 1)))
        m = g.num_edges
        rng = seeded_rng(seed, "normalize-bitwise")
        raw = rng.normal(0.0, 2.0, size=m)
        dropped = rng.random(m) < drop

        # Reference: masks and in-order scatters (np.add.at) into zeros.
        keep = ~dropped
        dst, r = g.edge_dst[keep], raw[keep]
        mx = np.full(n, -np.inf)
        np.maximum.at(mx, dst, r)
        ex = np.exp(r - mx[dst])
        denom = np.zeros(n)
        np.add.at(denom, dst, ex)
        ref = np.zeros(m)
        ref[keep] = 0.5 + ex / denom[dst]
        assert normalize_scores(g, raw, dropped).tobytes() == ref.tobytes()

    def test_score_and_mask_shapes_validated(self):
        g = path_graph(4)
        m = g.num_edges
        for raw, dropped in ((np.zeros(m + 1), np.zeros(m, dtype=bool)),
                             (np.zeros(m), np.zeros(m - 1, dtype=bool))):
            with pytest.raises(ValueError, match=f"must have shape \\({m},\\)"):
                normalize_scores(g, raw, dropped)

    def test_per_node_sum_invariant(self):
        rng = seeded_rng(6, "norm-sum")
        for _ in range(20):
            g = random_graph(rng, n=10, f=2)
            raw = rng.normal(size=g.num_edges)
            s = normalize_scores(g, raw, no_dropout(g))
            for j in range(g.num_nodes):
                incoming = s[g.edge_dst == j]
                if len(incoming):
                    assert abs((incoming - 0.5).sum() - 1.0) < 1e-6
            # Singleton softmax groups sit exactly at 1.5.
            assert np.all((s > 0.5) & (s <= 1.5))


class TestScoreDropout:
    def test_p_zero_drops_nothing(self):
        mask = apply_score_dropout(5, 0.0, seed=1)
        assert mask.dtype == bool and mask.shape == (5,)
        assert not mask.any()

    def test_binomial_concentration(self):
        mask = apply_score_dropout(10_000, 0.2, seed=3)
        assert 0.18 <= mask.mean() <= 0.22

    def test_deterministic_given_seed(self):
        a = apply_score_dropout(1000, 0.3, seed=9)
        b = apply_score_dropout(1000, 0.3, seed=9)
        assert np.array_equal(a, b)
        c = apply_score_dropout(1000, 0.3, seed=10)
        assert not np.array_equal(a, c)

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            apply_score_dropout(3, 1.0, seed=0)
        with pytest.raises(ValueError):
            apply_score_dropout(3, -0.1, seed=0)


def hand_scores(graph, by_pair):
    """EdgeScores with normalized values set per directed pair."""
    normalized = np.zeros(graph.num_edges)
    for e, (i, j) in enumerate(graph.edges.tolist()):
        normalized[e] = by_pair[(i, j)]
    return EdgeScores(raw=normalized - 0.5, normalized=normalized,
                      dropped=np.zeros(graph.num_edges, dtype=bool))


class TestSelectContractions:
    def test_path_trace_highest_then_blocked(self):
        # Path 0-1-2-3 where (2,3) scores highest, then (0,1), then (1,2):
        # the middle edge is skipped because both endpoints are taken.
        g = path_graph(4)
        scores = hand_scores(g, {
            (2, 3): 1.40, (3, 2): 1.12,
            (0, 1): 1.30, (1, 0): 1.11,
            (1, 2): 1.20, (2, 1): 1.10,
        })
        matching = select_contractions(g, scores)
        assert matching.tolist() == [[2, 3], [0, 1]]

    def test_single_symmetric_edge(self):
        g = symmetrize(build_graph(2, [(0, 1)], np.zeros((2, 1))))
        scores = hand_scores(g, {(0, 1): 1.5, (1, 0): 1.5})
        matching = select_contractions(g, scores)
        assert matching.tolist() == [[0, 1]]

    def test_triangle_single_winner(self):
        g = symmetrize(build_graph(3, [(0, 1), (1, 2), (0, 2)], np.zeros((3, 1))))
        scores = hand_scores(g, {
            (0, 1): 1.2, (1, 0): 0.9,
            (1, 2): 1.1, (2, 1): 0.8,
            (0, 2): 0.9, (2, 0): 0.7,
        })
        matching = select_contractions(g, scores)
        assert matching.tolist() == [[0, 1]]

    def test_dropped_edges_ineligible(self):
        g = symmetrize(build_graph(2, [(0, 1)], np.zeros((2, 1))))
        scores = EdgeScores(raw=np.zeros(2), normalized=np.asarray([0.0, 1.5]),
                            dropped=np.asarray([True, False]))
        matching = select_contractions(g, scores)
        assert matching.tolist() == [[1, 0]]

    def test_matches_naive_oracle_on_small_graphs(self):
        rng = seeded_rng(2, "select-oracle")
        for trial in range(300):
            n = int(rng.integers(2, 8))
            pairs = {(int(a), int(b)) for a, b in rng.integers(0, n, size=(10, 2)) if a != b}
            g = build_graph(n, sorted(pairs), rng.normal(size=(n, 2)))
            raw = rng.normal(0.0, 2.0, size=g.num_edges)
            dropped = rng.random(g.num_edges) < 0.2
            normalized = normalize_scores(g, raw, dropped)
            scores = EdgeScores(raw=raw, normalized=normalized, dropped=dropped)
            mine = select_contractions(g, scores)
            ref = naive_matching(g.edges, normalized, dropped)
            assert [tuple(e) for e in mine.tolist()] == ref, f"trial {trial}"

    def test_matching_validity_and_maximality(self):
        rng = seeded_rng(4, "select-prop")
        for _ in range(50):
            g = random_graph(rng, n=int(rng.integers(2, 20)), f=2, p=0.3)
            raw = rng.normal(size=g.num_edges)
            normalized = normalize_scores(g, raw, no_dropout(g))
            scores = EdgeScores(raw=raw, normalized=normalized, dropped=no_dropout(g))
            matching = select_contractions(g, scores)
            flat = matching.ravel().tolist()
            assert len(flat) == len(set(flat)), "node matched twice"
            matched = set(flat)
            for i, j in g.edges.tolist():
                assert i in matched or j in matched, "maximality violated"

    @settings(max_examples=200, deadline=None)
    @given(digraph=simple_digraphs(), data=st.data())
    def test_equals_sequential_greedy_with_tied_scores(self, digraph, data):
        g, scores = tied_scores(digraph, data)
        mine = select_contractions(g, scores)
        assert mine.dtype == np.int64 and mine.ndim == 2 and mine.shape[1] == 2
        assert np.array_equal(mine, sequential_greedy(g.edges, scores.normalized, scores.dropped))

    @settings(max_examples=150, deadline=None)
    @given(digraph=simple_digraphs(), data=st.data())
    def test_valid_maximal_and_in_selection_order(self, digraph, data):
        g, scores = tied_scores(digraph, data)
        matching = select_contractions(g, scores)
        flat = matching.ravel().tolist()
        assert len(flat) == len(set(flat)), "node matched twice"
        index = {pair: e for e, pair in enumerate(map(tuple, g.edges.tolist()))}
        picked = [index[(i, j)] for i, j in matching.tolist()]
        assert not scores.dropped[picked].any(), "dropped edge selected"
        matched = set(flat)
        for e, (i, j) in enumerate(g.edges.tolist()):
            if not scores.dropped[e]:
                assert i in matched or j in matched, "maximality violated"
        ranks = [(-scores.normalized[e], e) for e in picked]
        assert ranks == sorted(ranks), "not in selection order"

    @settings(max_examples=50, deadline=None)
    @given(digraph=simple_digraphs())
    def test_all_edges_dropped_gives_empty_int64(self, digraph):
        n, pairs = digraph
        g = build_graph(n, pairs, np.zeros((n, 1)))
        m = g.num_edges
        scores = EdgeScores(raw=np.zeros(m), normalized=np.zeros(m),
                            dropped=np.ones(m, dtype=bool))
        matching = select_contractions(g, scores)
        assert matching.dtype == np.int64 and matching.shape == (0, 2)

    def test_edgeless_graph_gives_empty_int64(self):
        g = build_graph(5, [], np.zeros((5, 1)))
        scores = EdgeScores(raw=np.zeros(0), normalized=np.zeros(0),
                            dropped=np.zeros(0, dtype=bool))
        matching = select_contractions(g, scores)
        assert matching.dtype == np.int64 and matching.shape == (0, 2)


def tied_scores(digraph, data):
    """Graph and scores drawn from a 3-4 value set, some edges dropped."""
    n, pairs = digraph
    g = build_graph(n, pairs, np.zeros((n, 1)))
    m = g.num_edges
    values = data.draw(st.lists(st.floats(0.5, 1.5, exclude_min=True),
                                min_size=3, max_size=4, unique=True))
    drawn = data.draw(st.lists(st.sampled_from(values), min_size=m, max_size=m))
    dropped = np.asarray(data.draw(st.lists(st.booleans(), min_size=m, max_size=m)),
                         dtype=bool)
    normalized = np.where(dropped, 0.0, np.asarray(drawn, dtype=np.float64))
    return g, EdgeScores(raw=normalized - 0.5, normalized=normalized, dropped=dropped)


class TestSelectionAtScale:
    def test_monotone_path_is_fast_and_exact(self):
        # Scores rise along the path, so each vectorized round could take
        # only its top edge; the sequential sweep has to finish the job.
        n = 100_000
        g = path_graph(n)
        normalized = 0.6 + 0.8 * g.edges.min(axis=1) / n  # both directions tie
        scores = EdgeScores(raw=normalized - 0.5, normalized=normalized,
                            dropped=no_dropout(g))
        t0 = time.perf_counter()
        mine = select_contractions(g, scores)
        elapsed = time.perf_counter() - t0
        assert np.array_equal(mine, sequential_greedy(g.edges, normalized, scores.dropped))
        assert elapsed < 5.0

    @pytest.mark.parametrize("case", ["plain", "dropout", "ties"])
    def test_random_graph_equals_sequential_greedy(self, case):
        rng = seeded_rng(21, "select-scale")
        g = random_simple_graph(rng, 33_000, 100_000)
        raw = rng.normal(size=g.num_edges)
        dropped = (apply_score_dropout(g.num_edges, 0.3, seed=8) if case == "dropout"
                   else no_dropout(g))
        normalized = normalize_scores(g, raw, dropped)
        if case == "ties":
            normalized = np.round(normalized, 1)
        scores = EdgeScores(raw=raw, normalized=normalized, dropped=dropped)
        mine = select_contractions(g, scores)
        assert np.array_equal(mine, sequential_greedy(g.edges, normalized, dropped))


class TestContract:
    def test_path_trace_pooled_graph(self):
        g = path_graph(4, feats=np.ones((4, 1)))
        scores = hand_scores(g, {
            (2, 3): 1.40, (3, 2): 1.12,
            (0, 1): 1.30, (1, 0): 1.11,
            (1, 2): 1.20, (2, 1): 1.10,
        })
        matching = select_contractions(g, scores)
        pooled, info = contract(g, matching, scores)
        assert pooled.num_nodes == 2
        assert pooled.edges.tolist() == [[0, 1], [1, 0]]
        assert info.cluster_of.tolist() == [1, 1, 0, 0]
        assert np.allclose(info.node_score, [1.30, 1.30, 1.40, 1.40])

    def test_single_pair_merge_value(self):
        g = build_graph(2, [(0, 1)], np.asarray([[1.0], [2.0]]))
        scores = EdgeScores(raw=np.zeros(1), normalized=np.asarray([1.5]),
                            dropped=np.zeros(1, dtype=bool))
        pooled, info = contract(g, np.asarray([[0, 1]]), scores)
        assert pooled.num_nodes == 1
        assert np.allclose(pooled.node_features, [[4.5]])
        assert np.allclose(info.node_score, [1.5, 1.5])

    def test_empty_matching_identity(self):
        g = path_graph(4, feats=np.arange(4.0).reshape(4, 1))
        scores = hand_scores(g, {tuple(e): 1.0 for e in g.edges.tolist()})
        pooled, info = contract(g, np.zeros((0, 2), dtype=np.int64), scores)
        assert pooled.num_nodes == 4
        assert pooled.edges.tolist() == g.edges.tolist()
        assert np.allclose(pooled.node_features, g.node_features)
        assert np.all(info.node_score == 1.0)

    def test_pooled_node_ordering(self):
        # Merged nodes first in matching order, then unmatched in node order.
        g = path_graph(6, feats=np.arange(6.0).reshape(6, 1))
        scores = hand_scores(g, {tuple(e): 1.0 for e in g.edges.tolist()})
        matching = np.asarray([[4, 5], [1, 2]])
        pooled, info = contract(g, matching, scores)
        assert pooled.num_nodes == 4
        assert np.allclose(pooled.node_features[:2].ravel(), [9.0, 3.0])
        assert np.allclose(pooled.node_features[2:].ravel(), [0.0, 3.0])
        assert info.cluster_of.tolist() == [2, 1, 1, 3, 0, 0]

    def test_matches_naive_feature_oracle(self):
        rng = seeded_rng(8, "contract-oracle")
        for _ in range(30):
            g = random_graph(rng, n=int(rng.integers(2, 12)), f=3)
            raw = rng.normal(size=g.num_edges)
            normalized = normalize_scores(g, raw, no_dropout(g))
            scores = EdgeScores(raw=raw, normalized=normalized, dropped=no_dropout(g))
            matching = select_contractions(g, scores)
            pooled, info = contract(g, matching, scores)
            edge_lookup = {tuple(e): k for k, e in enumerate(g.edges.tolist())}
            per_pair = [normalized[edge_lookup[tuple(m)]] for m in matching.tolist()]
            ref = naive_contract_features(g.node_features, matching.tolist(), per_pair)
            assert np.allclose(pooled.node_features, ref, atol=1e-12)

    def test_pooled_edges_are_cluster_image(self):
        rng = seeded_rng(9, "contract-edges")
        for _ in range(20):
            g = random_graph(rng, n=10, f=2)
            raw = rng.normal(size=g.num_edges)
            normalized = normalize_scores(g, raw, no_dropout(g))
            scores = EdgeScores(raw=raw, normalized=normalized, dropped=no_dropout(g))
            matching = select_contractions(g, scores)
            pooled, info = contract(g, matching, scores)
            expected = {
                (int(info.cluster_of[i]), int(info.cluster_of[j]))
                for i, j in g.edges.tolist()
                if info.cluster_of[i] != info.cluster_of[j]
            }
            assert {tuple(e) for e in pooled.edges.tolist()} == expected

    def test_edge_features_of_collapsing_edges_sum(self):
        # Square 0-1-2-3-0; contracting (0,1) and (2,3) collapses the two
        # side edges (1,2) and (3,0) into one pooled pair per direction.
        g = symmetrize(build_graph(
            4, [(0, 1), (1, 2), (2, 3), (0, 3)], np.ones((4, 1)),
            np.asarray([[1.0], [10.0], [100.0], [1000.0]]),
        ))
        scores = hand_scores(g, {
            (0, 1): 1.4, (1, 0): 1.0, (2, 3): 1.3, (3, 2): 1.0,
            (1, 2): 0.9, (2, 1): 0.9, (0, 3): 0.9, (3, 0): 0.9,
        })
        matching = np.asarray([[0, 1], [2, 3]])
        pooled, info = contract(g, matching, scores)
        assert pooled.num_nodes == 2
        lookup = {tuple(e): f[0] for e, f in
                  zip(pooled.edges.tolist(), pooled.edge_features.tolist())}
        # (1,2) carries 10 and (0,3) carries 1000; both map to cluster (0,1).
        assert lookup[(0, 1)] == 1010.0
        assert lookup[(1, 0)] == 1010.0

    @settings(max_examples=60, deadline=None)
    @given(case=simple_digraphs(), seed=st.integers(0, 2**16))
    def test_pooled_edges_match_row_unique_reference(self, case, seed):
        n, pairs = case
        rng = seeded_rng(seed, "contract-reference")
        ef = rng.normal(size=(len(pairs), 2))
        g = build_graph(n, pairs, rng.normal(size=(n, 1)), ef)
        raw = rng.normal(size=g.num_edges)
        normalized = normalize_scores(g, raw, no_dropout(g))
        scores = EdgeScores(raw=raw, normalized=normalized, dropped=no_dropout(g))
        pooled, info = contract(g, select_contractions(g, scores), scores)

        # Reference: deduplicate the mapped (src, dst) rows themselves.
        mapped = info.cluster_of[g.edges]
        keep = mapped[:, 0] != mapped[:, 1]
        ref_edges = np.zeros((0, 2), dtype=np.int64)
        ref_ef = np.zeros((0, 2))
        if keep.any():
            ref_edges, inverse = np.unique(mapped[keep], axis=0, return_inverse=True)
            ref_ef = np.zeros((ref_edges.shape[0], 2))
            np.add.at(ref_ef, inverse.reshape(-1), g.edge_features[keep])
        assert np.array_equal(pooled.edges, ref_edges)
        assert np.array_equal(pooled.edge_features, ref_ef)

    def test_pooled_edges_match_row_unique_reference_at_scale(self):
        # 2e5 edges and no edge features: the sort-only deduplication path.
        rng = seeded_rng(22, "contract-scale")
        g = random_simple_graph(rng, 33_000, 100_000)
        raw = rng.normal(size=g.num_edges)
        normalized = normalize_scores(g, raw, no_dropout(g))
        scores = EdgeScores(raw=raw, normalized=normalized, dropped=no_dropout(g))
        pooled, info = contract(g, select_contractions(g, scores), scores)
        mapped = info.cluster_of[g.edges]
        ref_edges = np.unique(mapped[mapped[:, 0] != mapped[:, 1]], axis=0)
        assert pooled.edge_features is None
        assert pooled.num_nodes == info.pooled_num_nodes
        assert np.array_equal(pooled.edges, ref_edges)

    @pytest.mark.parametrize("edge_features", [None, [[1.0], [2.0]]],
                             ids=["no-edge-features", "edge-features"])
    def test_single_symmetric_pair_leaves_no_edges(self, edge_features):
        g = build_graph(2, [(0, 1), (1, 0)], np.ones((2, 1)), edge_features)
        scores = EdgeScores(raw=np.zeros(2), normalized=np.asarray([1.5, 1.5]),
                            dropped=no_dropout(g))
        pooled, info = contract(g, np.asarray([[0, 1]]), scores)
        assert pooled.num_nodes == 1
        assert pooled.edges.shape == (0, 2) and pooled.edges.dtype == np.int64
        if edge_features is not None:
            assert pooled.edge_features.shape == (0, 1)
        assert info.matched_edge_index.tolist() == [0]

    def test_invalid_matching_shared_endpoint(self):
        g = path_graph(4)
        scores = hand_scores(g, {tuple(e): 1.0 for e in g.edges.tolist()})
        with pytest.raises(ValueError):
            contract(g, np.asarray([[0, 1], [1, 2]]), scores)

    @pytest.mark.parametrize("pair", [[3, 4], [-1, 0]], ids=["past-end", "negative"])
    def test_invalid_matching_node_out_of_range(self, pair):
        g = path_graph(4)
        scores = hand_scores(g, {tuple(e): 1.0 for e in g.edges.tolist()})
        with pytest.raises(ValueError, match="outside"):
            contract(g, np.asarray([pair]), scores)

    def test_matching_edge_must_exist(self):
        g = path_graph(4)
        scores = hand_scores(g, {tuple(e): 1.0 for e in g.edges.tolist()})
        with pytest.raises(ValueError, match=r"\(0, 3\) is not an edge"):
            contract(g, np.asarray([[0, 3]]), scores)

    def test_matching_edge_direction_must_exist(self):
        # Only (0, 1) is an edge: the reversed pair shares its cluster but
        # does not start at the pair's first member.
        g = build_graph(2, [(0, 1)], np.zeros((2, 1)))
        scores = hand_scores(g, {(0, 1): 1.5})
        with pytest.raises(ValueError, match=r"\(1, 0\) is not an edge"):
            contract(g, np.asarray([[1, 0]]), scores)

    def test_dropped_edge_cannot_be_contracted(self):
        g = symmetrize(build_graph(2, [(0, 1)], np.zeros((2, 1))))
        scores = EdgeScores(raw=np.zeros(2), normalized=np.asarray([0.0, 1.5]),
                            dropped=np.asarray([True, False]))
        with pytest.raises(ValueError):
            contract(g, np.asarray([[0, 1]]), scores)

    # A zero scorer ties every score, so the first canonical edge (0, 1) is
    # matched. Its gated float32 sum overflows although every input is
    # finite; the cast's overflow warning is silenced to reach the check.
    def test_overflowing_gated_node_features_rejected(self):
        g = symmetrize(build_graph(2, [(0, 1)], np.full((2, 1), 3e38, dtype=np.float32)))
        with np.errstate(over="ignore"), pytest.raises(ValueError) as err:
            edgepool_forward(g, PoolParams(weight=np.zeros(2), bias=0.0))
        assert str(err.value) == "node features must be finite"

    def test_overflowing_edge_feature_sum_rejected(self):
        # Matching (0, 1) collapses (0, 2) and (1, 2) into one pooled edge.
        g = symmetrize(build_graph(3, [(0, 1), (0, 2), (1, 2)], np.ones((3, 1), dtype=np.float32),
                                   np.full((3, 1), 3e38, dtype=np.float32)))
        with np.errstate(over="ignore"), pytest.raises(ValueError) as err:
            edgepool_forward(g, PoolParams(weight=np.zeros(3), bias=0.0))
        assert str(err.value) == "edge features must be finite"


@pytest.mark.parametrize("n, edges, drop_all, pooled_n", [
    (0, [], False, 0),
    (1, [], False, 1),
    (5, [], False, 5),
    (2, [(0, 1), (1, 0)], False, 1),
    (4, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)], True, 4),
], ids=["no-nodes", "one-node", "edgeless", "symmetric-pair", "all-edges-dropped"])
def test_degenerate_graphs_forward_and_backward(n, edges, drop_all, pooled_n):
    rng = seeded_rng(n, "degenerate")
    g = build_graph(n, edges, rng.normal(size=(n, 2)))
    params = PoolParams(weight=rng.normal(size=4), bias=0.3)
    dropped = np.full(g.num_edges, drop_all)
    raw = raw_scores(g, params)
    scores = EdgeScores(raw=raw, normalized=normalize_scores(g, raw, dropped), dropped=dropped)
    pooled, info = contract(g, select_contractions(g, scores), scores)
    assert pooled.num_nodes == info.pooled_num_nodes == pooled_n
    assert info.num_matched == n - pooled_n

    upstream = rng.normal(size=(pooled_n, 2))
    upstream[:1, :1] = -0.0
    gx, gw, gb = edgepool_backward(g, params, info, scores, upstream)
    assert np.array_equal(gw, np.zeros(4)) and gb == 0.0
    if info.num_matched:
        # Each endpoint has one incoming edge, so its softmax group is a
        # singleton and the gate is exactly 1.5 at both parents.
        assert np.array_equal(gx, np.repeat(1.5 * upstream, 2, axis=0))
    else:
        assert np.array_equal(pooled.edges, g.edges)
        assert np.array_equal(pooled.node_features, g.node_features)
        assert np.all(scores.normalized == (0.0 if drop_all else 1.5))
        # Upstream passes through, with -0.0 summed into +0.0.
        assert gx.tobytes() == (upstream + 0.0).tobytes()


class TestForward:
    def params_for(self, graph, seed=0, scale=1.0):
        rng = seeded_rng(seed, "fw-params")
        return PoolParams(
            weight=rng.normal(0.0, scale, size=2 * graph.feature_width), bias=0.0
        )

    def test_star_single_contraction(self):
        rng = seeded_rng(1, "star")
        g = make_star(4, rng, feature_width=2)
        pooled, info, _ = edgepool_forward(g, self.params_for(g))
        assert info.num_matched == 1
        assert pooled.num_nodes == 3

    def test_no_edges_identity(self):
        g = build_graph(5, [], np.ones((5, 2)))
        pooled, info, _ = edgepool_forward(g, PoolParams(weight=np.zeros(4), bias=0.0))
        assert info.num_matched == 0
        assert pooled.num_nodes == 5
        assert np.allclose(pooled.node_features, g.node_features)

    def test_cycle_uniform_params_halves(self):
        g = make_cycle(100)
        pooled, info, _ = edgepool_forward(g, PoolParams(weight=np.zeros(2), bias=0.0))
        assert info.num_matched == 50
        assert pooled.num_nodes == 50
        # Canonical tie-break pairs consecutive even-odd nodes.
        assert info.matching.tolist() == [[2 * k, 2 * k + 1] for k in range(50)]

    def test_connected_graph_contracts_at_least_once(self):
        rng = seeded_rng(12, "connected")
        for _ in range(10):
            g = random_graph(rng, n=int(rng.integers(2, 15)), f=2)
            _, info, _ = edgepool_forward(g, self.params_for(g, seed=int(rng.integers(99))))
            assert info.num_matched >= 1

    def test_node_count_law(self):
        rng = seeded_rng(13, "law")
        for _ in range(20):
            g = random_graph(rng, n=int(rng.integers(2, 30)), f=2, p=0.2)
            pooled, info, _ = edgepool_forward(g, self.params_for(g))
            assert pooled.num_nodes == g.num_nodes - info.num_matched
            assert info.pooled_num_nodes == pooled.num_nodes
            clusters = np.unique(info.cluster_of)
            assert clusters.tolist() == list(range(pooled.num_nodes))

    def test_training_requires_seed_for_dropout(self):
        g = path_graph(4)
        with pytest.raises(ValueError):
            edgepool_forward(g, PoolParams(weight=np.zeros(2), bias=0.0),
                             training=True, dropout_p=0.2, seed=None)

    def test_dropout_only_in_training(self):
        g = make_cycle(50)
        params = PoolParams(weight=np.zeros(2), bias=0.0)
        _, _, eval_scores = edgepool_forward(g, params, training=False,
                                             dropout_p=0.9, seed=5)
        assert not eval_scores.dropped.any()
        _, _, train_scores = edgepool_forward(g, params, training=True,
                                              dropout_p=0.9, seed=5)
        assert train_scores.dropped.any()

    def test_score_locality(self):
        # Scores into j depend only on {i, j} and j's in-neighborhood.
        rng = seeded_rng(14, "local")
        for _ in range(10):
            g = random_graph(rng, n=12, f=3, p=0.3)
            params = self.params_for(g, seed=int(rng.integers(99)))
            raw = raw_scores(g, params)
            base = normalize_scores(g, raw, no_dropout(g))
            e = int(rng.integers(0, g.num_edges))
            i, j = g.edges[e]
            keep = {int(i), int(j)} | {int(k) for k in g.edge_src[g.edge_dst == j]}
            mutated = g.node_features.copy()
            for v in range(g.num_nodes):
                if v not in keep:
                    mutated[v] += rng.normal(0.0, 5.0, size=g.feature_width)
            g2 = g.with_node_features(mutated)
            s2 = normalize_scores(g2, raw_scores(g2, params), no_dropout(g2))
            assert s2[e] == base[e]

    def test_permutation_equivariance(self):
        # Ordering invariance needs tie-free scores; graphs with leaf nodes
        # produce exact 1.5 ties (singleton softmax groups), so skip those.
        rng = seeded_rng(15, "perm")
        done = 0
        for trial in range(40):
            if done >= 10:
                break
            g = random_graph(rng, n=9, f=2)
            params = self.params_for(g, seed=trial)
            s = normalize_scores(g, raw_scores(g, params), no_dropout(g))
            if np.unique(s).size < s.size:
                continue
            done += 1
            perm = rng.permutation(g.num_nodes)
            edges_p = np.stack([perm[g.edge_src], perm[g.edge_dst]], axis=1)
            feats_p = np.zeros_like(g.node_features)
            feats_p[perm] = g.node_features
            g_p = build_graph(g.num_nodes, edges_p, feats_p)
            pooled, info, _ = edgepool_forward(g, params)
            pooled_p, info_p, _ = edgepool_forward(g_p, params)
            assert pooled_p.num_nodes == pooled.num_nodes
            assert pooled_p.num_edges == pooled.num_edges
            # Same contractions under relabeling, in the same score order.
            mapped = [(int(perm[i]), int(perm[j])) for i, j in info.matching.tolist()]
            assert mapped == [tuple(e) for e in info_p.matching.tolist()]
            # Merged feature rows agree pairwise; unmatched rows as a multiset.
            k = info.num_matched
            assert np.allclose(pooled_p.node_features[:k], pooled.node_features[:k])
            rest = np.sort(pooled.node_features[k:], axis=0)
            rest_p = np.sort(pooled_p.node_features[k:], axis=0)
            assert np.allclose(rest, rest_p)
        assert done >= 5, f"only {done} tie-free instances"

    def test_hierarchy_levels_chain(self):
        rng = seeded_rng(16, "hier")
        g = random_graph(rng, n=20, f=2, p=0.25)
        params = self.params_for(g)
        levels = pool_hierarchy(g, params, 3)
        assert len(levels) == 3
        sizes = [g.num_nodes] + [lvl[0].num_nodes for lvl in levels]
        for a, b in zip(sizes, sizes[1:]):
            assert b <= a
        payload = hierarchy_to_json(levels)
        assert len(payload) == 3
        for (pooled, info, _), obj in zip(levels, payload):
            assert obj["cluster_of"] == info.cluster_of.tolist()
            assert obj["matching"] == info.matching.tolist()
            assert obj["node_score"] == info.node_score.tolist()
            assert obj["graph"]["num_nodes"] == pooled.num_nodes


def scalar_loss_grads(graph, params, projection):
    """Analytic gradients of <projection, pooled features>."""
    pooled, info, scores = edgepool_forward(graph, params)
    return edgepool_backward(graph, params, info, scores, projection), info


def peak_instance():
    """A pooled 2000-node float32 graph with 64 channels, for peak-memory checks."""
    rng = seeded_rng(24, "peak")
    v, f = 2000, 64
    pairs = rng.integers(0, v, size=(3000, 2))
    pairs = np.unique(pairs[pairs[:, 0] != pairs[:, 1]], axis=0)
    g = symmetrize(build_graph(v, pairs, rng.normal(size=(v, f)).astype(np.float32)))
    params = PoolParams(weight=rng.normal(size=2 * f), bias=0.0)
    pooled, info, scores = edgepool_forward(g, params)
    return g, params, pooled, info, scores, rng


def traced_peak(fn, *args):
    """Peak bytes ``tracemalloc`` sees allocated during ``fn(*args)``."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBackward:
    def test_zero_upstream(self):
        rng = seeded_rng(20, "zero")
        g = random_graph(rng, n=6, f=2)
        params = PoolParams(weight=rng.normal(size=4), bias=0.1)
        pooled, info, scores = edgepool_forward(g, params)
        gx, gw, gb = edgepool_backward(
            g, params, info, scores, np.zeros((pooled.num_nodes, 2))
        )
        assert not gx.any() and not gw.any() and gb == 0.0

    def test_singleton_softmax_score_is_constant(self):
        # One directed edge: its softmax group is a singleton, so s = 1.5
        # exactly and carries no gradient into the scorer.
        g = build_graph(2, [(0, 1)], np.asarray([[1.0], [2.0]]))
        params = PoolParams(weight=np.asarray([0.3, -0.2]), bias=0.05)
        pooled, info, scores = edgepool_forward(g, params)
        assert scores.normalized.tolist() == [1.5]
        upstream = np.asarray([[2.0]])
        gx, gw, gb = edgepool_backward(g, params, info, scores, upstream)
        assert np.allclose(gw, 0.0) and gb == 0.0
        assert np.allclose(gx, [[3.0], [3.0]])  # s * upstream at both parents

    def test_matches_finite_differences(self):
        rng = seeded_rng(21, "fd")
        checked = 0
        attempt = 0
        h = 1e-6
        while checked < 20 and attempt < 60:
            attempt += 1
            g = random_graph(rng, n=10, f=3, p=0.35)
            params = PoolParams(weight=rng.normal(size=6), bias=float(rng.normal()))
            pooled, info, scores = edgepool_forward(g, params)
            projection = rng.normal(size=(pooled.num_nodes, 3))
            gx, gw, gb = edgepool_backward(g, params, info, scores, projection)
            base_matching = info.matching.tobytes()

            def value(features, weight, bias):
                g2 = g.with_node_features(features)
                p2 = PoolParams(weight=weight, bias=bias)
                pooled2, info2, _ = edgepool_forward(g2, p2)
                if info2.matching.tobytes() != base_matching:
                    raise FloatingPointError("matching flipped")
                return float((projection * pooled2.node_features).sum())

            try:
                ok = True
                for arr, grad in ((g.node_features, gx),):
                    for idx in range(arr.size):
                        plus = arr.copy(); plus.flat[idx] += h
                        minus = arr.copy(); minus.flat[idx] -= h
                        fd = (value(plus, params.weight, params.bias)
                              - value(minus, params.weight, params.bias)) / (2 * h)
                        assert abs(fd - grad.flat[idx]) <= 1e-7 + 1e-4 * abs(fd)
                for idx in range(params.weight.size):
                    plus = params.weight.copy(); plus[idx] += h
                    minus = params.weight.copy(); minus[idx] -= h
                    fd = (value(g.node_features, plus, params.bias)
                          - value(g.node_features, minus, params.bias)) / (2 * h)
                    assert abs(fd - gw[idx]) <= 1e-7 + 1e-4 * abs(fd)
                fd_b = (value(g.node_features, params.weight, params.bias + h)
                        - value(g.node_features, params.weight, params.bias - h)) / (2 * h)
                assert abs(fd_b - gb) <= 1e-7 + 1e-4 * abs(fd_b)
            except FloatingPointError:
                continue
            checked += 1
        assert checked == 20, f"only {checked} stable instances in {attempt} attempts"

    def test_zero_gradient_rows_are_positive_zero(self):
        # The score term is summed into zeros, so a node that gets nothing
        # (here an isolated one whose upstream row is -0.0) reads +0.0 even
        # when both of its score products are -0.0 (negative weights). The
        # triangle gives every destination two incoming edges, so the score
        # path carries gradient.
        g = symmetrize(build_graph(4, [(0, 1), (1, 2), (0, 2)],
                                   np.asarray([[1.0, 2.0], [0.5, -1.0], [2.0, 0.25], [3.0, 1.0]])))
        params = PoolParams(weight=np.asarray([-0.3, -0.2, -0.5, -0.1]), bias=0.0)
        pooled, info, scores = edgepool_forward(g, params)
        assert info.num_matched == 1 and info.cluster_of[3] >= info.num_matched
        upstream = np.ones((pooled.num_nodes, 2))
        upstream[info.cluster_of[3]] = -0.0
        gx, _, _ = edgepool_backward(g, params, info, scores, upstream)
        assert gx[:3].any()
        assert gx[3].tobytes() == np.zeros(2).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(level=pool_levels())
    def test_bitwise_equal_to_scatter_reference(self, level):
        graph, params, pooled, info, scores, rng = level
        upstream = signed_rows(rng, pooled.node_features.shape, graph.node_features.dtype)
        got = edgepool_backward(graph, params, info, scores, upstream)
        ref = scatter_edgepool_backward(graph, params, info, scores, upstream)
        for a, b in zip(got, ref):
            a, b = np.asarray(a), np.asarray(b)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_peak_memory_is_a_few_gradient_sized_arrays(self):
        # A backward pass holds its (v, f) float64 gradient and one temporary
        # of that size at a time (about 2.5 v*f*8 bytes with the rest); a
        # float64 copy of the whole feature matrix would pass the bound.
        g, params, pooled, info, scores, rng = peak_instance()
        v, f = g.node_features.shape
        upstream = rng.normal(size=(pooled.num_nodes, f)).astype(np.float32)
        assert traced_peak(edgepool_backward, g, params, info, scores, upstream) < 3.5 * v * f * 8

    def test_unpool_adjoint_peak_memory_is_about_its_output(self):
        # The adjoint holds its float64 (pooled, f) output, about 0.6 v*f*8
        # bytes here, plus the pairs' second rows (0.4 of v), float32 and
        # float64: about 1.2 v*f*8 bytes. A float64 copy of the whole
        # (v, f) gradient adds v*f*8 and fails the bound.
        g, _, pooled, info, _, rng = peak_instance()
        v, f = g.node_features.shape
        assert 0.55 < pooled.num_nodes / v < 0.65
        upstream = rng.normal(size=(v, f)).astype(np.float32)
        assert traced_peak(unpool_backward, upstream, info) < 1.4 * v * f * 8

    def test_upstream_shape_validated(self):
        rng = seeded_rng(22, "shape")
        g = random_graph(rng, n=6, f=2)
        params = PoolParams(weight=np.zeros(4), bias=0.0)
        pooled, info, scores = edgepool_forward(g, params)
        with pytest.raises(ValueError):
            edgepool_backward(g, params, info, scores,
                              np.zeros((pooled.num_nodes + 1, 2)))
