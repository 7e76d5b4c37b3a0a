"""Scoring, normalization, selection, contraction, and the exact backward."""

import ast
import dataclasses
import inspect
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from edgepool import (
    EdgeScores,
    PoolParams,
    batch,
    build_graph,
    edgepool_forward,
    select_contractions,
    symmetrize,
    unpool_backward,
)
import edgepool.pool
from edgepool.data import make_connected_erdos_renyi, make_sbm
from edgepool.pool import (
    _STABLE_ORDER_MAX,
    _greedy_sweep,
    _score_order,
    apply_score_dropout,
    contract,
    edgepool_backward,
    normalize_scores,
    raw_scores,
    score_path_backward,
)
from edgepool.models import _pooled_graph_id
from edgepool.rng import seeded_rng

from oracles import (
    argsort_sweep,
    naive_contract_features,
    naive_matching,
    naive_normalize,
    scatter_edgepool_backward,
    sequential_greedy,
    whole_array_score_path_backward,
)
from strategies import make_cycle, make_star, pool_levels, signed_rows, simple_digraphs


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

    def test_width_mismatch(self):
        g = build_graph(2, [(0, 1)], np.asarray([[1.0], [2.0]]))
        with pytest.raises(ValueError):
            raw_scores(g, PoolParams(weight=np.ones(3), bias=0.0))

    def test_weight_with_an_edge_width_refused(self):
        # A weight of length 2f + g, as scorers of edge features once were,
        # is refused by the 2f rule, never truncated.
        g = build_graph(2, [(0, 1)], np.ones((2, 2)))
        params = PoolParams(weight=np.ones(5), bias=0.0)
        for fn in (raw_scores, edgepool_forward):
            with pytest.raises(ValueError, match=r"^scorer weight must be 1-D of length 2\*2=4 .* length 5"):
                fn(g, params)

    def test_weight_must_be_one_dimensional(self):
        # A (4, 1) weight has the right length for f = 2, but einsum's
        # error would name no argument.
        g = build_graph(2, [(0, 1)], np.ones((2, 2)))
        params = PoolParams(weight=np.ones((4, 1)), bias=0.0)
        for fn in (raw_scores, edgepool_forward):
            with pytest.raises(ValueError, match=r"^scorer weight must be 1-D .* shape \(4, 1\)"):
                fn(g, params)

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
            with pytest.raises(ValueError, match=f"^(raw|dropped) must be .* of shape \\({m},\\)"):
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
    return EdgeScores(normalized=normalized,
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
        scores = EdgeScores(normalized=np.asarray([0.0, 1.5]),
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
            scores = EdgeScores(normalized=normalized, dropped=dropped)
            mine = select_contractions(g, scores)
            ref = naive_matching(g.edges, normalized, dropped)
            assert [tuple(e) for e in mine.tolist()] == ref, f"trial {trial}"

    def test_matching_validity_and_maximality(self):
        rng = seeded_rng(4, "select-prop")
        for _ in range(50):
            g = random_graph(rng, n=int(rng.integers(2, 20)), f=2, p=0.3)
            raw = rng.normal(size=g.num_edges)
            normalized = normalize_scores(g, raw, no_dropout(g))
            scores = EdgeScores(normalized=normalized, dropped=no_dropout(g))
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
        scores = EdgeScores(normalized=np.zeros(m),
                            dropped=np.ones(m, dtype=bool))
        matching = select_contractions(g, scores)
        assert matching.dtype == np.int64 and matching.shape == (0, 2)

    def test_edgeless_graph_gives_empty_int64(self):
        g = build_graph(5, [], np.zeros((5, 1)))
        scores = EdgeScores(normalized=np.zeros(0),
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
    return g, EdgeScores(normalized=normalized, dropped=dropped)


@st.composite
def sweep_inputs(draw):
    """Arguments of ``_greedy_sweep``: ascending edge indices of canonical
    edges in canonical order, their endpoints, scores and the node count.

    Dense random edge sets of 1,500-9,900 edges on at most 100 nodes run
    several slices; their scores are continuous, drawn from a 3-4 value
    set, or (with at least 3,000 edges) all one value, a single tie class
    across six or more slices. A monotone chain of up to 6,000 edges and
    the empty input come too.
    """
    kind = draw(st.sampled_from(["dense", "dense-ties", "one-tie", "chain", "empty"]))
    rng = seeded_rng(draw(st.integers(0, 2**32 - 1)), "sweep-inputs")
    if kind == "empty":
        z = np.zeros(0, dtype=np.int64)
        return z, z, z, np.zeros(0), draw(st.integers(1, 10))
    if kind == "chain":
        n = draw(st.integers(2, 3000))
        g = path_graph(n)
        src, dst = g.edge_src, g.edge_dst
        return np.arange(g.num_edges), src, dst, 0.6 + 0.8 * np.minimum(src, dst) / n, n
    n = draw(st.integers(56 if kind == "one-tie" else 40, 100))  # 56 * 55 >= 3,000
    off_diagonal = np.flatnonzero(~np.eye(n, dtype=bool))
    m = draw(st.integers(3000 if kind == "one-tie" else 1500, min(9900, off_diagonal.size)))
    key = np.sort(rng.choice(off_diagonal, size=m, replace=False))
    e = np.sort(rng.choice(2 * m, size=m, replace=False))
    if kind == "dense":
        s = rng.uniform(0.5, 1.5, size=m)
    elif kind == "one-tie":
        s = np.full(m, draw(st.floats(0.5, 1.5, exclude_min=True)))
    else:
        values = draw(st.lists(st.floats(0.5, 1.5, exclude_min=True),
                               min_size=3, max_size=4, unique=True))
        s = np.asarray(values)[rng.integers(0, len(values), size=m)]
    return e, key // n, key % n, s, n


class TestGreedySweep:
    @settings(max_examples=60, deadline=None)
    @given(args=sweep_inputs())
    def test_equals_argsort_sweep(self, args):
        got = _greedy_sweep(*args)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.sort(argsort_sweep(*args)))


class TestSelectionAtScale:
    @pytest.mark.parametrize("case", ["plain", "dropout", "ties"])
    def test_dense_sbm_reaches_the_sweep(self, case, monkeypatch):
        # 2,000 nodes of mean degree about 16, as in perfbench's node_train.
        # The softmax over a destination's incoming edges cancels the
        # destination's term of a linear scorer, so the normalized score
        # follows a source term; it spreads little at small weights. Then
        # the first round removes too little, and the sweep does most of the work.
        # Its scores are all distinct but for the rounded case, so the sweep's
        # order takes both paths of _score_order above _STABLE_ORDER_MAX.
        rng = seeded_rng(23, "select-sbm")
        g, _ = make_sbm(4, 500, 0.03, 0.001, rng)
        raw = 0.05 * rng.normal(size=g.num_nodes)[g.edge_src]
        dropped = (apply_score_dropout(g.num_edges, 0.2, seed=9) if case == "dropout"
                   else no_dropout(g))
        normalized = normalize_scores(g, raw, dropped)
        if case == "ties":
            normalized = np.round(normalized, 2)
        swept = []

        def spy(e, src, dst, s, v):
            swept.append((e.size, np.unique(s).size))
            return _greedy_sweep(e, src, dst, s, v)

        monkeypatch.setattr("edgepool.pool._greedy_sweep", spy)
        mine = select_contractions(g, EdgeScores(normalized=normalized, dropped=dropped))
        [(size, distinct)] = swept
        assert size > _STABLE_ORDER_MAX
        assert (distinct < size) if case == "ties" else (distinct == size)
        assert np.array_equal(mine, sequential_greedy(g.edges, normalized, dropped))

    def test_monotone_path_is_fast_and_exact(self):
        # Scores rise along the path, so each vectorized round could take
        # only its top edge; the sequential sweep has to finish the job.
        n = 100_000
        g = path_graph(n)
        normalized = 0.6 + 0.8 * g.edges.min(axis=1) / n  # both directions tie
        scores = EdgeScores(normalized=normalized,
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
        scores = EdgeScores(normalized=normalized, dropped=dropped)
        mine = select_contractions(g, scores)
        assert np.array_equal(mine, sequential_greedy(g.edges, normalized, dropped))


def tie_class_graph(rng):
    """A 6,000-node path with random features, then 1,500 disjoint pairs and
    a 3,000-node 4-regular circulant, both with constant features; node ids
    shuffled, so that the tie classes interleave in edge index order.

    Without dropout, every edge of a pair scores exactly 1.5 (one incoming
    edge) and every circulant edge exactly 0.75 (four equal ones), while the
    path's scores spread over (0.5, 1.5)."""
    n_path, n_pairs, n_reg = 6000, 3000, 3000
    n = n_path + n_pairs + n_reg
    edges = [(i, i + 1) for i in range(n_path - 1)]
    edges += [(n_path + i, n_path + i + 1) for i in range(0, n_pairs, 2)]
    base = n_path + n_pairs
    edges += [(base + i, base + (i + d) % n_reg) for i in range(n_reg) for d in (1, 2)]
    feats = np.full((n, 2), 0.25)
    feats[:n_path] = rng.normal(size=(n_path, 2))
    perm = rng.permutation(n)
    shuffled = np.empty_like(feats)
    shuffled[perm] = feats
    return symmetrize(build_graph(n, perm[np.asarray(edges)], shuffled))


class TestSelectionOrder:
    """The k taken edges come by score descending, edge index ascending on
    ties, also where the default (unstable) argsort orders them first."""

    @pytest.mark.parametrize("case", ["plain", "dropout"])
    def test_tie_classes_keep_index_order(self, case):
        rng = seeded_rng(26, "tie-classes")
        g = tie_class_graph(rng)
        params = PoolParams(weight=rng.normal(size=4), bias=0.0)
        dropped = (apply_score_dropout(g.num_edges, 0.3, seed=6) if case == "dropout"
                   else no_dropout(g))
        s = normalize_scores(g, raw_scores(g, params), dropped)
        mine = select_contractions(g, EdgeScores(normalized=s, dropped=dropped))
        assert np.array_equal(mine, sequential_greedy(g.edges, s, dropped))
        n = np.int64(g.num_nodes)
        idx = np.searchsorted(g.edge_src * n + g.edge_dst, mine[:, 0] * n + mine[:, 1])
        assert mine.shape[0] > 3000
        assert np.array_equal(np.lexsort((idx, -s[idx])), np.arange(len(idx)))
        _, repeats = np.unique(s[idx], return_counts=True)
        assert np.count_nonzero(repeats >= 100) >= 2, "fewer than two large tie classes"
        if case == "plain":
            assert np.count_nonzero(s[idx] == 1.5) >= 1500
            assert np.count_nonzero(s[idx] == 0.75) >= 500

    @settings(max_examples=150, deadline=None)
    @given(values=st.lists(st.floats(0.5, 1.5, exclude_min=True), min_size=1, max_size=4),
           size=st.integers(0, 3000), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["few", "distinct", "ends"]))
    @example(values=[1.5], size=0, seed=0, kind="few")
    @example(values=[1.5], size=1, seed=0, kind="few")
    @example(values=[1.5], size=3000, seed=0, kind="distinct")
    @example(values=[1.5], size=3000, seed=0, kind="ends")
    def test_score_order_is_the_stable_order(self, values, size, seed, kind):
        # Few values make long tie runs; continuous draws have no tie, and
        # "ends" adds tie runs at the first and the last position of the order.
        rng = seeded_rng(seed, "score-order")
        if kind == "few":
            s = np.asarray(values)[rng.integers(0, len(values), size)]
        else:
            s = rng.uniform(0.6, 1.4, size)
            assert np.unique(s).size == size
        if kind == "ends" and size:
            s[rng.integers(0, size, size // 8 + 2)] = 1.5
            s[rng.integers(0, size, size // 8 + 2)] = 0.55
        order = _score_order(s)
        assert order.dtype == np.int64
        assert np.array_equal(order, np.argsort(-s, kind="stable"))

    def test_score_order_is_the_only_score_sort(self):
        # The visiting order has one home: no other routine in pool.py sorts
        # or partitions scores on its own.
        def sort_lines(node):
            return [c.lineno for c in ast.walk(node) if isinstance(c, ast.Call)
                    and ast.unparse(c.func) in ("np.argsort", "np.lexsort", "np.partition")]

        tree = ast.parse(inspect.getsource(edgepool.pool))
        home = next(fn for fn in ast.walk(tree)
                    if isinstance(fn, ast.FunctionDef) and fn.name == "_score_order")
        assert sort_lines(home), "_score_order sorts nothing"
        assert sort_lines(tree) == sort_lines(home)


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

    @settings(max_examples=100, deadline=None)
    @given(level=pool_levels())
    def test_first_members_give_the_row_order(self, level):
        # The pairs' first and second members list each node once, each
        # pooled node's first member lies in it, and a batch's graph ids
        # (constant on each pair) come out as the old scatter wrote them.
        graph, _, pooled, info, _, rng = level
        first = info.first_member
        members = np.concatenate([first, info.matching[:, 1]])
        assert np.sort(members).tolist() == list(range(graph.num_nodes))
        assert info.cluster_of[first].tolist() == list(range(pooled.num_nodes))
        graph_id = rng.integers(0, 3, size=pooled.num_nodes)[info.cluster_of]
        want = np.zeros(pooled.num_nodes, dtype=np.int64)
        want[info.cluster_of] = graph_id
        got = _pooled_graph_id(graph_id, info)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()

    def test_single_pair_merge_value(self):
        g = build_graph(2, [(0, 1)], np.asarray([[1.0], [2.0]]))
        scores = EdgeScores(normalized=np.asarray([1.5]),
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
            scores = EdgeScores(normalized=normalized, dropped=no_dropout(g))
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
            scores = EdgeScores(normalized=normalized, dropped=no_dropout(g))
            matching = select_contractions(g, scores)
            pooled, info = contract(g, matching, scores)
            expected = {
                (int(info.cluster_of[i]), int(info.cluster_of[j]))
                for i, j in g.edges.tolist()
                if info.cluster_of[i] != info.cluster_of[j]
            }
            assert {tuple(e) for e in pooled.edges.tolist()} == expected

    @settings(max_examples=60, deadline=None)
    @given(case=simple_digraphs(), seed=st.integers(0, 2**16))
    def test_pooled_edges_match_row_unique_reference(self, case, seed):
        n, pairs = case
        rng = seeded_rng(seed, "contract-reference")
        g = build_graph(n, pairs, rng.normal(size=(n, 1)))
        raw = rng.normal(size=g.num_edges)
        normalized = normalize_scores(g, raw, no_dropout(g))
        scores = EdgeScores(normalized=normalized, dropped=no_dropout(g))
        pooled, info = contract(g, select_contractions(g, scores), scores)

        # Reference: deduplicate the mapped (src, dst) rows themselves.
        mapped = info.cluster_of[g.edges]
        keep = mapped[:, 0] != mapped[:, 1]
        ref_edges = np.zeros((0, 2), dtype=np.int64)
        if keep.any():
            ref_edges = np.unique(mapped[keep], axis=0)
        assert np.array_equal(pooled.edges, ref_edges)

    def test_pooled_edges_match_row_unique_reference_at_scale(self):
        # 2e5 edges, deduplicated by one sort of the pooled keys.
        rng = seeded_rng(22, "contract-scale")
        g = random_simple_graph(rng, 33_000, 100_000)
        raw = rng.normal(size=g.num_edges)
        normalized = normalize_scores(g, raw, no_dropout(g))
        scores = EdgeScores(normalized=normalized, dropped=no_dropout(g))
        pooled, info = contract(g, select_contractions(g, scores), scores)
        mapped = info.cluster_of[g.edges]
        ref_edges = np.unique(mapped[mapped[:, 0] != mapped[:, 1]], axis=0)
        assert pooled.num_nodes == info.pooled_num_nodes
        assert np.array_equal(pooled.edges, ref_edges)

    def test_single_symmetric_pair_leaves_no_edges(self):
        g = build_graph(2, [(0, 1), (1, 0)], np.ones((2, 1)))
        scores = EdgeScores(normalized=np.asarray([1.5, 1.5]),
                            dropped=no_dropout(g))
        pooled, info = contract(g, np.asarray([[0, 1]]), scores)
        assert pooled.num_nodes == 1
        assert pooled.edges.shape == (0, 2) and pooled.edges.dtype == np.int64
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

    def test_first_non_edge_among_pairs_is_named(self):
        # Only the forward edges exist; the pairs before and after the
        # reversed one are edges.
        g = build_graph(6, [(0, 1), (2, 3), (4, 5)], np.zeros((6, 1)))
        scores = hand_scores(g, {(0, 1): 1.5, (2, 3): 1.5, (4, 5): 1.5})
        for matching, bad in [([[0, 1], [3, 2], [4, 5]], r"\(3, 2\)"),
                              ([[4, 5], [1, 2], [3, 0]], r"\(1, 2\)")]:
            with pytest.raises(ValueError, match=bad + " is not an edge"):
                contract(g, np.asarray(matching), scores)

    def test_dropped_edge_cannot_be_contracted(self):
        g = symmetrize(build_graph(2, [(0, 1)], np.zeros((2, 1))))
        scores = EdgeScores(normalized=np.asarray([0.0, 1.5]),
                            dropped=np.asarray([True, False]))
        with pytest.raises(ValueError):
            contract(g, np.asarray([[0, 1]]), scores)

    # A zero scorer ties every score, so the first canonical edge (0, 1) is
    # matched. Its gated float32 sum overflows although every input is
    # finite; the check raises with no overflow warning first.
    def test_overflowing_gated_node_features_rejected(self):
        g = symmetrize(build_graph(2, [(0, 1)], np.full((2, 1), 3e38, dtype=np.float32)))
        with pytest.raises(ValueError) as err:
            edgepool_forward(g, PoolParams(weight=np.zeros(2), bias=0.0))
        assert str(err.value) == "node features must be finite"


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
    scores = EdgeScores(normalized=normalize_scores(g, raw, dropped), dropped=dropped)
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

    def test_scores_keep_no_raw_array(self):
        # The raw scores are freed once normalized; raw= is a discarded
        # keyword, so a call in the old positional order fails.
        g = make_cycle(6)
        _, _, scores = edgepool_forward(g, PoolParams(weight=np.ones(2), bias=0.0))
        assert [f.name for f in dataclasses.fields(scores)] == ["normalized", "dropped"]
        kept = EdgeScores(raw=np.zeros(g.num_edges), normalized=scores.normalized,
                          dropped=scores.dropped)
        assert [f.name for f in dataclasses.fields(kept)] == ["normalized", "dropped"]
        with pytest.raises(TypeError):
            EdgeScores(np.zeros(g.num_edges), scores.normalized, scores.dropped)

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

    @pytest.mark.parametrize("training", [True, False], ids=["training", "eval"])
    @pytest.mark.parametrize("p", [float("nan"), -0.5], ids=["nan", "negative"])
    def test_bad_dropout_rate_rejected(self, p, training):
        g = make_cycle(6)
        with pytest.raises(ValueError, match="dropout probability"):
            edgepool_forward(g, PoolParams(weight=np.zeros(2), bias=0.0),
                             training=training, dropout_p=p, seed=0)

    def test_stages_resolve_through_module_globals(self, monkeypatch):
        # perfbench times the stages by patching these names in edgepool.pool.
        import edgepool.pool as pool_module

        calls = []
        for name in ("select_contractions", "contract"):
            def spy(*args, _name=name, _fn=getattr(pool_module, name)):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(pool_module, name, spy)
        g = make_cycle(8)
        pooled, _, _ = edgepool_forward(g, PoolParams(weight=np.zeros(2), bias=0.0))
        assert calls == ["select_contractions", "contract"]
        edgepool_forward(pooled, PoolParams(weight=np.zeros(2), bias=0.0))
        assert calls == ["select_contractions", "contract"] * 2

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


def edge_heavy_instance(dropout):
    """A 10000-node graph with about 66000 directed edges and 2 float32
    channels, so arrays of one entry per edge dominate a level's memory:
    the (v, f) float64 arrays are 0.3 m*8 bytes. Returns (graph, params,
    forward keywords)."""
    rng = seeded_rng(25, "edge-heavy")
    v, f = 10_000, 2
    pairs = rng.integers(0, v, size=(33_000, 2))
    pairs = np.unique(np.sort(pairs[pairs[:, 0] != pairs[:, 1]], axis=1), axis=0)
    g = symmetrize(build_graph(v, pairs, rng.normal(size=(v, f)).astype(np.float32)))
    params = PoolParams(weight=rng.normal(size=2 * f), bias=0.0)
    kw = dict(training=True, dropout_p=0.2, seed=3) if dropout else {}
    return g, params, kw


def traced_peak(fn, *args, **kwargs):
    """Peak bytes ``tracemalloc`` sees allocated during ``fn(*args, **kwargs)``."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@st.composite
def graph_batches(draw):
    """(graphs, params): 1-5 random digraphs of one feature width and dtype,
    with standard normal features, and a scorer for them.

    Features of one scale keep the softmax unsaturated, so that a rounding
    difference in a raw score shows in the normalized ones."""
    f = draw(st.sampled_from([1, 3, 8, 64]))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = seeded_rng(draw(st.integers(0, 2**32 - 1)), "graph-batch")
    graphs = []
    for _ in range(draw(st.integers(1, 5))):
        n, pairs = draw(simple_digraphs())
        graphs.append(build_graph(n, pairs, rng.normal(size=(n, f)).astype(dtype)))
    return graphs, PoolParams(weight=rng.normal(size=2 * f), bias=float(rng.normal()))


class TestBatchMates:
    """A graph pools the same in a batch as alone, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(case=graph_batches(), seed=st.integers(0, 2**16))
    def test_forward_and_backward_do_not_depend_on_batch_mates(self, case, seed):
        graphs, params = case
        batched = batch(graphs)
        pooled, info, scores = edgepool_forward(batched.graph, params)
        rng = seeded_rng(seed, "batch-mates")
        upstream = signed_rows(rng, pooled.node_features.shape, pooled.node_features.dtype)
        grad_x = edgepool_backward(batched.graph, params, info, scores, upstream)[0]
        node_off = edge_off = 0
        for graph in graphs:
            nodes = slice(node_off, node_off + graph.num_nodes)
            edges = slice(edge_off, edge_off + graph.num_edges)
            node_off, edge_off = nodes.stop, edges.stop
            assert np.array_equal(batched.graph.edge_src[edges] - nodes.start, graph.edge_src)
            one_pooled, one_info, one_scores = edgepool_forward(graph, params)
            assert scores.normalized[edges].tobytes() == one_scores.normalized.tobytes()
            mine = (info.matching >= nodes.start).all(1) & (info.matching < nodes.stop).all(1)
            assert np.array_equal(info.matching[mine] - nodes.start, one_info.matching)
            assert info.node_score[nodes].tobytes() == one_info.node_score.tobytes()
            cluster = info.cluster_of[nodes]
            one_cluster = one_info.cluster_of
            assert (np.take(pooled.node_features, cluster, axis=0).tobytes()
                    == np.take(one_pooled.node_features, one_cluster, axis=0).tobytes())
            # The same upstream rows for the graph's pooled nodes, alone.
            one_upstream = np.empty_like(one_pooled.node_features)
            one_upstream[one_cluster] = upstream[cluster]
            one_grad_x = edgepool_backward(graph, params, one_info, one_scores, one_upstream)[0]
            assert grad_x[nodes].tobytes() == one_grad_x.tobytes()


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_weight_gradient_is_the_float64_score_path_gradient(self, dtype):
        # The scorer weight is float64 whatever the features are, so its
        # gradient is the score path's, unrounded: the same bits the
        # node-score path hands the weight.
        rng = seeded_rng(23, "weight-dtype")
        g = random_graph(rng, n=12, f=3, p=0.4)
        g = g.with_node_features(g.node_features.astype(dtype))
        params = PoolParams(weight=rng.normal(size=6), bias=0.2)
        pooled, info, scores = edgepool_forward(g, params)
        assert info.num_matched > 0
        upstream = rng.normal(size=pooled.node_features.shape).astype(dtype)
        _, gw, _ = edgepool_backward(g, params, info, scores, upstream)
        x, (mi, mj) = g.node_features, info.matching.T
        g_s = np.einsum("kf,kf->k", upstream[: info.num_matched].astype(np.float64),
                        x[mi].astype(np.float64) + x[mj])
        want = score_path_backward(g, params, info, scores, g_s)[1]
        assert gw.dtype == np.float64
        assert gw.tobytes() == want.tobytes()

    def test_upstream_shape_validated(self):
        rng = seeded_rng(22, "shape")
        g = random_graph(rng, n=6, f=2)
        params = PoolParams(weight=np.zeros(4), bias=0.0)
        pooled, info, scores = edgepool_forward(g, params)
        with pytest.raises(ValueError):
            edgepool_backward(g, params, info, scores,
                              np.zeros((pooled.num_nodes + 1, 2)))

    def test_info_of_another_graph_is_refused(self):
        # The 4-node path's level, handed the graph of edges 0-2, 1-3 and 2-3:
        # also 4 nodes and 6 directed edges, so only the pairs give it away.
        feats = np.arange(8.0).reshape(4, 2)
        path = path_graph(4, feats)
        other = symmetrize(build_graph(4, [(0, 2), (1, 3), (2, 3)], feats))
        params = PoolParams(weight=np.asarray([0.3, -0.2, 0.5, 0.1]), bias=0.0)
        pooled, info, scores = edgepool_forward(path, params)
        assert info.num_matched == 2 and other.num_edges == path.num_edges
        up = np.ones((pooled.num_nodes, 2))
        match = "^info is another graph's: the edges at info.matched_edge_index"
        with pytest.raises(ValueError, match=match):
            score_path_backward(other, params, info, scores, np.ones(2))
        with pytest.raises(ValueError, match=match):
            edgepool_backward(other, params, info, scores, up)
        # Another node count is refused before any row of info is read.
        five = path_graph(5, np.arange(10.0).reshape(5, 2))
        _, info5, scores5 = edgepool_forward(five, params)
        for graph, level, s in ((path, info5, scores), (five, info, scores5)):
            with pytest.raises(ValueError, match="^info.cluster_of must have one entry per node"):
                edgepool_backward(graph, params, level, s, up)
        # The level's own graph passes.
        edgepool_backward(path, params, info, scores, up)

    def test_info_with_other_sources_is_refused(self):
        # The 4-cycle's level, each matched edge swapped for the other edge
        # into its destination: the destinations agree, only the sources differ.
        cycle = symmetrize(build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)],
                                       np.arange(8.0).reshape(4, 2)))
        params = PoolParams(weight=np.asarray([0.3, -0.2, 0.5, 0.1]), bias=0.0)
        pooled, info, scores = edgepool_forward(cycle, params)
        e = np.asarray([np.flatnonzero((cycle.edge_dst == j) & (cycle.edge_src != i))[0]
                        for i, j in info.matching.tolist()])
        assert info.num_matched == 2
        assert np.array_equal(cycle.edge_dst[e], info.matching[:, 1])
        forged = dataclasses.replace(info, matched_edge_index=e)
        match = "^info is another graph's: the edges at info.matched_edge_index"
        with pytest.raises(ValueError, match=match):
            score_path_backward(cycle, params, forged, scores, np.ones(2))
        with pytest.raises(ValueError, match=match):
            edgepool_backward(cycle, params, forged, scores, np.ones((pooled.num_nodes, 2)))


class TestLevelPeakMemory:
    """Peaks of one level in units of m*8 bytes, on a graph where edge arrays dominate."""

    @pytest.mark.parametrize("dropout", [False, True], ids=["no-dropout", "dropout"])
    def test_forward_peak_memory_in_edge_arrays(self, dropout):
        # Besides the normalized scores and dropped mask (1.1 m*8 bytes),
        # the forward peaks in contract without dropout, holding the two
        # endpoint cluster columns (the key built in one of them) and the
        # kept-edge index: 4.8 m*8 bytes measured. With dropout it peaks in
        # select_contractions, holding the kept edges' indices, endpoints
        # and scores and round 1's temporaries: 5.64 measured. Holding the
        # raw scores through the level as well exceeds the bound with dropout.
        g, params, kw = edge_heavy_instance(dropout)
        assert traced_peak(edgepool_forward, g, params, **kw) < 6.2 * g.num_edges * 8

    @pytest.mark.parametrize("dropout", [False, True], ids=["no-dropout", "dropout"])
    def test_backward_peak_memory_in_edge_arrays(self, dropout):
        # The score path frees p before it compacts grad_r, and the (v, f)
        # updates run in row blocks: 2.4 m*8 bytes measured. One more
        # whole-edge temporary held across the score path passes the bound.
        g, params, kw = edge_heavy_instance(dropout)
        pooled, info, scores = edgepool_forward(g, params, **kw)
        upstream = seeded_rng(26, "edge-heavy").normal(size=pooled.node_features.shape)
        upstream = upstream.astype(np.float32)
        peak = traced_peak(edgepool_backward, g, params, info, scores, upstream)
        assert peak < 3.0 * g.num_edges * 8


class TestScorePathBackward:
    @settings(max_examples=150, deadline=None)
    @given(level=pool_levels())
    def test_bitwise_equal_to_whole_array_reference(self, level):
        graph, params, pooled, info, scores, rng = level
        g_s = signed_rows(rng, (info.num_matched,), np.float64)
        got = score_path_backward(graph, params, info, scores, g_s)
        ref = whole_array_score_path_backward(graph, params, info, scores, g_s)
        for a, b in zip(got, ref):
            a, b = np.asarray(a), np.asarray(b)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("dropout", [False, True], ids=["no-dropout", "dropout"])
    def test_row_blocks_bitwise_equal_to_whole_arrays(self, dropout):
        # 1500 float64 columns make row blocks of 174 rows, so the 600
        # nodes take four blocks, the last one partial.
        rng = seeded_rng(27, "row-blocks")
        v, f = 600, 1500
        pairs = rng.integers(0, v, size=(1500, 2))
        pairs = np.unique(np.sort(pairs[pairs[:, 0] != pairs[:, 1]], axis=1), axis=0)
        g = symmetrize(build_graph(v, pairs, rng.normal(size=(v, f)).astype(np.float32)))
        params = PoolParams(weight=rng.normal(size=2 * f) / f, bias=0.3)
        kw = dict(training=True, dropout_p=0.2, seed=4) if dropout else {}
        pooled, info, scores = edgepool_forward(g, params, **kw)
        assert scores.dropped.any() == dropout
        g_s = signed_rows(rng, (info.num_matched,), np.float64)
        upstream = signed_rows(rng, pooled.node_features.shape, np.float32)
        checks = [
            (score_path_backward(g, params, info, scores, g_s),
             whole_array_score_path_backward(g, params, info, scores, g_s)),
            (edgepool_backward(g, params, info, scores, upstream),
             scatter_edgepool_backward(g, params, info, scores, upstream)),
        ]
        for got, ref in checks:
            for a, b in zip(got, ref):
                a, b = np.asarray(a), np.asarray(b)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
