"""Acceptance gate: one test per shipping criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Criterion 7 needs the PROTEINS benchmark files on disk (see the
README data section) and skips with an explicit message when they are
absent; everything else is self-contained and deterministic.
"""

import json
import os
import time

import numpy as np
import pytest

from edgepool import (
    EdgeScores,
    PoolParams,
    TrainConfig,
    UnpoolPlan,
    build_graph,
    edgepool_forward,
    gen_synthetic,
    kfold_splits,
    load_tu,
    random_pool_params,
    run_gradcheck,
    select_contractions,
    train_graph_model,
    train_node_model,
    unpool_once,
)
from edgepool.data import (
    make_connected_erdos_renyi,
    make_cycle,
    make_erdos_renyi,
    make_path,
    make_star,
)
from edgepool.cli import main as cli_main
from edgepool.pool import normalize_scores, raw_scores
from edgepool.rng import seeded_rng

from oracles import naive_matching

NOT_REPRODUCED = (
    "Not reproduced at this scale: the large social-interaction benchmarks "
    "(Reddit-derived thread datasets and COLLAB) for whole-graph "
    "classification, and the full semi-supervised node-classification "
    "benchmark sweeps with their additional convolution and baseline "
    "variants. Reasons: compute budget (those runs need multi-GPU days) and "
    "baselines outside this package's scope. Coverage here instead: the "
    "operator invariants, oracle equivalence, gradient checks, scaling "
    "measurements, the protein-graph benchmark harness, and the synthetic "
    "non-locality study (criteria 1-8)."
)


def report(n: int, detail: str) -> None:
    print(f"PASS criterion {n}: {detail}")


def random_property_graph(rng, index: int):
    kind = ("erdos_renyi", "cycle", "star", "path")[index % 4]
    n = int(rng.integers(2, 501))
    width = int(rng.integers(1, 5))
    if kind == "erdos_renyi":
        g = make_erdos_renyi(n, min(1.0, 4.0 / max(n - 1, 1)), rng, width)
    elif kind == "cycle":
        g = make_cycle(max(n, 3), rng, width)
    elif kind == "star":
        g = make_star(max(n, 2), rng, width)
    else:
        g = make_path(max(n, 2), rng, width)
    return g.with_node_features(rng.normal(size=(g.num_nodes, width)))


class TestCriterion1Properties:
    @staticmethod
    def check_equivariance(g, params, info, rng):
        perm = rng.permutation(g.num_nodes)
        edges_p = np.stack([perm[g.edge_src], perm[g.edge_dst]], axis=1)
        feats_p = np.zeros_like(g.node_features)
        feats_p[perm] = g.node_features
        g_p = build_graph(g.num_nodes, edges_p, feats_p)
        _, info_p, _ = edgepool_forward(g_p, params)
        mapped = [(int(perm[a]), int(perm[b])) for a, b in info.matching.tolist()]
        assert mapped == [tuple(e) for e in info_p.matching.tolist()]

    def test_property_suite(self):
        started = time.perf_counter()
        rng = seeded_rng(0, "acceptance-properties")
        equivariance_checked = 0
        for index in range(200):
            g = random_property_graph(rng, index)
            params = random_pool_params(g.feature_width,
                                        seed=int(rng.integers(2**31)))
            pooled, info, scores = edgepool_forward(g, params)
            live = ~scores.dropped
            s = scores.normalized

            # Normalization: per destination, sum of (s - 0.5) is 1 +- 1e-6.
            sums = np.zeros(g.num_nodes)
            np.add.at(sums, g.edge_dst[live], s[live] - 0.5)
            has_in = np.zeros(g.num_nodes, dtype=bool)
            has_in[g.edge_dst[live]] = True
            assert np.all(np.abs(sums[has_in] - 1.0) <= 1e-6)

            # Score range: open below, singleton groups sit exactly at 1.5.
            assert np.all(s[live] > 0.5) and np.all(s[live] <= 1.5)

            # Matching validity and maximality over non-dropped edges.
            flat = info.matching.ravel()
            assert len(flat) == len(set(flat.tolist()))
            matched = np.zeros(g.num_nodes, dtype=bool)
            matched[flat] = True
            src, dst = g.edge_src[live], g.edge_dst[live]
            assert np.all(matched[src] | matched[dst] | (src == dst))

            # Node-count law.
            assert pooled.num_nodes == g.num_nodes - info.num_matched

            # Locality: perturbing nodes outside {i, j} and j's in-neighbors
            # leaves the score of (i, j) bitwise unchanged.
            if g.num_edges:
                e = int(rng.integers(g.num_edges))
                i, j = int(g.edge_src[e]), int(g.edge_dst[e])
                keep = {i, j} | set(g.edge_src[g.edge_dst == j].tolist())
                outside = np.setdiff1d(np.arange(g.num_nodes), sorted(keep))
                if outside.size:
                    mutated = g.node_features.copy()
                    mutated[outside] += rng.normal(0.0, 3.0,
                                                   size=(outside.size, g.feature_width))
                    g2 = g.with_node_features(mutated)
                    s2 = normalize_scores(g2, raw_scores(g2, params), scores.dropped)
                    assert s2[e] == s[e]

            # Permutation equivariance on tie-free instances. Leaf nodes
            # make exact 1.5 ties (singleton softmax), so most path/star
            # draws are excluded; denser draws below top the count up.
            if g.num_edges and np.unique(s).size == s.size and g.num_nodes <= 50:
                self.check_equivariance(g, params, info, rng)
                equivariance_checked += 1

        while equivariance_checked < 20:
            g = make_connected_erdos_renyi(int(rng.integers(6, 14)), 0.6, rng,
                                           feature_width=3)
            g = g.with_node_features(rng.normal(size=(g.num_nodes, 3)))
            params = random_pool_params(3, seed=int(rng.integers(2**31)))
            _, info, scores = edgepool_forward(g, params)
            if np.unique(scores.normalized).size < scores.normalized.size:
                continue
            self.check_equivariance(g, params, info, rng)
            equivariance_checked += 1

        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"property suite took {elapsed:.1f}s"
        assert equivariance_checked >= 20
        report(1, f"200 graphs, all operator invariants hold "
                  f"({equivariance_checked} tie-free equivariance instances, "
                  f"{elapsed:.1f}s < 60s)")


class TestCriterion2Oracle:
    def test_greedy_matches_naive_argmax(self):
        started = time.perf_counter()
        rng = seeded_rng(0, "acceptance-oracle")
        for trial in range(1000):
            n = int(rng.integers(2, 8))
            pairs = {(int(a), int(b))
                     for a, b in rng.integers(0, n, size=(12, 2)) if a != b}
            g = build_graph(n, sorted(pairs), rng.normal(size=(n, 2)))
            raw = rng.normal(0.0, 2.0, size=g.num_edges)
            dropped = rng.random(g.num_edges) < 0.15
            normalized = normalize_scores(g, raw, dropped)
            scores = EdgeScores(raw=raw, normalized=normalized, dropped=dropped)
            mine = [tuple(e) for e in select_contractions(g, scores).tolist()]
            ref = naive_matching(g.edges, normalized, dropped)
            assert mine == ref, f"trial {trial}: {mine} != {ref}"
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"
        report(2, f"greedy selection == repeated argmax on 1000 graphs "
                  f"({elapsed:.1f}s < 60s)")


class TestCriterion3Gradients:
    def test_gradcheck_all_cases(self):
        started = time.perf_counter()
        results = run_gradcheck(seed=0)
        elapsed = time.perf_counter() - started
        failures = [r.name for r in results if not r.passed]
        assert not failures, f"gradcheck failures: {failures}"
        adjoint = next(r for r in results if r.name == "unpool_adjoint")
        assert adjoint.max_abs_err <= 1e-8
        assert elapsed < 120.0, f"gradcheck took {elapsed:.1f}s"
        report(3, f"{len(results)} finite-difference cases pass, adjoint "
                  f"identity off by {adjoint.max_abs_err:.1e} <= 1e-8 "
                  f"({elapsed:.1f}s < 120s)")


class TestCriterion4Roundtrip:
    def test_unpool_restores_sums(self):
        rng = seeded_rng(0, "acceptance-roundtrip")
        chains = 0
        for trial in range(100):
            n = int(rng.integers(4, 40))
            f = int(rng.integers(1, 4))
            g = make_connected_erdos_renyi(n, min(1.0, 5.0 / n), rng, f)
            g = g.with_node_features(rng.normal(size=(n, f)))
            params = random_pool_params(f, seed=trial)
            pooled, info, _ = edgepool_forward(g, params)
            back = unpool_once(pooled.node_features, info)
            for i, j in info.matching.tolist():
                target = g.node_features[i] + g.node_features[j]
                assert np.allclose(back[i], target, atol=1e-6)
                assert np.allclose(back[j], target, atol=1e-6)
            unmatched = np.setdiff1d(np.arange(n), info.matching.ravel())
            assert np.allclose(back[unmatched], g.node_features[unmatched],
                               atol=1e-6)

            # Every third instance also runs a second level and checks the
            # law at both levels plus the chained composition.
            if trial % 3 == 0 and pooled.num_nodes >= 2 and pooled.num_edges:
                pooled2, info2, _ = edgepool_forward(pooled, params)
                back2 = unpool_once(pooled2.node_features, info2)
                for i, j in info2.matching.tolist():
                    target = pooled.node_features[i] + pooled.node_features[j]
                    assert np.allclose(back2[i], target, atol=1e-6)
                chain = UnpoolPlan(levels=(info, info2))
                from edgepool import unpool_chain
                chained = unpool_chain(pooled2.node_features, chain)
                assert np.allclose(chained, unpool_once(back2, info), atol=1e-6)
                chains += 1
        assert chains >= 20
        report(4, f"pair sums and pass-through restored on 100 graphs "
                  f"({chains} two-level chains), +-1e-6")


class TestCriterion5Reduction:
    def test_mean_reduction_ratio(self):
        rng = seeded_rng(0, "acceptance-ratio")
        ratios = []
        degrees = []
        for trial in range(100):
            g = make_connected_erdos_renyi(100, 6.0 / 99.0, rng, feature_width=4)
            g = g.with_node_features(rng.normal(size=(100, 4)))
            params = random_pool_params(4, seed=trial)
            pooled, _, _ = edgepool_forward(g, params)
            ratios.append(pooled.num_nodes / g.num_nodes)
            degrees.append(g.num_edges / g.num_nodes)
        mean_ratio = float(np.mean(ratios))
        mean_degree = float(np.mean(degrees))
        assert mean_degree >= 4.0, f"mean degree {mean_degree:.2f} below 4"
        assert mean_ratio <= 0.6, f"mean reduction ratio {mean_ratio:.4f} > 0.6"
        report(5, f"mean pooled/original ratio {mean_ratio:.4f} <= 0.6 over "
                  f"100 connected graphs (mean degree {mean_degree:.1f})")


class TestCriterion6Scaling:
    def test_bench_slopes(self, tmp_path):
        started = time.perf_counter()
        out = tmp_path / "bench"
        code = cli_main(["bench", "--min-edges", "1e3", "--max-edges", "1e6",
                         "--out", str(out)])
        elapsed = time.perf_counter() - started
        assert code == 0
        rows = [line.split(",") for line in
                (out / "bench.csv").read_text().strip().splitlines()[1:]]
        edges = np.log([float(r[0]) for r in rows])
        time_slope = float(np.polyfit(edges, np.log([float(r[1]) for r in rows]), 1)[0])
        mem_slope = float(np.polyfit(edges, np.log([float(r[2]) for r in rows]), 1)[0])
        assert time_slope <= 1.2, f"runtime slope {time_slope:.3f} > 1.2"
        assert mem_slope <= 1.1, f"memory slope {mem_slope:.3f} > 1.1"
        assert elapsed < 600.0, f"bench took {elapsed:.0f}s"
        report(6, f"1e3->1e6 edges: runtime slope {time_slope:.3f} <= 1.2, "
                  f"memory slope {mem_slope:.3f} <= 1.1 ({elapsed:.0f}s < 600s)")


def _find_proteins():
    candidates = []
    env = os.environ.get("EDGEPOOL_TU_DIR")
    if env:
        candidates.append(env)
    candidates.append(os.path.join(os.path.dirname(__file__), "..", "data"))
    for directory in candidates:
        try:
            return load_tu(directory, "PROTEINS"), directory
        except (FileNotFoundError, OSError):
            continue
    return None, None


class TestCriterion7Proteins:
    def test_benchmark_reproduction(self):
        dataset, directory = _find_proteins()
        if dataset is None:
            pytest.skip(
                "PROTEINS files not present (set EDGEPOOL_TU_DIR or place "
                "them under data/); network-isolated environments cannot "
                "fetch them, see the ledger"
            )
        config = TrainConfig(seed=0)
        folds = kfold_splits(len(dataset), k=10, seed=0)
        means = {}
        for pooling in (True, False):
            accs = []
            for train_idx, test_idx in folds:
                _, history = train_graph_model(
                    dataset, train_idx, test_idx, config, pooling=pooling
                )
                accs.append(history[-1]["eval_acc"])
            means[pooling] = float(np.mean(accs))
        assert means[True] >= 0.700, f"pooled mean accuracy {means[True]:.4f}"
        assert means[True] >= means[False] - 0.010, (
            f"pooled {means[True]:.4f} vs base {means[False]:.4f}"
        )
        report(7, f"10-fold mean accuracy {means[True]:.4f} >= 0.700 and "
                  f">= base {means[False]:.4f} - 1pp (data: {directory})")


class TestCriterion8NonLocality:
    def test_pooling_gives_mlp_nonlocal_reach(self):
        task_params = {"per_class_test": 60, "feature_noise": 2.2}
        gaps = []
        for seed in range(5):
            task = gen_synthetic("sbm_node_task", task_params, seed=seed)
            config = TrainConfig(epochs=60, channels=16, learning_rate=5e-3,
                                 seed=seed)
            _, pooled_history = train_node_model(task, config, conv_kind="mlp",
                                                 pooling=True)
            _, flat_history = train_node_model(task, config, conv_kind="mlp",
                                               pooling=False)
            gaps.append(pooled_history[-1]["eval_acc"]
                        - flat_history[-1]["eval_acc"])
        mean_gap = float(np.mean(gaps))
        assert mean_gap >= 0.05, f"mean accuracy gap {mean_gap:+.4f} < +0.05"
        report(8, f"feature-only convolutions gain {100 * mean_gap:+.1f}pp "
                  f"from pooling over 5 seeds (>= +5pp)")


class TestCriterion9Scope:
    def test_non_reproduction_is_stated(self):
        # The exclusions live in this module and in the README so the scope
        # statement ships with both the tests and the documentation.
        readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
        with open(readme, "r", encoding="utf-8") as fh:
            text = fh.read()
        for token in ("Reddit", "COLLAB", "not reproduced"):
            assert token.lower() in NOT_REPRODUCED.lower()
            assert token.lower() in text.lower(), f"README missing {token!r}"
        report(9, NOT_REPRODUCED)
