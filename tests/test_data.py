"""Dataset ingestion, splits, and synthetic generators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edgepool import (
    TrainConfig, gen_synthetic, kfold_splits, load_tu, node_split, save_tu, train_node_model,
)
from edgepool.data import (
    GraphDataset,
    _label_codes,
    _read_table,
    make_connected_erdos_renyi,
    make_erdos_renyi,
    make_sbm,
)
from edgepool.rng import seeded_rng

from oracles import loop_load_tu
from strategies import make_cycle, make_path, make_star


def write_tu_fixture(directory, name="TOY"):
    """Two triangle-ish graphs with node labels and attributes.

    Graph 1: nodes 1-3 forming a triangle, label 6.
    Graph 2: nodes 4-5 with one edge, label 3.
    """
    directory.mkdir(exist_ok=True)
    files = {
        "A": ["1, 2", "2, 1", "2, 3", "3, 2", "1, 3", "3, 1", "4, 5", "5, 4"],
        "graph_indicator": ["1", "1", "1", "2", "2"],
        "graph_labels": ["6", "3"],
        "node_labels": ["0", "1", "1", "0", "2"],
        "node_attributes": ["0.5, 1.0", "0.25, 2.0", "0.125, 3.0",
                            "2.5, 4.0", "1.5, 5.0"],
    }
    for suffix, lines in files.items():
        (directory / f"{name}_{suffix}.txt").write_text("\n".join(lines) + "\n")
    return directory


class TestLoadTu:
    def test_golden_fixture(self, tmp_path):
        ds = load_tu(write_tu_fixture(tmp_path / "toy"), "TOY")
        assert len(ds) == 2
        assert ds.num_classes == 2
        # Labels {6, 3} remap to sorted order: 3 -> 0, 6 -> 1.
        assert ds.labels.tolist() == [1, 0]
        g1, g2 = ds.graphs
        assert g1.num_nodes == 3 and g1.num_edges == 6
        assert g2.num_nodes == 2 and g2.num_edges == 2
        # Features: 2 attributes + one-hot over 3 node label values.
        assert g1.feature_width == 5
        assert np.allclose(g1.node_features[0], [0.5, 1.0, 1.0, 0.0, 0.0])
        assert np.allclose(g1.node_features[1], [0.25, 2.0, 0.0, 1.0, 0.0])
        assert np.allclose(g2.node_features[1], [1.5, 5.0, 0.0, 0.0, 1.0])

    def test_nested_layout(self, tmp_path):
        ds = load_tu(write_tu_fixture(tmp_path / "TOY").parent, "TOY")
        assert len(ds) == 2

    def test_attributes_only(self, tmp_path):
        d = write_tu_fixture(tmp_path / "toy")
        (d / "TOY_node_labels.txt").unlink()
        ds = load_tu(d, "TOY")
        assert ds.graphs[0].feature_width == 2

    def test_constant_feature_fallback(self, tmp_path):
        d = write_tu_fixture(tmp_path / "toy")
        (d / "TOY_node_labels.txt").unlink()
        (d / "TOY_node_attributes.txt").unlink()
        ds = load_tu(d, "TOY")
        assert ds.graphs[0].feature_width == 1
        assert np.all(ds.graphs[0].node_features == 1.0)

    def test_missing_mandatory_file(self, tmp_path):
        d = write_tu_fixture(tmp_path / "toy")
        (d / "TOY_A.txt").unlink()
        with pytest.raises(FileNotFoundError):
            load_tu(d, "TOY")

    def test_cross_graph_edge_rejected(self, tmp_path):
        d = write_tu_fixture(tmp_path / "toy")
        path = d / "TOY_A.txt"
        path.write_text(path.read_text() + "3, 4\n")
        with pytest.raises(ValueError):
            load_tu(d, "TOY")

    def test_indicator_out_of_range(self, tmp_path):
        d = write_tu_fixture(tmp_path / "toy")
        (d / "TOY_graph_indicator.txt").write_text("1\n1\n1\n2\n7\n")
        with pytest.raises(ValueError):
            load_tu(d, "TOY")

    def test_decreasing_indicator_rejected(self, tmp_path):
        d = write_tu_fixture(tmp_path / "toy")
        (d / "TOY_graph_indicator.txt").write_text("1\n2\n1\n2\n2\n")
        with pytest.raises(ValueError):
            load_tu(d, "TOY")

    def test_non_numeric_line(self, tmp_path):
        d = write_tu_fixture(tmp_path / "toy")
        (d / "TOY_A.txt").write_text("1, banana\n")
        with pytest.raises(ValueError):
            load_tu(d, "TOY")

    @pytest.mark.parametrize("bad", ["inf", "nan", "2.5", "1_0", "\u0661", "\uff11\uff12"],
                             ids=["inf", "nan", "fractional", "underscore", "arabic-indic",
                                  "fullwidth"])
    @pytest.mark.parametrize("suffix, line, text", [
        ("A", 3, "2, {}"),
        ("graph_indicator", 2, "{}"),
        ("graph_labels", 2, "{}"),
        ("node_labels", 4, "{}"),
    ], ids=["A", "graph_indicator", "graph_labels", "node_labels"])
    def test_integer_files_hold_integers(self, tmp_path, suffix, line, text, bad):
        d = write_tu_fixture(tmp_path / "toy")
        path = d / f"TOY_{suffix}.txt"
        lines = path.read_text().splitlines()
        lines[line - 1] = text.format(bad)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"TOY_{suffix}\.txt:{line}: .*not an integer"):
            load_tu(d, "TOY")

    @pytest.mark.parametrize("bad, why", [
        ("nan", "not a decimal"), ("inf", "not a decimal"), ("1_0.5", "not a decimal"),
        ("\u0663.5", "not a decimal"), ("0x1p3", "not a decimal"), ("1e39", "float32 range"),
    ], ids=["nan", "inf", "underscore", "arabic-indic", "hex", "beyond-float32"])
    def test_attributes_are_ascii_decimals(self, tmp_path, bad, why):
        d = write_tu_fixture(tmp_path / "toy")
        (d / "TOY_node_attributes.txt").write_text(
            f"0.5, 1.0\n0.25, {bad}\n0.125, 3.0\n2.5, 4.0\n1.5, 5.0\n")
        with pytest.raises(ValueError, match=rf"TOY_node_attributes\.txt:2: .*{why}"):
            load_tu(d, "TOY")

    def test_ascii_number_forms_read_as_spelled(self, tmp_path):
        d = write_tu_fixture(tmp_path / "toy")
        (d / "TOY_graph_labels.txt").write_text(" +06 \n-0003\n")
        (d / "TOY_node_attributes.txt").write_text(
            "5e-1, 1.\n.25, 2E0\n0.125, +3.0\n2.5, 4.0\n1.5, 5.0\n")
        ds = load_tu(d, "TOY")
        assert ds.labels.tolist() == [1, 0]  # 6 and -3 remap to sorted order
        assert ds.graphs[0].node_features[:, :2].tolist() == [[0.5, 1.0], [0.25, 2.0],
                                                             [0.125, 3.0]]

    def test_edge_line_needs_two_entries(self, tmp_path):
        d = write_tu_fixture(tmp_path / "toy")
        path = d / "TOY_A.txt"
        path.write_text(path.read_text() + "3\n")
        with pytest.raises(ValueError, match=r"TOY_A\.txt:9: .*needs 2 entries"):
            load_tu(d, "TOY")

    @pytest.mark.parametrize("indicator, empty", [("1\n1\n1\n1\n1\n", 2),
                                                  ("2\n2\n2\n2\n2\n", 1)],
                             ids=["last", "first"])
    def test_graph_with_no_nodes_rejected(self, tmp_path, indicator, empty):
        d = write_tu_fixture(tmp_path / "toy")
        (d / "TOY_graph_indicator.txt").write_text(indicator)
        (d / "TOY_A.txt").write_text("1, 2\n2, 1\n")
        with pytest.raises(ValueError,
                           match=rf"TOY_graph_indicator\.txt: graph {empty} has no nodes"):
            load_tu(d, "TOY")

    def test_duplicate_edges_collapse(self, tmp_path):
        d = write_tu_fixture(tmp_path / "toy")
        path = d / "TOY_A.txt"
        path.write_text(path.read_text() + "1, 2\n1, 2\n")
        ds = load_tu(d, "TOY")
        assert ds.graphs[0].num_edges == 6


def same_dataset(a, b) -> bool:
    return (a.labels.tolist() == b.labels.tolist() and a.num_classes == b.num_classes
            and len(a.graphs) == len(b.graphs)
            and all(g.num_nodes == h.num_nodes and g.edges.tobytes() == h.edges.tobytes()
                    and g.node_features.tobytes() == h.node_features.tobytes()
                    for g, h in zip(a.graphs, b.graphs)))


class TestLoadTuGrouping:
    # load_tu groups edges by one sort of their keys; the per-edge loop it
    # replaced is the oracle, on files in any line order.
    @pytest.mark.parametrize("seed", range(4))
    def test_shuffled_duplicated_lines_match_loop_loader(self, tmp_path, seed):
        rng = seeded_rng(seed, "tu-grouping")
        ds = gen_synthetic("path_proteinlike", {"num_graphs": 12}, seed=seed)
        save_tu(ds, tmp_path, "SH")
        path = tmp_path / "SH_A.txt"
        lines = path.read_text().splitlines()
        # Drop some directions, duplicate some lines, then shuffle them all.
        kept = [line for line in lines if rng.random() < 0.8]
        kept += [kept[i] for i in rng.integers(0, len(kept), size=len(kept) // 3)]
        path.write_text("\n".join(kept[i] for i in rng.permutation(len(kept))) + "\n")
        got = load_tu(tmp_path, "SH")
        assert same_dataset(got, loop_load_tu(tmp_path, "SH"))
        assert sum(g.num_edges for g in got.graphs) <= len(lines)

    @pytest.mark.parametrize("bad", [
        ["3, 4", "0, 2"], ["2, 9", "3, 4"], ["6, 1"], ["1, -2"], ["5, 3"],
        ["2, 2"], ["2, 2", "5, 3"],
    ], ids=["cross-then-range", "range-then-cross", "src-range", "dst-range", "cross",
            "self-loop", "self-loop-then-cross"])
    def test_first_bad_line_in_file_order(self, tmp_path, bad):
        d = write_tu_fixture(tmp_path / "toy")
        path = d / "TOY_A.txt"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3] + bad + lines[3:]) + "\n")
        with pytest.raises(ValueError) as got:
            load_tu(d, "TOY")
        with pytest.raises(ValueError) as want:
            loop_load_tu(d, "TOY")
        assert str(got.value) == str(want.value)


TABLE_RULES = [(np.int64, 1), (np.int64, 2), (np.float32, None)]
FLOAT32_MAX = float(np.finfo(np.float32).max)
# Whitespace that strip() removes around an entry, and blank lines.
PADS = ["", " ", "\t", "\u3000", "\xa0", "\x1c"]
BLANKS = ["", " ", "\t"]
# Entries each rule refuses wherever they stand in a line.
BAD_ENTRIES = {
    np.int64: ["2.5", "1 2", "1\x1c2", "+", "e5", "nan", "1_0", "\u0661", "0x1",
               "9223372036854775808", "-9223372036854775809"],
    np.float32: ["1 2", "1\x1c2", "+", ".", "e5", "nan", "inf", "1_0", "\u0661", "1e39",
                 "-1e400"],
}


@st.composite
def spelled_entries(draw, dtype):
    """A valid entry of ``dtype``'s rule: (its padded token, the value it spells)."""
    if dtype is np.float32:
        value = draw(st.floats(-FLOAT32_MAX, FLOAT32_MAX))
        token = draw(st.sampled_from(["{!r}", "{:+}"])).format(value)
        token = token.upper() if draw(st.booleans()) else token  # an "E" exponent
    else:
        value = draw(st.integers(-(2**63), 2**63 - 1))
        token = draw(st.sampled_from(["{}", "{:+}", "{:04}"])).format(value)
    return draw(st.sampled_from(PADS)) + token + draw(st.sampled_from(PADS)), value


@st.composite
def drawn_tables(draw):
    """A table file of valid entries: its rule (dtype, columns), its lines (a
    blank line as a string, a row as a list of entries, at least one row)
    and its newline and ending. With ``columns`` a row has at least that
    many entries; without, every row has the same number."""
    dtype, columns = draw(st.sampled_from(TABLE_RULES))
    width = columns or draw(st.integers(1, 4))
    row = st.lists(spelled_entries(dtype), min_size=width, max_size=4 if columns else width)
    lines = draw(st.lists(st.one_of(row, st.sampled_from(BLANKS)), min_size=1, max_size=8)
                 .filter(lambda lines: any(isinstance(line, list) for line in lines)))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return (dtype, columns), lines, newline, draw(st.sampled_from(["", newline]))


def write_table(path, lines, newline, end):
    text = newline.join(line if isinstance(line, str) else ",".join(tok for tok, _ in line)
                        for line in lines)
    path.write_bytes((text + end).encode("utf-8"))


class TestReadTable:
    # What the drawn lines spell is the oracle: the values of a valid table,
    # and the line of the one fault in a broken one.
    @settings(max_examples=300, deadline=None)
    @given(table=drawn_tables())
    def test_valid_entries_read_as_the_values_they_spell(self, tmp_path_factory, table):
        (dtype, columns), lines, newline, end = table
        path = tmp_path_factory.mktemp("table") / "t.txt"
        write_table(path, lines, newline, end)
        got = _read_table(path, "entry", dtype, columns)
        want = np.array([[value for _, value in line[:columns]]
                         for line in lines if isinstance(line, list)], dtype)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())

    @settings(max_examples=300, deadline=None)
    @given(table=drawn_tables(), data=st.data())
    def test_one_fault_is_refused_naming_its_line(self, tmp_path_factory, table, data):
        # The fault is an entry the rule refuses or, where the width rule
        # applies, a row one entry short of the width or one past it.
        (dtype, columns), lines, newline, end = table
        rows = [at for at, line in enumerate(lines) if isinstance(line, list)]
        at = data.draw(st.sampled_from(rows))
        row = lines[at]
        faults = ["entry"]
        if len(row) > 1 and (columns == len(row) or (columns is None and at != rows[0])):
            faults.append("short")
        if columns is None and at != rows[0]:
            faults.append("long")
        fault = data.draw(st.sampled_from(faults))
        if fault == "entry":
            k = data.draw(st.integers(0, len(row) - 1))
            row = [*row[:k], (data.draw(st.sampled_from(BAD_ENTRIES[dtype])), None), *row[k + 1:]]
        else:
            row = row[:-1] if fault == "short" else [*row, row[0]]
        path = tmp_path_factory.mktemp("table") / "t.txt"
        write_table(path, [*lines[:at], row, *lines[at + 1:]], newline, end)
        with pytest.raises(ValueError) as refused:
            _read_table(path, "entry", dtype, columns)
        assert str(refused.value).startswith(f"{path}:{at + 1}: bad entry line ")


class TestSaveTu:
    def test_roundtrip_exact(self, tmp_path):
        original = load_tu(write_tu_fixture(tmp_path / "toy"), "TOY")
        out = tmp_path / "resaved"
        save_tu(original, out, "COPY")
        again = load_tu(out, "COPY")
        assert len(again) == len(original)
        assert again.labels.tolist() == original.labels.tolist()
        for a, b in zip(original.graphs, again.graphs):
            assert a.num_nodes == b.num_nodes
            assert a.edges.tolist() == b.edges.tolist()
            assert np.array_equal(a.node_features, b.node_features)

    def test_synthetic_roundtrip(self, tmp_path):
        ds = gen_synthetic("path_proteinlike", {"num_graphs": 6}, seed=1)
        save_tu(ds, tmp_path, "SYN")
        again = load_tu(tmp_path, "SYN")
        assert again.labels.tolist() == ds.labels.tolist()
        for a, b in zip(ds.graphs, again.graphs):
            assert a.edges.tolist() == b.edges.tolist()
            assert np.array_equal(a.node_features, b.node_features)

    def test_writes_the_four_format_files(self, tmp_path):
        # No edge-attribute file: a graph has no edge features to write.
        ds = gen_synthetic("path_proteinlike", {"num_graphs": 3}, seed=2)
        save_tu(ds, tmp_path / "out", "SYN")
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "SYN_A.txt", "SYN_graph_indicator.txt", "SYN_graph_labels.txt",
            "SYN_node_attributes.txt"]

    @pytest.mark.parametrize("value", [0.1, 1e-50, 1e39],
                             ids=["rounds", "underflows", "overflows"])
    def test_features_float32_cannot_hold_refused(self, tmp_path, value):
        # load_tu reads attributes as float32: 0.1 would come back as
        # 0.10000000149011612, 1e-50 as 0.0, and 1e39 not at all.
        x = np.ones((3, 2))
        x[2, 1] = value
        ds = GraphDataset([make_path(3), make_path(3).with_node_features(x)],
                          np.zeros(2, dtype=np.int64), 1, "F64")
        with pytest.raises(ValueError, match="graph 1 has node features that float32"):
            save_tu(ds, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_float64_features_float32_holds_roundtrip_exactly(self, tmp_path):
        # The float32 nearest 0.1, the largest float32 and its smallest subnormal.
        x = np.array([[0.5, -3.25], [2.0**-20, np.float32(0.1)],
                      [np.finfo(np.float32).max, np.float32(1e-45)]], dtype=np.float64)
        ds = GraphDataset([make_path(3).with_node_features(x)], np.zeros(1, dtype=np.int64),
                          1, "F64")
        save_tu(ds, tmp_path, "F64")
        again = load_tu(tmp_path, "F64").graphs[0].node_features
        assert again.astype(np.float64).tobytes() == x.tobytes()


class TestKfold:
    def test_benchmark_sized_fold_counts(self):
        splits = kfold_splits(1113, k=10, seed=0)
        sizes = sorted(len(test) for _, test in splits)
        assert sizes == [111] * 7 + [112] * 3

    def test_partition_properties(self):
        n, k = 57, 5
        splits = kfold_splits(n, k=k, seed=3)
        assert len(splits) == k
        all_test = np.concatenate([test for _, test in splits])
        assert sorted(all_test.tolist()) == list(range(n))
        for train, test in splits:
            assert len(train) + len(test) == n
            assert not np.intersect1d(train, test).size

    def test_fold_indices_ascend(self):
        for train, test in kfold_splits(57, k=5, seed=3):
            assert np.all(np.diff(train) > 0) and np.all(np.diff(test) > 0)

    def test_seed_controls_assignment(self):
        a = kfold_splits(40, k=4, seed=0)
        b = kfold_splits(40, k=4, seed=0)
        c = kfold_splits(40, k=4, seed=1)
        assert all(np.array_equal(x[1], y[1]) for x, y in zip(a, b))
        assert any(not np.array_equal(x[1], y[1]) for x, y in zip(a, c))

    def test_splits_dataset_by_length(self):
        ds = gen_synthetic("path_proteinlike", {"num_graphs": 12}, seed=0)
        splits = kfold_splits(len(ds), k=3)
        assert sum(len(test) for _, test in splits) == 12

    def test_too_many_folds(self):
        with pytest.raises(ValueError):
            kfold_splits(3, k=5)

    @pytest.mark.parametrize("k", [0, 1])
    def test_too_few_folds(self, k):
        with pytest.raises(ValueError, match="need 2 <= folds"):
            kfold_splits(10, k=k)


class TestLabelCodes:
    # Graph labels, node-label one-hots and node tasks all code labels here.
    @settings(max_examples=100, deadline=None)
    @given(labels=st.one_of(
        st.lists(st.integers(-(2**63), 2**63 - 1), max_size=30),
        st.lists(st.integers(-3, 3), max_size=30),
        st.integers(-(2**63), 2**63 - 1).flatmap(lambda v: st.lists(st.just(v), min_size=1)),
    ))
    def test_equal_to_unique_and_searchsorted(self, labels):
        labels = np.asarray(labels, dtype=np.int64)
        before = labels.copy()
        codes, num_classes = _label_codes(labels)
        values = np.unique(labels)
        assert codes.dtype == np.int64
        assert codes.tolist() == np.searchsorted(values, labels).tolist()
        assert num_classes == len(values)
        assert np.array_equal(labels, before)  # the caller's labels stay as they were


class TestNodeSplit:
    def task_graph(self, per_class=60, classes=3, seed=0):
        rng = seeded_rng(seed, "split-fixture")
        n = per_class * classes
        g = make_connected_erdos_renyi(n, 0.05, rng, feature_width=2)
        labels = np.repeat(np.arange(classes) * 10 + 5, per_class)  # odd label values
        return g, labels

    def test_standard_counts(self):
        g, labels = self.task_graph()
        task = node_split(g, labels, 20, 30, seed=0)
        assert task.train_mask.sum() == 60
        assert task.test_mask.sum() == 90
        unlabeled = ~(task.train_mask | task.test_mask)
        assert unlabeled.sum() == 30
        assert not (task.train_mask & task.test_mask).any()
        assert task.num_classes == 3
        assert set(task.node_labels.tolist()) == {0, 1, 2}

    def test_per_class_balance(self):
        g, labels = self.task_graph()
        task = node_split(g, labels, 20, 30, seed=1)
        for c in range(3):
            cls = task.node_labels == c
            assert (task.train_mask & cls).sum() == 20
            assert (task.test_mask & cls).sum() == 30

    def test_small_class_rejected(self):
        g, labels = self.task_graph(per_class=40)
        with pytest.raises(ValueError):
            node_split(g, labels, 20, 30)

    def test_label_count_validated(self):
        g, labels = self.task_graph()
        with pytest.raises(ValueError):
            node_split(g, labels[:-1], 5, 5)

    # Labels are never cast (a cast would give labels + 0.7 the integer
    # labels' task), and a negative count would empty a class's test split.
    @pytest.mark.parametrize("relabel, counts, message", [
        (lambda y: y + 0.7, (20, 30), "node_labels"),
        (lambda y: y > 10, (20, 30), "node_labels"),
        (lambda y: y, (-5, 10), "per_class_train"),
        (lambda y: y, (20, -1), "per_class_test"),
    ], ids=["float-labels", "bool-labels", "negative-train", "negative-test"])
    def test_refused(self, relabel, counts, message):
        g, labels = self.task_graph()
        with pytest.raises(ValueError, match=message):
            node_split(g, relabel(labels), *counts)

    def test_zero_count_reaches_the_trainers_empty_split_check(self):
        g, labels = self.task_graph()
        task = node_split(g, labels, 0, 30)
        assert not task.train_mask.any() and task.test_mask.sum() == 90
        with pytest.raises(ValueError, match="train_mask is empty"):
            train_node_model(task, TrainConfig(epochs=1, channels=4))


class TestSynthetic:
    def test_cycle_edge_count(self):
        g = make_cycle(100)
        assert g.num_nodes == 100
        assert g.num_edges == 200

    def test_star_degrees(self):
        rng = seeded_rng(0, "star")
        g = make_star(13, rng)
        deg = np.bincount(g.edge_dst, minlength=13)
        assert deg[0] == 12
        assert np.all(deg[1:] == 1)

    def test_deterministic_by_seed(self):
        a = gen_synthetic("path_proteinlike", {"num_graphs": 4}, seed=7)
        b = gen_synthetic("path_proteinlike", {"num_graphs": 4}, seed=7)
        assert a.labels.tolist() == b.labels.tolist()
        for ga, gb in zip(a.graphs, b.graphs):
            assert ga.edges.tolist() == gb.edges.tolist()
            assert np.array_equal(ga.node_features, gb.node_features)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            gen_synthetic("hypercube", {})

    @pytest.mark.parametrize("kind, key", [("sbm_node_task", "nodes_per_blok"),
                                           ("path_proteinlike", "blocks")])
    def test_unknown_parameter_is_named(self, kind, key):
        # A misspelt key would otherwise leave its default silently in place.
        with pytest.raises(ValueError, match=f"unknown {kind} parameters \\['{key}'\\]"):
            gen_synthetic(kind, {key: 30})

    @pytest.mark.parametrize("kind", ["star", "erdos_renyi", "cycle"])
    def test_unrequested_kinds_are_gone(self, kind):
        with pytest.raises(ValueError, match="unknown synthetic kind"):
            gen_synthetic(kind, {})

    def test_erdos_renyi_density(self):
        rng = seeded_rng(1, "er")
        g = make_erdos_renyi(200, 0.05, rng)
        expected = 0.05 * 200 * 199  # directed count of an undirected G(n, p)
        assert 0.6 * expected <= g.num_edges <= 1.4 * expected

    def test_connected_variant_is_connected(self):
        rng = seeded_rng(2, "cer")
        for _ in range(5):
            g = make_connected_erdos_renyi(30, 0.1, rng)
            seen = {0}
            frontier = [0]
            while frontier:
                u = frontier.pop()
                for w in g.edge_dst[g.edge_src == u]:
                    if int(w) not in seen:
                        seen.add(int(w))
                        frontier.append(int(w))
            assert len(seen) == 30

    def test_sbm_block_structure(self):
        rng = seeded_rng(3, "sbm")
        g, blocks = make_sbm(2, 100, 0.2, 0.01, rng)
        assert g.num_nodes == 200
        intra = blocks[g.edge_src] == blocks[g.edge_dst]
        assert intra.mean() > 0.8

    def test_sbm_feature_signal(self):
        rng = seeded_rng(4, "sbm-sig")
        g, blocks = make_sbm(2, 200, 0.1, 0.01, rng, feature_width=4,
                             feature_noise=1.0, signal=2.0)
        means = np.stack([g.node_features[blocks == c].mean(axis=0) for c in (0, 1)])
        assert means[0, 0] > means[0, 1] + 1.0
        assert means[1, 1] > means[1, 0] + 1.0

    def test_sbm_node_task_split_sizes(self):
        task = gen_synthetic("sbm_node_task", {"nodes_per_block": 60}, seed=0)
        assert task.graph.num_nodes == 120
        assert task.train_mask.sum() == 40
        assert task.test_mask.sum() == 60

    def test_proteinlike_classes_differ_by_density(self):
        ds = gen_synthetic("path_proteinlike", {"num_graphs": 40}, seed=0)
        assert set(ds.labels.tolist()) == {0, 1}
        dens = np.asarray([g.num_edges / g.num_nodes for g in ds.graphs])
        assert dens[ds.labels == 1].mean() > dens[ds.labels == 0].mean()
