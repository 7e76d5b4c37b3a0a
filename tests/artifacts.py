"""Digest every artifact of a fixed CLI run set, so byte-identity is one ``diff``.

Runs the run set in ``RUNS`` with a source tree's ``edgepool`` (its ``src``
directory on ``PYTHONPATH``), in a temporary directory and with
``OPENBLAS_NUM_THREADS=1``, and prints ``sha256  run/file`` for every file
written there, inputs included, in sorted order. Each ``manifest.json`` is
normalized first: its ``started`` and ``ended`` stamps are dropped and the
temporary root is replaced by ``<root>``. Files that hold timings (``TIMED``)
are left out. Two trees write the same bytes when their outputs match::

    python tests/artifacts.py /path/to/parent/src > parent.txt
    python tests/artifacts.py > change.txt
    diff parent.txt change.txt

SRC defaults to this tree's ``src``. Given two source trees, it runs the set
for each, prints only the ``run/file`` names whose digests differ (or that
one tree alone wrote), and exits 1 if it printed any, so a script can gate a
byte-identity claim on it::

    python tests/artifacts.py /path/to/parent/src src

The run set takes about 14 s on two cores.
pytest does not collect this file; ``tests/test_cli.py`` runs it once.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
ROOT_TOKEN = "<root>"
TIMED = {"bench/bench.csv"}  # wall times; its manifest is still digested

# A 6-node graph, for `pool --input`.
GRAPH = {
    "num_nodes": 6,
    "edges": [[0, 1], [1, 0], [1, 2], [2, 1], [2, 3], [3, 2], [3, 4], [4, 3], [4, 5], [5, 4],
              [0, 5], [5, 0]],
    "node_features": [[1.0, 0.0], [0.5, 1.0], [0.0, 2.0], [1.5, 0.5], [2.0, 1.0], [0.25, 0.75]],
}

# Scorer params for `pool --input --params`: 2 * 2 node-feature entries and
# a bias, for `GRAPH`.
PARAMS = {"weight": [0.5, -1.0, 0.25, 1.5], "bias": 0.125}

# `save_tu` copy of the graph set that `train-graph` and `pool --tu` read.
MAKE_TU = ("import sys; from edgepool import gen_synthetic, save_tu; "
           "save_tu(gen_synthetic('path_proteinlike', {'num_graphs': 40}, seed=3), "
           "sys.argv[1], 'P')")

# Task JSON for `train-node --input`: an SBM task with its split given as
# explicit `train_nodes` and `test_nodes`.
MAKE_TASK = ("import json, sys; import numpy as np; from edgepool import gen_synthetic; "
             "from edgepool.graph import graph_to_json; "
             "t = gen_synthetic('sbm_node_task', {'nodes_per_block': 40, 'per_class_train': 5, "
             "'per_class_test': 10}, seed=4); "
             "obj = graph_to_json(t.graph) | {'node_labels': t.node_labels.tolist(), "
             "'train_nodes': np.flatnonzero(t.train_mask).tolist(), "
             "'test_nodes': np.flatnonzero(t.test_mask).tolist()}; "
             "open(sys.argv[1], 'w', encoding='utf-8').write(json.dumps(obj))")

# Task JSON with `node_labels` and no split keys, for the split `train-node` draws.
MAKE_DRAWN_TASK = ("import json, sys; from edgepool import gen_synthetic; "
                   "from edgepool.graph import graph_to_json; "
                   "t = gen_synthetic('sbm_node_task', {}, seed=5); "
                   "obj = graph_to_json(t.graph) | {'node_labels': t.node_labels.tolist()}; "
                   "open(sys.argv[1], 'w', encoding='utf-8').write(json.dumps(obj))")

# Graph JSON for a `pool --input` run that reaches selection's sweep with
# tied scores: a 2,000-node SBM graph (mean degree about 16) whose one
# feature takes three values. The softmax cancels the destination's term, so
# a destination's in-edges from sources of one value tie, and the scores
# spread so little that the first round hands most edges to the sweep.
MAKE_SWEEP_GRAPH = ("import json, sys; import numpy as np; from edgepool import gen_synthetic; "
                    "from edgepool.graph import graph_to_json; "
                    "g = gen_synthetic('sbm_node_task', {'blocks': 4, 'nodes_per_block': 500, "
                    "'p_in': 0.03, 'p_out': 0.001}, seed=6).graph; "
                    "g = g.with_node_features(0.05 * (np.arange(g.num_nodes) % 3)[:, None]); "
                    "open(sys.argv[1], 'w', encoding='utf-8').write(json.dumps(graph_to_json(g)))")

# (run name, CLI arguments); "{in}" is the inputs directory, and each run
# writes to --out <root>/<run name>.
RUNS = [
    ("pool_levels3", ["pool", "--input", "{in}/graph.json", "--levels", "3"]),
    ("pool_levels0", ["pool", "--input", "{in}/graph.json", "--levels", "0"]),
    ("pool_params", ["pool", "--input", "{in}/graph.json", "--params", "{in}/params.json",
                     "--levels", "2"]),
    ("pool_sweep_ties", ["pool", "--input", "{in}/sweep_graph.json", "--levels", "1"]),
    ("pool_tu", ["pool", "--tu", "{in}/tu", "P", "--index", "3", "--levels", "2"]),
    *[(f"train_graph_{p}", ["train-graph", "--tu", "{in}/tu", "P", "--folds", "2",
                            "--epochs", "2", "--pooling", p, "--quiet"])
      for p in ("edgepool", "none")],
    *[(f"train_node_{c}_{p}", ["train-node", "--synthetic", "sbm", "--epochs", "3",
                               "--conv", c, "--pooling", p, "--quiet"])
      for c in ("mean", "mlp") for p in ("edgepool", "none")],
    ("train_node_input", ["train-node", "--input", "{in}/task.json", "--epochs", "3", "--quiet"]),
    ("train_node_drawn", ["train-node", "--input", "{in}/task_drawn.json", "--epochs", "3",
                          "--quiet"]),
    ("gradcheck", ["gradcheck"]),
    ("gradcheck_seed1", ["gradcheck", "--seed", "1"]),
    ("gradcheck_layers", ["gradcheck", "--cases", "layers"]),
    ("bench", ["bench", "--min-edges", "1e3", "--max-edges", "1e3"]),
]


def _run(args: list[str], src: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {done.returncode}:\n{done.stderr}")


def run_set(src: Path, root: Path) -> None:
    """Write the inputs under ``root/inputs`` and each run's artifacts under ``root/<run>``."""
    inputs = root / "inputs"
    (inputs / "tu").mkdir(parents=True)
    (inputs / "graph.json").write_text(json.dumps(GRAPH), encoding="utf-8")
    (inputs / "params.json").write_text(json.dumps(PARAMS), encoding="utf-8")
    _run(["-c", MAKE_TU, str(inputs / "tu")], src)
    _run(["-c", MAKE_TASK, str(inputs / "task.json")], src)
    _run(["-c", MAKE_DRAWN_TASK, str(inputs / "task_drawn.json")], src)
    _run(["-c", MAKE_SWEEP_GRAPH, str(inputs / "sweep_graph.json")], src)
    for name, args in RUNS:
        args = [a.replace("{in}", str(inputs)) for a in args]
        _run(["-m", "edgepool.cli", *args, "--out", str(root / name)], src)


def _normalized_manifest(path: Path, root: Path) -> bytes:
    manifest = json.loads(path.read_text(encoding="utf-8").replace(str(root), ROOT_TOKEN))
    for stamp in ("started", "ended"):
        manifest.pop(stamp)
    return json.dumps(manifest, indent=2, sort_keys=True).encode()


def digests(root: Path) -> dict[str, str]:
    """``{run/file: sha256}`` of every file under ``root`` but the ``TIMED`` ones."""
    out = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix()
        if rel in TIMED:
            continue
        data = (_normalized_manifest(path, root) if path.name == "manifest.json"
                else path.read_bytes())
        out[rel] = hashlib.sha256(data).hexdigest()
    return out


def differing(a: dict[str, str], b: dict[str, str]) -> list[str]:
    """Sorted names whose digests differ between ``a`` and ``b``, or that one lacks."""
    return sorted(rel for rel in a.keys() | b.keys() if a.get(rel) != b.get(rel))


def tree_digests(src: Path) -> dict[str, str]:
    """:func:`digests` of the run set written with the ``edgepool`` under ``src``."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        run_set(src, root)
        return digests(root)


def main(argv: list[str]) -> int:
    if len(argv) > 2:
        print("usage: artifacts.py [SRC | PARENT_SRC CHANGE_SRC]", file=sys.stderr)
        return 2
    runs = [tree_digests(Path(a).resolve()) for a in argv or [SRC]]
    if len(runs) == 2:
        lines = differing(*runs)
    else:
        lines = [f"{sha}  {rel}" for rel, sha in runs[0].items()]
    for line in lines:
        print(line)
    return 1 if len(runs) == 2 and lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
