"""Run one edgepool benchmark workload and print its metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload graph_train --seed 0 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
lines before it give each metric's sample count and tail, and the run's
metadata. The package is imported from ``src/`` next to this directory;
without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Linear algebra runs on one thread: on two cores OpenBLAS's default of two
# threads made node_train epochs less repeatable (see README.md).
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

WORKLOAD_NAMES = ("graph_train", "node_train", "pool_1e6")

END_TO_END_UNITS = {
    "setup_s": "s",
    "epoch_s": "s",
    "eval_pass_s": "s",
    "pool_fwd_s": "s",
    "pool_bwd_s": "s",
    "peak_mem_mb": "MB",
}


def _import_package():
    """Import edgepool from this checkout's ``src``; None when it is not there."""
    package_dir = ROOT / "src" / "edgepool"
    if not (package_dir / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(ROOT / "src"))
    import edgepool

    if Path(edgepool.__file__).resolve().parent != package_dir.resolve():
        return None
    return edgepool


def _tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    q = math.floor(100 * (n - 10) / n) if n > 10 else 0
    if q <= 50:
        return f"max={max(samples):.6g}"
    return f"p{q}={statistics.quantiles(samples, n=100, method='inclusive')[q - 1]:.6g}"


def _git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> dict:
    """BLAS build numpy reports, and the thread count its OpenBLAS is using."""
    import ctypes
    import glob

    import numpy as np

    info = {"env_threads": BLAS_THREADS}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["library"] = "unknown"
    # numpy wheels bundle scipy-openblas under numpy.libs.
    pattern = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                           "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        get_threads = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if get_threads is not None:
            get_threads.restype = ctypes.c_int
            info["threads"] = get_threads()
    return info


def metadata(args) -> dict:
    import numpy as np

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": _cpu_model(),
        "blas": _blas(),
        "git_commit": _git_commit(),
    }


def _result(ledger, metrics: dict) -> dict:
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }


def report_untraced(out: dict) -> dict:
    import speed

    ledger = out["ledger"]
    metrics = {}
    for name, samples in out["samples"].items():
        if not samples:  # only after a failure, which the result reports
            metrics[name] = {"value": 0.0, "unit": END_TO_END_UNITS[name]}
            print(f"{name:<12} no samples")
            continue
        value = statistics.median(samples)
        metrics[name] = {"value": value, "unit": END_TO_END_UNITS[name]}
        wall = statistics.median(out["raw"][name])
        print(f"{name:<12} median={value:.6g} s  {_tail(samples)} s  n={len(samples)}"
              f"  (wall median={wall:.6g} s)")
    probes = out["probes"]
    print(f"{'probe':<12} median={statistics.median(probes):.6g} s  min={min(probes):.6g} s  "
          f"max={max(probes):.6g} s  n={len(probes)}  (reference {speed.REFERENCE_S} s)")
    metrics["peak_mem_mb"] = {"value": out["peak_mem_mb"], "unit": "MB"}
    print(f"{'peak_mem_mb':<12} {out['peak_mem_mb']:.6g} MB  (one untimed pass)")
    frac = ledger.failed / max(ledger.attempted, 1)
    print(f"{'failed_frac':<12} {frac:.6g}  ({ledger.failed} of {ledger.attempted} operations)")
    return _result(ledger, {name: metrics[name] for name in END_TO_END_UNITS})


def report_traced(out: dict) -> dict:
    import workloads

    print(f"traced units={out['units']}  traced median={out['traced_unit_s']:.6g} s  "
          f"untraced median={out['plain_unit_s']:.6g} s")
    metrics = {}
    for name, unit in workloads.PER_LAYER_UNITS.items():
        value = out["values"][name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:<32} {value:.6g} {unit}")
    stages = sum(out["by_name"].get(name, 0.0) for name in workloads.POOL_STAGE_SPANS)
    line = f"pooling stage self times, traced: {stages:.6g} s per unit"
    if out["plain_pool_s"] is not None:
        ratio = stages / out["plain_pool_s"] - 1.0
        line += (f"; untraced pool_fwd_s + pool_bwd_s: {out['plain_pool_s']:.6g} s"
                 f" (traced/untraced - 1 = {ratio:.4g})")
    print(line)
    return _result(out["ledger"], metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if _import_package() is None:
        print(f"error: no edgepool package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    if args.trace:
        out = workloads.run_traced(args.workload, args.seed, args.seconds)
        result = report_traced(out)
    else:
        out = workloads.run_untraced(args.workload, args.seed, args.seconds)
        result = report_untraced(out)
    for error in out["ledger"].errors:
        print(error, file=sys.stderr)
    print("meta " + json.dumps(metadata(args), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.exit(main())
