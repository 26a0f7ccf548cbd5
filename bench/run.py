"""Run one benchmark workload and print its result as the last line of stdout.

Run from the repository root:

    python3 bench/run.py --workload stream_paper --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see bench/README.md). Lines before the last give
every figure by name and unit, the output-check result and the
environment; the full result, and the spans of a traced run, are written
under .bench_out/. Exits 2 when classvoice cannot be imported from ./src.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

OUT_DIR = Path(".bench_out")


def pin_blas_threads() -> int:
    """One BLAS thread per usable core; must run before numpy is imported."""
    n = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def git_commit() -> str:
    """The checked-out commit read from .git, or "unknown" outside a git checkout."""
    head = Path(".git/HEAD")
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = Path(".git") / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = Path(".git/packed-refs")
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def blas_threads_in_effect() -> int | None:
    """Ask the OpenBLAS numpy loaded how many threads it uses; None if it cannot be asked."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int, nproc: int) -> dict:
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cores": nproc,
        "blas_threads_requested": nproc,
        "blas_threads_in_effect": blas_threads_in_effect(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "commit": git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("stream_paper", "train_reduced", "simulate_16k"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    nproc = pin_blas_threads()
    sys.path.insert(0, str(Path.cwd() / "src"))
    try:
        import classvoice  # noqa: F401
    except ImportError as exc:
        print(f"bench: cannot import classvoice from ./src ({exc}); run from the repository root", file=sys.stderr)
        return 2
    import workloads

    env = environment(args.seed, nproc)
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), OUT_DIR)
    checks = result.checks
    reported = result.per_layer if args.trace else result.end_to_end

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "figures": {k: {"value": v, "unit": u} for k, (v, u) in result.figures.items()},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
        "checks": {"attempted": checks.attempted, "failed": checks.failed, "failures": checks.failures},
        "timings_s": result.timings,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if result.spans is not None:
        result.spans.write_spans(OUT_DIR / f"{stem}.spans.jsonl")

    print(f"environment: {json.dumps(env)}")
    for name, (value, unit) in {**result.figures, **reported}.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    if args.trace:
        print("note: *.gflop values are computed from tensor shapes, not measured")
    print(f"checks: {checks.attempted} attempted, {checks.failed} failed")
    for failure in checks.failures:
        print(f"  FAILED: {failure}")
    print(
        json.dumps(
            {
                "correct": checks.failed == 0,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
