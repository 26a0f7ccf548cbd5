"""Record simulate_16k output digests for a range of seeds into sim_digests.json.

Run from the repository root, on the commit whose outputs are the reference:

    python3 bench/record_digests.py 0 64

Each seed costs one simulate_16k job (about 13 s on a 2-core box). Seeds
already in the file are kept unless recomputed.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import workloads  # noqa: E402


def main(argv) -> int:
    first, stop = int(argv[1]), int(argv[2])
    size = workloads.SimSize()
    path = workloads.DIGESTS_PATH
    table = {"counts": list(size.counts), "t60_mix": list(size.t60_mix), "seeds": {}}
    table["seeds"] = workloads.recorded_digests(size) if path.exists() else {}
    root = Path(".bench_out")
    root.mkdir(exist_ok=True)
    for seed in range(first, stop):
        work = Path(tempfile.mkdtemp(prefix="digests-", dir=root))
        try:
            corpora = workloads.write_corpora(work / "corpora", seed)
            dataset_seed = workloads.stratified_dataset_seed(seed, size)
            workloads.sim_job(corpora, dataset_seed, size, work / "ds")
            table["seeds"][str(seed)] = workloads.dataset_digests(work / "ds")
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(seed, table["seeds"][str(seed)]["wav"][:16], flush=True)
    table["seeds"] = dict(sorted(table["seeds"].items(), key=lambda kv: int(kv[0])))
    path.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
