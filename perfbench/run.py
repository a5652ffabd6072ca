"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository. Prints each metric by name
and unit, then, as the last line, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of BENCHMARK.json
with `--trace 0`, the per-layer metrics with `--trace 1` (which also writes
the spans to perfbench/out/trace-<workload>-seed<seed>.json).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# one render worker plus one BLAS thread: at most nproc (2) busy threads;
# must be set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("VOLSAMPLER_THREADS", None)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("learned-sampler", "probe-lift", "dense-render")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = ROOT / "src"
    if not (src / "volsampler" / "__init__.py").is_file():
        print(f"perfbench: no volsampler sources at {src}; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import numpy as np
    from workloads import run_workload

    np.seterr(all="ignore")  # as `volsampler` itself runs (cli.main)
    out_root = HERE / "out"
    out_root.mkdir(exist_ok=True)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          out_root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
