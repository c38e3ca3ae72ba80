"""spheremesh benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (param_large, param_batch or remesh) from the root of a
checkout against the library in its ``src/``, single-threaded.  The
inputs come from ``--seed``; the timed cycles fill ``--seconds``; the
outputs are checked.  The next-to-last line of standard output is a JSON
summary (environment, every metric with its unit, each operation and its
failing stage); the last line is the result: ``correct``, ``attempted``,
``failed`` and the end-to-end metrics (``--trace 0``) or the per-layer
metrics of a traced run (``--trace 1``).  The full record, spans
included, goes to ``bench/_work/records/``.  See bench/README.md.
"""

import argparse
import json
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# BLAS and OpenMP pools are capped before numpy is first imported
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
WORKLOADS = ("param_large", "param_batch", "remesh")


def load_library(root=ROOT):
    """Import spheremesh from ``root/src`` and nowhere else."""
    src = root / "src"
    sys.path.insert(0, str(src))
    try:
        import spheremesh
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import spheremesh from {src}: {exc}")
    if src.resolve() not in Path(spheremesh.__file__).resolve().parents:
        raise SystemExit(f"bench: spheremesh was imported from {spheremesh.__file__}, not {src}")
    return spheremesh


def parse_args(argv):
    parser = argparse.ArgumentParser(description="spheremesh benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    load_library()
    sys.path.insert(0, str(BENCH))
    import workloads

    summary, result, cycles = workloads.run(
        args.workload, args.seed, args.seconds, args.trace, ROOT
    )
    records = workloads.WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    spans = [c.tracer.spans for c in cycles if c.tracer is not None]
    with open(records / name, "w") as fh:
        json.dump({"summary": summary, "result": result, "spans": spans}, fh)
    print(json.dumps(summary))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
