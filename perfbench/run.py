"""Run one workload of the certilin benchmark and print its metrics.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload large-prove --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines above
it are a readable report.  See perfbench/README.md.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("large-prove", "small-trials", "verify-replay"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "certilin" / "__init__.py").is_file():
        print(f"error: no certilin sources under {SRC}", file=sys.stderr)
        return 1
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import bench

    trace_path = (ROOT / "perfbench" / "traces" / f"{args.workload}-seed{args.seed}.tsv.gz"
                  if args.trace else None)
    out = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), trace_path)
    print(bench.format_report(args.workload, args.seed, out))
    if trace_path is not None:
        print(f"  spans written to {trace_path.relative_to(ROOT)}")
    print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
