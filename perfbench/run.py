"""patchcc benchmark.

    python3 perfbench/run.py --workload {train,infer,localmap} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout: the program is imported from ./src. The
last line of standard output is the result object; lines before it starting
with '#' are for people. The full report, run facts included, is written to
perfbench/results/<workload>-seed<N>-trace<T>.json. Exits 1 when an output
check fails and 2 when the checkout has no sources.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train", "infer", "localmap")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="patchcc benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "patchcc" / "__init__.py").is_file():
        print(f"error: no patchcc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "train":
        # One BLAS thread, set before numpy loads: the train workload's 64-patch
        # matrices are too small for OpenBLAS threads to pay off, and their
        # hand-offs on a busy 2-core machine made its figures swing twice as
        # much as with one thread (recorded in the report's facts).
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(ROOT / "src"))
    import bench_run

    report = bench_run.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    out_dir = ROOT / "perfbench" / "results"
    os.makedirs(out_dir, exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(f"# facts {json.dumps(report['facts'], sort_keys=True)}")
    for key, value in sorted(report["results"].items()):
        print(f"# {args.workload}.{key} = {value}")
    for problem in report["problems"]:
        print(f"# CHECK FAILED: {problem}")
    for failure in report["failures"]:
        print(f"# operation failed: {failure}")
    print(f"# report written to {out_path.relative_to(ROOT)}")
    line = report["line"]
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
