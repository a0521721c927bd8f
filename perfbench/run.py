#!/usr/bin/env python3
"""pgcodes benchmark: one workload per process, or all of them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run it from the root of a source checkout.  pgcodes is imported from ./src,
not installed, and the CLI subprocesses get ./src on PYTHONPATH.  With
--trace 0 a run prints the end-to-end metrics, with --trace 1 the per-layer
metrics from spans; the last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  Spec files, CLI reports and
span files go to ./.perfbench_out.  `--workload all` runs every workload
untraced and traced, each in a fresh process, and prints the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# One BLAS thread here and in every CLI child: the workloads are single
# threaded by definition, and a second thread on a shared 2-vCPU machine
# mostly adds noise.  Must be set before numpy is imported.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=8.0,
                    help="in-process pipeline time to measure (whole rounds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_one(args, bench) -> int:
    wl = bench.WORKLOADS[args.workload]
    result, errors, notes = bench.run(wl, args.seed, args.seconds, bool(args.trace), OUT, SRC)
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}")
    for line in notes:
        print(f"  {line}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}")
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args, names) -> int:
    ok = True
    for name in names:
        results = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            try:
                results[trace] = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"  {name} trace {trace}: no result (exit {proc.returncode})")
                ok = False
                continue
            ok &= proc.returncode == 0 and results[trace]["correct"]
        if len(results) == 2:
            plain = results[0]["metrics"]["codewords_per_s"]["value"]
            traced = results[1]["metrics"]["trace.codewords_per_s"]["value"]
            print(f"  tracing overhead on {name}: codewords_per_s {plain:.6g} untraced, "
                  f"{traced:.6g} traced ({100 * (plain - traced) / plain:+.1f} %)")
        print()
    print("all workloads correct" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pgcodes" / "__init__.py").is_file():
        print(f"error: no pgcodes sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import bench
    names = list(bench.WORKLOADS)
    if args.workload == "all":
        return run_all(args, names)
    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {names} or all",
              file=sys.stderr)
        return 2
    return run_one(args, bench)


if __name__ == "__main__":
    sys.exit(main())
