"""End-to-end benchmark of the Marlin reproduction.

Run from the repository root::

    python3 e2ebench/run.py --workload fanin_dcqcn --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same workload with the layer ledger on and reports the per-layer metrics.
Progress and a stamp of what actually ran go to standard output as JSON
lines; the last line is the result::

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}

The exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads  # after the path set-up: it imports the program

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    tmp = work_root / "tmp"
    # Keep temporary files (multiprocessing's sockets) in the checkout,
    # unless their paths would pass the 107-byte AF_UNIX limit.
    if len(str(tmp)) <= 60:
        tmp.mkdir(exist_ok=True)
        os.environ["TMPDIR"] = tempfile.tempdir = str(tmp)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    started = time.perf_counter()
    try:
        out = workloads.WORKLOADS[args.workload](
            args.workload, args.seed, args.seconds, workdir, bool(args.trace)
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    deadline = time.monotonic() + 10.0
    while workloads.child_pids() and time.monotonic() < deadline:
        time.sleep(0.05)
    leftover = workloads.child_pids()
    if leftover:
        out.fail(f"processes left running: {leftover}")
    units = dict(workloads.PER_LAYER if args.trace else workloads.END_TO_END)
    missing = sorted(set(units) - set(out.metrics))
    if missing:
        out.fail(f"metrics not measured: {missing}")
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "wall_s": time.perf_counter() - started, "stamp": out.stamp,
        "samples": out.samples, "unscaled": out.raw,
        "failures": out.failures,
    }))
    failed = len(out.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(out.attempted, failed, 1),
        "failed": failed,
        "metrics": {
            name: {"value": float(out.metrics[name]), "unit": unit}
            for name, unit in units.items() if name in out.metrics
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
