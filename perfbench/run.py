"""One-shot pipeline benchmark: measures fedhire.run_one_shot from outside.

    python3 perfbench/run.py --workload client_loop --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py            # every workload, untraced and traced

Run from the root of a checkout; the program is imported from ``src``.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
# one process, one BLAS thread: set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
CHILD_TIMEOUT_S = 900


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def run_one(bench, args) -> int:
    import_s = time.perf_counter() - START
    workload = bench.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    cases, setup_wall_s, setup_calibration_s = bench.set_up(workload, args.seed)
    runner = bench.measure(workload, cases, args.seconds, bool(args.trace))

    for op in runner.ops:
        for reason in op.wrong + op.quality:
            print(f"seed {op.case.data_seed} ({op.mode}): {reason}", file=sys.stderr)
    needed = {bench.PLAIN, bench.SPANS, bench.MEMORY} if args.trace else {bench.PLAIN}
    if not all(any(op.mode == mode and not op.wrong for op in runner.ops) for mode in needed):
        print("perfbench: no operation passed the correctness checks", file=sys.stderr)
        return 1
    if args.trace:
        metrics = bench.per_layer(runner)
        runner.tracer.dump(bench.RESULTS_DIR / f"spans-{workload.name}-seed{args.seed}.json")
    else:
        setup_s = bench.hostspeed.at_reference(import_s + setup_wall_s, setup_calibration_s)
        metrics = bench.end_to_end(runner, setup_s)
    for name, (value, unit) in metrics.items():
        print(f"{workload.name:>16}  {name:<34} {value:>14.6g} {unit}")
    plain = [op for op in runner.ops if op.mode == bench.PLAIN and not op.wrong]
    print(f"{workload.name:>16}  wall time: set-up {import_s + setup_wall_s:.3f} s, "
          f"median call {statistics.median(op.seconds for op in plain):.3f} s; "
          f"calibration loop {statistics.median(op.calibration for op in plain):.4f} s "
          f"(reference {bench.hostspeed.REFERENCE_S} s)")
    print(f"{workload.name:>16}  mean ARI {sum(op.ari for op in plain) / len(plain):.3f}, "
          f"k-FED {sum(op.case.kfed_ari for op in plain) / len(plain):.3f} on the same plans")
    failed = sum(op.failed for op in runner.ops)
    print(f"{workload.name:>16}  operations attempted {len(runner.ops)}, failed {failed}")
    correct = not any(op.wrong for op in runner.ops)
    print(result_line(correct, len(runner.ops), failed, metrics))
    return 0


def run_all(bench, args) -> int:
    """Each workload in a fresh process (so peak RSS is its own), untraced
    and then traced."""
    correct, attempted, failed, metrics, status = True, 0, 0, {}, 0
    for name in bench.WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
            child = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                   timeout=CHILD_TIMEOUT_S)
            lines = child.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if child.returncode != 0 or not lines:
                status = child.returncode or 1
                continue
            result = json.loads(lines[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{name}.{metric}": (v["value"], v["unit"])
                            for metric, v in result["metrics"].items()})
    if status:
        return status
    print(result_line(correct, attempted, failed, metrics))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import bench
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    return run_one(bench, args) if args.workload else run_all(bench, args)


if __name__ == "__main__":
    sys.exit(main())
