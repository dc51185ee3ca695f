"""diracband benchmark: one workload, timed end to end or traced per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a diracband checkout.  Workloads: thomas_scan,
band_sweep, direction_search (see perfbench/README.md).

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics: setup_s (median of five fresh interpreters, each timed
from start to ready), op_s and op_cpu_s (medians over the run's operations)
and peak_rss_mb (the operations' process).  With --trace 1 a single traced
process runs the same loop and the metrics are the per-layer ones; its spans
go to perfbench/out/trace-WORKLOAD-seedN.jsonl.  The line before the result
records the environment.  The benchmark sets no BLAS or thread variable.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("thomas_scan", "band_sweep", "direction_search")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0


def _worker(args: list) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), ROOT] + args,
        stdout=subprocess.PIPE, text=True, cwd=ROOT)


def _until_ready(proc: subprocess.Popen, started: float) -> float:
    line = proc.stdout.readline()
    if line.strip() != "ready":
        raise RuntimeError("worker ended before set-up finished")
    return time.perf_counter() - started


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=None,
                        help="--threads for every operation instead of the "
                        "workload's own; only for reference figures")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.threads is not None and not 1 <= args.threads <= os.cpu_count():
        parser.error("--threads must lie between 1 and the core count")
    if not os.path.isfile(os.path.join(ROOT, "src", "diracband", "cli.py")):
        print("not a diracband checkout: src/diracband/cli.py is missing",
              file=sys.stderr)
        return 2

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    common = [args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds)]
    if args.threads is not None:
        common += ["--threads", str(args.threads)]
    trace_path = os.path.join(out_dir,
                              f"trace-{args.workload}-seed{args.seed}.jsonl")
    setups = []
    procs = []
    timer = threading.Timer(DEADLINE_S, lambda: [p.kill() for p in procs])
    timer.start()
    try:
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                started = time.perf_counter()
                probe = _worker(common + ["--setup-only"])
                procs.append(probe)
                setups.append(_until_ready(probe, started))
                probe.communicate()
        started = time.perf_counter()
        proc = _worker(common + (["--trace", trace_path] if args.trace else []))
        procs.append(proc)
        setups.append(_until_ready(proc, started))
        tail, _ = proc.communicate()
    except RuntimeError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        timer.cancel()
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()
    if proc.returncode != 0 or not tail.strip():
        print(f"worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(tail.strip().splitlines()[-1])

    if args.trace:
        metrics = res["per_layer"]
        info = {"traced_op_s": res["op_s"], "trace_file": trace_path}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_s": {"value": res["op_s"], "unit": "s"},
            "op_cpu_s": {"value": res["op_cpu_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        info = {"setup_samples_s": setups}
    print("environment " + json.dumps(
        {"workload": args.workload, "seed": args.seed, **res["env"], **info}))
    result = {"correct": res["correct"], "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    with open(os.path.join(out_dir, f"result-{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump(result, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
