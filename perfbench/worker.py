"""One workload's process: set-up, then timed operations, then the checks.

Started by run.py as `python3 perfbench/worker.py ROOT WORKLOAD ...`.  It
prints `ready` once diracband is imported and the once-per-process caches
its operations read are warm; run.py times set-up up to that line.  With
`--setup-only` it stops there.  Otherwise it runs whole operations until
`--seconds` of wall time have passed (at least one), checks each one's
artifacts outside the timed region, and prints one JSON line of results.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback


def _setup(root: str, workload: str, tracer) -> None:
    sys.path.insert(0, os.path.join(root, "src"))
    start = time.perf_counter()
    import diracband.cli  # noqa: F401  (imports every module)
    if tracer is not None:
        tracer.record("setup.import", start, time.perf_counter())
        tracer.install()
    from diracband import fields, gauge
    if workload == "thomas_scan":
        gauge.default_kernel_constant()
    elif workload == "direction_search":
        from workloads import PIPELINE_H, PIPELINE_H1
        fields.MeasureSpec.plateau(PIPELINE_H, PIPELINE_H1)


def _environment(root: str, workload: str, threads) -> dict:
    import numpy as np
    import scipy
    from workloads import threads_for, usable_cores
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lines = 0
    for base, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), encoding="utf-8") as fh:
                    lines += sum(1 for _ in fh)
    threads = threads_for(workload, threads)
    return {
        "usable_cores": usable_cores(),
        "threads": "cli default (1)" if threads is None else threads,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{var: os.environ.get(var) for var in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "src_lines": lines,
    }


def _check(workload: str, config: dict, out_dir: str, rng) -> list:
    import checks

    def read(name):
        with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
            return fh.read()

    if workload == "thomas_scan":
        report = json.loads(read("verify-thomas.json"))
        sigma = report["sigma_table"]
        worst = min(((i, j) for i in range(len(sigma))
                     for j in range(len(sigma[0]))),
                    key=lambda ij: sigma[ij[0]][ij[1]])
        other = (int(rng.integers(len(sigma))), int(rng.integers(len(sigma[0]))))
        return checks.check_thomas(config, report, sorted({worst, other}))
    if workload == "band_sweep":
        samples = config["bands"]["samples"]
        rows = sorted({0, int(rng.integers(1, samples))})
        return checks.check_bands(config, read("bands.csv"), rows)
    return checks.check_direction(config, json.loads(read("find-gamma.json")))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("root")
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", default=None,
                        help="write spans to this JSON Lines file")
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    _setup(args.root, args.workload, tracer)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    import numpy as np
    import diracband.cli
    import workloads

    work_dir = os.path.join(args.root, "perfbench", "out",
                            f"{args.workload}-{os.getpid()}")
    walls, cpus, problems = [], [], []
    failed = 0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        index = len(walls)
        os.makedirs(work_dir, exist_ok=True)
        argv, config = workloads.prepare(args.workload, args.seed, index,
                                         work_dir, args.threads)
        if tracer is not None:
            tracer.op = index
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            code = diracband.cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = None
        w1, c1 = time.perf_counter(), time.process_time()
        walls.append(w1 - w0)
        cpus.append(c1 - c0)
        if code in (0, 2):
            rng = np.random.default_rng([args.seed, index, 1])
            problems += [f"op {index}: {p}" for p in
                         _check(args.workload, config,
                                os.path.join(work_dir, "out"), rng)]
        else:
            failed += 1
            print(f"op {index} failed with exit code {code}", file=sys.stderr)
        shutil.rmtree(work_dir)

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    result = {
        "attempted": len(walls),
        "failed": failed,
        "correct": not problems,
        "op_s": statistics.median(walls),
        "op_cpu_s": statistics.median(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": _environment(args.root, args.workload, args.threads),
    }
    if tracer is not None:
        import tracing
        tracer.write(args.trace)
        result["per_layer"] = tracing.layer_metrics(tracer.spans, len(walls))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
