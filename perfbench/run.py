#!/usr/bin/env python3
"""Build and run the fbfly host-time benchmark (see README.md here).

Run from the repository root:

  python3 perfbench/run.py --workload paper_1k --seed 1 --seconds 28 --trace 0

builds the benchmark binary (CMake, Release) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), runs one workload in its own process
and passes its output through; the last stdout line is the result JSON.

Two more modes, for people tuning or checking the benchmark:

  --steady N      run each workload N times, seeds seed..seed+N-1, and
                  print the median, quartiles and quartile spread of
                  every end-to-end metric next to its bound;
  --determinism   run each workload twice untraced and once traced at
                  one seed and check that the result digests agree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["paper_1k", "flat3_32k", "churn_service", "design_search"]
RUN_TIMEOUT_S = 175


def build():
    """Configure on first use, then bring the binary up to date."""
    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bdir = os.path.join(out, "perfbench")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(bdir, "perfbench")


def run_once(binary, workload, seed, seconds, trace, echo):
    """One benchmark process; returns (result, meta) or raises."""
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
        check=False)
    lines = proc.stdout.splitlines()
    if echo:
        for line in lines:
            print(line)
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s exited with %d" % (workload, proc.returncode))
    meta = {}
    for line in lines:
        if line.startswith("meta "):
            meta = json.loads(line[5:])
    return json.loads(lines[-1]), meta


def bounds():
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m for m in spec.get("end_to_end", [])}


def steady(binary, workloads, seed, seconds, runs):
    """Quartile spread of every end-to-end metric over `runs` seeds."""
    bound = bounds()
    ok = True
    for w in workloads:
        values = {}
        for i in range(runs):
            res, meta = run_once(binary, w, seed + i, seconds, 0, False)
            if not res["correct"] or res["failed"]:
                ok = False
                print("# %s seed %d: correct=%s, %d of %d points failed"
                      % (w, seed + i, res["correct"], res["failed"],
                         res["attempted"]), flush=True)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("# %s seed %d: load %.2f -> %.2f, setup_s %.6g, "
                  "wall_s %.6g" % (
                      w, seed + i, meta.get("loadavg1_start", -1),
                      meta.get("loadavg1_end", -1),
                      values["setup_s"][-1], values["wall_s"][-1]),
                  flush=True)
        print("%-14s %-16s %12s %12s %12s %7s %6s" % (
            "workload", "metric", "q1", "median", "q3", "spread", "bound"))
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            b = bound.get(name, {}).get("bound")
            flag = ""
            if b is not None and spread > b / 3:
                flag = "  WIDE"
            print("%-14s %-16s %12.6g %12.6g %12.6g %6.1f%% %6s%s" % (
                w, name, q1, med, q3, 100 * spread,
                "-" if b is None else "%.0f%%" % (100 * b), flag),
                flush=True)
    return ok


def determinism(binary, workloads, seed, seconds):
    ok = True
    for w in workloads:
        digests = []
        for trace in (0, 0, 1):
            res, meta = run_once(binary, w, seed, seconds, trace, False)
            ok = ok and res["correct"]
            digests.append(meta.get("digest"))
        same = len(set(digests)) == 1 and digests[0] is not None
        ok = ok and same
        print("%-14s %s %s" % (w, "match" if same else "DIFFER",
                               " ".join(map(str, digests))), flush=True)
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, metavar="N")
    ap.add_argument("--determinism", action="store_true")
    args = ap.parse_args()

    try:
        binary = build()
        workloads = [args.workload] if args.workload else WORKLOADS
        if args.steady:
            return 0 if steady(binary, workloads, args.seed, args.seconds,
                               args.steady) else 1
        if args.determinism:
            return 0 if determinism(binary, workloads, args.seed,
                                    args.seconds) else 1
        if not args.workload:
            ap.error("--workload is required")
        run_once(binary, args.workload, args.seed, args.seconds,
                 args.trace, True)
    except (OSError, RuntimeError, ValueError,
            subprocess.SubprocessError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
