#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload inproc_fullstack --seed 1 --seconds 50 --trace 0

builds the Go benchmark in perfbench/ with every build artefact under
.bench_build/ in the checkout, runs one workload, and passes its output
through: the last line is the JSON result. With --repeat N it runs the
workload N times on consecutive seeds and prints each metric's median,
quartiles and quartile spread, the numbers the bounds in BENCHMARK.json
are set and proved with.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
# One run's own limit; the benchmark itself ends well inside it.
RUN_TIMEOUT = 170


def build():
    """Compile the benchmark against the checkout's sources."""
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.exit("perfbench: no go.mod at %s; run from a full checkout" % ROOT)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOFLAGS": "-mod=mod",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })
    os.makedirs(BUILD, exist_ok=True)
    done = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env)
    if done.returncode != 0:
        sys.exit("perfbench: build failed")


def run_once(args, seed, capture):
    cmd = [BINARY, "-workload", args.workload, "-seed", str(seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")
    if done.returncode != 0:
        sys.exit(done.returncode)
    return done.stdout


def repeat(args):
    values, failed, incorrect = {}, 0, 0
    for i in range(args.repeat):
        seed = args.seed + i
        out = run_once(args, seed, capture=True).decode()
        result = json.loads(out.strip().splitlines()[-1])
        failed += result["failed"]
        incorrect += 0 if result["correct"] else 1
        print("seed %d: correct=%s attempted=%d failed=%d" % (
            seed, result["correct"], result["attempted"], result["failed"]), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, (m["unit"], []))[1].append(m["value"])
    summary = {}
    print("%-34s %14s %14s %14s %8s  %s" % ("metric", "q1", "median", "q3", "spread", "unit"))
    for name in sorted(values):
        unit, xs = values[name]
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "unit": unit}
        print("%-34s %14.6g %14.6g %14.6g %8.4f  %s" % (name, q1, med, q3, spread, unit))
    print(json.dumps({"runs": args.repeat, "incorrect": incorrect, "failed": failed,
                      "metrics": summary}))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="run N times on seeds seed..seed+N-1 and summarise")
    args = ap.parse_args()
    build()
    if args.repeat > 0:
        repeat(args)
    else:
        run_once(args, args.seed, capture=False)


if __name__ == "__main__":
    main()
