#!/usr/bin/env python3
"""End-to-end serve benchmark: build, run one workload, print metrics.

Run from the root of a checkout:

    python3 servebench/run.py --workload mixed_distinct --seed 1 \
        --seconds 40 --trace 0

builds `servebench` (servebench/CMakeLists.txt, into .bench_build/),
runs the workload in fresh processes, and prints as its last stdout line
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are its per-layer metrics, from a traced run of the same
workload and seed (EKTELO_TRACE=1) next to an untraced one.

    python3 servebench/run.py --steady --workload large_domain --runs 10
    python3 servebench/run.py --steady --workload large_domain --runs 10 \
        --against ../other-checkout

runs one workload repeatedly on successive seeds (alternating the two
checkouts when --against is given) and prints, per end-to-end metric,
the median, the quartiles and (q3 - q1) / median, flagging a spread or a
median difference beyond the metric's bound.  See servebench/NOTES.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".bench_build"  # relative to ROOT, like everything the run writes
OUT_DIR = ".bench_out"
BINARY = os.path.join(BUILD_DIR, "servebench")
# Set-up is timed in this many fresh processes (the measured run
# included); setup_s is their median.
SETUP_SAMPLES = 5
# A p99 needs at least 10 samples beyond it.
MIN_OPEN_SAMPLES = 1000


def run_budget_s(seconds):
    """Wall time one run may take after the build: 170 s at the default
    40 s, and more for longer runs."""
    return max(170.0, 4.0 * seconds + 10.0)


def fail(msg, code=2):
    print("servebench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_json(rel):
    with open(os.path.join(ROOT, rel)) as f:
        return json.load(f)


def build():
    """Configures once and (re)builds the benchmark binary; quiet unless it fails."""
    if not os.path.exists(os.path.join(ROOT, "src", "serve", "server.h")):
        fail("no engine sources next to servebench/; run from a full checkout")
    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
    log = os.path.join(ROOT, OUT_DIR, "build.log")
    steps = []
    if not os.path.exists(os.path.join(ROOT, BUILD_DIR, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", "servebench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "servebench",
                  "-j", "4"])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, cwd=ROOT, stdout=f, stderr=subprocess.STDOUT).returncode:
                with open(log) as g:
                    sys.stderr.write(g.read()[-4000:])
                fail("build failed: " + " ".join(cmd))


def check_environment():
    """The untraced numbers are only comparable with every knob at its default."""
    knobs = sorted(k for k in os.environ if k.startswith("EKTELO_"))
    if knobs:
        fail("refusing to run with " + ", ".join(knobs) + " set; the workload "
             "sets its own EKTELO_THREADS (and EKTELO_TRACE for the traced run)")


def workload_spec(name):
    """The binary's own record of the workload (`servebench --describe`)."""
    out = subprocess.run([BINARY, "--describe"], cwd=ROOT, capture_output=True,
                         text=True, check=True).stdout
    described = json.loads(out)
    if name not in described:
        fail("unknown workload %r (have: %s)" % (name, ", ".join(described)))
    return described[name]


def source_key():
    """Content hash of the engine and benchmark sources: one 'commit'."""
    h = hashlib.sha256()
    for top in ("src", "servebench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for p in sorted(files):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


class Runner:
    def __init__(self, workload, seed, seconds, spec):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.threads = str(int(spec["EKTELO_THREADS"]))
        self.budget = run_budget_s(seconds)
        self.deadline = time.monotonic() + self.budget
        self.count = 0

    def child(self, traced=False, setup_only=False):
        """One fresh benchmark process; returns its RESULT object."""
        self.count += 1
        tmp = os.path.join(OUT_DIR, "run-%d-%d" % (os.getpid(), self.count))
        env = dict(os.environ, EKTELO_THREADS=self.threads)
        if traced:
            env["EKTELO_TRACE"] = "1"
        cmd = [BINARY, "--workload", self.workload, "--seed", str(self.seed),
               "--seconds", str(self.seconds), "--tmp", tmp]
        if setup_only:
            cmd.append("--setup-only")
        try:
            p = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                               text=True,
                               timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail("run exceeded %.0f s" % self.budget)
        finally:
            shutil.rmtree(os.path.join(ROOT, tmp), ignore_errors=True)
        sys.stderr.write(p.stderr)
        result = None
        for line in p.stdout.splitlines():
            if line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            elif not setup_only:
                print(("[traced] " if traced else "") + line)
        if result is None:
            fail("benchmark process exited %d without a result" % p.returncode)
        if not setup_only and result["open_samples"] < MIN_OPEN_SAMPLES:
            fail("the open loop collected %d samples, fewer than %d; raise "
                 "--seconds" % (result["open_samples"], MIN_OPEN_SAMPLES))
        for e in result.get("errors", []):
            print("CORRECTNESS: " + e)
        return result


def check_digest(result):
    """Replies are a pure function of (sources, workload, seed): a stored
    digest from an earlier run of the same sources must match."""
    d = os.path.join(ROOT, OUT_DIR, "digests")
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, "%s-%s-%s" % (source_key(), result["workload"], result["seed"]))
    if os.path.exists(path):
        with open(path) as f:
            if f.read().strip() != result["digest"]:
                print("CORRECTNESS: reply digest differs from an earlier run "
                      "of the same sources and seed")
                return False
    else:
        with open(path, "w") as f:
            f.write(result["digest"] + "\n")
    return True


def emit(correct, attempted, failed, values, specs):
    metrics = {}
    for m in specs:
        if m["name"] not in values:
            fail("the run produced no value for metric " + m["name"])
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    sys.exit(0 if correct else 1)


def run_once(args):
    check_environment()
    build()
    spec = workload_spec(args.workload)
    bench = load_json("BENCHMARK.json")
    r = Runner(args.workload, args.seed, args.seconds, spec)
    print("workload %s seed %d seconds %g threads %s" %
          (args.workload, args.seed, args.seconds, r.threads))
    if args.trace == 0:
        setups = [r.child(setup_only=True)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        main = r.child()
        setups.append(main["setup_s"])
        main.update(workload=args.workload, seed=args.seed)
        correct = main["correct"] and check_digest(main)
        values = dict(main, setup_s=statistics.median(setups))
        print("setup_s samples: %s (server start + connect %.4f s)" % (
            " ".join("%.4f" % s for s in setups), main["start_s"]))
        print("p99 over %d open-loop samples" % main["open_samples"])
        emit(correct, main["attempted"], main["failed"], values, bench["end_to_end"])
    plain = r.child()
    traced = r.child(traced=True)
    correct = plain["correct"] and traced["correct"]
    if plain["digest"] != traced["digest"]:
        print("CORRECTNESS: traced and untraced replies differ")
        correct = False
    plain.update(workload=args.workload, seed=args.seed)
    correct = check_digest(plain) and correct
    values = dict(traced["per_layer"])
    values["trace.overhead_pct"] = 100.0 * (traced["p50_ms"] / plain["p50_ms"] - 1.0)
    emit(correct, traced["attempted"], traced["failed"], values, bench["per_layer"])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steady(args):
    check_environment()
    bench = load_json("BENCHMARK.json")
    sides = [ROOT] + ([os.path.abspath(args.against)] if args.against else [])
    values = [dict() for _ in sides]
    for i in range(args.runs):
        seed = args.first_seed + i
        order = list(range(len(sides)))
        if i % 2:
            order.reverse()
        for s in order:
            cmd = [sys.executable, os.path.join(sides[s], "servebench", "run.py"),
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            p = subprocess.run(cmd, cwd=sides[s], capture_output=True, text=True)
            last = (p.stdout.strip().splitlines() or [""])[-1]
            try:
                res = json.loads(last)
            except ValueError:
                sys.stderr.write(p.stdout[-2000:] + p.stderr[-2000:])
                fail("run %d on %s printed no result" % (i, sides[s]))
            if not res["correct"]:
                fail("run %d on %s was not correct" % (i, sides[s]))
            for k, v in res["metrics"].items():
                values[s].setdefault(k, []).append(v["value"])
            print("run %d seed %d side %d: %s" % (i, seed, s, " ".join(
                "%s=%.5g" % (k, v["value"]) for k, v in res["metrics"].items())),
                flush=True)
    print("\n%-16s %-5s %12s %12s %12s %8s %6s" %
          ("metric", "side", "median", "q1", "q3", "spread", "bound"))
    flagged = False
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        meds = []
        for s in range(len(sides)):
            v = values[s].get(name, [])
            if not v:
                continue
            q1, med, q3 = quartiles(v)
            spread = (q3 - q1) / med if med else float("inf")
            meds.append(med)
            flag = ""
            if spread > bound:
                flag, flagged = "  SPREAD > BOUND", True
            print("%-16s %-5d %12.6g %12.6g %12.6g %8.4f %6.3f%s" %
                  (name, s, med, q1, q3, spread, bound, flag))
        if len(meds) == 2:
            worse = (meds[1] - meds[0]) / meds[0]
            if m["better"] == "higher":
                worse = -worse
            if worse > bound:
                flagged = True
            print("%-16s delta  %+.4f of side 0 (worse if > %.3f)%s" %
                  (name, worse, bound, "  WORSE > BOUND" if worse > bound else ""))
    sys.exit(1 if flagged else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", action="store_true")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--against", default=None)
    args = ap.parse_args()
    if args.seconds is None:
        args.seconds = load_json("BENCHMARK.json")["run_seconds"]
    if not args.seconds > 0:
        fail("--seconds must be positive")
    steady(args) if args.steady else run_once(args)


if __name__ == "__main__":
    main()
