#!/usr/bin/env python3
"""Build and run the dapsim host-speed benchmark.

Run from the root of a dapsim checkout:

    python3 hostbench/run.py --workload hetero8-sectored-dap \
        --seed 1 --seconds 10 --trace 0

The first call configures and builds `hostbench` (Release, LTO) from
../src into .bench_build/hostbench; later calls reuse the build. The
last line of standard output is the JSON result. Other modes:

    python3 hostbench/run.py --self-test [--workload NAME]
        two traced runs per workload must give identical counts and
        digests
    python3 hostbench/run.py --update-pins [--seeds 1,1009]
        recompute the pinned stats digests in hostbench/digests.json
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "hostbench")
BINARY = os.path.join(BUILD, "hostbench")
PINS = os.path.join(HERE, "digests.json")
WORKLOADS = [
    "hetero8-sectored-dap",
    "l3resident8-sectored-dap",
    "wburst-tiered-dap",
    "alloy-policy-sweep",
]
PINNED_SEEDS = [1, 1009]  # default seed, held-out seed


def fail(msg):
    print("hostbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources (src/CMakeLists.txt) in " + ROOT)
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "hostbench-build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "hostbench",
                  "-j", "4"])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.call(cmd, cwd=ROOT, stdout=log,
                                     stderr=subprocess.STDOUT, timeout=850)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s failed: %s" % (cmd[:2], e))
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (see %s)" % log_path)


def source_id():
    """The git commit when this is a git checkout, else a digest of the
    simulator and benchmark sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return "git:" + out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for top in ("src", "hostbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def run_binary(args, timeout=175):
    """Run hostbench with @p args from the checkout root; returns
    (exit code, stdout)."""
    try:
        out = subprocess.run([BINARY] + args, cwd=ROOT, timeout=timeout,
                             stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        fail("hostbench %s timed out" % " ".join(args))
    return out.returncode, out.stdout


def self_test(workloads):
    ok = True
    for w in workloads:
        seen = []
        for _ in range(2):
            rc, out = run_binary(["--workload", w, "--seed", "1",
                                  "--seconds", "1", "--trace", "1"])
            lines = out.splitlines()
            counts = [l for l in lines if l.startswith("counts ")]
            result = json.loads(lines[-1]) if lines else {}
            if rc != 0 or not counts or not result.get("correct"):
                print("FAIL %s: traced run failed (rc=%d)" % (w, rc))
                ok = False
                break
            seen.append(json.loads(counts[0][len("counts "):]))
        if len(seen) == 2:
            if seen[0] == seen[1]:
                print("PASS %s: digest %s, %d counts identical"
                      % (w, seen[0]["digest"], len(seen[0]["counts"])))
            else:
                diff = sorted(k for k in seen[0]["counts"]
                              if seen[0]["counts"][k]
                              != seen[1]["counts"].get(k))
                print("FAIL %s: traced runs differ: digest %s/%s, %s"
                      % (w, seen[0]["digest"], seen[1]["digest"], diff))
                ok = False
    return 0 if ok else 1


def update_pins(seeds):
    pins = {"schema": "dapsim.hostbench.digests.v1",
            "seeds": {"default": PINNED_SEEDS[0],
                      "held_out": PINNED_SEEDS[1]},
            "workloads": {}}
    for w in WORKLOADS:
        pins["workloads"][w] = {}
        for s in seeds:
            rc, out = run_binary(["--workload", w, "--seed", str(s),
                                  "--digest-only"])
            if rc != 0:
                fail("digest run failed for %s seed %d" % (w, s))
            pins["workloads"][w][str(s)] = json.loads(
                out.splitlines()[-1])["digests"]
            print(w, s, pins["workloads"][w][str(s)])
    with open(PINS, "w") as f:
        json.dump(pins, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=PINNED_SEEDS[0])
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--update-pins", action="store_true")
    ap.add_argument("--seeds", default=",".join(map(str, PINNED_SEEDS)))
    a = ap.parse_args()

    build()
    if a.self_test:
        return self_test([a.workload] if a.workload else WORKLOADS)
    if a.update_pins:
        return update_pins([int(s) for s in a.seeds.split(",")])
    if a.workload is None:
        ap.error("--workload is required")
    rc, out = run_binary(["--workload", a.workload, "--seed", str(a.seed),
                          "--seconds", str(a.seconds),
                          "--trace", str(a.trace),
                          "--pins", os.path.relpath(PINS, ROOT),
                          "--commit", source_id()])
    sys.stdout.write(out)
    sys.stdout.flush()
    return rc


if __name__ == "__main__":
    sys.exit(main())
