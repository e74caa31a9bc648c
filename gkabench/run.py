#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 gkabench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root. Builds the library and the `gkabench` program
from source into .bench_build/ (Release), runs one pass of the workload at
IDGKA_THREADS=min(nproc, 4) to fingerprint its deterministic outputs (cached
per source digest and inputs), then replaces itself with the timed program
at IDGKA_THREADS=1, which checks every pass against that fingerprint. The
last line of standard output is the result JSON; the full result with its
environment is also written to .bench_build/results/. Exits non-zero without a result when the build
fails, and with `"correct": false` when a correctness check fails.
"""
import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "gkabench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "gkabench")
WORKLOADS = ("engine-multigroup", "hier-lossy", "paper-1024")
# Worker threads of the reference pass, which checks that the sharded,
# multi-threaded paths give the same outputs as the timed single-threaded run:
# fixed where the host allows, never more than the host has.
MAX_THREADS = 4
# Worker threads of the timed run. On a few cores of a shared host, CPU time
# of more threads than one measures the scheduler as much as the program.
TIMED_THREADS = 1


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(jobs):
    """Configures (once) and builds the benchmark; output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(jobs)])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("gkabench: build failed:", " ".join(cmd))
            sys.exit(1)


def source_digest():
    """SHA-256 over the library and benchmark sources (the checkout need
    not be a git repository, so this identifies the code measured)."""
    h = hashlib.sha256()
    for top in ("src", "gkabench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "none"


def reference(args, common, env):
    """Fingerprint of one pass at the reference thread count, or "failed".

    It is a pure function of the sources and the inputs, so it is kept in
    .bench_build/references/ and reused by later runs of the same code.
    """
    name = (f"{env['GKABENCH_SOURCE_DIGEST']}-{args.workload}-seed{args.seed}"
            f"-threads{env['GKABENCH_REFERENCE_THREADS']}")
    cache = os.path.join(BUILD_DIR, "references", name + ("-smoke" if args.smoke else ""))
    if os.path.exists(cache):
        with open(cache) as f:
            return f.read().strip()
    threads = env["GKABENCH_REFERENCE_THREADS"]
    ref = subprocess.run([BINARY, *common, "--reference"], cwd=ROOT, capture_output=True,
                         text=True, env={**env, "IDGKA_THREADS": threads})
    fields = ref.stdout.split()
    if ref.returncode == 2 or len(fields) != 3 or fields[0] != "reference":
        log(ref.stderr.strip())
        log("gkabench: reference run failed")
        sys.exit(1)
    expect = fields[1] if fields[2] == "1" else "failed"
    os.makedirs(os.path.dirname(cache), exist_ok=True)
    with open(cache, "w") as f:
        f.write(expect + "\n")
    return expect


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args()

    nproc = len(os.sched_getaffinity(0))
    build(min(nproc, 8))

    # The flight recorder (IDGKA_OBS_TRACE*) would be timed along with the
    # workload; the benchmark's own trace mode is --trace 1.
    env = {k: v for k, v in os.environ.items() if not k.startswith("IDGKA_OBS_")}
    env["GKABENCH_GIT_COMMIT"] = git_commit()
    env["GKABENCH_SOURCE_DIGEST"] = source_digest()
    env["GKABENCH_REFERENCE_THREADS"] = str(min(nproc, MAX_THREADS))
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        common.append("--smoke")

    expect = reference(args, common, env)

    results = os.path.join(BUILD_DIR, "results")
    os.makedirs(results, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    env["IDGKA_THREADS"] = str(TIMED_THREADS)
    argv = [BINARY, *common, "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--expect", expect, "--results", os.path.join(results, tag + ".json")]
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execve(BINARY, argv, env)


if __name__ == "__main__":
    main()
