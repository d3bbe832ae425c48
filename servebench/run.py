#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

    python3 servebench/run.py --workload serve_hot --seed 1 --seconds 10 --trace 0
    python3 servebench/run.py --selftest

Run it from the repository root. The build goes to
$CARGO_TARGET_DIR/servebench (default .bench_build/servebench), scratch
files (snapshot, log, socket, span dumps) to .bench_work. The last line of
standard output is the run's JSON result; see README.md.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "servebench")


def build():
    """Configures and builds serve_bench; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "server", "server.cpp")):
        log("run.py: library sources not found under %s/src" % ROOT)
        return None
    out = build_dir()
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "serve_bench", "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        if done.returncode != 0:
            log(done.stdout.decode(errors="replace")[-4000:])
            log("run.py: build step failed: %s" % " ".join(cmd))
            return None
    return os.path.join(out, "serve_bench")


def source_revision():
    """The git commit when there is one, else a digest of the sources."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        if rev.returncode == 0:
            return rev.stdout.decode().strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "servebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cpp", ".cc")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "src-" + digest.hexdigest()[:16]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if not args.selftest and not args.workload:
        p.error("--workload is required")

    binary = build()
    if binary is None:
        return 2
    cmd = [binary, "--work-dir", ".bench_work", "--commit", source_revision()]
    if args.selftest:
        cmd.append("--selftest")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("run.py: run exceeded %d s and was killed" % RUN_TIMEOUT_S)
        return 3


if __name__ == "__main__":
    sys.exit(main())
