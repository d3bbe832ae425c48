#!/usr/bin/env python3
"""Collects and compares sets of serving-benchmark runs (stdlib only).

    python3 servebench/compare.py collect SET_DIR [--runs 10] [--first-seed 1]
    python3 servebench/compare.py SET_A SET_B

`collect` runs every workload of BENCHMARK.json --runs times, each with its
own seed, and keeps each run's standard output in SET_DIR and every exit
code in SET_DIR/manifest.json. Comparing two sets prints, per workload and
end-to-end metric, each set's median and quartiles, the spread
(interquartile distance over the median) and the change of the median, and
says whether the two sets agree within the metric's bound: both spreads
within it and B's median no worse than A's by more than it. It also
compares the share of failed operations, which must be equal. A set with a
run that is missing, exited with another code than 0 or printed no result
does not agree with anything.
"""
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = "manifest.json"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_run(path):
    """(workload, result) from one run's standard output, or None."""
    workload = None
    result = None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith('{"host"'):
                workload = json.loads(line)["host"]["workload"]
            elif line.startswith('{"correct"'):
                result = json.loads(line)
    if workload is None or result is None:
        return None
    return workload, result


def load_set(directory):
    """({workload: [result]}, {workload: [problem]}) of one collected set."""
    manifest_path = os.path.join(directory, MANIFEST)
    if not os.path.isfile(manifest_path):
        return {}, {"*": ["no %s: missing runs cannot be told" % MANIFEST]}
    with open(manifest_path) as f:
        manifest = json.load(f)
    runs, problems = {}, {}
    for w, seeds in manifest["exits"].items():
        for seed, rc in sorted(seeds.items(), key=lambda kv: int(kv[0])):
            parsed = parse_run(os.path.join(directory, "%s-%s.out" % (w, seed)))
            if rc != 0 or parsed is None or parsed[0] != w:
                problems.setdefault(w, []).append(
                    "seed %s: exit %d%s" % (seed, rc, "" if parsed else ", no result"))
            else:
                runs.setdefault(w, []).append(parsed[1])
        if len(seeds) != manifest["runs"]:
            problems.setdefault(w, []).append(
                "%d runs of %d" % (len(seeds), manifest["runs"]))
    return runs, problems


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def collect(directory, runs, first_seed):
    spec = load_spec()
    os.makedirs(directory, exist_ok=True)
    manifest = {"runs": runs, "exits": {w["name"]: {} for w in spec["workloads"]}}
    for seed in range(first_seed, first_seed + runs):
        for w in spec["workloads"]:
            cmd = spec["command"] + ["--workload", w["name"], "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", "0"]
            out = os.path.join(directory, "%s-%d.out" % (w["name"], seed))
            with open(out, "w") as f:
                rc = subprocess.run(cmd, cwd=ROOT, stdout=f).returncode
            manifest["exits"][w["name"]][str(seed)] = rc
            with open(os.path.join(directory, MANIFEST), "w") as f:
                json.dump(manifest, f, indent=1)
            print("%s seed %d: exit %d" % (w["name"], seed, rc), flush=True)
    return 0


def compare(dir_a, dir_b):
    spec = load_spec()
    (a, pa), (b, pb) = load_set(dir_a), load_set(dir_b)
    ok = True
    for label, problems in (("A", pa), ("B", pb)):
        for problem in problems.get("*", []):
            print("%s: %s" % (label, problem))
            ok = False
    for w in spec["workloads"]:
        name = w["name"]
        ra, rb = a.get(name, []), b.get(name, [])
        print("== %s: %d runs in A, %d in B" % (name, len(ra), len(rb)))
        for label, problems in (("A", pa), ("B", pb)):
            for problem in problems.get(name, []):
                print("   %s %s: DISAGREE" % (label, problem))
                ok = False
        if not ra or not rb:
            ok = False
            continue
        fa = sum(r["failed"] for r in ra) / sum(r["attempted"] for r in ra)
        fb = sum(r["failed"] for r in rb) / sum(r["attempted"] for r in rb)
        print("   failed share: A %.6f  B %.6f%s" % (fa, fb, "" if fa == fb else "  DIFFER"))
        ok &= fa == fb
        print("   %-16s %12s %12s %12s %7s | %12s %12s %12s %7s | %7s %s" % (
            "metric", "A median", "A q1", "A q3", "spread", "B median", "B q1",
            "B q3", "spread", "change", "verdict"))
        for m in spec["end_to_end"]:
            va = [r["metrics"][m["name"]]["value"] for r in ra if m["name"] in r["metrics"]]
            vb = [r["metrics"][m["name"]]["value"] for r in rb if m["name"] in r["metrics"]]
            if not va or not vb:
                print("   %-16s missing" % m["name"])
                ok = False
                continue
            sa, sb = summary(va), summary(vb)
            change = (sb[0] - sa[0]) / sa[0]
            worse = change if m["better"] == "lower" else -change
            spreads_ok = sa[3] <= m["bound"] and sb[3] <= m["bound"]
            agree = spreads_ok and worse <= m["bound"]
            ok &= agree
            print("   %-16s %12.4g %12.4g %12.4g %7.3f | %12.4g %12.4g %12.4g %7.3f | %+7.3f %s (bound %.2f)" % (
                m["name"], sa[0], sa[1], sa[2], sa[3], sb[0], sb[1], sb[2], sb[3],
                change, "agree" if agree else "DISAGREE", m["bound"]))
    print("overall: %s" % ("agree" if ok else "DISAGREE"))
    return 0 if ok else 1


def main(argv):
    if len(argv) >= 2 and argv[0] == "collect":
        runs, first_seed = 10, 1
        rest = argv[2:]
        while rest:
            key, val = rest[0], rest[1]
            if key == "--runs":
                runs = int(val)
            elif key == "--first-seed":
                first_seed = int(val)
            else:
                print(__doc__)
                return 2
            rest = rest[2:]
        return collect(argv[1], runs, first_seed)
    if len(argv) == 2:
        return compare(argv[0], argv[1])
    print(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
