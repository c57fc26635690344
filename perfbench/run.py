#!/usr/bin/env python3
"""Whole-stack benchmark of parmis: MIS-2 coarsening, AMG setup, solves,
batched solves, value rebuilds and an open-loop serving phase.

Run from the repository root:

  python3 perfbench/run.py --workload mesh3d --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --workload all              # every workload in turn
  python3 perfbench/run.py --self-test                 # determinism + metric names
  python3 perfbench/run.py --compare OLD... --against NEW...  # parent vs change

The first call builds the library and the benchmark from source into
.bench_build/ (CMake, RelWithDebInfo). --trace 0 measures the end-to-end
metrics of BENCHMARK.json; --trace 1 the per-layer ones, and writes a
Chrome trace. Every run also writes its full result (host stamp, all
metrics, digests) to .bench_build/results/. The last line of standard
output is one JSON object: correct, attempted, failed and metrics. The exit
status is 1 when an output check failed or a metric is missing.
"""

import argparse
import fcntl
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "perfbench")
BINARY = os.path.join(CMAKE_DIR, "perfbench")
RESULTS = os.path.join(BUILD, "results")
RUN_TIMEOUT_S = 170

# Stamp fields that name the code under test rather than the host; two
# results may differ in these and still be compared.
CODE_IDENTITY = ("git_sha", "source_sha256")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def check_sources():
    for p in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, p)):
            fail(f"no parmis sources here ({p} is missing under {ROOT})")


def build():
    """Configure once, then build the perfbench target (incremental)."""
    check_sources()
    os.makedirs(CMAKE_DIR, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, "build.lock"), "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", CMAKE_DIR, "--target", "perfbench",
                      "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT) != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed: " + " ".join(cmd))


def code_identity():
    """git sha when the checkout is a git repository, and a digest of the
    library and benchmark sources either way."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    with open(os.path.join(ROOT, "CMakeLists.txt"), "rb") as f:
        h.update(f.read())
    sha = "none"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or "none"
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_sha": sha, "source_sha256": h.hexdigest()[:16]}


def run_binary(workload, seed, seconds, trace, small=False):
    """One run of the benchmark binary; returns (exit status, parsed result)."""
    out_dir = os.path.join(BUILD, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out-dir", out_dir]
    if small:
        cmd.append("--small")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} did not finish in {RUN_TIMEOUT_S}s")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{workload}: no result from the benchmark binary (exit {proc.returncode})")
    return proc.returncode, result


def select(spec, result, trace):
    """The metrics BENCHMARK.json names for this mode, with their units.
    Returns (metrics, missing names)."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    metrics, missing = {}, []
    for m in wanted:
        entry = got.get(m["name"])
        if entry is None or entry["unit"] != m["unit"]:
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": entry["value"], "unit": entry["unit"]}
    return metrics, missing


def measure(spec, workload, seed, seconds, trace):
    status, result = run_binary(workload, seed, seconds, trace)
    result["host"].update(code_identity())
    result["seconds"] = seconds
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{workload}-s{seed}-t{trace}.json")
    with open(path, "w") as f:
        json.dump(result, f, indent=1)
    metrics, missing = select(spec, result, trace)
    for name in missing:
        print(f"perfbench: metric {name} missing or in the wrong unit", file=sys.stderr)
    correct = status == 0 and result["failed"] == 0 and not missing
    return {"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}, path, result


def print_table(workload, spec, result, metrics):
    """The metrics of this mode, then any other BENCHMARK.json metric the
    run also measured (an untraced run also yields lat_ms_p95.*)."""
    others = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]} - set(metrics)
    extra = {n: v for n, v in result["metrics"].items() if n in others}
    for name, m in list(metrics.items()) + list(extra.items()):
        print(f"  {workload:9s} {name:40s} {m['value']:14.6g} {m['unit']}")


def cmd_run(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    for w in workloads:
        if w not in names:
            fail(f"unknown workload {w!r}; choose from {', '.join(names)} or all")
    build()
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads:
        out, path, result = measure(spec, w, args.seed, args.seconds, args.trace)
        print(f"# {w}: seed {args.seed}, {args.seconds}s, trace {args.trace} -> {path}")
        print("# host: " + json.dumps(result["host"], sort_keys=True))
        if result.get("trace_file"):
            print(f"# chrome trace: {result['trace_file']}")
        print_table(w, spec, result, out["metrics"])
        summary["correct"] = summary["correct"] and out["correct"]
        summary["attempted"] += out["attempted"]
        summary["failed"] += out["failed"]
        if len(workloads) == 1:
            summary["metrics"] = out["metrics"]
        else:
            for name, m in out["metrics"].items():
                summary["metrics"][f"{w}/{name}"] = m
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def check_notes(spec):
    """metrics.json must hold a definition for each end-to-end metric, a
    target for each per-layer metric and a baseline of every end-to-end
    metric for each workload, under the names BENCHMARK.json uses.
    Returns the problems found."""
    with open(os.path.join(HERE, "metrics.json")) as f:
        notes = json.load(f)
    expect = {"definition": {m["name"] for m in spec["end_to_end"]},
              "moves": {m["name"] for m in spec["per_layer"]},
              "baseline": {w["name"] for w in spec["workloads"]}}
    problems = []
    for key, names in expect.items():
        got = set(notes.get(key, {}))
        if got != names:
            problems.append(f"metrics.json {key}: missing {sorted(names - got)}, "
                            f"unknown {sorted(got - names)}")
    for w, base in notes.get("baseline", {}).items():
        if set(base) != expect["definition"]:
            problems.append(f"metrics.json baseline {w}: names differ from end_to_end")
    return problems


def cmd_self_test(spec):
    """Each workload twice at reduced size with the same seed: every output
    digest must repeat, and every metric BENCHMARK.json names must be
    present with its unit in the untraced and the traced run."""
    problems = check_notes(spec)
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    ok = not problems
    build()
    for w in (x["name"] for x in spec["workloads"]):
        runs = [run_binary(w, 7, 3, 0, small=True) for _ in range(2)]
        traced = run_binary(w, 7, 3, 1, small=True)
        for status, result in runs + [traced]:
            if status != 0 or result["failed"] != 0:
                print(f"FAIL {w}: output checks failed", file=sys.stderr)
                ok = False
        d0, d1 = runs[0][1]["digests"], runs[1][1]["digests"]
        for key in ("mis2", "coarsen_hierarchy", "galerkin_hierarchy", "solution", "serve"):
            if key not in d0 or d0.get(key) != d1.get(key):
                print(f"FAIL {w}: digest {key} {d0.get(key)} != {d1.get(key)}", file=sys.stderr)
                ok = False
        for key in ("mis2", "coarsen_hierarchy", "galerkin_hierarchy", "solution"):
            if traced[1]["digests"].get(key) != d0.get(key):
                print(f"FAIL {w}: tracing changed digest {key}", file=sys.stderr)
                ok = False
        for trace, (_, result) in ((0, runs[0]), (1, traced)):
            _, missing = select(spec, result, trace)
            for name in missing:
                print(f"FAIL {w}: metric {name} missing (trace {trace})", file=sys.stderr)
                ok = False
        trace_file = traced[1].get("trace_file", "")
        try:
            with open(trace_file) as f:
                events = json.load(f)["traceEvents"]
            if not events:
                raise ValueError("no events")
        except (OSError, ValueError, KeyError) as e:
            print(f"FAIL {w}: chrome trace {trace_file!r}: {e}", file=sys.stderr)
            ok = False
        print(f"{'ok  ' if ok else 'FAIL'} {w}: digests " +
              " ".join(f"{k}={v}" for k, v in sorted(d0.items())))
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def load_results(paths):
    out = []
    for p in paths:
        with open(p) as f:
            out.append(json.load(f))
    return out


def cmd_compare(spec, old_paths, new_paths):
    """Median of each metric per workload on both sides, and the change as a
    share of the old median. Refuses to compare results whose host stamps
    differ: only the code-identity fields may."""
    old, new = load_results(old_paths), load_results(new_paths)

    def stamp(r):
        return {k: v for k, v in r["host"].items() if k not in CODE_IDENTITY}

    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for w in sorted({r["workload"] for r in old + new}):
        group = [r for r in old + new if r["workload"] == w]
        for r in group[1:]:
            if stamp(r) != stamp(group[0]):
                diff = {k: (stamp(group[0]).get(k), stamp(r).get(k))
                        for k in set(stamp(group[0])) | set(stamp(r))
                        if stamp(group[0]).get(k) != stamp(r).get(k)}
                fail(f"refusing to compare {w} results: host stamps differ: {diff}")
        print(f"# {w}")
        names = sorted({n for r in group for n in r["metrics"] if n in better})
        for n in names:
            o = [r["metrics"][n]["value"] for r in old if r["workload"] == w and n in r["metrics"]]
            v = [r["metrics"][n]["value"] for r in new if r["workload"] == w and n in r["metrics"]]
            if not o or not v:
                continue
            mo, mv = statistics.median(o), statistics.median(v)
            change = (mv - mo) / mo if mo else 0.0
            worse = change > 0 if better[n] == "lower" else change < 0
            beyond = n in bound and worse and abs(change) > bound[n]
            flag = "  REGRESSION beyond bound" if beyond else ""
            print(f"  {n:40s} old {mo:12.6g}  new {mv:12.6g}  {change:+8.2%}{flag}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--compare", nargs="+", metavar="FILE",
                    help="OLD results, then --against NEW results")
    ap.add_argument("--against", nargs="+", metavar="FILE")
    args = ap.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    if args.self_test:
        return cmd_self_test(spec)
    if args.compare:
        if not args.against:
            fail("--compare needs --against")
        return cmd_compare(spec, args.compare, args.against)
    return cmd_run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
