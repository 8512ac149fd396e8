#!/usr/bin/env python3
"""The ivdb benchmark: one command, four seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run it from the root of a checkout. It builds perfbench/ (the ivbench
binary plus the engine from src/) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset, as an optimized build with the
runtime checkers compiled out (-DCMAKE_BUILD_TYPE=Release,
-DIVDB_CHECKS=OFF). It then runs one workload and prints a JSON report line
followed, as the last line, by the result object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. Temporary
databases live under .bench_work/ and are removed when the run ends; a
traced run leaves its spans in .bench_work/spans-<workload>.tsv.

Workloads (why each exists is in BENCHMARK.json and perfbench/ivbench/
workload.h): escrow_durable, escrow_cpu, dashboard, restart.

The result carries the metrics BENCHMARK.json gates. The report line carries
every end-to-end metric (p99s included) with its sample count, op_fail_ratio
with its attempted count, and every per-layer metric with the count it is
taken over.

--self-check runs every workload briefly on a small table, traced and
untraced, and asserts that every end-to-end and per-layer metric is
emitted, finite and non-negative, that the checks pass, and that the spans
are well formed.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configures (once) and builds ivbench; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: engine sources (src/) not found next to perfbench/")
        return None
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release",
               "-DIVDB_CHECKS=OFF"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            return None
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", out, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    binary = os.path.join(out, "ivbench")
    return binary if os.path.isfile(binary) else None


def source_fingerprint():
    """The git commit when there is one, and a digest of the engine sources."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def run_once(binary, workload, seed, seconds, trace, extra=()):
    """Runs ivbench once; returns (exit code, report, result) or None."""
    os.makedirs(WORK, exist_ok=True)
    for name in os.listdir(WORK):  # databases a killed run left behind
        path = os.path.join(WORK, name)
        if os.path.isdir(path):
            shutil.rmtree(path, ignore_errors=True)
    spans = os.path.join(WORK, "spans-%s.tsv" % workload)
    if os.path.exists(spans):
        os.remove(spans)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", WORK, "--spans-out", spans] + list(extra)
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: %s did not finish within %ds" % (workload, RUN_TIMEOUT_S))
        return None
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    try:
        report = json.loads(lines[-2])["report"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, ValueError):
        log("run.py: %s printed no result (exit %d)" % (workload, r.returncode))
        return None
    return r.returncode, report, result


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def gated(bench, trace):
    """The metrics BENCHMARK.json gates: end-to-end, or per-layer when traced.

    ivbench reports more end-to-end timings than are gated: the p99s and
    the view-scan rate and p50, which moved by more than the 25% bound from
    run to run on a shared 4-vCPU VM. The report line keeps them all."""
    return bench["per_layer" if trace else "end_to_end"]


def select_metrics(result, bench, trace):
    """Keeps the gated metrics in the result; None if one is missing."""
    metrics = result.get("metrics", {})
    names = [m["name"] for m in gated(bench, trace)]
    if any(n not in metrics for n in names):
        return None
    result["metrics"] = {n: metrics[n] for n in names}
    return result


def check_spans(path):
    """Every span ends at or after its start; every parent exists."""
    spans = {}
    with open(path) as f:
        header = f.readline().rstrip("\n").split("\t")
        for line in f:
            row = dict(zip(header, line.rstrip("\n").split("\t")))
            spans[row["id"]] = row
    problems = []
    names = set()
    for row in spans.values():
        names.add(row["name"])
        if int(row["end_ns"]) < int(row["start_ns"]):
            problems.append("span %s ends before it starts" % row["id"])
        parent = row["parent"]
        if parent != "0":
            if parent not in spans:
                problems.append("span %s has no parent %s" % (row["id"], parent))
            elif spans[parent]["request"] != row["request"]:
                problems.append("span %s is not in its parent's request"
                                % row["id"])
    if not spans:
        problems.append("no spans recorded")
    return len(spans), names, problems[:5]


def self_check():
    binary = build()
    if binary is None:
        return 1
    bench = load_benchmark()
    failures = []
    tiny = ["--rows", "8000", "--log-txns", "2000"]
    for w in bench["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            got = run_once(binary, name, 1, 1, trace, tiny)
            label = "%s trace=%d" % (name, trace)
            if got is None:
                failures.append(label + ": no result")
                continue
            code, report, result = got
            every = dict(result["metrics"])
            if trace == 0:
                every.update(report["end_to_end"])
                every["op_fail_ratio"] = report["op_fail_ratio"]
            if select_metrics(result, bench, trace) is None:
                failures.append(label + ": a gated metric is missing")
                continue
            if code != 0 or result.get("correct") is not True:
                failures.append("%s: exit %d, checks %s" % (
                    label, code, report.get("check_failures")))
            if report.get("why") != w["why"]:
                failures.append(label + ": why differs from BENCHMARK.json")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(label + ": result keys " + str(sorted(result)))
            units = {m["name"]: m["unit"] for m in gated(bench, trace)}
            for metric, v in every.items():
                value = v.get("value")
                if (not isinstance(value, (int, float)) or
                        not math.isfinite(value) or value < 0 or
                        v.get("unit") != units.get(metric, v.get("unit"))):
                    failures.append("%s: %s = %r" % (label, metric, v))
            if trace == 1:
                path = os.path.join(WORK, "spans-%s.tsv" % name)
                if not os.path.exists(path):
                    failures.append(label + ": no span file")
                    continue
                count, names, problems = check_spans(path)
                failures += ["%s: %s" % (label, p) for p in problems]
                if "engine.open" not in names:
                    failures.append(label + ": no engine.open span")
                os.remove(path)
            log("self-check %s: ok so far (%d failures)" % (label, len(failures)))
    for f in failures:
        log("self-check FAILED: " + f)
    print(json.dumps({"self_check": "fail" if failures else "ok",
                      "failures": len(failures)}))
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    a = p.parse_args()
    if a.self_check:
        return self_check()
    if not a.workload:
        p.error("--workload is required")
    binary = build()
    if binary is None:
        return 1
    got = run_once(binary, a.workload, a.seed, a.seconds, a.trace)
    if got is None:
        return 1
    code, report, result = got
    if select_metrics(result, load_benchmark(), a.trace) is None:
        log("run.py: ivbench did not report every gated metric")
        return 1
    report["fingerprint"].update(source_fingerprint())
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
