#!/usr/bin/env python3
"""Run one archval benchmark workload and print its metrics.

Usage (from the root of a source checkout):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds archval_bench (perfbench/CMakeLists.txt: the library from
src/ plus perfbench/bench_main.cc, Release) into $CARGO_TARGET_DIR, or
.bench_build/ when that is unset, then runs the named workload in one
process with at most 4 threads. Workloads, metrics and the layer each
metric belongs to are described in perfbench/README.md and
perfbench/workloads.json.

--trace 0 prints the end-to-end metrics of BENCHMARK.json. --trace 1
runs the workload with ARCHVAL_TRACE set and prints the per-layer
metrics: the layer counts and span times, each layer's self time on
the benchmark's main thread (tools/trace_summary.py's self-time
sweep), the span coverage (gated at >= 95% with trace_summary.py
--min-coverage) and the tracing overhead (the timed part repeated
untraced after the trace is written, in the same process).

Every run also checks its outputs: verdicts archval_bench counts
(clean traces must not diverge, replay must match sequential
simulation, every bug must be found, tours must cover the graph,
repeated passes must give identical digests), plus the
digests of earlier runs with the same workload, seed and binary,
kept under the build directory. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

Exit codes: 0 when the workload ran (whatever its verdicts), 1 when
the build or archval_bench failed, 2 on bad arguments.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("flow_full", "bug_matrix", "fuzz_clean")
THREADS = 4
# Wall-clock allowed for the archval_bench runs of one invocation (the
# build before them is not counted).
RUN_BUDGET_S = 175
MIN_TRACE_COVERAGE_PCT = 95.0

# Span-name prefix -> layer, for self times. The benchmark's own spans
# are named after the layer they wrap; the in-program spans (enum.*,
# player.*, replay.*, fuzz.*) nest under them.
LAYER_PREFIXES = {
    "bench": ("bench.",),
    "core": ("core.",),
    "murphi": ("murphi.", "enum."),
    "graph": ("graph.",),
    "vecgen": ("vecgen.",),
    "harness": ("harness.", "player.", "replay."),
    "fuzz": ("fuzz.",),
}

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def die(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()


def build_env(build):
    """Environment for the build and the bench: scratch files stay in
    the build directory, telemetry stays off unless asked for."""
    env = dict(os.environ)
    tmp = build / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    for key in ("ARCHVAL_TRACE", "ARCHVAL_HEARTBEAT",
                "ARCHVAL_HEARTBEAT_DELTAS"):
        env.pop(key, None)
    return env


def build_bench(build, env):
    cmake_dir = build / "perfbench"
    log_path = build / "build.log"
    # Configure every time (cheap once cached) so an edited build file
    # is picked up before building the target.
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(cmake_dir), "--target", "archval_bench",
         "-j", str(THREADS)],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            result = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                    env=env, cwd=ROOT)
            if result.returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                die("build failed:\n" + "\n".join(tail))
    bench = cmake_dir / "archval_bench"
    if not bench.is_file():
        die(f"build produced no {bench}")
    return bench


def run_bench(bench, args, env, deadline, trace_path=None):
    """Run archval_bench once; return (its metric lines, its JSON)."""
    env = dict(env)
    if trace_path is not None:
        env["ARCHVAL_TRACE"] = str(trace_path)
    launched_at = time.monotonic()
    cmd = [str(bench), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--launched-at", repr(launched_at)]
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                env=env, cwd=ROOT,
                                timeout=max(1.0, deadline - launched_at))
    except subprocess.TimeoutExpired:
        die(f"archval_bench ran out of its {RUN_BUDGET_S} s budget on "
            f"{args.workload}")
    lines = result.stdout.splitlines()
    if result.returncode != 0 or not lines:
        die(f"archval_bench exited with code {result.returncode} on "
            f"{args.workload}")
    try:
        doc = json.loads(lines[-1])
    except json.JSONDecodeError:
        die("archval_bench printed no result line")
    return lines[:-1], doc


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def compare_stored_digests(build, bench, args, digests):
    """Compare with the digests an earlier run of this binary stored for
    the same workload and seed (store them when there are none).
    Returns (compared, mismatched names)."""
    store = build / "digests"
    store.mkdir(parents=True, exist_ok=True)
    path = store / f"{args.workload}-{args.seed}-{file_digest(bench)}.json"
    if not path.is_file():
        path.write_text(json.dumps(digests, sort_keys=True) + "\n")
        return 0, []
    earlier = json.loads(path.read_text())
    names = sorted(set(earlier) | set(digests))
    return len(names), [n for n in names if earlier.get(n) != digests.get(n)]


def load_trace_summary():
    spec = importlib.util.spec_from_file_location(
        "trace_summary", ROOT / "tools" / "trace_summary.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def trace_metrics(trace_path, env):
    """Per-layer self times on the main thread, span coverage, and the
    trace_summary.py coverage gate. Returns (metrics, gate passed)."""
    gate = subprocess.run(
        [sys.executable, "-B", str(ROOT / "tools" / "trace_summary.py"),
         str(trace_path), "--check", "--min-coverage",
         str(MIN_TRACE_COVERAGE_PCT)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        cwd=ROOT)
    coverage = 0.0
    for line in gate.stdout.splitlines():
        if line.startswith("top-level span coverage:"):
            coverage = float(line.split(":")[1].split("%")[0])
    if gate.returncode != 0:
        print(gate.stdout.rstrip(), file=sys.stderr)

    summary = load_trace_summary()
    spans, _ = summary.validate_events(
        summary.load_trace(str(trace_path))["traceEvents"])
    # The main thread is the one that records the set-up spans (its
    # name is not stable: the enumerator renames the thread it runs
    # worker 0 on).
    main_tids = {ev["tid"] for ev in spans if ev["name"] == "bench.setup"}
    names, _ = summary.compute_self_times(
        [ev for ev in spans if ev["tid"] in main_tids])
    self_s = {layer: 0.0 for layer in LAYER_PREFIXES}
    for name, rec in names.items():
        for layer, prefixes in LAYER_PREFIXES.items():
            if name.startswith(prefixes):
                self_s[layer] += rec["self"] / 1e6
    metrics = {f"self_s.{layer}": (value, "s")
               for layer, value in self_s.items()}
    metrics["trace.coverage_pct"] = (coverage, "%")
    return metrics, gate.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    sys.dont_write_bytecode = True

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        die(f"no {spec_path}")
    spec = json.loads(spec_path.read_text())
    wanted = [m["name"] for m in
              spec["per_layer" if args.trace else "end_to_end"]]

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no archval sources under {ROOT}/src; run from a full checkout")
    build = build_dir()
    env = build_env(build)
    bench = build_bench(build, env)
    deadline = time.monotonic() + RUN_BUDGET_S

    trace_path = (build / f"trace-{args.workload}-{args.seed}.json"
                  if args.trace else None)
    lines, doc = run_bench(bench, args, env, deadline, trace_path)
    attempted, failed = doc["attempted"], doc["failed"]
    metrics = {name: (m["value"], m["unit"])
               for name, m in doc["metrics"].items()}
    notes = []

    compared, mismatched = compare_stored_digests(build, bench, args,
                                                  doc["digests"])
    attempted += compared
    failed += len(mismatched)
    notes += [f"digest {n} differs from an earlier run" for n in mismatched]

    if args.trace:
        layer_metrics, gate_ok = trace_metrics(trace_path, env)
        attempted += 1
        if not gate_ok:
            failed += 1
            notes.append("trace span coverage below "
                         f"{MIN_TRACE_COVERAGE_PCT}%")
        metrics.update(layer_metrics)

    metrics["error_rate"] = (failed / attempted if attempted else 0.0, "ratio")
    for line in lines:
        print(line)
    for note in notes:
        print(f"FAILED: {note}")
    missing = [name for name in wanted if name not in metrics]
    for name in missing:
        print(f"FAILED: metric {name} not measured")
    result = {
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in wanted if name in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
