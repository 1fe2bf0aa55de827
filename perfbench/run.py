#!/usr/bin/env python3
"""Build and run the SAGE benchmark.

Usage, from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --selftest

The driver (perfbench/sagebench.cpp) and its self-tests are built from the
checkout's own sources with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench). The driver's last line of stdout is one JSON
object; it is checked against the schema in BENCHMARK.json before it is
printed. The exit code is non-zero when the build fails, the output breaks
the schema, or the driver reports a correctness violation.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def die(msg):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(1)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def quiet(cmd):
    """Run a build step; its output goes to stderr only when it fails."""
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        die("command failed: %s" % " ".join(cmd))


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("simulator sources (src/) not found next to perfbench/")
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        quiet(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    quiet(["cmake", "--build", bdir, "-j", jobs, "--target"] + targets)
    return bdir


def validate(result, spec, trace):
    """Schema errors of one driver result against BENCHMARK.json."""
    errors = []
    if not isinstance(result, dict):
        return ["result is not a JSON object"]
    keys = {"correct", "attempted", "failed", "metrics"}
    if set(result) != keys:
        errors.append("result keys %s, want %s" % (sorted(result), sorted(keys)))
        return errors
    if not isinstance(result["correct"], bool):
        errors.append("correct is not a boolean")
    for key, low in (("attempted", 1), ("failed", 0)):
        v = result[key]
        if isinstance(v, bool) or not isinstance(v, int) or v < low:
            errors.append("%s must be an integer >= %d" % (key, low))
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return errors + ["metrics is not an object"]
    if set(metrics) != set(want):
        missing = sorted(set(want) - set(metrics))
        extra = sorted(set(metrics) - set(want))
        errors.append("metric names differ: missing %s, unexpected %s" % (missing, extra))
    for name, m in metrics.items():
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            errors.append("%s: want exactly value and unit" % name)
            continue
        v = m["value"]
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            errors.append("%s: value is not a finite number" % name)
        elif not trace and v == 0:
            errors.append("%s: end-to-end metrics are never 0" % name)
        if name in want and m["unit"] != want[name]:
            errors.append("%s: unit %r, want %r" % (name, m["unit"], want[name]))
    return errors


def selftest():
    bdir = build(["perfbench_selftest"])
    r = subprocess.run([os.path.join(bdir, "perfbench_selftest")], timeout=RUN_TIMEOUT_S)
    failures = 0 if r.returncode == 0 else 1

    spec = load_spec()

    def result(names, value=1.5, **over):
        out = {"correct": True, "attempted": 3, "failed": 0,
               "metrics": {m["name"]: {"value": value, "unit": m["unit"]} for m in names}}
        out.update(over)
        return out

    e2e, layers = spec["end_to_end"], spec["per_layer"]
    cases = [
        ("valid end-to-end result", result(e2e), 0, True),
        ("valid per-layer result, zeros allowed", result(layers, value=0), 1, True),
        ("per-layer names in an end-to-end run", result(layers), 0, False),
        ("end-to-end metric reads 0", result(e2e, value=0), 0, False),
        ("missing metric", result(e2e[1:]), 0, False),
        ("wrong unit", result(e2e, metrics={e2e[0]["name"]: {"value": 1, "unit": "?"}}), 0, False),
        ("non-finite value", result(e2e, value=float("nan")), 0, False),
        ("attempted below 1", result(e2e, attempted=0), 0, False),
        ("failed is not an integer", result(e2e, failed=0.5), 0, False),
        ("extra key", dict(result(e2e), extra=1), 0, False),
    ]
    for label, res, trace, ok in cases:
        errors = validate(res, spec, trace)
        if (not errors) != ok:
            failures += 1
            sys.stderr.write("FAIL: schema case '%s': %s\n" % (label, errors or "accepted"))
    names = [m["name"] for m in e2e + layers]
    if len(names) != len(set(names)):
        failures += 1
        sys.stderr.write("FAIL: BENCHMARK.json repeats a metric name\n")
    if not any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in e2e):
        failures += 1
        sys.stderr.write("FAIL: BENCHMARK.json lacks setup_s\n")
    if failures == 0:
        print("perfbench selftest: schema checks passed")
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if args.selftest:
        return selftest()

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload %r" % args.workload)
    bdir = build(["sagebench"])
    cmd = [os.path.join(bdir, "sagebench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("driver timed out after %d s" % RUN_TIMEOUT_S)
    lines = r.stdout.splitlines()
    if not lines:
        die("driver printed nothing (exit code %d)" % r.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        die("driver's last line is not JSON (exit code %d)" % r.returncode)
    errors = validate(result, spec, args.trace)
    if errors:
        die("driver output breaks the schema: " + "; ".join(errors))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] and r.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
