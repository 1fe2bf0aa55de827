#!/usr/bin/env python3
"""Check a traced perfbench run against tests/golden/perfbench_seed1.json.

Usage, from the repository root:

  python3 perfbench/run.py --workload bulk-wan --seed 1 --seconds 1 --trace 1 > run.out
  python3 tests/check_perfbench_golden.py bulk-wan run.out

The run must print the workload's expected digest, and each golden work
counter must stay within the file's counter_bound (a relative fraction) of
its expected value, in both directions. A counter that grows means new
work; one that shrinks means the golden kept stale slack, which would let a
later regression hide, so a change that removes work re-pins the counters
it moved. Exits 1 and names every mismatch otherwise.
"""

import json
import os
import re
import sys

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "perfbench_seed1.json")


def check(workload, lines, golden):
    """Mismatch messages of one run's output lines against the golden file."""
    want = golden["workloads"].get(workload)
    if want is None:
        return ["no golden entry for workload %r" % workload]
    errors = []
    digest = None
    for line in lines:
        m = re.match(r"digest (\S+) seed=(\d+) ([0-9a-f]+) ", line)
        if m and m.group(1) == workload:
            if int(m.group(2)) != golden["seed"]:
                errors.append("run used seed %s, golden is seed %d" % (m.group(2), golden["seed"]))
            digest = m.group(3)
    if digest is None:
        errors.append("no digest line for %s" % workload)
    elif digest != want["digest"]:
        errors.append("digest %s, golden %s" % (digest, want["digest"]))
    try:
        metrics = json.loads(lines[-1])["metrics"]
    except (IndexError, ValueError, KeyError, TypeError):
        return errors + ["last line is not a perfbench result"]
    bound = golden["counter_bound"]
    for name, expected in want["counters"].items():
        if name not in metrics:
            errors.append("%s missing (was the run traced?)" % name)
            continue
        value = metrics[name]["value"]
        if value > expected * (1.0 + bound):
            errors.append("%s = %r grew more than %g%% over golden %r"
                          % (name, value, 100 * bound, expected))
        elif value < expected * (1.0 - bound):
            errors.append("%s = %r fell more than %g%% below golden %r; re-pin it"
                          % (name, value, 100 * bound, expected))
    return errors


def main():
    if len(sys.argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    workload, path = sys.argv[1], sys.argv[2]
    with open(GOLDEN) as f:
        golden = json.load(f)
    with open(path) as f:
        lines = [line.rstrip("\n") for line in f if line.strip()]
    errors = check(workload, lines, golden)
    for e in errors:
        sys.stderr.write("perfbench golden: %s: %s\n" % (workload, e))
    if not errors:
        print("perfbench golden: %s matches digest and work counters" % workload)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
