#!/usr/bin/env python3
"""Check every figure bench and example against tests/golden/figures.json.

Usage, from the repository root, after building every target:

  python3 tests/check_figure_golden.py build            # check
  python3 tests/check_figure_golden.py build --update   # rewrite the golden

Every bench (each build/bench/bench_* binary but bench_micro) runs its
--smoke grid six times: at SAGE_BENCH_THREADS 1 and 4, with SAGE_OBS=1 at 1
and 4 (these four also write --json), with --shards 1 at one thread and with
--shards 4 at four. Its full grid runs once at four threads, and once more
with --shards 4 when the bench has sharded entries. Every example in
build/examples runs once. Each stdout, and each --json record with its
wall-clock and thread fields zeroed, is hashed (the first 16 hex digits of
its SHA-256) and must equal its one entry:

  smoke, full                    --smoke and full-grid stdout
  json, json_obs                 the normalised --smoke --json record, obs
                                 off and obs on
  smoke_sharded, full_sharded    --shards stdout, only for a bench whose
                                 output --shards changes; without them the
                                 --shards runs must print `smoke`
  stdout                         an example's output

A binary without an entry, or an entry without a binary, fails the check.
--update rewrites the file from this build and prints every entry that
moved, but only when each entry's runs all agree; review the result with
`git diff tests/golden/figures.json`. The hashes assume glibc's libm, as
the perfbench golden does.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "figures.json")
ABOUT = ("SHA-256 prefixes of every figure bench's and example's output, "
         "checked and rewritten by tests/check_figure_golden.py. Update an "
         "entry in the same change that moves it on purpose.")
# Wall-clock time and the harness thread count legitimately vary per run.
VOLATILE = re.compile(
    rb'"(total_wall_ms|wall_ms|threads|records_per_wall_s)": [0-9.eE+-]+')

# (label, extra args, SAGE_BENCH_THREADS, SAGE_OBS, stdout entry, json entry)
SMOKE_RUNS = [
    ("threads=1", [], 1, False, "smoke", "json"),
    ("threads=4", [], 4, False, "smoke", "json"),
    ("obs threads=1", [], 1, True, "smoke", "json_obs"),
    ("obs threads=4", [], 4, True, "smoke", "json_obs"),
    ("--shards 1 threads=1", ["--shards", "1"], 1, False, "smoke_sharded", None),
    ("--shards 4 threads=4", ["--shards", "4"], 4, False, "smoke_sharded", None),
]


def digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def executables(directory, prefix=""):
    names = os.listdir(directory) if os.path.isdir(directory) else []
    return sorted(n for n in names if n.startswith(prefix)
                  and os.path.isfile(os.path.join(directory, n))
                  and os.access(os.path.join(directory, n), os.X_OK))


def run(binary, args, threads=None, obs=False, json_path=None):
    """Hash of one run's stdout, and of its normalised --json record if asked."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("SAGE_BENCH_THREADS", "SAGE_OBS")}
    if threads is not None:
        env["SAGE_BENCH_THREADS"] = str(threads)
    if obs:
        env["SAGE_OBS"] = "1"
    cmd = [binary] + args + (["--json", json_path] if json_path else [])
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE)
    if proc.returncode != 0:
        raise RuntimeError("%s exited %d: %s" % (" ".join(cmd[1:]) or "run",
                           proc.returncode, proc.stderr.decode()[-500:]))
    record = None
    if json_path:
        if not os.path.exists(json_path):
            raise RuntimeError("%s wrote no --json record" % " ".join(cmd[1:]))
        with open(json_path, "rb") as f:
            record = digest(VOLATILE.sub(rb'"\1": 0', f.read()))
        os.remove(json_path)
    return digest(proc.stdout), record


def bench_runs(binary, sharded, tmp):
    """Every run of one bench as {entry: [(label, hash), ...]}.

    `sharded` says whether the --shards runs have entries of their own; None
    lets the smoke runs decide (--update).
    """
    runs = {}
    json_path = os.path.join(tmp, "record.json")
    for label, args, threads, obs, out_key, json_key in SMOKE_RUNS:
        out, record = run(binary, ["--smoke"] + args, threads, obs,
                          json_path if json_key else None)
        runs.setdefault(out_key, []).append((label, out))
        if json_key:
            runs.setdefault(json_key, []).append((label, record))
    if sharded is None:
        sharded = ({h for _, h in runs["smoke_sharded"]}
                   != {h for _, h in runs["smoke"]})
    if not sharded:
        runs["smoke"] += runs.pop("smoke_sharded")
    runs["full"] = [("full threads=4", run(binary, [], 4)[0])]
    if sharded:
        runs["full_sharded"] = [("full --shards 4 threads=4",
                                 run(binary, ["--shards", "4"], 4)[0])]
    return runs


def compare(name, runs, want):
    """Mismatch messages of one binary's runs against its golden entry."""
    errors = []
    for key in sorted(set(runs) | set(want or {})):
        got = runs.get(key, [])
        hashes = {h for _, h in got}
        if len(hashes) > 1:
            errors.append("%s: %s disagrees across runs: %s" % (
                name, key, ", ".join("%s %s" % (h, label) for label, h in got)))
        elif want is not None and want.get(key) not in hashes:
            errors.append("%s: %s is %s, golden %s" % (
                name, key, hashes.pop() if hashes else "not run",
                want.get(key, "has no entry")))
    return errors


def main():
    args = [a for a in sys.argv[1:] if a != "--update"]
    update = "--update" in sys.argv[1:]
    if len(args) != 1:
        sys.stderr.write(__doc__)
        return 2
    build = args[0]
    golden = {}
    if os.path.exists(GOLDEN):
        with open(GOLDEN) as f:
            golden = json.load(f)
    found = {
        "benches": [b for b in executables(os.path.join(build, "bench"), "bench_")
                    if b != "bench_micro"],
        "examples": executables(os.path.join(build, "examples")),
    }
    errors = []
    moved = []
    fresh = {"about": ABOUT, "benches": {}, "examples": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for group, subdir in (("benches", "bench"), ("examples", "examples")):
            entries = golden.get(group, {})
            for name in sorted(set(entries) - set(found[group])):
                (moved if update else errors).append(
                    "%s: entry without a binary%s" % (name, ", removed" if update else ""))
            for name in found[group]:
                binary = os.path.join(build, subdir, name)
                want = entries.get(name)
                if want is None and not update:
                    errors.append("%s: binary without an entry" % name)
                    continue
                try:
                    if group == "benches":
                        sharded = None if update else "smoke_sharded" in want
                        runs = bench_runs(binary, sharded, tmp)
                    else:
                        runs = {"stdout": [("run", run(binary, [])[0])]}
                except RuntimeError as e:
                    errors.append("%s: %s" % (name, e))
                    continue
                bad = compare(name, runs, None if update else want)
                errors += bad
                if update and not bad:
                    entry = {key: got[0][1] for key, got in runs.items()}
                    fresh[group][name] = entry
                    changed = sorted(k for k in set(entry) | set(want or {})
                                     if entry.get(k) != (want or {}).get(k))
                    if changed:
                        moved.append("%s: %s" % (name, ", ".join(changed)))
    for e in errors:
        sys.stderr.write("figure golden: %s\n" % e)
    if update:
        if errors:
            sys.stderr.write("figure golden: not updated, runs disagree or failed\n")
            return 1
        with open(GOLDEN, "w") as f:
            json.dump(fresh, f, indent=2, sort_keys=True)
            f.write("\n")
        for m in moved:
            print("figure golden: moved %s" % m)
        print("figure golden: %d binaries moved" % len(moved))
        return 0
    if errors:
        names = sorted({e.split(":")[0] for e in errors})
        sys.stderr.write("figure golden: %d binaries differ: %s\n"
                         % (len(names), " ".join(names)))
        return 1
    print("figure golden: %d benches and %d examples match"
          % (len(found["benches"]), len(found["examples"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
