#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The script builds the `perfbench` package
(its own Cargo workspace, with path dependencies on the repository's
crates) in release mode into `$CARGO_TARGET_DIR` (default `.bench_build`),
then runs it with the same arguments; the binary validates them. The
benchmark's last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; this script re-prints it
as its own last line after checking its shape. Build output and
diagnostics go to standard error. Any failure (build, arguments, run,
malformed result) exits non-zero without printing a result.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg, code=1):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build(env):
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except FileNotFoundError:
        fail("cargo is not on PATH")
    if r.returncode != 0:
        fail(f"build failed (exit {r.returncode})")
    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    if not os.path.isfile(exe):
        fail(f"build produced no binary at {exe}")
    return exe


def check_result(line):
    try:
        res = json.loads(line)
    except json.JSONDecodeError as e:
        fail(f"last line is not JSON ({e}): {line!r}")
    if not isinstance(res, dict) or set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result has the wrong keys: {line!r}")
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        fail(f"attempted must be a positive integer: {line!r}")
    for name, m in res["metrics"].items():
        if not isinstance(m, dict) or not isinstance(m.get("value"), (int, float)):
            fail(f"metric {name} has no numeric value: {line!r}")
    return res


def main():
    argv = sys.argv[1:]
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    env["CARGO_TARGET_DIR"] = os.path.join(ROOT, target)
    exe = build(env)
    r = subprocess.run([exe] + argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail(f"benchmark exited with {r.returncode}", r.returncode)
    if argv == ["--self-test"]:
        sys.stderr.write(r.stdout)
        return
    if not lines:
        fail("benchmark printed no result")
    for l in lines[:-1]:
        print(l, file=sys.stderr)
    check_result(lines[-1])
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
