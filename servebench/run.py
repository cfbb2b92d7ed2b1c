#!/usr/bin/env python3
"""Serving benchmark for omqe_server.

Builds the repository's omqe_server and the benchmark's load generator
(omqbench) from source, then runs one workload:

    python3 servebench/run.py --workload prepare-office --seed 1 \
        --seconds 45 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
the traced run. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. --workload all runs every workload
(interactive-chain too) and prints each metric by name with its unit,
including the request latency percentiles and error rate the run record
keeps outside the result. --smoke runs at a tiny size.

The build goes to $CARGO_TARGET_DIR (default .bench_build, relative to the
repository root); generated inputs, run records and spans go to
<build dir>/servebench-runs.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["prepare-office", "stream-chain", "interactive-chain"]
# omqbench must finish within this many seconds (the contract allows 180).
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print(f"servebench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(bdir):
    """Configures (once) and builds; returns (omqbench, omqe_server)."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no omqe sources at {ROOT}; run from a full checkout")
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "servebench-build.log"
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(bdir), "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                tail = log.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (full log: {log})")
    return bdir / "omqbench", bdir / "omqe" / "examples" / "omqe_server"


def commit_id():
    """The git commit, or a digest of the sources when ROOT is no git tree."""
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                            "--show-toplevel", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        lines = r.stdout.split()
        if r.returncode == 0 and len(lines) == 2 and Path(lines[0]) == ROOT:
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for sub in ("src", "examples"):
        for p in sorted((ROOT / sub).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "sources-sha256:" + h.hexdigest()[:16]


def run_one(exe, server, args, workload, commit):
    """Runs omqbench in its own process group; returns (exit code, stdout)."""
    cmd = [str(exe), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", str(server), "--out-dir",
           str(build_dir() / "servebench-runs"), "--commit", commit]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = None
    # The omqe_server the generator launched shares its process group; this
    # stops one left behind by a timeout or a crash (normally none is).
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    if out is None:
        proc.communicate()
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    args = ap.parse_args()

    start = time.monotonic()
    exe, server = build(build_dir())
    commit = commit_id()
    if args.workload != "all":
        code, out = run_one(exe, server, args, args.workload, commit)
        sys.stdout.write(out)
        sys.stdout.flush()
        sys.exit(code)

    worst = 0
    summary = {}
    for w in WORKLOADS:
        code, out = run_one(exe, server, args, w, commit)
        lines = out.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{w}: no result (exit {code})")
            worst = max(worst, code or 1)
            continue
        worst = max(worst, code)
        record = json.loads(lines[-2].removeprefix("# record "))
        print(f"{w}: correct={result['correct']} attempted={result['attempted']}"
              f" failed={result['failed']}")
        shown = {**result["metrics"], **record["extra_metrics"]}
        for name, m in shown.items():
            print(f"  {name:50s} {m['value']:>16.6g} {m['unit']}")
        summary[w] = result
    print(f"# {time.monotonic() - start:.0f} s")
    print(json.dumps(summary))
    sys.exit(worst)


if __name__ == "__main__":
    main()
