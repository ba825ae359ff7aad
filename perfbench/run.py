#!/usr/bin/env python3
"""Builds and runs the cloudsched benchmark for one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--smoke]

Run it from the root of the repository. It builds the `perfbench` binary
(release, offline; `CARGO_TARGET_DIR` is honoured), runs the workload in a
child process of its own, adds that process's peak resident memory to the
untraced metrics as `peak_rss_mb`, and prints the result line last:

    {"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}

With `--trace 1` the spans of the traced pass are written to
`perfbench/out/<workload>-seed<N>.spans.jsonl`.

Exit code 0 when every output check passed; 1 when the build, the run or an
output check failed; 2 on a usage error.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("kernel-burst", "fleet-p2c64", "serve-wal")


def build():
    """Builds the benchmark; returns the executable's path, or None."""
    cmd = [
        "cargo", "build", "--release", "--offline",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--message-format=json-render-diagnostics",
    ]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    except OSError as e:
        print(f"run.py: cannot run cargo: {e}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        return None
    exe = None
    for line in proc.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if (msg.get("reason") == "compiler-artifact"
                and msg.get("target", {}).get("name") == "perfbench"
                and msg.get("executable")):
            exe = msg["executable"]
    return exe


def run_child(argv):
    """Runs the benchmark binary; returns (exit code, stdout, peak RSS MiB)."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    # Linux reports ru_maxrss in KiB.
    return proc.returncode, out, usage.ru_maxrss / 1024.0


def main():
    ap = argparse.ArgumentParser(description="cloudsched benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs, for the benchmark's own tests")
    args = ap.parse_args()
    if args.seed < 0 or not args.seconds >= 0:
        ap.error("--seed and --seconds must be non-negative")

    exe = build()
    if exe is None:
        print("run.py: the benchmark did not build", file=sys.stderr)
        return 1

    argv = [exe, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.smoke:
        argv.append("--smoke")
    if args.trace == "1":
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        argv += ["--spans", os.path.join(
            out_dir, f"{args.workload}-seed{args.seed}.spans.jsonl")]

    code, out, peak_mib = run_child(argv)
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if result is None or code not in (0, 1):
        sys.stdout.write(out)
        print(f"run.py: the benchmark exited with {code} and no result", file=sys.stderr)
        return 1
    if args.trace == "0":
        result["metrics"]["peak_rss_mb"] = {"value": peak_mib, "unit": "MiB"}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result, separators=(",", ":")))
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
