#!/usr/bin/env python3
"""Builds and runs the wall-clock simulator benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke]

Run it from the root of a checkout. The first run configures the
repository's own CMake build in .bench_build (or $CARGO_TARGET_DIR, when
set) with perfbench/attach.cmake attached, and builds the `perfbench`
target; later runs rebuild incrementally. Build output goes to
.bench_build/perfbench-build.log, so stdout carries only the benchmark's
report, whose last line is the JSON result. Per-run records (the layer
table, span totals and the simulated-result digest) are written to
.bench_build/perfbench-out/.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 175
WORKLOADS = ("cell16_saturated", "dense1024_saturated", "obss6_poisson_small",
             "fig10_sweep")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    log_path = build_dir / "perfbench-build.log"
    # The compiler's temporary files stay inside the checkout too.
    env = dict(os.environ, TMPDIR=str(build_dir / "tmp"))
    (build_dir / "tmp").mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root), "-B", str(build_dir),
                      "-DCMAKE_PROJECT_INCLUDE=" +
                      str(root / "perfbench" / "attach.cmake")])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "ab") as log:
        for cmd in steps:
            try:
                done = subprocess.run(cmd, cwd=root, env=env, stdout=log,
                                      stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if done.returncode != 0:
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed; see {log_path}")
    binary = build_dir / "perfbench"
    if not binary.exists():
        fail(f"no binary at {binary}")
    return binary


def git_sha(root):
    # Only ask git inside a git checkout, so it never searches the parent
    # directories.
    if not (root / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30,
                             check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def src_digest(root):
    """SHA-256 over the build inputs of the simulator: the top-level
    CMakeLists.txt and every file under src/."""
    h = hashlib.sha256()
    files = [root / "CMakeLists.txt"] + sorted(
        p for p in (root / "src").rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(root)).encode())
        h.update(b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--smoke", action="store_true",
                        help="minimal simulated work (smoke test)")
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        fail(f"{root} holds no simulator sources (CMakeLists.txt, src/)")
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(root, build_dir)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--git-sha", git_sha(root), "--src-digest", src_digest(root),
           "--out-dir", str(build_dir / "perfbench-out")]
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        fail(f"the benchmark ran past {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
