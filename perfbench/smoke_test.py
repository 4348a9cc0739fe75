#!/usr/bin/env python3
"""Fast smoke test of the benchmark.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json at minimal size (run.py --smoke),
untraced and traced, with the output checks on. Fails unless every run
exits 0, reports correct with no failed check, and its JSON result carries
exactly the end-to-end (untraced) or per-layer (traced) metric names and
units BENCHMARK.json lists, plus the printed-only metrics in the report.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PRINTED_ONLY = ("packets_per_s", "slice_ms_p50", "slice_ms_p90",
                "raw_setup_s", "raw_wall_s", "raw_sim_speed", "machine_speed",
                "goodput_mbps", "ctrl_goodput_kbps", "check_fail_rate")


def run(workload, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", trace, "--smoke"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=False)
    if done.returncode != 0:
        raise AssertionError(f"exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check(spec, workload, trace):
    report, result = run(workload, trace)
    assert list(result) == ["correct", "attempted", "failed", "metrics"], \
        list(result)
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 1, result
    listed = spec["per_layer" if trace == "1" else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, f"metrics {sorted(got)} != {sorted(want)}"
    for name in PRINTED_ONLY:
        assert any(line.split()[:1] == [name] for line in report), name
    assert any(line.startswith("perfbench context ") for line in report)
    assert any(line.startswith("perfbench digest ") for line in report)
    if trace == "1":
        assert any(line.startswith("perfbench layer table") for line in report)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for w in spec["workloads"]:
        for trace in ("0", "1"):
            try:
                check(spec, w["name"], trace)
                print(f"ok   {w['name']} trace {trace}")
            except (AssertionError, ValueError, subprocess.TimeoutExpired) as e:
                failures += 1
                print(f"FAIL {w['name']} trace {trace}: {e}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
