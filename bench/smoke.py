"""Smoke test of the benchmark at reduced size.

    python3 bench/smoke.py

From the repository root.  For every workload, untraced and traced, it runs
``bench/run.py --small`` twice with one seed and checks that

- the run exits 0 and its last line is the result object with exactly the
  keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
- every metric that BENCHMARK.json lists (end-to-end untraced, per-layer
  traced) is printed, with its unit, as a finite number, and nothing else;
- the run is correct and the deterministic counts repeat exactly.

Last, it copies only BENCHMARK.json and the benchmark's own files into an
empty directory and checks that the benchmark refuses to run there.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, workload: str, trace: int, seed: int = 3) -> subprocess.CompletedProcess:
    return subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
                           "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_run(workload: str, trace: int) -> list[str]:
    problems = []
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    counts = []
    for _ in range(2):
        done = run(ROOT, workload, trace)
        tag = f"{workload} trace={trace}"
        if done.returncode != 0:
            return [f"{tag}: exit code {done.returncode}\n{done.stderr[-3000:]}"]
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        counts.append([ln for ln in lines if ln.startswith('{"counts"')])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{tag}: result keys {sorted(result)}")
        if not result["correct"]:
            problems.append(f"{tag}: incorrect run\n" + "\n".join(ln for ln in lines if ln.startswith("FAILED")))
        if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
            problems.append(f"{tag}: attempted {result['attempted']!r}")
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want:
            missing, extra = sorted(set(want) - set(got)), sorted(set(got) - set(want))
            wrong = sorted(k for k in set(got) & set(want) if got[k] != want[k])
            problems.append(f"{tag}: missing {missing}, unexpected {extra}, wrong units {wrong}")
        for name, m in result["metrics"].items():
            if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
                problems.append(f"{tag}: {name} = {m['value']!r}")
    if counts[0] != counts[1] or not counts[0]:
        problems.append(f"{workload} trace={trace}: counts differ between two runs at one seed")
    return problems


def check_bare() -> list[str]:
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for p in SPEC["paths"]:
        shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        done = run(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"correct"' in done.stdout:
        return ["the benchmark ran without the freelip sources"]
    return []


def main() -> int:
    problems = []
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            problems += check_run(w["name"], trace)
    problems += check_bare()
    for p in problems:
        print(p)
    print("smoke ok" if not problems else f"smoke FAILED ({len(problems)} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
