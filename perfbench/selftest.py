"""Self-tests of the benchmark itself, on tiny inputs.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

For every workload it checks that

1. a tiny run emits every metric ``BENCHMARK.json`` names, with its
   unit, in both trace modes, and passes its correctness gate;
2. the gate fails (``correct`` false, non-zero exit) when the checker
   is handed one deliberately wrong expected answer while the program
   is left untouched.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, *extra: str) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny", *extra],
        capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    failures = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            code, result = run(workload, trace)
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            expected = {m["name"]: m["unit"] for m in declared}
            if code != 0 or not result["correct"] or units != expected:
                failures.append(f"{workload} trace={trace}: exit {code}, "
                                f"correct {result['correct']}, metrics "
                                f"{sorted(set(units) ^ set(expected))} differ")
        code, result = run(workload, 0, "--wrong-answer")
        if code == 0 or result["correct"] or result["failed"] < 1:
            failures.append(f"{workload}: a wrong expected answer passed the gate")
        print(f"{workload}: {'ok' if not failures else 'FAILED'}", flush=True)
    for failure in failures:
        print("FAILED:", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
