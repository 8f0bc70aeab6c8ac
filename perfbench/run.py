"""Benchmark entry point: one workload, one seed, one result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mine-probe --seed 1 --seconds 10 --trace 0

Workloads: ``mine-probe``, ``mine-scan-w2`` and ``serve-write`` (see
``workloads.py`` and ``README.md``).  With
``--trace 0`` the result carries the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the per-layer metrics.

The script builds what the program needs from the checkout's own
source (the optional native bit-vector kernel, cached under
``.bench_build/``).  A run covers several data sets drawn from the
seed.  Each data set is set up and measured for an equal share of the
time in its own process session, under one hard deadline for the whole
run.  A run fails, and the script exits non-zero, if an answer is
wrong, if a data set hangs, or if it leaves a process or a
``/dev/shm`` segment behind.  It never retries.  The last stdout line
is the JSON result: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each ``{"value": ..., "unit": ...}``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
SHM = Path("/dev/shm")
#: Hard limit on all of a run's data-set processes together.
RUN_DEADLINE_S = 165.0
#: Data sets per run, each drawn from the seed.
DATASETS = 3
#: The op behind ``op_p50_ms``, and the latencies the ``#`` lines report.
PRIMARY = {"mine-probe": "mine", "mine-scan-w2": "mine", "serve-write": "count"}
REPORTED = {
    "mine-probe": (("mine", (0.5,)),),
    "mine-scan-w2": (("mine", (0.5,)),),
    "serve-write": (("count", (0.5, 0.99)), ("append", (0.5, 0.99))),
}


def ms(seconds: list[float], q: float) -> float:
    """The ``q`` quantile of latencies in seconds, in milliseconds."""
    return float(np.percentile(seconds, q * 100)) * 1000.0


def session_processes(sid: int) -> list[int]:
    """PIDs still alive in process session ``sid``."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[3]) == sid and fields[0] != "Z":
            found.append(int(entry.name))
    return found


def shm_segments() -> set[str]:
    return set(os.listdir(SHM)) if SHM.is_dir() else set()


def build(env: dict) -> None:
    """Compile the native kernel from this checkout's source, if possible.

    The library is cached under ``.bench_build`` (``XDG_CACHE_HOME``),
    keyed by a hash of its source.  No backend is forced: the program
    picks the native kernel on its own when a cached build exists, and
    falls back to numpy when no compiler is present.
    """
    subprocess.run(
        [sys.executable, "-c",
         "from repro.core.kernels import native_available; native_available()"],
        env=env, check=True, timeout=600,
    )


def run_dataset(argv: list[str], env: dict,
                timeout: float) -> tuple[dict | None, list[str]]:
    """One data-set process, guarded; returns its result and any problems."""
    shm_before = shm_segments()
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    problems = []
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        problems.append("data set hung past the run deadline")
    time.sleep(0.2)  # let orphaned children finish exiting
    stray = session_processes(proc.pid)
    if stray:
        problems.append(f"left {len(stray)} process(es) running: {stray}")
        for pid in stray:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    leaked = shm_segments() - shm_before
    if leaked:
        problems.append(f"left /dev/shm segments {sorted(leaked)}")
        for name in leaked:
            (SHM / name).unlink(missing_ok=True)
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line, flush=True)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        problems.append(f"data set exited {proc.returncode} without a result")
        return None, problems
    if proc.returncode != 0:
        problems.append(f"data set exited {proc.returncode}")
    return result, problems


def aggregate(workload: str, subs: list[dict], trace: bool) -> dict:
    """The run's metrics from its data sets; prints the per-op lines."""
    latency: dict[str, list[float]] = {}
    for sub in subs:
        for op, values in sub["latency"].items():
            latency.setdefault(op, []).extend(values)
    for op, quantiles in REPORTED[workload]:
        figures = "  ".join(f"p{round(q * 100)} {ms(latency[op], q):.4f} ms"
                            for q in quantiles)
        print(f"# {op}: {figures}  (n={len(latency[op])}, "
              f"pooled over {len(subs)} data sets)")
    if trace:
        return {name: statistics.mean(s["layers"][name] for s in subs)
                for name in subs[0]["layers"]}
    # The data sets differ in cost.  A median pooled over their samples
    # follows whichever set sits in the middle; the mean of the per-set
    # medians averages the sets, as the pooled throughput does.
    return {
        "setup_s": statistics.median(s["setup_s"] for s in subs),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in subs),
        "ops_per_s": sum(s["ops"] for s in subs) / sum(s["elapsed"] for s in subs),
        "op_p50_ms": statistics.mean(ms(s["latency"][PRIMARY[workload]], 0.5)
                                     for s in subs),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", default="full",
                        help="input size (self-tests use 'tiny')")
    parser.add_argument("--wrong-answer", action="store_true",
                        help="hand the checker one wrong expected answer")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print(f"no program source under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in PRIMARY:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["XDG_CACHE_HOME"] = str(BUILD / "cache")
    build(env)

    deadline = time.monotonic() + RUN_DEADLINE_S
    work_dir = BUILD / "runs" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    subs, problems = [], []
    for index in range(DATASETS):
        argv = [sys.executable, str(HERE / "workloads.py"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--dataset", str(index),
                "--seconds", str(args.seconds / DATASETS),
                "--trace", str(args.trace), "--size", args.size,
                "--work-dir", str(work_dir)]
        if args.wrong_answer and index == 0:
            argv.append("--wrong-answer")
        result, found = run_dataset(argv, env, deadline - time.monotonic())
        problems += found
        if result is None:
            break
        subs.append(result)
    for path in work_dir.iterdir():
        if path.is_dir():
            shutil.rmtree(path)  # generated data; the spans-* files stay

    attempted = sum(s["attempted"] for s in subs)
    failed = sum(s["failed"] for s in subs)
    for problem in [p for s in subs for p in s["problems"]] + problems:
        print(f"# FAILED: {problem}")
    print(f"# failed_ratio {failed / max(1, attempted):.6f} "
          f"({failed} of {attempted})")
    metrics = {}
    if not problems:
        values = aggregate(args.workload, subs, bool(args.trace))
        unknown = set(values) - {m["name"] for m in wanted}
        if unknown:
            raise SystemExit(f"undeclared metrics {sorted(unknown)}")
        # On a traced run, a layer the workload never enters did no work.
        metrics = {m["name"]: {"value": values.get(m["name"], 0.0)
                               if args.trace else values[m["name"]],
                               "unit": m["unit"]} for m in wanted}
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed if correct else max(1, failed),
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
