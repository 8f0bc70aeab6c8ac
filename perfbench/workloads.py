"""The benchmark workloads; one process runs one data set of one.

Usage (normally through ``run.py``, which adds the hang and leak guard
and pools the data sets of a run)::

    python3 perfbench/workloads.py --workload mine-probe --seed 1 \
        --dataset 0 --seconds 3.3 --trace 0 --work-dir .bench_build/work

Every input is generated from ``--seed`` and ``--dataset``: the IBM
Quest spec (T10.I4.D10K, |V| = 2000, 400 potential patterns), the count
pool, the Zipf draws and the append tokens.  The program only ever
receives the generated data.  Every answer is checked.  The last stdout
line is this data set's JSON result, which ``run.py`` aggregates.

* ``mine-probe``: repeated warm serial ``mine(db, bbs, tau, "dfp")`` at
  m = 400, so filtering and integrated probing through the 64-page
  buffer pool share the time (the database is about 120 simulated pages).
* ``mine-scan-w2``: repeated warm ``mine(db, bbs, tau, "sfs",
  workers=2)`` at m = 800, the parallel filter and the parallel
  sequential scan on the persistent two-process pool.
* ``serve-write``: a durable DiskBBS + journal server.  One connection
  sends tokened ``append`` requests, the other ``count`` requests.
  Every append adds a segment and count cost grows with segments, so
  the data set is measured in rounds.  Each round starts the server on
  a fresh copy of the compacted base store and ends after the same
  appends.

A traced run (``--trace 1``) measures half its time with the program
untraced and half traced, and reports the difference as the tracing
overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.baselines.eclat import eclat
from repro.core import bitvec
from repro.core.bbs import BBS
from repro.core.mining import mine
from repro.core.parallel import shutdown_pools
from repro.core.pool import mp_context
from repro.data.database import TransactionDatabase
from repro.data.ibm import QuestSpec, generate_transactions
from repro.errors import ReproError
from repro.service.client import ServiceClient

import run
import tracing

HERE = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Size:
    """Input sizes; ``full`` is the measured configuration."""

    n_transactions: int
    n_items: int
    n_patterns: int
    probe_answer: int    # frequent itemsets mine-probe calibrates to
    scan_answer: int     # frequent itemsets mine-scan-w2 calibrates to
    pool: int            # distinct itemsets the count requests draw from
    appends: int         # appends per serve-write round


SIZES = {
    "full": Size(10_000, 2000, 400, 2800, 6500, 4 * 4096, 500),
    "tiny": Size(2000, 2000, 100, 300, 600, 256, 8),
}

#: Zipf exponent of the count-pool draws.
ZIPF_S = 1.0
#: Operations that delimit or manage a traced server, not load.
CONTROL_OPS = frozenset({"metrics", "status", "shutdown", "health"})


def quest_spec(size: Size, seed: int, extra: int = 0) -> QuestSpec:
    return QuestSpec(
        n_transactions=size.n_transactions + extra,
        n_items=size.n_items,
        avg_transaction_size=10,
        avg_pattern_size=4,
        n_patterns=size.n_patterns,
        seed=seed,
    )


def environment(seed: int) -> dict:
    """The stamp printed with every result."""
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "start_method": mp_context().get_start_method(),
        "kernel": bitvec.active_kernel_backend(),
    }


def join_stray_threads(timeout: float = 10.0) -> None:
    """Join every non-main thread (executor managers of closed pools).

    A thread that outlives its pool can stall interpreter exit, so the
    data-set process waits for them, bounded, before it reports.
    """
    for thread in threading.enumerate():
        if thread is not threading.main_thread():
            thread.join(timeout)
            if thread.is_alive():
                raise RuntimeError(f"thread {thread.name} did not stop")


class Outcome:
    """Attempted and failed operations and per-op latencies of one phase."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.elapsed = 0.0
        self.latency: dict[str, list[float]] = {}
        self.problems: list[str] = []
        self._lock = threading.Lock()

    def record(self, op: str, seconds: float | None) -> None:
        with self._lock:
            self.attempted += 1
            if seconds is None:
                self.failed += 1
            else:
                self.latency.setdefault(op, []).append(seconds)

    def fail(self, message: str) -> None:
        """A wrong answer: counts as one failed operation."""
        with self._lock:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(message)

    def merge(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems[: 5 - len(self.problems)]

    def n(self, op: str) -> int:
        return len(self.latency.get(op, ()))

    def ms(self, op: str, q: float) -> float:
        """The ``q`` quantile of ``op`` latency in milliseconds."""
        return run.ms(self.latency[op], q)


# -- mining ---------------------------------------------------------------------


def eclat_oracle(transactions, floor_fraction: float,
                 answer: int) -> tuple[int, dict]:
    """The calibrated threshold and Eclat's ``{itemset: count}`` above it.

    Eclat at the floor fraction is the oracle for every threshold at or
    above it; the threshold is the support of the ``answer``-th most
    frequent itemset.
    """
    db = TransactionDatabase(transactions)
    floor = math.ceil(floor_fraction * len(db))
    found = eclat(db, floor).patterns
    counts = sorted((p.count for p in found.values()), reverse=True)
    threshold = max(floor, counts[min(answer, len(counts)) - 1])
    return threshold, {itemset: pattern.count for itemset, pattern in found.items()
                       if pattern.count >= threshold}


def children_peak_rss_mb() -> float:
    """The largest peak RSS (``VmHWM``) among this process's live children."""
    me, peak = str(os.getpid()), 0.0
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            status = dict(line.split(":", 1) for line in
                          (entry / "status").read_text().splitlines())
        except (OSError, ValueError):
            continue
        if status.get("PPid", "").strip() == me and "VmHWM" in status:
            peak = max(peak, int(status["VmHWM"].split()[0]) / 1024.0)
    return peak


class MineWorkload:
    """Repeated warm mines of one (index, threshold, scheme, workers).

    The support threshold is calibrated per data set: it is the support
    of the ``answer``-th most frequent itemset, so every data set yields
    about the same number of frequent itemsets.  At a fixed fraction the
    answer size (and the mine time) varied about 2x across Quest seeds
    of this spec, which no run length could average out.
    """

    primary = "mine"
    throughput_ops = ("mine",)

    def __init__(self, size: Size, seed: int, work_dir: Path, *, m: int,
                 answer: int, floor: float, algorithm: str, workers: int):
        self.size, self.seed = size, seed
        self.m, self.answer, self.floor = m, answer, floor
        self.algorithm, self.workers = algorithm, workers
        self.tracer = tracing.Tracer()
        self.parallel_samples: list[dict] = []

    def _mine(self):
        return mine(self.db, self.bbs, self.threshold, self.algorithm,
                    workers=self.workers)

    def setup(self, wrong_answer: bool) -> None:
        transactions = generate_transactions(quest_spec(self.size, self.seed))
        # The oracle runs in a process of its own, so Eclat's tid-sets
        # never count toward the mining processes' peak RSS.
        with ProcessPoolExecutor(1, mp_context=mp_context()) as oracle:
            self.threshold, self.oracle = oracle.submit(
                eclat_oracle, transactions, self.floor, self.answer).result()
        self.db = TransactionDatabase(transactions)
        self.bbs = BBS.from_database(self.db, m=self.m)
        if wrong_answer:
            singleton = min((s for s in self.oracle if len(s) == 1), key=sorted)
            self.oracle[singleton] += 1
        self.warm = self._mine()  # the cold mine; spawns the pool if workers > 1

    def teardown(self) -> None:
        # Read before the pool stops: the live children are the pool
        # workers, never the reaped oracle process.
        self.peak_mb = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            children_peak_rss_mb())
        self.db = self.bbs = self.warm = None
        shutdown_pools()
        join_stray_threads()

    def check(self, result, outcome: Outcome) -> None:
        """Eclat's itemsets; exact counts equal, bounded counts >= truth."""
        if set(result.patterns) != set(self.oracle):
            outcome.fail(f"{len(result.patterns)} patterns, Eclat found "
                         f"{len(self.oracle)}")
            return
        for itemset, pattern in result.patterns.items():
            truth = self.oracle[itemset]
            wrong = pattern.count != truth if pattern.exact else pattern.count < truth
            if wrong:
                outcome.fail(f"{sorted(itemset)}: {pattern.count} "
                             f"(exact={pattern.exact}), Eclat {truth}")
                return

    def phase(self, seconds: float, outcome: Outcome, trace: bool) -> dict:
        """Mine until ``seconds`` pass; returns summed per-mine counters."""
        if self.warm is not None:  # the set-up mine is checked once, too
            outcome.attempted += 1
            self.check(self.warm, outcome)
            self.warm = None
        if trace:
            tracing.install_mining(self.tracer, self.parallel_samples)
        totals = dict.fromkeys(
            ("mines", "estimated", "patterns", "certified", "probed_tuples",
             "false_drops", "busy_s", "batches", "hits", "misses",
             "page_reads"), 0)
        started = time.perf_counter()
        try:
            while time.perf_counter() - started < seconds:
                op_started = time.perf_counter()
                try:
                    if trace:
                        with self.tracer.root("bench.mine"):
                            result = self._mine()
                    else:
                        result = self._mine()
                except ReproError as exc:
                    outcome.record("mine", None)
                    outcome.fail(f"mine raised {exc!r}")
                    continue
                outcome.record("mine", time.perf_counter() - op_started)
                self.check(result, outcome)
                totals["mines"] += 1
                totals["estimated"] += result.filter_stats.count_itemset_calls
                totals["patterns"] += len(result.patterns)
                totals["certified"] += result.certified_fraction
                totals["probed_tuples"] += result.refine_stats.probed_tuples
                totals["false_drops"] += result.refine_stats.false_drops
                # result.io includes the workers' I/O on parallel mines.
                totals["hits"] += result.io.cache_hits
                totals["misses"] += result.io.cache_misses
                totals["page_reads"] += result.io.page_reads
                info = getattr(result, "parallel_info", None)
                if info is not None:
                    totals["busy_s"] += (sum(info["batch_seconds"])
                                         + sum(info["scan_seconds"]))
                    totals["batches"] += info["batches"]
        finally:
            self.tracer.uninstall()
        outcome.elapsed = time.perf_counter() - started
        return totals

    def layers(self, totals: dict, work_dir: Path, tag) -> tuple[dict, dict]:
        """Per-mine layer metrics of the traced phase, and its tree."""
        self.tracer.dump(work_dir / f"spans-mine-{tag}.jsonl")
        mines = max(1, totals["mines"])
        tree = tracing.breakdown(self.tracer.spans, "bench.mine")
        own, calls = tree["self_s"], tree["calls"]
        looked_up = totals["hits"] + totals["misses"]
        imbalance = [max(s.values()) / statistics.mean(s.values())
                     for s in self.parallel_samples]
        return {
            "core.filters.prepare_s": own.get("core.filters.prepare", 0.0) / mines,
            "core.filters.walk_self_s": own.get("core.filters.walk", 0.0) / mines,
            "core.filters.estimated_itemsets": totals["estimated"] / mines,
            "core.filters.survivor_ratio":
                totals["patterns"] / max(1, totals["estimated"]),
            "core.checkcount.certified_ratio": totals["certified"] / mines,
            "core.kernels.row_popcount_s":
                own.get("core.kernels.row_popcount", 0.0) / mines,
            "core.kernels.row_popcount_calls":
                calls.get("core.kernels.row_popcount", 0) / mines,
            "core.refine.probe_s": own.get("core.refine.probe", 0.0) / mines,
            "core.refine.probed_tuples": totals["probed_tuples"] / mines,
            "core.refine.false_drops": totals["false_drops"] / mines,
            "data.database.page_hit_ratio":
                totals["hits"] / looked_up if looked_up else 0.0,
            "data.database.page_reads": totals["page_reads"] / mines,
            "core.parallel.filter_wait_s":
                own.get("core.parallel.filter_wait", 0.0) / mines,
            "core.parallel.scan_wait_s":
                own.get("core.parallel.scan_wait", 0.0) / mines,
            "core.parallel.worker_busy_s": totals["busy_s"] / mines,
            "core.parallel.imbalance":
                statistics.mean(imbalance) if imbalance else 0.0,
            "core.parallel.batches": totals["batches"] / mines,
        }, tree

    def peak_rss_mb(self) -> float:
        return self.peak_mb

    def notes(self) -> list[str]:
        return [f"threshold {self.threshold}: {len(self.oracle)} frequent "
                f"itemsets, each mine checked against Eclat"]


# -- serving --------------------------------------------------------------------


class ServerProcess:
    """A ``repro serve`` process started through ``serve_entry.py``."""

    def __init__(self, work_dir: Path, serve_args: list[str], *, trace: bool):
        self.summary = work_dir / f"server-{time.monotonic_ns()}.json"
        self.stderr = self.summary.with_suffix(".err")
        argv = [sys.executable, str(HERE / "serve_entry.py"),
                "--summary", str(self.summary)]
        if trace:
            argv.append("--trace")
        with open(self.stderr, "w") as err:
            self.proc = subprocess.Popen(
                argv + ["--", "serve", "--port", "0", *serve_args],
                stdout=subprocess.PIPE, stderr=err, text=True,
            )
        self.port = self._await_port(timeout=60.0)

    def _await_port(self, timeout: float) -> int:
        watchdog = threading.Timer(timeout, self.proc.kill)
        watchdog.start()
        try:
            for line in self.proc.stdout:
                if line.startswith("serving on "):
                    return int(line.rsplit(":", 1)[1])
        finally:
            watchdog.cancel()
        self.kill()
        raise RuntimeError(f"server did not announce its port: "
                           f"{self.stderr.read_text()[-2000:]}")

    def client(self) -> ServiceClient:
        return ServiceClient("127.0.0.1", self.port, timeout=60.0)

    def stop(self) -> dict:
        """Drain on SIGTERM and return the entry point's summary."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60.0)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("server did not drain within 60 s") from None
        if self.proc.returncode != 0:
            raise RuntimeError(f"server exited {self.proc.returncode}: "
                               f"{self.stderr.read_text()[-2000:]}")
        summary = json.loads(self.summary.read_text())
        if summary["spans"]:
            summary["spans_path"] = summary["spans"]
            with open(summary["spans"], encoding="utf-8") as fh:
                summary["spans"] = [json.loads(line) for line in fh]
        return summary

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def count_pool(transactions, size: Size, rng) -> list[tuple]:
    """Distinct 1-3-item subsets of generated transactions, in draw order."""
    pool, seen = [], set()
    while len(pool) < size.pool:
        tx = transactions[int(rng.integers(len(transactions)))]
        k = min(len(tx), int(rng.integers(1, 4)))
        itemset = tuple(sorted(int(i) for i in rng.choice(tx, k, replace=False)))
        if itemset not in seen:
            seen.add(itemset)
            pool.append(itemset)
    return pool


class ZipfPool:
    """Zipf(``ZIPF_S``) draws over the count pool by rank."""

    def __init__(self, pool: list[tuple]):
        self.pool = pool
        weights = 1.0 / np.arange(1, len(pool) + 1) ** ZIPF_S
        self.cdf = np.cumsum(weights / weights.sum())

    def draw(self, rng, n: int = 1) -> list[tuple]:
        ranks = np.searchsorted(self.cdf, rng.random(n), side="right")
        return [self.pool[min(int(r), len(self.pool) - 1)] for r in ranks]


def closed_loop(steps, seconds: float) -> float:
    """Run each ``step()`` on its own thread until ``seconds`` pass.

    Each thread is one connection that waits for every reply before
    sending again.  A step returns False to end its connection; the
    loop ends when the time is up or every connection has ended.
    Returns the elapsed wall seconds.
    """
    stop = threading.Event()
    errors: list[BaseException] = []

    def drive(step):
        try:
            while not stop.is_set() and step():
                pass
        except BaseException as exc:  # re-raised after the join below
            errors.append(exc)

    threads = [threading.Thread(target=drive, args=(s,)) for s in steps]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    while (any(t.is_alive() for t in threads)
           and time.perf_counter() - started < seconds):
        time.sleep(0.005)
    stop.set()
    for thread in threads:
        thread.join(120.0)
        if thread.is_alive():
            raise RuntimeError("a client connection did not stop")
    if errors:
        raise errors[0]
    return time.perf_counter() - started


def timed(outcome: Outcome, op: str, call):
    """Time one request; a refused or failed request counts as failed."""
    started = time.perf_counter()
    try:
        reply = call()
    except (ReproError, OSError) as exc:
        outcome.record(op, None)
        outcome.fail(f"{op} failed: {exc!r}")
        return None
    outcome.record(op, time.perf_counter() - started)
    return reply


class ServeWrite:
    """The durable server under tokened appends beside counts, in rounds."""

    primary = "count"
    throughput_ops = ("count", "append")
    m = 400

    def __init__(self, size: Size, seed: int, work_dir: Path):
        self.size, self.seed, self.work_dir = size, seed, work_dir
        work_dir.mkdir(parents=True, exist_ok=True)
        self.rounds = 0
        self.server: ServerProcess | None = None
        self.summaries: list[dict] = []
        #: (metrics before, metrics after) around every measured round.
        self.windows: list[tuple[dict, dict]] = []
        self.estimates: dict[tuple, int] = {}

    def setup(self, wrong_answer: bool) -> None:
        from repro.storage.diskbbs import DiskBBS
        from repro.storage.txfile import TransactionFileWriter

        n_base = self.size.n_transactions
        transactions = generate_transactions(
            quest_spec(self.size, self.seed, extra=self.size.appends))
        base, self.appends = transactions[:n_base], transactions[n_base:]
        rng = np.random.default_rng([self.seed, 1])
        self.pool = ZipfPool(count_pool(base, self.size, rng))
        self.tokens = [2**32 + int(t) for t in rng.choice(
            10**12, len(self.appends), replace=False)]
        self.base_dir = self.work_dir / "base"
        shutil.rmtree(self.base_dir, ignore_errors=True)
        self.base_dir.mkdir(parents=True)
        with TransactionFileWriter(self.base_dir / "base.tx") as writer:
            for tx in base:
                writer.append(tx)
        with DiskBBS.create(self.base_dir / "base.bbsd", m=self.m) as store:
            for tx in base:
                store.insert(tx)
            store.compact()
        # Oracle: the local BBS over the base, every append's signature
        # positions, and the whole database for the final exact count.
        self.bbs = BBS.from_database(TransactionDatabase(base), m=self.m)
        family = self.bbs.hash_family
        self.signatures = [frozenset(family.itemset_positions(set(tx)).tolist())
                           for tx in self.appends]
        self.final_db = TransactionDatabase(transactions)
        if wrong_answer:
            first = self.pool.pool[0]
            self.estimates[first] = self.estimate(first) + 1
        self.server = self.start(trace=False)

    def start(self, *, trace: bool) -> ServerProcess:
        """A server on a fresh copy of the compacted base store."""
        run_dir = self.work_dir / "run"
        shutil.rmtree(run_dir, ignore_errors=True)
        shutil.copytree(self.base_dir, run_dir)
        return ServerProcess(
            self.work_dir,
            ["--db", str(run_dir / "base.tx"),
             "--index", str(run_dir / "base.bbsd"), "--durable"],
            trace=trace)

    def stop_server(self) -> None:
        if self.server is not None:
            server, self.server = self.server, None
            self.summaries.append(server.stop())

    def teardown(self) -> None:
        self.stop_server()

    def estimate(self, itemset: tuple) -> int:
        """The local BBS estimate over the base (memoised)."""
        value = self.estimates.get(itemset)
        if value is None:
            value = self.estimates[itemset] = self.bbs.count_itemset(itemset)
        return value

    def estimate_at(self, itemset: tuple, epoch: int) -> int:
        """The BBS estimate once the first ``epoch`` appends are applied."""
        wanted = frozenset(
            self.bbs.hash_family.itemset_positions(set(itemset)).tolist())
        return self.estimate(itemset) + sum(
            1 for sig in self.signatures[:epoch] if wanted <= sig)

    def round(self, outcome: Outcome, rng) -> float:
        """All appends on one connection, counts on the other, then checks."""
        acks: list = []
        counts: list = []
        appender, counter = self.server.client(), self.server.client()
        try:
            def append_step() -> bool:
                index = len(acks)
                acks.append(timed(outcome, "append", lambda: appender.append(
                    self.appends[index], token=self.tokens[index])))
                return len(acks) < len(self.appends)

            def count_step() -> bool:
                itemset = self.pool.draw(rng)[0]
                reply = timed(outcome, "count", lambda: counter.count(itemset))
                if reply is not None:
                    counts.append((itemset, reply["estimate"], reply["epoch"]))
                return len(acks) < len(self.appends)

            before = counter.metrics()
            elapsed = closed_loop([append_step, count_step], 600.0)
            probe = self.pool.pool[0]
            final = timed(outcome, "final_exact",
                          lambda: counter.count(probe, exact=True))
            status = counter.status()
            self.windows.append((before, counter.metrics()))
        finally:
            appender.close()
            counter.close()
        self.check_round(acks, counts, final, status, outcome)
        return elapsed

    def check_round(self, acks, counts, final, status, outcome: Outcome) -> None:
        outcome.attempted += 1  # the end-state check counts as one operation
        n_base = self.size.n_transactions
        positions = [a["position"] for a in acks if a is not None]
        if positions != list(range(n_base, n_base + len(self.appends))):
            outcome.fail("the tokens were not ACKed once each at distinct "
                         "consecutive positions")
        if any(a is not None and a["deduped"] for a in acks):
            outcome.fail("a first-time token was answered as a duplicate")
        if status["n_transactions"] != n_base + len(positions):
            outcome.fail(f"server holds {status['n_transactions']} "
                         f"transactions, expected {n_base + len(positions)}")
        for itemset, estimate, epoch in counts:
            # An append can land between the epoch read and the batched
            # AND pass (see handlers._op_count), so either state is right.
            if estimate not in (self.estimate_at(itemset, epoch),
                                self.estimate_at(itemset, epoch + 1)):
                outcome.fail(f"count {itemset} at epoch {epoch}: {estimate}")
        if final is not None:
            itemset = tuple(final["items"])
            if final["estimate"] != self.estimate_at(itemset, len(positions)):
                outcome.fail(f"final estimate {itemset}: {final['estimate']}")
            truth = self.final_db.support(itemset)
            if final["exact"] != truth:
                outcome.fail(f"final exact {itemset}: {final['exact']}, "
                             f"support {truth}")

    def phase(self, seconds: float, outcome: Outcome, trace: bool) -> None:
        """Whole rounds, as many as bring the measured time closest to ``seconds``.

        At least one round runs; another starts only while the time
        left exceeds half a round, which also spares server restarts.
        """
        rng = np.random.default_rng([self.seed, 3 if trace else 4])
        last = 0.0
        while outcome.elapsed + last / 2 < seconds:
            if self.server is None or trace:
                self.stop_server()
                self.server = self.start(trace=trace)
            last = self.round(outcome, rng)
            outcome.elapsed += last
            self.rounds += 1
            self.stop_server()

    def peak_rss_mb(self) -> float:
        return max(s["maxrss_mb"] for s in self.summaries)

    def notes(self) -> list[str]:
        return [f"{self.rounds} rounds of {len(self.appends)} appends"]

    def layers(self, _totals, work_dir: Path, tag) -> tuple[dict, dict]:
        """Per-request layer metrics of the traced rounds, and their tree."""
        own: dict[str, float] = {}
        calls: dict[str, int] = {}
        roots, root_s, decode_s = 0, 0.0, 0.0
        traced = [s for s in self.summaries if s["spans"]]
        for number, summary in enumerate(traced):
            spans = summary["spans"]
            os.replace(summary["spans_path"],
                       work_dir / f"spans-server-{tag}-{number}.jsonl")
            inside = measured_window(spans)
            tree = tracing.breakdown(spans, tracing.REQUEST_ROOT, inside)
            roots += tree["roots"]
            root_s += tree["root_s"]
            decode_s += sum(
                s[2] - s[1] for i, s in enumerate(spans)
                if s[0] == "service.protocol.decode" and inside(i))
            for name, value in tree["self_s"].items():
                own[name] = own.get(name, 0.0) + value
            for name, value in tree["calls"].items():
                calls[name] = calls.get(name, 0) + value
        delta: dict[str, float] = {}
        for before, after in self.windows[len(self.windows) - len(traced):]:
            for group in ("cache", "io", "requests"):
                for key, value in after[group].items():
                    name = f"{group}.{key}"
                    delta[name] = (delta.get(name, 0) + value
                                   - before[group].get(key, 0))
        per = max(1, roots)
        hits, misses = delta.get("cache.hits", 0), delta.get("cache.misses", 0)
        appends = max(1, delta.get("requests.append", 0))
        metrics = {
            "core.refine.probe_s": own.get("core.refine.probe", 0.0) / per,
            "service.protocol.decode_s": decode_s / per,
            "service.protocol.parse_s": own.get("service.protocol.parse", 0.0) / per,
            "service.protocol.encode_s":
                own.get("service.protocol.encode", 0.0) / per,
            "service.server.write_s": own.get("service.server.write", 0.0) / per,
            "service.server.admission_wait_s":
                own.get("service.server.admission_wait", 0.0) / per,
            "service.cache.count_hit_ratio": hits / max(1, hits + misses),
            "storage.txfile.fsyncs_per_append": delta.get("io.fsyncs", 0) / appends,
            "storage.txfile.journal_sync_s":
                own.get("storage.txfile.journal_sync", 0.0) / per,
            "storage.diskbbs.flush_s": own.get("storage.diskbbs.flush", 0.0) / per,
            "storage.diskbbs.count_s": own.get("storage.diskbbs.count", 0.0) / per,
            "storage.diskbbs.slice_reads_per_count": delta.get("io.slice_reads", 0)
                / max(1, delta.get("requests.count", 0)),
        }
        for op in ("count", "append"):
            name = tracing.HANDLE_PREFIX + op
            metrics[f"service.handlers.handle_s.{op}"] = (
                own.get(name, 0.0) / max(1, calls.get(name, 0)))
        tree = {"roots": roots, "root_s": root_s, "self_s": own, "calls": calls}
        return metrics, tree


def measured_window(spans: list[list]):
    """Predicate: span index lies between the first and last ``metrics`` call.

    The client brackets every measured round with a ``metrics``
    request, so a traced server's load spans are told apart from its
    control traffic without a side channel.  Requests whose op is a
    control op are excluded.
    """
    ops = tracing.root_ops(spans, tracing.REQUEST_ROOT, tracing.HANDLE_PREFIX)
    marks = sorted(i for i, op in ops.items() if op == "metrics")
    if len(marks) < 2:
        return lambda index: False
    opened, closed = spans[marks[0]][2], spans[marks[-1]][1]

    def inside(index: int) -> bool:
        span = spans[index]
        return (opened <= span[1] and span[2] <= closed
                and ops.get(index) not in CONTROL_OPS)

    return inside


def make_workload(name: str, size: Size, seed: int, work_dir: Path):
    if name == "mine-probe":
        return MineWorkload(size, seed, work_dir, m=400, answer=size.probe_answer,
                            floor=0.006, algorithm="dfp", workers=1)
    if name == "mine-scan-w2":
        return MineWorkload(size, seed, work_dir, m=800, answer=size.scan_answer,
                            floor=0.003, algorithm="sfs", workers=2)
    if name == "serve-write":
        return ServeWrite(size, seed, work_dir)
    raise SystemExit(f"unknown workload {name!r}")


def dataset_seed(seed: int, index: int) -> int:
    """The Quest seed of data set ``index`` of a run seeded ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def main() -> int:
    parser = argparse.ArgumentParser(description="one data set of a workload")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dataset", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--wrong-answer", action="store_true",
                        help="hand the checker one wrong expected answer")
    args = parser.parse_args()
    work_dir = Path(args.work_dir)
    if args.dataset == 0:
        print("# env " + json.dumps(environment(args.seed)), flush=True)

    quest_seed = dataset_seed(args.seed, args.dataset)
    workload = make_workload(args.workload, SIZES[args.size], quest_seed,
                             work_dir / str(args.dataset))
    started = time.perf_counter()
    workload.setup(args.wrong_answer)
    setup_s = time.perf_counter() - started
    outcome, untraced = Outcome(), Outcome()
    try:
        if args.trace:
            workload.phase(args.seconds / 2, untraced, trace=False)
            totals = workload.phase(args.seconds / 2, outcome, trace=True)
        else:
            workload.phase(args.seconds, outcome, trace=False)
    finally:
        workload.teardown()
        shutdown_pools()
        join_stray_threads()

    primary = workload.primary
    result = {
        "setup_s": setup_s,
        "peak_rss_mb": workload.peak_rss_mb(),
        "elapsed": outcome.elapsed,
        "ops": sum(outcome.n(op) for op in workload.throughput_ops),
        "latency": outcome.latency,
        "layers": None,
    }
    print(f"# data set {args.dataset} (Quest seed {quest_seed}): set-up "
          f"{setup_s:.4f} s, {primary} p50 {outcome.ms(primary, 0.5):.4f} ms, "
          f"{result['ops'] / outcome.elapsed:.3f} ops/s, "
          f"peak RSS {result['peak_rss_mb']:.1f} MB, "
          + ", ".join(workload.notes()), flush=True)
    if args.trace:
        layers, tree = workload.layers(totals, work_dir, args.dataset)
        own, roots = tree["self_s"], max(1, tree["roots"])
        overhead = outcome.ms(primary, 0.5) / untraced.ms(primary, 0.5) - 1.0
        layers.update({
            "bench.root_s": tree["root_s"] / roots,
            "bench.unattributed_s": own.get("unattributed", 0.0) / roots,
            "bench.trace_overhead_ratio": overhead,
        })
        result["layers"] = layers
        attributed = sum(v for k, v in own.items() if k != "unattributed")
        residual = tree["root_s"] - sum(own.values())
        print(f"# data set {args.dataset} breakdown over {tree['roots']} roots: "
              f"root {tree['root_s']:.6f} s = layers {attributed:.6f} s + "
              f"unattributed {own.get('unattributed', 0.0):.6f} s "
              f"(residual {residual:+.2e} s); tracing overhead {overhead:+.3f}")
        for name, value in sorted(own.items(), key=lambda kv: -kv[1]):
            print(f"#   {name:<40} {value:.6f} s  calls {tree['calls'][name]}")
    outcome.merge(untraced)
    result.update(attempted=outcome.attempted, failed=outcome.failed,
                  problems=outcome.problems)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
