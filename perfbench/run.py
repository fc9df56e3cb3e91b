"""The repository's end-to-end benchmark.

Run from the root of a checkout::

  python3 perfbench/run.py --workload fig-sweep --seed 1 --seconds 30 --trace 0

Workloads (see README.md in this directory for why each was chosen):

``fig-sweep``
    Serial cold ``repro.api.sweep`` on the ``run`` trace path at scale
    1/32: {square, babelstream, bfs, color, hotspot, pennant} x every
    protocol that runs on 4 chiplets, into a fresh result cache; then
    warm passes of the same sweep against that cache.
``memo-iter``
    The same shape on the ``memo`` trace path: {srad, hotspot, pennant,
    rnn-lstm-large, gaussian, pathfinder} x the five oracle protocols.
``serve-mixed``
    Two closed-loop clients against ``python -m repro serve``: a job
    stream of 1/64-scale cells drawn by ``--seed``, 60% of them repeats.

Every pass runs in a fresh process with a fresh result-cache directory
under ``.perfbench/`` in the checkout. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs the workload untraced and then
traced, and prints the per-layer metrics. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 when every output check passed, 1 when
one failed, and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import random
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

import client
import layers
from worker import digest, peak_rss_mb, sync_counts

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout: temporary result caches and logs
#: (removed at exit) and the traced runs' span files (kept).
SCRATCH = ROOT / ".perfbench"

DEFAULT_SEED = 1
#: Seed kept out of tuning, for held-out confirmation of a claim.
HELD_OUT_SEED = 2

#: Closed-loop clients of serve-mixed; never more than the CPUs.
CLIENTS = 2
#: Set-up samples per run; setup_s is their median.
SETUP_SAMPLES = 7
#: Shortest warm window, in seconds. The window otherwise fills the run
#: up to ``--seconds`` after the cold pass.
MIN_WINDOW = 5.0
#: Worker processes and servers are stopped after this many seconds.
PROCESS_TIMEOUT = 170

ORACLE = ("baseline", "hmg", "cpelide", "timestamp", "cpelide-ts")

SWEEPS = {
    "fig-sweep": {
        "workloads": ["square", "babelstream", "bfs", "color", "hotspot",
                      "pennant"],
        "protocols": list(layers.PROTOCOLS),
        "scale": 1 / 32,
        "trace_path": "run",
    },
    "memo-iter": {
        "workloads": ["srad", "hotspot", "pennant", "rnn-lstm-large",
                      "gaussian", "pathfinder"],
        "protocols": list(ORACLE),
        "scale": 1 / 32,
        "trace_path": "memo",
    },
}

SERVE = {
    "workloads": ["rnn-gru-small", "lud", "backprop", "hotspot",
                  "gaussian", "rnn-lstm-small", "btree", "bfs"],
    "protocols": list(ORACLE),
    "chiplets": [2, 4],
    "scale": 1 / 64,
    "trace_path": "run",
    #: Jobs per loop: the 80 cells once each plus 120 repeats (60%).
    "jobs": 200,
    #: Distinct served cells re-run directly for the byte-identity check.
    "check_cells": 8,
}

WORKLOADS = ("fig-sweep", "memo-iter", "serve-mixed")

END_TO_END = {
    "setup_s": "s",
    "sweep_s": "s",
    "warm_s": "s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Environment variables that silently change what is measured.
_CLEARED_ENV = ("REPRO_TRACE_PATH", "REPRO_CHECK", "REPRO_CACHE_DIR")


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed check)."""


def job_stream(seed: int, count: int, scale: float,
               distinct: Optional[int] = None) -> List[Dict[str, Any]]:
    """The serve-mixed requests for ``seed``.

    Every cell of the set (or of its first ``distinct`` cells in seed
    order) is requested for the first time exactly once, at seed-drawn
    positions (the first job is one); every other job repeats a
    seed-drawn earlier cell. So each seed computes the same cells, in
    its own order, among its own repeats.
    """
    rng = random.Random(seed)
    cells = [[w, p, c] for w in SERVE["workloads"]
             for p in SERVE["protocols"] for c in SERVE["chiplets"]]
    rng.shuffle(cells)
    cells = cells[:distinct]
    first = {0} | set(rng.sample(range(1, count), len(cells) - 1))
    seen: List[List[Any]] = []
    stream = []
    for index in range(count):
        if index in first:
            cell = cells[len(seen)]
            seen.append(cell)
        else:
            cell = rng.choice(seen)
        stream.append({"workload": cell[0], "protocol": cell[1],
                       "chiplets": cell[2], "scale": scale,
                       "trace_path": SERVE["trace_path"]})
    return stream


def percentile(values: List[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Bench:
    """One benchmark invocation: its scratch directory and processes."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.tiny = args.tiny
        self.min_window = 0.5 if args.tiny else MIN_WINDOW
        (SCRATCH / "tmp").mkdir(parents=True, exist_ok=True)
        (SCRATCH / "spans").mkdir(parents=True, exist_ok=True)
        self.tmp = pathlib.Path(tempfile.mkdtemp(prefix="run-",
                                                 dir=SCRATCH / "tmp"))
        self.env = {k: v for k, v in os.environ.items()
                    if k not in _CLEARED_ENV}
        self.env["PYTHONPATH"] = str(SRC)
        self.env["TMPDIR"] = str(self.tmp)
        self.attempted = 0
        self.errors: List[str] = []
        self.lines: List[str] = []
        self._serial = 0
        #: Where the traced server writes its layer totals.
        self.server_layers = ""

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def fresh_dir(self, stem: str) -> str:
        self._serial += 1
        return str(self.tmp / f"{stem}-{self._serial}")

    def spans_path(self, suffix: str = "") -> str:
        name = f"{self.args.workload}-seed{self.args.seed}{suffix}.jsonl"
        return str(SCRATCH / "spans" / name)

    def say(self, line: str) -> None:
        self.lines.append(line)

    # -- processes ------------------------------------------------------

    def worker(self, cfg: Dict[str, Any]) -> Dict[str, Any]:
        cfg = dict(cfg, src=str(SRC), seconds=self.args.seconds)
        cfg.setdefault("cache_dir", self.fresh_dir("cache"))
        cfg["t_spawn"] = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "worker.py"),
                 json.dumps(cfg)],
                env=self.env, cwd=ROOT, capture_output=True, text=True,
                timeout=PROCESS_TIMEOUT)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker ({cfg['mode']}) timed out") from None
        if proc.returncode != 0:
            raise BenchError(f"worker ({cfg['mode']}) exited "
                             f"{proc.returncode}: {proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def start_server(self, cache_dir: str, traced: bool
                     ) -> Tuple[subprocess.Popen, Tuple[str, int], float]:
        """Start the job server on a free port; returns the process, its
        address and the seconds until its ready line arrived."""
        argv = ["serve", "--host", "127.0.0.1", "--port", "0",
                "--cache-dir", cache_dir]
        if traced:
            self.server_layers = self.fresh_dir("layers") + ".json"
            argv = [sys.executable, str(BENCH_DIR / "traced_server.py"),
                    self.server_layers, self.spans_path("-server")] + argv
        else:
            argv = [sys.executable, "-m", "repro"] + argv
        env = dict(self.env, PYTHONUNBUFFERED="1")
        log_path = self.fresh_dir("server") + ".log"
        with open(log_path, "wb") as log:
            start = time.monotonic()
            proc = subprocess.Popen(argv, env=env, cwd=ROOT,
                                    stdout=subprocess.PIPE, stderr=log)
        deadline = start + 60
        while True:
            ready, _, _ = select.select([proc.stdout], [], [],
                                        max(0.0, deadline - time.monotonic()))
            line = proc.stdout.readline() if ready else b""
            match = re.search(rb"listening on http://([\d.]+):(\d+)", line)
            if match:
                setup_s = time.monotonic() - start
                return proc, (match[1].decode(), int(match[2])), setup_s
            if not line or time.monotonic() >= deadline:
                self.stop_server(proc)
                log = pathlib.Path(log_path).read_text(errors="replace")
                raise BenchError(f"server did not start: {log[-2000:]}")

    @staticmethod
    def stop_server(proc: subprocess.Popen) -> None:
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()

    # -- sweep workloads ------------------------------------------------

    def sweep_cfg(self, traced: bool) -> Dict[str, Any]:
        cfg = dict(SWEEPS[self.args.workload], mode="sweep", trace=traced,
                   plant=self.args.plant, spans_out=self.spans_path(),
                   min_window=self.min_window)
        if self.tiny:
            cfg["scale"] /= 16
        return cfg

    def setup_samples(self, have: List[float]) -> float:
        """Median set-up time, topping ``have`` up with set-up-only
        workers to :data:`SETUP_SAMPLES` samples."""
        setups = list(have)
        while len(setups) < SETUP_SAMPLES:
            setups.append(self.worker({"mode": "setup"})["setup_s"])
        return statistics.median(setups)

    def run_sweep(self) -> Dict[str, float]:
        base = self.worker(self.sweep_cfg(traced=False))
        self.account(base)
        self.report_counts(base["digest"], base["counts"], base["env"])
        jobs = base["job_times"]
        metrics = {
            "setup_s": self.setup_samples([base["setup_s"]]),
            "sweep_s": base["sweep_s"],
            "warm_s": statistics.mean(base["warm_times"]),
            "job_p50_ms": statistics.median(jobs) * 1e3,
            "job_p90_ms": percentile(jobs, 90) * 1e3,
            "jobs_per_s": len(jobs) / sum(jobs),
            "peak_rss_mb": base["peak_rss_mb"],
        }
        self.say(f"cells {base['cells']}; warm window: "
                 f"{len(base['warm_times'])} warm passes, {len(jobs)} "
                 f"single-cell requests")
        if not self.args.trace:
            return metrics
        traced = self.worker(self.sweep_cfg(traced=True))
        self.account(traced)
        self.check_digest(base["digest"], traced["digest"])
        out = dict(traced["layers"], **self.server_layers_zero())
        out["trace_overhead"] = traced["sweep_s"] / base["sweep_s"]
        self.say(f"traced sweep_s {traced['sweep_s']:.3f} s, "
                 f"{traced['spans']} spans kept in {self.spans_path()}")
        return out

    # -- serve-mixed ----------------------------------------------------

    def serve_unit(self, stream: List[Dict[str, Any]], traced: bool
                   ) -> Dict[str, Any]:
        cache_dir = self.fresh_dir("served-cache")
        proc, address, setup_s = self.start_server(cache_dir, traced)
        try:
            records, wall = client.closed_loop(address, stream, CLIENTS,
                                               want_status=traced)
            rss = peak_rss_mb(str(proc.pid))
            rejects = 0
            if traced:
                status, body = client.request(address, "GET", "/metrics")
                if status != 200:
                    raise BenchError(f"/metrics: HTTP {status}")
                rejects = json.loads(body)["admission"]["rejected"]
        finally:
            self.stop_server(proc)
        return {"records": records, "wall": wall, "rss": rss,
                "setup_s": setup_s, "cache_dir": cache_dir,
                "rejects": rejects}

    def check_unit(self, unit: Dict[str, Any]) -> str:
        """Count the unit's jobs and check repeats agree; returns the
        digest of its results in stream order."""
        first: Dict[str, str] = {}
        for record in unit["records"]:
            self.attempted += 1
            if not record.ok:
                self.errors.append(f"job {record.cell}: {record.error}")
                continue
            key = json.dumps(record.cell)
            if first.setdefault(key, record.result_text) != \
                    record.result_text:
                self.errors.append(f"job {record.cell}: a repeat returned "
                                   f"a different result")
        return digest([r.result_text for r in unit["records"]])

    def run_serve(self) -> Dict[str, float]:
        if CLIENTS > (os.cpu_count() or 1):
            raise BenchError(f"{CLIENTS} clients need {CLIENTS} CPUs; "
                             f"this host has {os.cpu_count()}")
        scale = SERVE["scale"] / 16 if self.tiny else SERVE["scale"]
        if self.tiny:
            stream = job_stream(self.args.seed, 30, scale, distinct=8)
        else:
            stream = job_stream(self.args.seed, SERVE["jobs"], scale)
        unit = self.serve_unit(stream, traced=False)
        traced = (self.serve_unit(stream, traced=True)
                  if self.args.trace else None)
        setups = [unit["setup_s"]]
        while len(setups) < SETUP_SAMPLES:
            proc, _, setup_s = self.start_server(
                self.fresh_dir("setup-cache"), traced=False)
            self.stop_server(proc)
            setups.append(setup_s)
        result_digest = self.check_unit(unit)

        records = unit["records"]
        served_path = self.fresh_dir("served") + ".json"
        with open(served_path, "w", encoding="utf-8") as fh:
            json.dump([[r.cell, r.result_text] for r in records if r.ok], fh)
        check = self.worker({
            "mode": "served", "cache_dir": unit["cache_dir"],
            "window": max(self.min_window, self.args.seconds - unit["wall"]),
            "served": served_path, "scale": scale,
            "trace_path": SERVE["trace_path"], "seed": self.args.seed,
            "check_cells": SERVE["check_cells"]})
        self.account(check)
        payloads = [json.loads(r.result_text) for r in records if r.ok]
        counts = dict(sync_counts(payloads), memo_hits=0, memo_misses=0,
                      memo_bypasses=0)
        self.report_counts(result_digest, counts, check["env"])

        latencies = [r.latency_s for r in records if r.ok]
        if not latencies:
            raise BenchError("no job completed")
        self.say(f"jobs {len(records)}; warm window: "
                 f"{len(check['warm_times'])} passes over the served "
                 f"cells; {check['checked_direct']} cells re-run directly")
        metrics = {
            "setup_s": statistics.median(setups),
            "sweep_s": unit["wall"],
            "warm_s": statistics.mean(check["warm_times"]),
            "job_p50_ms": statistics.median(latencies) * 1e3,
            "job_p90_ms": percentile(latencies, 90) * 1e3,
            "jobs_per_s": len(records) / unit["wall"],
            "peak_rss_mb": unit["rss"],
        }
        if traced is None:
            return metrics
        self.check_digest(result_digest, self.check_unit(traced))
        with open(self.server_layers, encoding="utf-8") as fh:
            totals = json.load(fh)
        counts["trace_lines"] = totals["trace_lines"]
        self.say(f"trace_lines {totals['trace_lines']}")
        out = layers.layer_metrics(totals, counts)
        out.update(self.server_layers_traced(traced))
        out["trace_overhead"] = traced["wall"] / unit["wall"]
        self.say(f"traced loop {traced['wall']:.3f} s, {totals['spans']} "
                 f"spans kept in {self.spans_path('-server')}")
        return out

    @staticmethod
    def server_layers_traced(unit: Dict[str, Any]) -> Dict[str, float]:
        ok = [r for r in unit["records"] if r.ok]
        status = [r.status for r in ok]
        return {
            "server.queue_wait_ms_p50": statistics.median(
                (s["started_at"] - s["created_at"]) * 1e3 for s in status),
            "server.run_ms_p50": statistics.median(
                (s["finished_at"] - s["started_at"]) * 1e3 for s in status),
            "server.delivery_ms_p50": statistics.median(
                (r.done_at - r.status["finished_at"]) * 1e3 for r in ok),
            "server.executed": sum(r.report["executed"] for r in ok),
            "server.cache_hits": sum(r.report["cache_hits"]
                                     + r.report["deduped"] for r in ok),
            "server.rejects": unit["rejects"],
        }

    @staticmethod
    def server_layers_zero() -> Dict[str, float]:
        return {name: 0 for name in layers.metric_units()
                if name.startswith("server.")}

    # -- checks and output ----------------------------------------------

    def account(self, out: Dict[str, Any]) -> None:
        self.attempted += out.get("attempted", 0)
        self.errors.extend(out.get("errors", []))

    def check_digest(self, expected: str, got: str) -> None:
        self.attempted += 1
        if got != expected:
            self.errors.append(f"results digest {got} != {expected}")

    def report_counts(self, result_digest: str, counts: Dict[str, int],
                      env: Dict[str, Any]) -> None:
        self.say(f"environment {json.dumps(env, sort_keys=True)}")
        self.say(f"results digest {result_digest}")
        self.say("exact counts " + " ".join(
            f"{key}={value}" for key, value in sorted(counts.items())))

    def run(self) -> Dict[str, Any]:
        self.say(f"workload {self.args.workload} seed {self.args.seed} "
                 f"trace {self.args.trace}"
                 + (" (tiny scale: not comparable)" if self.tiny else ""))
        if self.args.workload == "serve-mixed":
            values = self.run_serve()
        else:
            values = self.run_sweep()
        units = (layers.metric_units() if self.args.trace else END_TO_END)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in units.items()}
        for name, metric in metrics.items():
            self.say(f"  {name:32s} {metric['value']:>14.6g} "
                     f"{metric['unit']}")
        for error in self.errors[:20]:
            self.say(f"CHECK FAILED: {error}")
        self.say(f"failed_frac {len(self.errors)}/{self.attempted}")
        return {"correct": not self.errors, "attempted": self.attempted,
                "failed": len(self.errors), "metrics": metrics}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; "
                             f"{HELD_OUT_SEED} is held out)")
    parser.add_argument("--seconds", type=float, default=10,
                        help="minimum measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced run, print per-layer metrics")
    parser.add_argument("--tiny", action="store_true",
                        help="self-test scale; figures are not comparable")
    parser.add_argument("--plant", choices=("warm",), default=None,
                        help="self-test: corrupt one stored result before "
                             "the warm pass (the output check must fail)")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    bench = Bench(args)
    try:
        result = bench.run()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        bench.close()
    print("\n".join(bench.lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
