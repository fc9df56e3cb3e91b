"""One measured process of the benchmark.

``run.py`` starts every pass in a fresh worker so each begins as a
user's process does: empty memo store, empty trace intern cache, cold
imports. The worker takes one JSON object on its command line and
prints one JSON object as the last line of its standard output::

    python3 perfbench/worker.py '{"mode": "sweep", ...}'

Modes:

``setup``
    Set up and exit; reports ``setup_s`` only.
``sweep``
    A serial cold ``repro.api.sweep`` into a fresh result cache, then a
    warm window against that cache: rounds of one single-cell request
    per cell and one warm pass of the whole sweep. Checks that nothing
    executes and every result is byte-identical to the cold pass.
``served``
    Checks results fetched from the job server: a warm window of every
    served cell through ``repro.api.sweep`` against the server's cache
    directory, and a direct uncached sweep of a seeded sample of cells.

``setup_s`` runs from the parent's ``t_spawn`` (``time.monotonic()``,
a system-wide clock, read just before it started this process) to the
first timed call: interpreter start, imports, the cache directory and
the result-cache salt.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import sys
import time
from typing import Any, Dict, List


def canonical(payload: Dict[str, Any]) -> str:
    """The byte form results are compared and digested in."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest(texts: List[str]) -> str:
    import hashlib

    h = hashlib.blake2b(digest_size=16)
    for text in texts:
        h.update(text.encode())
        h.update(b"\n")
    return h.hexdigest()


def sync_counts(payloads: List[Dict[str, Any]]) -> Dict[str, int]:
    """Sync operations summed over every kernel of every result."""
    keys = ("acquires_issued", "releases_issued", "acquires_elided",
            "releases_elided")
    out = dict.fromkeys(keys, 0)
    for payload in payloads:
        for kernel in payload["metrics"]["kernels"]:
            for key in keys:
                out[key] += kernel["sync"][key]
    return out


def peak_rss_mb(pid: str = "self") -> float:
    """``VmHWM`` (resident-set high-water mark) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def _setup(cfg: Dict[str, Any]):
    import repro

    src = pathlib.Path(cfg["src"]).resolve()
    if src not in pathlib.Path(repro.__file__).resolve().parents:
        raise SystemExit(f"worker: imported repro from {repro.__file__}, "
                         f"not from {src}")
    from repro.api import ResultCache

    os.makedirs(cfg["cache_dir"], exist_ok=True)
    return ResultCache(root=cfg["cache_dir"])


def _plant_corrupt_entry(cache_dir: str) -> None:
    """Self-test fault: alter one stored result, keeping the entry valid
    JSON with the right salt, so only the output check can notice."""
    path = sorted(pathlib.Path(cache_dir).rglob("*.json"))[0]
    document = json.loads(path.read_text())
    document["result"]["wall_cycles"] += 1.0
    path.write_text(json.dumps(document))


def single_cell(cfg: Dict[str, Any], cell: List[Any], cache):
    """One cell requested on its own through ``repro.api.sweep``."""
    from repro.api import sweep

    workload, protocol, chiplets = cell
    return sweep(workloads=(workload,), protocols=(protocol,),
                 chiplet_counts=(chiplets,), scale=cfg["scale"], jobs=1,
                 trace_path=cfg["trace_path"], cache=cache)


def texts_of(result) -> List[str]:
    """Canonical form of every cell of a sweep result."""
    return [canonical(o.result.to_dict()) for o in result.outcomes]


def result_text(result, index: int = 0) -> str:
    """Canonical form of one cell of a sweep result; empty when the
    sweep executed anything, so it can never match a cold result."""
    if result.report.executed:
        return ""
    return canonical(result.outcomes[index].result.to_dict())


def run_sweep(cfg: Dict[str, Any], cache) -> Dict[str, Any]:
    """The cold sweep, then the warm window: one single-cell request per
    cell and warm passes of the whole sweep, all served from the result
    cache, until ``seconds`` have passed since the cold sweep began (and
    for at least ``min_window`` seconds)."""
    from repro.api import SweepSpec, sweep

    sys.path.insert(0, str(pathlib.Path(__file__).parent))
    import layers

    traced = cfg["trace"]
    recorder = layers.install() if traced else None
    line_counts = None if traced else layers.install_line_counter()
    spec = SweepSpec.grid(workloads=tuple(cfg["workloads"]),
                          protocols=tuple(cfg["protocols"]),
                          scale=cfg["scale"], trace_path=cfg["trace_path"])
    cells = [[job.workload, job.protocol, job.config.num_chiplets]
             for job in spec.expand()]

    start = time.perf_counter()
    cold = sweep(spec, jobs=1, cache=cache)
    sweep_s = time.perf_counter() - start
    if cfg.get("plant") == "warm":
        _plant_corrupt_entry(cfg["cache_dir"])

    # Traced runs make one round, so the layer totals cover one cold
    # pass, one request per cell and one warm pass. Their results are
    # checked after the totals are read: the check serializes them.
    cold_texts = [] if traced else texts_of(cold)
    errors: List[str] = []
    job_times: List[float] = []
    warm_times: List[float] = []
    window = max(cfg["min_window"], cfg["seconds"] - sweep_s)
    window_start = time.perf_counter()
    while True:
        served = []  # (cell index, sweep result, outcome index)
        for index, cell in enumerate(cells):
            begin = time.perf_counter()
            served.append((index, single_cell(cfg, cell, cache), 0))
            job_times.append(time.perf_counter() - begin)
        begin = time.perf_counter()
        warm = sweep(spec, jobs=1, cache=cache)
        warm_times.append(time.perf_counter() - begin)
        served.extend((index, warm, index) for index in range(len(cells)))
        if traced:
            merged = recorder.merged()
            cold_texts = texts_of(cold)
        for index, result, position in served:
            if result_text(result, position) != cold_texts[index]:
                errors.append(f"{cells[index]} not served identically "
                              f"from the cache")
        if traced or time.perf_counter() - window_start >= window:
            break
    rss = peak_rss_mb()

    payloads = [json.loads(text) for text in cold_texts]
    memo = {"memo_hits": 0, "memo_misses": 0, "memo_bypasses": 0}
    for outcome in cold.outcomes:
        for key in memo:
            memo[key] += getattr(outcome.result, key) or 0
    counts = dict(sync_counts(payloads), **memo)
    counts["trace_lines"] = (merged["trace_lines"] if traced
                             else line_counts["trace_lines"])
    out = {
        "sweep_s": sweep_s,
        "warm_times": warm_times,
        "job_times": job_times,
        "cells": len(cells),
        "peak_rss_mb": rss,
        "digest": digest(cold_texts),
        "counts": counts,
        "attempted": len(cells) * (1 + 2 * len(warm_times)),
        "errors": errors,
    }
    if traced:
        out["layers"] = layers.layer_metrics(merged, counts)
        out["spans"] = recorder.write_spans(cfg["spans_out"])
    return out


def check_served(cfg: Dict[str, Any], cache) -> Dict[str, Any]:
    """The served results' warm window (every served cell requested
    again through ``repro.api.sweep`` from the server's cache directory,
    for ``window`` seconds), then a direct uncached sweep of a seeded
    sample of cells."""
    with open(cfg["served"], encoding="utf-8") as fh:
        served: Dict[str, str] = {}
        for cell, text in json.load(fh):
            served.setdefault(json.dumps(cell), text)
    cells = [json.loads(key) for key in served]

    errors: List[str] = []
    attempted = 0
    warm_times = []
    window_start = time.perf_counter()
    while time.perf_counter() - window_start < cfg["window"]:
        start = time.perf_counter()
        warm = [single_cell(cfg, cell, cache) for cell in cells]
        warm_times.append(time.perf_counter() - start)
        for cell, result in zip(cells, warm):
            attempted += 1
            if result_text(result) != served[json.dumps(cell)]:
                errors.append(f"served cell {cell} not served identically "
                              f"from the server's cache")
    sample = random.Random(cfg["seed"]).sample(
        cells, min(cfg["check_cells"], len(cells)))
    for cell in sample:
        attempted += 1
        direct = single_cell(cfg, cell, False).outcomes[0].result.to_dict()
        if canonical(direct) != served[json.dumps(cell)]:
            errors.append(f"served {cell} differs from a direct sweep")
    return {"warm_times": warm_times, "attempted": attempted,
            "errors": errors, "checked_direct": len(sample)}


def main() -> int:
    cfg = json.loads(sys.argv[1])
    cache = _setup(cfg)
    setup_s = time.monotonic() - cfg["t_spawn"]
    if cfg["mode"] == "sweep":
        out = run_sweep(cfg, cache)
    elif cfg["mode"] == "served":
        out = check_served(cfg, cache)
    else:
        out = {}
    out["setup_s"] = setup_s
    if cfg["mode"] != "setup":
        from repro.bench import bench_environment
        out["env"] = bench_environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
