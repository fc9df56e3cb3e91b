"""Self-test of the benchmark.

Tiny-scale runs of every workload must print every metric named in
``BENCHMARK.json`` with its unit and pass their output checks; a planted
mismatch must fail them; a directory without the sources must be
refused. Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))
import run  # noqa: E402


def bench(*args: str, cwd: pathlib.Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", "1",
         "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def last_json(stdout: str):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace, kind):
    proc = bench("--workload", workload, "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
        if kind == "end_to_end":
            assert metric["value"] > 0


def test_planted_warm_mismatch_fails_the_output_check():
    proc = bench("--workload", "fig-sweep", "--tiny", "--plant", "warm")
    assert proc.returncode == 1
    result = last_json(proc.stdout)
    assert not result["correct"] and result["failed"] > 0
    assert "CHECK FAILED" in proc.stdout


def test_directory_without_sources_is_refused(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "fig-sweep", cwd=tmp_path)
    assert proc.returncode not in (0, 1)
    assert '"metrics"' not in proc.stdout


def test_job_stream_is_seeded():
    stream = run.job_stream(1, run.SERVE["jobs"], run.SERVE["scale"])
    assert stream == run.job_stream(1, run.SERVE["jobs"], run.SERVE["scale"])
    assert stream != run.job_stream(2, run.SERVE["jobs"], run.SERVE["scale"])
    cells = [(j["workload"], j["protocol"], j["chiplets"]) for j in stream]
    distinct = (len(run.SERVE["workloads"]) * len(run.SERVE["protocols"])
                * len(run.SERVE["chiplets"]))
    # Every cell is computed once; the other 60% of jobs are repeats.
    assert len(set(cells)) == distinct
    assert (len(cells) - distinct) / len(cells) == 0.6
