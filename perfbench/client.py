"""Closed-loop HTTP client of ``python -m repro serve``.

Each client thread takes the next request of a shared job stream,
submits it (``POST /v1/simulate``), waits for the ``done`` frame on the
job's Server-Sent Events stream, fetches ``/result``, and only then
takes the next request: a closed loop, so a slower server receives
less load. Every request opens its own connection (the server closes
each one), so the loop never holds more connections than clients.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from worker import canonical

#: Socket timeout of every request, in seconds.
TIMEOUT = 60.0


@dataclass
class JobRecord:
    """What one client saw of one job."""

    cell: List[Any]
    ok: bool = False
    error: str = ""
    #: Submit to result, in seconds, as the client saw it.
    latency_s: float = 0.0
    #: Wall-clock time (``time.time()``) the ``done`` frame arrived.
    done_at: float = 0.0
    #: Canonical JSON of the job's one result.
    result_text: str = ""
    report: Optional[Dict[str, Any]] = None
    #: The job status body (traced runs only).
    status: Optional[Dict[str, Any]] = None


def request(address: Tuple[str, int], method: str, path: str,
            body: Optional[Dict[str, Any]] = None) -> Tuple[int, bytes]:
    conn = http.client.HTTPConnection(*address, timeout=TIMEOUT)
    try:
        data = None if body is None else json.dumps(body).encode()
        conn.request(method, path, body=data,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def wait_done(address: Tuple[str, int], job_id: str) -> Dict[str, Any]:
    """Read the job's event stream up to its ``done`` frame."""
    conn = http.client.HTTPConnection(*address, timeout=TIMEOUT)
    try:
        conn.request("GET", f"/v1/jobs/{job_id}/events")
        response = conn.getresponse()
        if response.status != 200:
            raise RuntimeError(f"events: HTTP {response.status}")
        event = None
        while True:
            line = response.readline()
            if not line:
                raise RuntimeError("event stream closed before 'done'")
            line = line.decode().rstrip("\r\n")
            if line.startswith("event: "):
                event = line[len("event: "):]
            elif line.startswith("data: ") and event == "done":
                return json.loads(line[len("data: "):])
            elif not line:
                event = None
    finally:
        conn.close()


def run_job(address: Tuple[str, int], body: Dict[str, Any],
            want_status: bool) -> JobRecord:
    record = JobRecord(cell=[body["workload"], body["protocol"],
                             body["chiplets"]])
    start = time.perf_counter()
    try:
        status, data = request(address, "POST", "/v1/simulate", body)
        if status != 202:
            record.error = f"submit: HTTP {status}"
            return record
        job_id = json.loads(data)["id"]
        done = wait_done(address, job_id)
        record.done_at = time.time()
        if done.get("state") != "done":
            record.error = f"job ended {done.get('state')}"
            return record
        status, data = request(address, "GET", f"/v1/jobs/{job_id}/result")
        record.latency_s = time.perf_counter() - start
        if status != 200:
            record.error = f"result: HTTP {status}"
            return record
        result = json.loads(data)
        record.result_text = canonical(result["results"][0])
        record.report = result["report"]
        if want_status:
            status, data = request(address, "GET", f"/v1/jobs/{job_id}")
            if status != 200:
                record.error = f"status: HTTP {status}"
                return record
            record.status = json.loads(data)
        record.ok = True
    except (OSError, ValueError, KeyError, RuntimeError,
            http.client.HTTPException) as exc:
        record.error = f"{type(exc).__name__}: {exc}"
    return record


def closed_loop(address: Tuple[str, int], stream: List[Dict[str, Any]],
                clients: int, want_status: bool
                ) -> Tuple[List[JobRecord], float]:
    """Run ``stream`` through ``clients`` closed-loop threads; returns
    the records in stream order and the loop's wall seconds."""
    lock = threading.Lock()
    pending = iter(enumerate(stream))
    records: List[Optional[JobRecord]] = [None] * len(stream)

    def client() -> None:
        while True:
            with lock:
                item = next(pending, None)
            if item is None:
                return
            index, body = item
            records[index] = run_job(address, body, want_status)

    threads = [threading.Thread(target=client) for _ in range(clients)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    return [record or JobRecord(cell=[body["workload"], body["protocol"],
                                      body["chiplets"]],
                                error="client thread died")
            for record, body in zip(records, stream)], wall
