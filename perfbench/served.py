"""The served side: ``python -m repro serve`` as its own process, over HTTP.

The traced run submits its workload's job to an idle service to time
the queue hand-off (``serve.queue_wait_s``) and to check that the
served assignment equals the direct one.
"""

from __future__ import annotations

import http.client
import json
import selectors
import signal
import subprocess
import sys
import time
from pathlib import Path

import common
from common import Tally

TERMINAL = ("succeeded", "failed", "cancelled")
START_TIMEOUT_S = 60.0


def request(port: int, method: str, path: str, payload=None,
            timeout: float = 60.0) -> tuple[int, bytes]:
    """One HTTP request to the local service; ``(status, body)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        body = None if payload is None else json.dumps(payload).encode()
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def start_server(store_root: Path, work: Path) -> tuple[subprocess.Popen, int]:
    """Start the service and wait until ``/healthz`` answers; ``(process, port)``."""
    log = open(work / "server.log", "ab")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--cache", str(store_root)],
        env=common.child_env(work), cwd=str(common.ROOT),
        stdout=subprocess.PIPE, stderr=log, bufsize=0,
    )
    log.close()
    deadline = time.monotonic() + START_TIMEOUT_S
    try:
        port = _read_port(proc, deadline)
        while True:
            try:
                status, _ = request(port, "GET", "/healthz", timeout=5.0)
                if status == 200:
                    break
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("service never answered /healthz")
            time.sleep(0.005)
    except BaseException:
        stop_server(proc)
        raise
    return proc, port


def _read_port(proc: subprocess.Popen, deadline: float) -> int:
    """Parse the bound port from the service's ``listening on`` line."""
    selector = selectors.DefaultSelector()
    selector.register(proc.stdout, selectors.EVENT_READ)
    line = b""
    try:
        while not line.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not selector.select(remaining):
                raise RuntimeError("service printed no listening line")
            byte = proc.stdout.read(1)
            if not byte:
                raise RuntimeError("service exited during start-up")
            line += byte
    finally:
        selector.close()
    address = line.decode().split("http://", 1)[1].split()[0]
    return int(address.rsplit(":", 1)[1])


def stop_server(proc: subprocess.Popen, timeout: float = 60.0) -> int:
    """SIGTERM, drain and reap the service; its exit code."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    code = common.reap(proc, timeout)
    proc.stdout.close()
    return code


def submit_and_wait(port: int, payload: dict, timeout: float = 120.0) -> dict:
    """Submit a job and follow its events until the log closes.

    Returns the server-side ``queue_wait_s`` (created-to-finished minus
    the run's ``partition`` span) and the final status document.
    """
    status, body = request(port, "POST", "/jobs", payload, timeout=timeout)
    if status not in (200, 201):
        return {"ok": False, "error": f"submit returned {status}: {body[:200]!r}"}
    job_id = json.loads(body)["id"]
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    finished = False
    partition_s = None
    try:
        conn.request("GET", f"/jobs/{job_id}/events")
        response = conn.getresponse()
        while True:
            line = response.readline()
            if not line:
                break
            event = json.loads(line)
            if event.get("event") == "state" and event.get("state") in TERMINAL:
                finished = True
            elif event.get("event") == "span" and event.get("span") == "partition":
                partition_s = event.get("dur_s")
    finally:
        conn.close()
    status, body = request(port, "GET", f"/jobs/{job_id}", timeout=timeout)
    doc = json.loads(body) if status == 200 else {}
    ok = finished and doc.get("state") == "succeeded"
    out = {"ok": ok, "doc": doc}
    if not ok:
        out["error"] = f"job {job_id} ended {doc.get('state')}: {doc.get('error')}"
        return out
    if partition_s is not None:
        out["queue_wait_s"] = (
            doc["finished_at"] - doc["created_at"] - partition_s
        )
    return out


def stored_parts(store_root: Path, key: str):
    """The assignment the service persisted under ``key``."""
    import numpy as np

    from repro.runtime import ArtifactStore

    return np.load(ArtifactStore(store_root).entry_path(key) / "parts.npy")


def queue_wait_probe(work: Path, source: str, job: dict, tally: Tally,
                     expected_parts) -> float:
    """Submit ``job`` cold to an idle service; its queue wait in seconds.

    The served assignment must equal ``expected_parts`` (the same job
    run directly through ``run_job``).
    """
    import numpy as np

    store_root = work / "probe-serve-store"
    proc, port = start_server(store_root, work)
    try:
        done = submit_and_wait(port, {"source": source, **job})
    finally:
        code = stop_server(proc)
    tally.check(code == 0, "service exits cleanly after SIGTERM")
    tally.check(not common.pid_alive(proc.pid), "no surviving service process")
    if not tally.check(done["ok"], f"served job: {done.get('error')}"):
        return float("nan")
    tally.check(
        np.array_equal(stored_parts(store_root, done["doc"]["key"]), expected_parts),
        "served assignment equals the direct run_job assignment",
    )
    tally.check("queue_wait_s" in done, "served job reports its partition span")
    return done.get("queue_wait_s", float("nan"))
