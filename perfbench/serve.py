"""Serve phase: ``repro serve-daemon`` in its own process, a closed loop
of two keep-alive connections from this process, and the offline oracle.

Closed loop because the callers are autotuners that wait for each Pareto
set before they set clocks.  Two connections, one thread each, on a
two-CPU machine: the daemon is CPU-bound on one core (one interpreter
lock), the client takes the other, and nothing queues.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import pathlib
import select
import signal
import subprocess
import sys
import threading
import time

from common import (
    BenchError,
    median,
    percentile,
    proc_cpu_seconds,
    proc_peak_rss_mb,
    run_children,
)
from streams import Request

HERE = pathlib.Path(__file__).resolve().parent

#: Requests each connection sends before the window opens: each hot
#: connection visits every one of its device's 12 pairs twice.
WARMUP_PER_CONNECTION = 24
HTTP_TIMEOUT_S = 60.0


class Daemon:
    """One ``repro serve-daemon`` process over a store."""

    def __init__(self, store, env: dict, log_path) -> None:
        self.spawned = time.perf_counter()
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve-daemon",
             "--store", str(store), "--port", "0", "--reload-interval", "0"],
            env=env, stdout=subprocess.PIPE, stderr=self._log,
            start_new_session=True,
        )
        try:
            self.port = self._read_port(deadline=self.spawned + 120.0)
            self.ready_s = self._wait_healthy(deadline=self.spawned + 120.0)
        except BaseException:
            self.stop()
            raise

    def _read_port(self, deadline: float) -> int:
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or self.proc.poll() is not None:
                raise BenchError("serve-daemon did not report its address")
            ready, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 1)
                if not chunk:
                    raise BenchError("serve-daemon closed stdout before starting")
                line += chunk
        marker = line.decode().split("http://", 1)[1].split()[0]
        return int(marker.rsplit(":", 1)[1])

    def _wait_healthy(self, deadline: float) -> float:
        """Seconds from spawn to the first ``/healthz`` 200 with every
        device loaded."""
        while time.perf_counter() < deadline:
            try:
                status, body = self.get("/healthz")
            except OSError:
                status, body = 0, b""
            if status == 200:
                health = json.loads(body)
                if sorted(health["loaded"]) == sorted(health["devices"]):
                    return time.perf_counter() - self.spawned
            time.sleep(0.005)
        raise BenchError("serve-daemon never became healthy")

    def get(self, path: str) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def cpu_seconds(self) -> float:
        return proc_cpu_seconds(self.proc.pid)

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


class Connection(threading.Thread):
    """One closed-loop client: send, read the whole answer, repeat."""

    def __init__(self, port: int, stream, start_gate, stop_at) -> None:
        super().__init__(daemon=True)
        self.port = port
        self.stream = stream
        self.start_gate = start_gate
        self.stop_at = stop_at  # one-element list, set when the gate opens
        #: (request, status, body, latency_s, timed, completed_at)
        self.records: list[tuple[Request, int, bytes, float, bool, float]] = []
        self.error: BaseException | None = None

    def _send(self, conn, request: Request, timed: bool) -> None:
        started = time.perf_counter()
        conn.request("POST", "/predict?format=text", body=request.payload(),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        body = response.read()
        done = time.perf_counter()
        self.records.append(
            (request, response.status, body, done - started, timed, done)
        )

    def run(self) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=HTTP_TIMEOUT_S)
        try:
            for _ in range(WARMUP_PER_CONNECTION):
                self._send(conn, next(self.stream), timed=False)
            self.start_gate.wait()
            while time.perf_counter() < self.stop_at[0]:
                self._send(conn, next(self.stream), timed=True)
        except BaseException as exc:  # reported by the phase, never lost
            self.error = exc
            self.start_gate.abort()
        finally:
            conn.close()


def drive(daemon: Daemon, streams, seconds: float) -> dict:
    """Warm up, then run the closed loop for ``seconds``: one connection
    per stream, each stream continuing where the last window left it."""
    gate = threading.Barrier(len(streams) + 1)
    stop_at = [float("inf")]
    clients = [Connection(daemon.port, stream, gate, stop_at) for stream in streams]
    for client in clients:
        client.start()
    try:
        gate.wait()
    except threading.BrokenBarrierError:
        pass
    cpu_start = daemon.cpu_seconds()
    opened = time.perf_counter()
    stop_at[0] = opened + seconds
    for client in clients:
        client.join(timeout=seconds + 2 * HTTP_TIMEOUT_S)
        if client.is_alive():
            raise BenchError("a load connection hung")
    closed = time.perf_counter()
    cpu = daemon.cpu_seconds() - cpu_start
    errors = [c.error for c in clients if c.error is not None]
    if errors:
        raise BenchError(f"load connection failed: {errors[0]!r}")
    records = [r for c in clients for r in c.records]
    latencies = [r[3] for r in records if r[4] and r[1] == 200]
    return {
        "records": records,
        "latencies": latencies,
        "pred_per_s": len(latencies) / (closed - opened),
        "server_cpu_ms_per_pred": (
            cpu * 1e3 / len(latencies) if latencies else None
        ),
    }


def replay_cmd(store, stream_file, path: str) -> list[str]:
    """A ``replay_child.py`` run over ``stream_file`` along ``path``
    (``offline`` or ``lane``)."""
    return [sys.executable, str(HERE / "replay_child.py"),
            "--store", str(store), "--requests", str(stream_file),
            "--path", path]


def write_stream(path, keys) -> None:
    """A replay input: ``(device, kernel name, source)`` per request."""
    path.write_text(json.dumps([list(key) for key in keys]))


def oracle(store, requests, env: dict, work) -> dict:
    """sha256 of the offline rendering of every distinct request, split
    over one replay process per CPU."""
    distinct = list(dict.fromkeys(r.key for r in requests))
    parts = max(1, min(os.cpu_count() or 1, len(distinct)))
    chunks = [distinct[i::parts] for i in range(parts)]
    cmds = []
    for i, chunk in enumerate(chunks):
        stream_file = work / f"oracle-{i}.json"
        write_stream(stream_file, chunk)
        cmds.append(replay_cmd(store, stream_file, "offline"))
    answers = {}
    for chunk, rendered in zip(chunks, run_children(cmds, env)):
        answers.update(zip(chunk, rendered["sha256"]))
    return answers


def serve_metrics(windows: list[dict]) -> dict:
    """Throughput and server CPU: median over the windows, one per daemon
    process.  Latency percentiles: over every window's samples pooled."""
    latencies = [lat for w in windows for lat in w["latencies"]]
    p50 = percentile(latencies, 0.50)
    p99 = percentile(latencies, 0.99)
    return {
        "pred_per_s": median(w["pred_per_s"] for w in windows),
        "latency_p50_ms": None if p50 is None else p50 * 1e3,
        "latency_p99_ms": None if p99 is None else p99 * 1e3,
        "server_cpu_ms_per_pred": median(
            w["server_cpu_ms_per_pred"] for w in windows
            if w["server_cpu_ms_per_pred"] is not None
        ),
    }


def check(records, answers) -> int:
    """How many responses are a 200 carrying the offline bytes exactly."""
    return sum(
        1 for request, status, body, *_rest in records
        if status == 200
        and hashlib.sha256(body).hexdigest() == answers.get(request.key)
    )


# -- /stats ---------------------------------------------------------------------


def _series(snapshot, name: str, **match):
    family = snapshot.families.get(name)
    if family is None:
        return []
    return [
        value for key, value in family.series.items()
        if all(dict(zip(family.labelnames, key)).get(k) == v
               for k, v in match.items())
    ]


def stats_counters(daemon: Daemon) -> dict:
    """The daemon's own counters after the window, read from ``/stats``."""
    from repro.obs import instruments as ins
    from repro.obs.export import snapshot_from_json_dict

    status, body = daemon.get("/stats")
    if status != 200:
        raise BenchError(f"/stats answered {status}")
    snap = snapshot_from_json_dict(json.loads(body))

    def total(name, **match) -> float:
        return float(sum(_series(snap, name, **match)))

    def p50_ms(name) -> float:
        histograms = _series(snap, name)
        if not histograms:
            return 0.0
        merged = histograms[0].copy()
        for other in histograms[1:]:
            merged.merge(other)
        return merged.quantile(0.5) * 1e3

    routed = total(ins.FLEET_REQUESTS_ROUTED_TOTAL)
    misses = total(ins.FEATURE_CACHE_REQUESTS_TOTAL, result="miss")
    extract = _series(snap, ins.SERVE_EXTRACT_SECONDS)
    batches = total(ins.DAEMON_BATCHES_TOTAL)
    predicts = total(ins.DAEMON_REQUESTS_TOTAL, endpoint="predict")
    return {
        "daemon.queue_wait_ms": p50_ms(ins.DAEMON_QUEUE_WAIT_SECONDS),
        "daemon.batch_kernels": (
            total(ins.DAEMON_BATCHED_KERNELS_TOTAL) / batches if batches else 0.0
        ),
        "daemon.batches": batches,
        "daemon.coalesced_frac": (
            total(ins.DAEMON_COALESCED_TOTAL) / routed if routed else 0.0
        ),
        "daemon.shed_frac": (
            total(ins.DAEMON_SHED_TOTAL) / predicts if predicts else 0.0
        ),
        "daemon.requests": predicts,
        # The daemon looks each kernel up twice (validation, then the
        # batch), so per-lookup figures mix a miss with a hit: both are
        # taken per routed prediction instead.
        "serve.extract_ms": (
            sum(h.sum for h in extract) * 1e3 / routed if routed else 0.0
        ),
        "cache.hit_frac": 1.0 - misses / routed if routed else 0.0,
        "cache.evictions": total(ins.FEATURE_CACHE_EVICTIONS_TOTAL),
    }

