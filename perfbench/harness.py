"""Process and HTTP plumbing for the served workloads.

Starts ``repro-biclique serve`` as a subprocess of its own session,
talks to it over HTTP/1.1 (a fresh connection per request unless
asked to keep one alive), samples the resident memory of the server
and its engine-worker processes from ``/proc``, and stops the whole
process group at the end.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time

#: The server command of both served workloads.
SERVE_ARGS = ("serve", "--port", "0", "--threads", "2", "--engine-workers", "2")
#: Per-request client timeout; a timeout counts as a failure.
REQUEST_TIMEOUT_S = 60.0
BOOT_TIMEOUT_S = 60.0


class Client:
    """HTTP client of one client thread.

    By default every request opens a fresh connection.  The server
    writes a response's headers and body in two sends; on a kept-alive
    connection Nagle's algorithm then holds the body back until the
    client's delayed ACK (~40 ms on Linux) arrives.  A fresh connection
    starts in quick-ACK mode, so its latency is the service's and not
    the ACK timer's.  ``keep_alive=True`` reuses one connection, as the
    cluster's pooled shard client does; the traced ``serve-read`` run
    uses it to measure that stall (``service.keepalive_stall_ms``).
    """

    def __init__(self, host: str, port: int, keep_alive: bool = False):
        self.host, self.port = host, port
        self.keep_alive = keep_alive
        self._conn: "http.client.HTTPConnection | None" = None

    def _connect(self) -> http.client.HTTPConnection:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=REQUEST_TIMEOUT_S)
        conn.connect()
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn

    def request(self, method: str, path: str, body: "dict | None" = None):
        """``(status, payload)``; raises ``OSError``/``HTTPException`` on transport errors."""
        data = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if data is not None else {}
        conn = self._conn or self._connect()
        self._conn = None
        try:
            conn.request(method, path, body=data, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        except BaseException:
            conn.close()
            raise
        if self.keep_alive and not response.will_close:
            self._conn = conn
        else:
            conn.close()
        return response.status, json.loads(raw) if raw else {}

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


class Server:
    """A live ``serve`` subprocess; use as a context manager."""

    def __init__(self, root: str):
        self.root = root
        self.proc: "subprocess.Popen | None" = None
        self.host = self.port = None
        self.boot_s = None

    def start(self) -> "Server":
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *SERVE_ARGS],
            cwd=self.root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, start_new_session=True,
        )
        line = _readline(self.proc, BOOT_TIMEOUT_S)
        match = re.search(r"http://([\d.]+):(\d+)", line or "")
        if not match:
            self.stop()
            raise RuntimeError(f"server gave no readiness line: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))
        client = self.client()
        while True:
            try:
                status, _ = client.request("GET", "/healthz")
                if status == 200:
                    break
            except OSError:
                pass
            if time.perf_counter() - t0 > BOOT_TIMEOUT_S:
                self.stop()
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.005)
        self.boot_s = time.perf_counter() - t0
        return self

    def client(self, keep_alive: bool = False) -> Client:
        return Client(self.host, self.port, keep_alive)

    def pids(self) -> "list[int]":
        """The server and every live descendant (its engine workers)."""
        if self.proc is None:
            return []
        children: "dict[int, list[int]]" = {}
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    stat = fh.read()
            except OSError:
                continue
            ppid = int(stat.rsplit(")", 1)[1].split()[1])
            children.setdefault(ppid, []).append(int(entry))
        out, frontier = [], [self.proc.pid]
        while frontier:
            pid = frontier.pop()
            out.append(pid)
            frontier.extend(children.get(pid, ()))
        return out

    def stop(self) -> None:
        """SIGINT (clean executor shutdown), then reap the whole group."""
        if self.proc is None:
            return
        family = self.pids()
        proc, self.proc = self.proc, None
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=30)
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        # Engine workers that outlived the server have left its group's
        # parentage; reap them by the ids taken before the shutdown.
        strays = [pid for pid in family[1:] if _is_server_process(pid)]
        for pid in strays:
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
        give_up = time.monotonic() + 10
        while any(_is_server_process(pid) for pid in strays) and time.monotonic() < give_up:
            time.sleep(0.05)
        if proc.stdout is not None:
            proc.stdout.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()


def _is_server_process(pid: int) -> bool:
    """Whether ``pid`` is still a live (not zombie) process of the program."""
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            cmdline = fh.read()
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z" and (b"repro" in cmdline or b"multiprocessing" in cmdline)


def _readline(proc: subprocess.Popen, timeout: float) -> "str | None":
    box: list = []
    reader = threading.Thread(target=lambda: box.append(proc.stdout.readline()), daemon=True)
    reader.start()
    reader.join(timeout)
    return box[0] if box else None


def hwm_kb(pid: int) -> int:
    """The process's resident high-water mark (``VmHWM``)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class RssSampler:
    """Peak resident memory of a process tree, sampled from ``/proc``.

    Every ``interval`` seconds, sums the resident high-water mark
    (``VmHWM``) of the server and its live descendants and keeps the
    largest sum.  The kernel keeps each process's peak, so a short
    spike between samples still counts; a pool replaced between two
    samples is not added to the pool that replaced it.  Pages a forked
    engine worker still shares with the server count once per process,
    so the sum overstates what the host holds by those shared pages
    (steadier than sampling proportional set sizes, which misses the
    workers' short arena peaks).
    """

    def __init__(self, server: Server, interval: float = 0.25):
        self.server = server
        self.interval = interval
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def sample(self) -> None:
        total = sum(hwm_kb(pid) for pid in self.server.pids())
        self.peak_kb = max(self.peak_kb, total)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def __enter__(self) -> "RssSampler":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *_exc) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()


def register(client: Client, name: str, n_left: int, n_right: int, edges) -> dict:
    status, payload = client.request(
        "POST", "/v1/graphs",
        {"name": name, "n_left": n_left, "n_right": n_right,
         "edges": [list(e) for e in edges]},
    )
    if status != 200:
        raise RuntimeError(f"registering {name} answered {status}: {payload}")
    return payload


def counters(client: Client) -> dict:
    """Flat ``/metrics`` counters plus the cache stats under ``cache.*``."""
    status, snap = client.request("GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    flat = dict(snap.get("counters", {}))
    for key, value in snap.get("cache", {}).items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            flat[f"cache.{key}"] = value
    return flat

