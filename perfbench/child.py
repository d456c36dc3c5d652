"""The child ``repro serve`` process and the HTTP client that drives it.

A :class:`ServerProcess` starts ``python3 -m repro serve --requests DOC
--http 0 --workers 2``, plus a workload's own serve options, on a
generated stream document, times set-up as the wait for the document's
first answer, and is always terminated: SIGTERM, then SIGKILL if it
lingers.  Its peak resident memory comes from the kernel's accounting of
that one child (``os.wait4``), and its stderr is copied into the
benchmark's own stderr when it ends.

:class:`Client` sends one op per request and never retries.  It counts
the TCP connections it opens: the front-end answers ``Connection: close``,
so today that is one per request.  It resets each connection once the
answer is read (``SO_LINGER`` 0), so no socket lingers in TIME_WAIT: one
load generator opening thousands of connections per run would otherwise
fill the ephemeral port range and slow every later run's connects.
"""

from __future__ import annotations

import http.client
import os
import queue
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

#: Scheduler worker threads of every served program, sized for a 2-CPU host.
WORKERS = 2
STARTUP_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0


class ServerProcess:
    """One ``repro serve`` child; use as a context manager."""

    def __init__(
        self,
        root: Path,
        document: Path,
        log_dir: Path,
        *,
        trace_log: Path | None = None,
        serve_args: tuple = (),
    ):
        self.root = root
        self.document = document
        self.trace_log = trace_log
        self.serve_args = serve_args
        log_dir.mkdir(parents=True, exist_ok=True)
        self._stderr_path = log_dir / f"server-{time.monotonic_ns()}.stderr"
        self._lines: queue.Queue = queue.Queue()
        self._proc: subprocess.Popen | None = None
        self._reader: threading.Thread | None = None
        self.port: int | None = None
        self.setup_s: float | None = None
        self.peak_rss_mib: float | None = None

    def start(self) -> "ServerProcess":
        """Launch and wait for the first answer, then for the listener."""
        command = [
            sys.executable, "-m", "repro", "serve", "--requests",
            str(self.document), "--http", "0", "--workers", str(WORKERS),
            *self.serve_args,
        ]
        if self.trace_log is not None:
            command += ["--trace-log", str(self.trace_log)]
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(self.root / "src"), env.get("PYTHONPATH")])
        )
        started = time.perf_counter()
        with open(self._stderr_path, "wb") as stderr:
            self._proc = subprocess.Popen(
                command, cwd=self.root, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=stderr, text=True,
            )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        deadline = started + STARTUP_TIMEOUT_S
        while True:
            line = self._next_line(deadline)
            if self.setup_s is None and line.startswith("[0] "):
                self.setup_s = time.perf_counter() - started
                if " failed: " in line:
                    raise RuntimeError(f"set-up request failed: {line}")
            if line.startswith("listening on "):
                self.port = int(line.rsplit(":", 1)[1])
                return self

    def _read(self) -> None:
        for line in self._proc.stdout:
            self._lines.put(line.rstrip("\n"))
        self._lines.put(None)

    def _next_line(self, deadline: float) -> str:
        try:
            line = self._lines.get(timeout=max(0.0, deadline - time.perf_counter()))
        except queue.Empty:
            raise RuntimeError("repro serve did not answer in time") from None
        if line is None:
            raise RuntimeError("repro serve exited before answering")
        return line

    def close(self) -> None:
        """Stop the child, record its peak RSS, forward its stderr."""
        proc = self._proc
        if proc is None:
            return
        self._proc = None
        if proc.returncode is None:
            # os.kill, not Popen.send_signal: the latter polls first and
            # would reap the child before wait4 can read its usage.  The
            # flight recorder flushes every line, so SIGTERM loses nothing.
            os.kill(proc.pid, signal.SIGTERM)
            status, usage = _wait4(proc.pid, STOP_TIMEOUT_S)
            if usage is None:
                os.kill(proc.pid, signal.SIGKILL)
                status, usage = _wait4(proc.pid, None)
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_mib = usage.ru_maxrss / 1024.0  # Linux: KiB
        if self._reader is not None:
            self._reader.join(timeout=STOP_TIMEOUT_S)
        proc.stdout.close()
        text = self._stderr_path.read_text(errors="replace").strip()
        if text:
            print(f"[repro serve stderr]\n{text}", file=sys.stderr)

    def __enter__(self) -> "ServerProcess":
        try:
            return self.start()
        except BaseException:
            self.close()
            raise

    def __exit__(self, *_exc) -> None:
        self.close()


def _wait4(pid: int, timeout: float | None):
    """Reap *pid* with its resource usage; ``(None, None)`` on timeout."""
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        reaped, status, usage = os.wait4(pid, 0 if deadline is None else os.WNOHANG)
        if reaped == pid:
            return status, usage
        if time.monotonic() >= deadline:
            return None, None
        time.sleep(0.02)


class Client:
    """A connection-counting HTTP client for one closed-loop client thread."""

    def __init__(self, port: int, timeout: float = 120.0):
        self.connections = 0
        self.received = 0  # response body bytes
        client = self

        class _Counted(http.client.HTTPConnection):
            def connect(self):
                client.connections += 1
                super().connect()
                self.sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )

        self._conn = _Counted("127.0.0.1", port, timeout=timeout)

    def request(self, method: str, path: str, body: bytes | None = None):
        """``(status, body bytes)``; any transport error propagates."""
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            payload = response.read()
        except BaseException:
            self._conn.close()
            raise
        self.received += len(payload)
        return response.status, payload

    def close(self) -> None:
        self._conn.close()


def scrape(port: int) -> dict:
    """One ``GET /metrics``, parsed into ``{(name, labels): value}``."""
    from repro.obs.metrics import parse_exposition

    client = Client(port)
    try:
        status, body = client.request("GET", "/metrics")
    finally:
        client.close()
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    return parse_exposition(body.decode("utf-8"))
