"""The asyncio HTTP/JSON front-end: queries, streaming, metrics, health.

A thin, stdlib-only network layer over :class:`repro.serve.server.Server`.
One :class:`HttpFrontend` owns one asyncio event loop on a daemon thread
(`asyncio.start_server`), so it drops onto the existing synchronous
serving stack — CLI, tests, examples — without restructuring anything:

* ``POST /v1/query`` — a JSON request body (one request object, or
  ``{"requests": [...]}`` with ``bindings`` sweeps) is decoded by the
  same :mod:`repro.serve.io` helpers as the CLI's stream files, submitted
  through the scheduler (admission control, coalescing, batching and the
  breaker all apply), and answered as one JSON document in input order;
* ``POST /v1/stream`` — same body, chunked NDJSON response: one line per
  result *in completion order*, so a slow request never blocks a fast
  one's answer;
* ``GET /metrics`` — the composed Prometheus text exposition
  (scheduler + session + process-wide core registries);
* ``GET /healthz`` — liveness/readiness JSON (queue depth, breaker
  state); 503 when the circuit breaker holds the session open.

The bridge between the worlds is explicit: submissions run on the
default executor (``run_in_executor`` — scheduler locks never block the
event loop) and the scheduler's ``concurrent.futures`` futures become
awaitables via ``asyncio.wrap_future``.  The event loop therefore only
ever *waits*; all evaluation work stays on the scheduler's worker
threads.
"""

from __future__ import annotations

import asyncio
import json
import threading
from fractions import Fraction

from repro.db.fact import Fact
from repro.exceptions import ReproError, SchemaError
from repro.serve.io import requests_from_dict

#: Largest accepted request body (bytes): queries are small; streams of
#: bindings are bounded by admission control anyway.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Content-Type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def encode_value(value):
    """Make one evaluation answer JSON-representable, losslessly.

    Exact carriers keep their exactness as strings — ``Fraction`` becomes
    ``"1/4"``, infinities become ``"inf"`` — while plain ints, floats,
    bools and strings pass through.  Mappings with :class:`Fact` keys
    (Shapley/Banzhaf sweeps) become ``{str(fact): value}`` objects and
    tuples/lists encode element-wise.

    >>> encode_value(Fraction(1, 4))
    '1/4'
    >>> encode_value((1, 2.5))
    [1, 2.5]
    """
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            return str(value)
        return value
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, dict):
        return {
            str(key) if isinstance(key, Fact) else key: encode_value(entry)
            for key, entry in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [encode_value(entry) for entry in value]
    if hasattr(value, "true_counts"):  # packed #Sat vectors
        return [encode_value(count) for count in value.true_counts]
    return str(value)


def _error_payload(error: BaseException) -> dict:
    """The JSON shape of one failed request: error class plus message."""
    return {"type": type(error).__name__, "message": str(error)}


def decode_body(body: bytes) -> list:
    """Decode a ``/v1/query`` / ``/v1/stream`` body into Request objects.

    Accepts one request object (``{"family": ...}``) or a batch document
    (``{"requests": [...]}``); entries go through
    :func:`repro.serve.io.requests_from_dict`, so ``bindings`` sweeps and
    ``deadline_ms`` work exactly as in CLI stream files.  Raises
    :class:`~repro.exceptions.SchemaError` on malformed input.
    """
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise SchemaError(f"request body is not valid JSON: {error}")
    if isinstance(payload, dict) and "requests" in payload:
        entries = payload["requests"]
        if not isinstance(entries, list) or not entries:
            raise SchemaError("'requests' must be a non-empty list")
    elif isinstance(payload, dict):
        entries = [payload]
    else:
        raise SchemaError(
            "body must be a request object or {'requests': [...]}"
        )
    return [
        request for entry in entries for request in requests_from_dict(entry)
    ]


class HttpFrontend:
    """An asyncio HTTP server bound to one :class:`~repro.serve.server.Server`.

    Runs its event loop on a dedicated daemon thread, so synchronous
    callers use it like any other resource::

        frontend = HttpFrontend(server, port=0)   # 0 → ephemeral port
        frontend.start()
        ... curl http://127.0.0.1:{frontend.port}/metrics ...
        frontend.close()

    The frontend never owns the server: closing it stops the listener and
    the loop, nothing else.
    """

    def __init__(self, server, host: str = "127.0.0.1", port: int = 0):
        self.server = server
        self.host = host
        self.port = port  # rebound to the actual port after start()
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "HttpFrontend":
        """Bind the listener and serve until :meth:`close` (returns self).

        Blocks only until the socket is bound; raises the underlying
        ``OSError`` if the bind fails (port in use, bad host).
        """
        if self._thread is not None:
            raise ReproError("this HttpFrontend was already started")
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-http", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise ReproError("HTTP front-end failed to start within 30s")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def close(self) -> None:
        """Stop the listener and join the loop thread (idempotent)."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None:
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:
                pass  # loop already gone
        if self._thread is not None:
            self._thread.join(timeout=10)

    def __enter__(self) -> "HttpFrontend":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    @property
    def url(self) -> str:
        """The base URL of the running front-end."""
        return f"http://{self.host}:{self.port}"

    def _run_loop(self) -> None:
        try:
            asyncio.run(self._serve_forever())
        except BaseException as error:
            self._startup_error = error
            self._ready.set()

    async def _serve_forever(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        listener = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = listener.sockets[0].getsockname()[1]
        self._ready.set()
        async with listener:
            await self._stop.wait()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle(self, reader, writer) -> None:
        try:
            method, path = await self._read_request_line(reader)
            if method is None:
                return
            headers = await self._read_headers(reader)
            body = b""
            raw_length = headers.get("content-length", "0") or "0"
            if not (raw_length.isascii() and raw_length.isdigit()):
                await self._respond_json(
                    writer, 400, {"error": "invalid Content-Length"}
                )
                return
            length = int(raw_length)
            if length > MAX_BODY_BYTES:
                await self._respond_json(
                    writer, 413, {"error": "request body too large"}
                )
                return
            if length:
                body = await reader.readexactly(length)
            await self._dispatch(writer, method, path, body)
        except (
            asyncio.IncompleteReadError, ConnectionError, ValueError
        ):
            pass  # malformed or dropped connection: nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    @staticmethod
    async def _read_request_line(reader):
        line = await reader.readline()
        if not line.strip():
            return None, None
        parts = line.decode("latin-1").split()
        if len(parts) < 2:
            return None, None
        return parts[0].upper(), parts[1]

    @staticmethod
    async def _read_headers(reader) -> dict:
        headers: dict = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                return headers
            name, _sep, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()

    async def _dispatch(self, writer, method: str, path: str, body: bytes):
        path = path.split("?", 1)[0]
        if method == "GET" and path == "/metrics":
            await self._respond(
                writer, 200, PROMETHEUS_CONTENT_TYPE,
                self.server.render_metrics().encode("utf-8"),
            )
        elif method == "GET" and path == "/healthz":
            health = self.server.health()
            await self._respond_json(
                writer, 200 if health["ok"] else 503, health
            )
        elif method == "POST" and path == "/v1/query":
            await self._guarded(self._handle_query, writer, body)
        elif method == "POST" and path == "/v1/stream":
            await self._guarded(self._handle_stream, writer, body)
        else:
            await self._respond_json(
                writer, 404, {"error": f"no route for {method} {path}"}
            )

    async def _guarded(self, handler, writer, body: bytes) -> None:
        """Answer POST *body* via *handler*; 400 if malformed, 500 on a bug."""
        try:
            try:
                slots = await self._submit_body(body)
            except ReproError as error:
                await self._respond_json(
                    writer, 400, {"error": _error_payload(error)}
                )
                return
            await handler(writer, slots)
        except Exception as error:  # headers may already be out: best effort
            try:
                await self._respond_json(
                    writer, 500, {"error": _error_payload(error)}
                )
            except (ConnectionError, RuntimeError):
                pass

    async def _submit_body(self, body: bytes) -> list:
        """Decode and submit *body*: one ``(request, future)`` slot each.

        A request admission rejects holds its ``ReproError`` in place of
        the future.  Submission runs on the default executor.
        """
        requests = decode_body(body)
        return await asyncio.get_running_loop().run_in_executor(
            None, self._submit_all, requests
        )

    def _submit_all(self, requests) -> list:
        slots = []
        for request in requests:
            try:
                slots.append((request, self.server.submit(request)))
            except ReproError as error:
                slots.append((request, error))
        return slots

    @staticmethod
    async def _answer(request, outcome) -> dict:
        """One slot's entry: the request plus its ``value`` or ``error``.

        Any ``Exception`` is the slot's own error, so one failing request
        costs no other request in the body its answer.
        """
        entry: dict = {"request": str(request)}
        try:
            if isinstance(outcome, ReproError):
                raise outcome
            entry["value"] = encode_value(await asyncio.wrap_future(outcome))
        except Exception as error:
            entry["error"] = _error_payload(error)
        return entry

    async def _handle_query(self, writer, slots: list) -> None:
        results = [await self._answer(*slot) for slot in slots]
        failed = sum("error" in entry for entry in results)
        await self._respond_json(
            writer, 200, {"results": results, "failed": failed}
        )

    async def _handle_stream(self, writer, slots: list) -> None:
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()

        async def numbered(index, slot):
            return {"index": index, **await self._answer(*slot)}

        tasks = [numbered(index, slot) for index, slot in enumerate(slots)]
        for completed in asyncio.as_completed(tasks):
            entry = await completed
            line = json.dumps(entry, sort_keys=True).encode("utf-8") + b"\n"
            writer.write(f"{len(line):x}\r\n".encode("latin-1"))
            writer.write(line + b"\r\n")
            await writer.drain()
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    # ------------------------------------------------------------------
    # Response plumbing
    # ------------------------------------------------------------------
    _STATUS_TEXT = {
        200: "OK", 400: "Bad Request", 404: "Not Found",
        413: "Payload Too Large", 500: "Internal Server Error",
        503: "Service Unavailable",
    }

    async def _respond(
        self, writer, status: int, content_type: str, payload: bytes
    ) -> None:
        reason = self._STATUS_TEXT.get(status, "OK")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()

    async def _respond_json(self, writer, status: int, payload: dict) -> None:
        await self._respond(
            writer, status, "application/json",
            json.dumps(payload, sort_keys=True).encode("utf-8"),
        )

    def __repr__(self) -> str:
        return f"HttpFrontend({self.url})"
