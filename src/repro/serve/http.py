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

The bridge between the worlds is explicit.  A body's requests are
submitted on the event loop itself: :meth:`Server.submit` only probes the
session memo or enqueues, and never waits, so a memo hit's future is
already resolved when it returns.  The loop then waits once per body for
the rest (:func:`_bursts`): each pending ``concurrent.futures`` future's
done-callback records its slot, and the first completion since the loop
last looked wakes it with one ``call_soon_threadsafe``, so a burst of
completions costs one wake-up and an all-hit body none.  All evaluation
work stays on the scheduler's worker threads.

HTTP/1.1 connections persist: after a ``200`` with a ``Content-Length``,
to an HTTP/1.1 request without ``Connection: close``, the connection
waits for the next request.  Every other response (HTTP/1.0, a framing
error, ``4xx``/``5xx``, ``/v1/stream``'s chunked reply) carries
``Connection: close`` and closes it.  :meth:`HttpFrontend.close` closes
the idle ones.
"""

from __future__ import annotations

import asyncio
import functools
import json
import threading
from concurrent.futures import Future
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


async def _bursts(futures: list):
    """Yield the indices of *futures* in bursts, in completion order.

    Futures already done (memo hits answered at submission, admission
    rejections) make the first burst and cost no wake-up.  Every other
    future's done-callback, run on the thread that resolves it, records
    its index; the first one since the loop last took the arrivals wakes
    the loop with one ``call_soon_threadsafe``, and the loop takes every
    index that has arrived by then as one burst.
    """
    loop = asyncio.get_running_loop()
    woken = asyncio.Event()
    lock = threading.Lock()
    arrived: list[int] = []

    def land(index: int, _future: Future) -> None:
        with lock:
            arrived.append(index)
            first = len(arrived) == 1
        if first:
            try:
                loop.call_soon_threadsafe(woken.set)
            except RuntimeError:
                pass  # the loop is closed: nobody waits any more

    done, pending = [], 0
    for index, future in enumerate(futures):
        if future.done():
            done.append(index)
        else:
            pending += 1
            future.add_done_callback(functools.partial(land, index))
    if done:
        yield done
    while pending:
        await woken.wait()
        woken.clear()
        with lock:
            burst = arrived[:]
            arrived.clear()
        if burst:
            pending -= len(burst)
            yield burst


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
        # Connection handler tasks, and the writers of those waiting on
        # their client for a request: close() closes the idle ones and
        # waits for the rest to answer, so no handler is cancelled
        # mid-answer and no kept connection holds the shutdown open.
        self._handlers: set = set()
        self._idle: set = set()
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
        """Stop the listener, close idle connections, and join the loop
        thread (idempotent).  A connection mid-request gets its answer
        first."""
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
            listener.close()
            for writer in list(self._idle):
                writer.close()
            if self._handlers:
                await asyncio.wait(list(self._handlers))

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle(self, reader, writer) -> None:
        """Serve one connection's requests until a response closes it."""
        task = asyncio.current_task()
        self._handlers.add(task)
        task.add_done_callback(self._handlers.discard)
        try:
            while await self._serve_one(reader, writer):
                pass
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

    async def _serve_one(self, reader, writer) -> bool:
        """Read and answer one request; whether the connection stays open."""
        if self._stop.is_set():
            return False  # closing: take no further request
        self._idle.add(writer)  # waiting on the client: close() may drop it
        try:
            parts = (await reader.readline()).decode("latin-1").split()
            if len(parts) < 2:
                return False
            headers = await self._read_headers(reader)
            tokens = {
                token.strip().lower()
                for token in headers.get("connection", "").split(",")
            }
            keep_alive = (
                parts[2:] == ["HTTP/1.1"]
                and "close" not in tokens
                # A chunked body is not read, so the stream cannot resync.
                and "transfer-encoding" not in headers
            )
            raw_length = headers.get("content-length", "0") or "0"
            if not (raw_length.isascii() and raw_length.isdigit()):
                return await self._respond_json(
                    writer, 400, {"error": "invalid Content-Length"}
                )
            length = int(raw_length)
            if length > MAX_BODY_BYTES:
                return await self._respond_json(
                    writer, 413, {"error": "request body too large"}
                )
            body = await reader.readexactly(length) if length else b""
        finally:
            self._idle.discard(writer)
        return await self._dispatch(
            writer, parts[0].upper(), parts[1], body, keep_alive
        )

    @staticmethod
    async def _read_headers(reader) -> dict:
        headers: dict = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                return headers
            name, _sep, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()

    async def _dispatch(
        self, writer, method: str, path: str, body: bytes, keep_alive: bool
    ) -> bool:
        path = path.split("?", 1)[0]
        if method == "GET" and path == "/metrics":
            return await self._respond(
                writer, 200, PROMETHEUS_CONTENT_TYPE,
                self.server.render_metrics().encode("utf-8"), keep_alive,
            )
        if method == "GET" and path == "/healthz":
            health = self.server.health()
            return await self._respond_json(
                writer, 200 if health["ok"] else 503, health, keep_alive
            )
        if method == "POST" and path == "/v1/query":
            return await self._guarded(
                self._handle_query, writer, body, keep_alive
            )
        if method == "POST" and path == "/v1/stream":
            return await self._guarded(
                self._handle_stream, writer, body, keep_alive
            )
        return await self._respond_json(
            writer, 404, {"error": f"no route for {method} {path}"}
        )

    async def _guarded(
        self, handler, writer, body: bytes, keep_alive: bool
    ) -> bool:
        """Answer POST *body* via *handler*; 400 if malformed, 500 on a bug."""
        try:
            try:
                slots = self._submit_body(body)
            except ReproError as error:
                return await self._respond_json(
                    writer, 400, {"error": _error_payload(error)}
                )
            return await handler(writer, slots, keep_alive)
        except Exception as error:  # headers may already be out: best effort
            try:
                await self._respond_json(
                    writer, 500, {"error": _error_payload(error)}
                )
            except (ConnectionError, RuntimeError):
                pass
            return False

    def _submit_body(self, body: bytes) -> list:
        """Decode and submit *body*: one ``(request, future)`` slot each.

        Runs on the event loop: :meth:`Server.submit` answers a memo hit
        or enqueues, and never waits.  A request admission rejects gets a
        future that already holds its ``ReproError``.
        """
        slots = []
        for request in decode_body(body):
            try:
                future = self.server.submit(request)
            except ReproError as error:
                future = Future()
                future.set_exception(error)
            slots.append((request, future))
        return slots

    @staticmethod
    def _entry(request, future: Future) -> dict:
        """One resolved slot's entry: the request plus its ``value`` or
        ``error``.

        Any ``Exception`` is the slot's own error, so one failing request
        costs no other request in the body its answer.
        """
        entry: dict = {"request": str(request)}
        try:
            entry["value"] = encode_value(future.result())
        except Exception as error:
            entry["error"] = _error_payload(error)
        return entry

    async def _handle_query(self, writer, slots: list, keep_alive) -> bool:
        async for _burst in _bursts([future for _request, future in slots]):
            pass
        results = [self._entry(*slot) for slot in slots]
        failed = sum("error" in entry for entry in results)
        return await self._respond_json(
            writer, 200, {"results": results, "failed": failed}, keep_alive
        )

    async def _handle_stream(self, writer, slots: list, _keep_alive) -> bool:
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        async for burst in _bursts([future for _request, future in slots]):
            for index in burst:
                entry = {"index": index, **self._entry(*slots[index])}
                line = json.dumps(entry, sort_keys=True).encode("utf-8")
                line += b"\n"
                writer.write(f"{len(line):x}\r\n".encode("latin-1"))
                writer.write(line + b"\r\n")
            await writer.drain()
        writer.write(b"0\r\n\r\n")
        await writer.drain()
        return False

    # ------------------------------------------------------------------
    # Response plumbing
    # ------------------------------------------------------------------
    _STATUS_TEXT = {
        200: "OK", 400: "Bad Request", 404: "Not Found",
        413: "Payload Too Large", 500: "Internal Server Error",
        503: "Service Unavailable",
    }

    async def _respond(
        self, writer, status: int, content_type: str, payload: bytes,
        keep_alive: bool = False,
    ) -> bool:
        """Write one response; whether the connection stays open: only
        after a 200 to a request that may keep it, while not closing."""
        keep_alive = keep_alive and status == 200 and not self._stop.is_set()
        reason = self._STATUS_TEXT.get(status, "OK")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            + ("\r\n" if keep_alive else "Connection: close\r\n\r\n")
        )
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()
        return keep_alive

    async def _respond_json(
        self, writer, status: int, payload: dict, keep_alive: bool = False
    ) -> bool:
        return await self._respond(
            writer, status, "application/json",
            json.dumps(payload, sort_keys=True).encode("utf-8"), keep_alive,
        )

    def __repr__(self) -> str:
        return f"HttpFrontend({self.url})"
