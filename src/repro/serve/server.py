"""The calling service: asyncio front end over warm shard workers.

:class:`CallService` is the in-process core.  One request flows:

1. **validate** -- cheap, header-free checks
   (:meth:`~repro.serve.models.CallRequest.validated`), then the BAM
   is fingerprinted and the request reduced to its
   :class:`~repro.serve.models.ResultKey`;
2. **result cache** -- a key already computed returns its stored body
   immediately (byte-identical to the cold response);
3. **coalesce** -- a key already *in flight* attaches to the running
   computation instead of queuing a duplicate: N concurrent identical
   requests compute once and all N receive the result;
4. **backpressure** -- distinct keys occupy bounded pending slots;
   beyond ``max_pending`` the service rejects
   (:class:`~repro.serve.models.ServerOverloadedError`) or, with
   ``on_full="wait"``, queues the submitter until a slot frees;
5. **shard** -- the :class:`~repro.serve.shards.ShardMap` routes the
   key to the worker holding that file/contig's warm readers, which
   renders the body and stores it in the cache *before* waking the
   waiters (so a burst's stragglers hit the cache, not a race).

:func:`serve_tcp` exposes the service over a newline-delimited-JSON
TCP protocol (one request object per line in, one response object per
line out); :func:`run_server` is the blocking CLI entry point with
signal-driven graceful shutdown -- stop accepting, answer the requests
still computing, close the open connections from the server side,
drain the service, then exit.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import threading
from typing import Dict, List, Optional, Set

from repro.io.errors import FormatError
from repro.serve.cache import CachedResult, ResultCache
from repro.serve.models import (
    CallRequest,
    CallResponse,
    FileFingerprint,
    RequestError,
    ResultKey,
    ServerClosedError,
    ServerOverloadedError,
    config_hash,
)
from repro.serve.shards import ShardMap, ShardWorker, WorkItem

__all__ = ["CallService", "run_server", "serve_tcp"]


class _InFlight:
    """One running computation: its future plus a waiter count."""

    __slots__ = ("future", "waiters")

    def __init__(self) -> None:
        self.future: "concurrent.futures.Future[CachedResult]" = (
            concurrent.futures.Future()
        )
        self.waiters = 1


class CallService:
    """A long-running calling service over warm shard workers.

    Args:
        default_reference: FASTA used by requests that name none.
        n_workers: shard worker threads (each holds its own warm
            readers and indexes).
        max_pending: bound on concurrently pending *distinct*
            computations (backpressure; coalesced duplicates and cache
            hits do not occupy slots).
        result_cache_entries: finished bodies kept resident.
        warm_sources: warm ``BamSource`` instances per worker.
        on_full: ``"reject"`` raises
            :class:`~repro.serve.models.ServerOverloadedError` when
            ``max_pending`` is reached; ``"wait"`` queues the
            submitter until a slot frees.

    Raises:
        ValueError: on a non-positive bound or unknown ``on_full``.
    """

    def __init__(
        self,
        *,
        default_reference: Optional[str] = None,
        n_workers: int = 2,
        max_pending: int = 32,
        result_cache_entries: int = 256,
        warm_sources: int = 4,
        on_full: str = "reject",
    ) -> None:
        if max_pending <= 0:
            raise ValueError(f"max_pending must be positive, got {max_pending}")
        if on_full not in ("reject", "wait"):
            raise ValueError(f"on_full must be 'reject' or 'wait', got {on_full!r}")
        self.default_reference = default_reference
        self.max_pending = max_pending
        self.on_full = on_full
        self._cache = ResultCache(result_cache_entries)
        self._shards = ShardMap(n_workers)
        self._workers: List[ShardWorker] = [
            ShardWorker(i, warm_sources=warm_sources)
            for i in range(n_workers)
        ]
        for worker in self._workers:
            worker.start()
        self._lock = threading.Lock()
        self._slots = threading.Semaphore(max_pending)
        self._inflight: Dict[ResultKey, _InFlight] = {}
        self._closed = False
        # request-level counters (under self._lock)
        self._requests_total = 0
        self._cache_hits = 0
        self._coalesced = 0
        self._rejected = 0
        self._computed = 0
        self._errors = 0

    # -- keying ---------------------------------------------------------------

    def _key_for(self, request: CallRequest) -> ResultKey:
        """Reduce a validated request to its cache/coalescing key."""
        bam = FileFingerprint.of(request.bam)
        reference = FileFingerprint.of(request.reference)
        return ResultKey(
            bam=bam,
            region=request.region_key(),
            config=config_hash(
                request.config,
                request.pileup,
                request.output_format,
                reference,
            ),
        )

    # -- responses ------------------------------------------------------------

    def _counters(self) -> Dict[str, int]:
        """A consistent snapshot of the request-level counters."""
        with self._lock:
            return {
                "requests_total": self._requests_total,
                "result_cache_hits": self._cache_hits,
                "coalesced": self._coalesced,
                "rejected": self._rejected,
                "computed": self._computed,
                "errors": self._errors,
                "in_flight": len(self._inflight),
            }

    def _serve_stats(self, *, cached: bool, coalesced: bool) -> Dict[str, object]:
        """The ``"serve"`` sub-dict attached to every response."""
        return {
            "result_cache_hit": bool(cached),
            "request_coalesced": bool(coalesced),
            "result_cache": self._cache.to_dict(),
            **self._counters(),
        }

    def _response(
        self, key: ResultKey, result: CachedResult, *, cached: bool, coalesced: bool
    ) -> CallResponse:
        """Assemble a response around a (fresh or cached) result."""
        stats = dict(result.stats)
        stats["serve"] = self._serve_stats(cached=cached, coalesced=coalesced)
        return CallResponse(
            body=result.body,
            output_format=result.output_format,
            cached=cached,
            coalesced=coalesced,
            key=key,
            stats=stats,
        )

    # -- completion (worker thread) -------------------------------------------

    def _complete(
        self,
        key: ResultKey,
        result: Optional[CachedResult],
        exc: Optional[BaseException],
    ) -> None:
        """Worker callback: cache the result, free the slot, wake the
        waiters.  The cache store happens *before* the future resolves
        so a waiter observing completion can already hit the cache."""
        if result is not None:
            self._cache.put(key, result)
        with self._lock:
            entry = self._inflight.pop(key, None)
            if exc is None:
                self._computed += 1
            else:
                self._errors += 1
        self._slots.release()
        if entry is not None:
            if exc is not None:
                entry.future.set_exception(exc)
            else:
                entry.future.set_result(result)

    # -- submission -----------------------------------------------------------

    async def submit(self, request: CallRequest) -> CallResponse:
        """Serve one request (validate, coalesce, compute or hit).

        Raises:
            ValidationError: malformed request.
            ServerOverloadedError: backpressure bound hit (reject mode).
            ServerClosedError: the service is shutting down.
            RequestError: the computation itself failed (e.g. a region
                contig missing from the BAM header).
            FormatError: the BAM or the reference FASTA does not parse.
        """
        loop = asyncio.get_running_loop()
        request = request.validated()
        key = self._key_for(request)
        with self._lock:
            if self._closed:
                raise ServerClosedError("service is shutting down")
            self._requests_total += 1
        coalesced = False
        entry: Optional[_InFlight] = None
        cached: Optional[CachedResult] = None
        while entry is None:
            with self._lock:
                if self._closed:
                    raise ServerClosedError("service is shutting down")
                cached = self._cache.get(key)
                if cached is not None:
                    self._cache_hits += 1
                    break
                running = self._inflight.get(key)
                if running is not None:
                    running.waiters += 1
                    self._coalesced += 1
                    coalesced = True
                    entry = running
                    break
                if self._slots.acquire(blocking=False):
                    entry = _InFlight()
                    self._inflight[key] = entry
                    shard = self._shards.shard_for(key)
                    self._workers[shard].queue.put(
                        WorkItem(request, key, self._complete)
                    )
                    break
            # Bound hit with no running twin to join.
            if self.on_full == "reject":
                with self._lock:
                    self._rejected += 1
                raise ServerOverloadedError(
                    f"{self.max_pending} computations already pending"
                )
            # Wait mode: block (off-loop) for a slot, release it, and
            # re-run the whole check -- the key may have completed (hit
            # the cache) or started (coalesce) while we waited.
            await loop.run_in_executor(None, self._slots.acquire)
            self._slots.release()
        if cached is not None:
            return self._response(key, cached, cached=True, coalesced=False)
        result = await asyncio.wrap_future(entry.future)
        return self._response(key, result, cached=False, coalesced=coalesced)

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Synchronous graceful shutdown: stop accepting, drain the
        queued work (waiters get their results), join the workers."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for worker in self._workers:
            worker.queue.put(None)  # FIFO: after everything pending
        for worker in self._workers:
            worker.join()

    async def shutdown(self) -> None:
        """Graceful shutdown without blocking the event loop."""
        await asyncio.get_running_loop().run_in_executor(None, self.close)

    @property
    def closed(self) -> bool:
        """True once shutdown has begun."""
        with self._lock:
            return self._closed

    def stats(self) -> Dict[str, object]:
        """JSON-safe service-wide counters (the ``stats`` endpoint)."""
        return {
            **self._counters(),
            "closed": self.closed,
            "max_pending": self.max_pending,
            "n_workers": len(self._workers),
            "result_cache": self._cache.to_dict(),
            "workers": [w.warm_stats() for w in self._workers],
        }

    def __enter__(self) -> "CallService":
        """Context-manager entry (workers already run)."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: synchronous graceful shutdown."""
        self.close()


# -- TCP front end -------------------------------------------------------------


class _Connections:
    """The open connections of one TCP front end, so that shutdown can
    end them without cancelling a handler mid-read."""

    def __init__(self) -> None:
        self.handlers: Set[asyncio.Task] = set()
        #: handlers waiting for a request line, with their writers
        self.idle: Dict[asyncio.Task, asyncio.StreamWriter] = {}
        self.closing = False

    async def close(self) -> None:
        """Close the idle connections from the server side (their
        pending reads see end of file) and wait for every handler to
        end, a request still computing getting its response first."""
        self.closing = True
        for writer in self.idle.values():
            writer.close()
        await asyncio.gather(*self.handlers, return_exceptions=True)


async def _handle_connection(
    service: CallService,
    connections: _Connections,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """One client connection: JSON request per line, JSON response per
    line.  ``{"op": "stats"}`` returns the service counters;
    request-level failures (a :class:`~repro.serve.models.RequestError`,
    or a :class:`~repro.io.errors.FormatError` from an input that does
    not parse) produce ``{"status": "error", "kind": ..., ...}`` and
    keep the connection open."""
    task = asyncio.current_task()
    connections.handlers.add(task)
    try:
        while not connections.closing:
            connections.idle[task] = writer
            line = await reader.readline()
            del connections.idle[task]
            if not line or connections.closing:
                break
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                response = {
                    "status": "error",
                    "kind": "ValidationError",
                    "error": f"bad JSON: {exc}",
                }
            else:
                if isinstance(payload, dict) and payload.get("op") == "stats":
                    response = {"status": "ok", "stats": service.stats()}
                else:
                    try:
                        request = CallRequest.from_dict(
                            payload,
                            default_reference=service.default_reference,
                        )
                        result = await service.submit(request)
                        response = result.to_dict()
                    except (RequestError, FormatError) as exc:
                        response = {
                            "status": "error",
                            "kind": type(exc).__name__,
                            "error": str(exc),
                        }
            writer.write(json.dumps(response).encode("utf-8") + b"\n")
            await writer.drain()
    except (ConnectionResetError, BrokenPipeError):
        pass
    finally:
        connections.idle.pop(task, None)
        connections.handlers.discard(task)
        writer.close()


async def serve_tcp(
    service: CallService,
    host: str = "127.0.0.1",
    port: int = 7341,
    *,
    ready: Optional[asyncio.Event] = None,
) -> "asyncio.base_events.Server":
    """Start the newline-delimited-JSON TCP front end.

    Returns the listening :class:`asyncio.Server`; set ``ready`` to be
    notified once the socket is bound (used by tests and the CLI's
    readiness line).
    """
    connections = _Connections()
    server = await asyncio.start_server(
        lambda r, w: _handle_connection(service, connections, r, w), host, port
    )
    if ready is not None:
        ready.set()
    return server


def run_server(
    service: CallService,
    host: str = "127.0.0.1",
    port: int = 7341,
) -> int:
    """Blocking server loop with signal-driven graceful shutdown.

    Binds, prints a readiness line (``serving on HOST:PORT``), then
    runs until SIGINT/SIGTERM; on shutdown it stops accepting
    connections, lets every request still computing send its response,
    closes the open connections, drains the service, and returns 0.
    """
    import signal

    async def _main() -> None:
        """Bind, announce readiness, and park until a signal arrives."""
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        connections = _Connections()
        server = await asyncio.start_server(
            lambda r, w: _handle_connection(service, connections, r, w), host, port
        )
        addr = server.sockets[0].getsockname()
        print(f"serving on {addr[0]}:{addr[1]}", flush=True)
        try:
            await stop.wait()
        finally:
            server.close()
            await connections.close()
            await server.wait_closed()
            await service.shutdown()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - non-POSIX fallback
        service.close()
    return 0
