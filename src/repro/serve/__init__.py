"""Calling-as-a-service: the long-running serving layer.

``repro.serve`` wraps :class:`~repro.pipeline.engine.Pipeline` in a
service whose requests name ``(bam, region, config)``:

* an **asyncio front end** (:class:`~repro.serve.server.CallService`)
  validates requests, *coalesces* identical in-flight ones (compute
  once, answer everyone) and applies bounded-queue backpressure;
* a **shard map** (:class:`~repro.serve.shards.ShardMap`) routes each
  file/contig to a fixed :class:`~repro.serve.shards.ShardWorker`
  holding warm readers, resolved indexes and block LRUs across
  requests;
* a **result cache** (:class:`~repro.serve.cache.ResultCache`) keyed
  by ``(file fingerprint, region, config hash)`` serves repeat
  requests byte-identically without re-running the pipeline;
* bodies stream through the existing VCF/JSONL sinks and every
  response carries :meth:`~repro.core.results.RunStats.to_dict` plus
  serving counters.

The CLI front end is ``repro-lofreq serve``; in-process callers use
:class:`~repro.serve.client.ServeClient`.
"""

from repro.serve.cache import CachedResult, ResultCache
from repro.serve.client import ServeClient
from repro.serve.models import (
    CallRequest,
    CallResponse,
    FileFingerprint,
    RequestError,
    ResultKey,
    ServerClosedError,
    ServerOverloadedError,
    ValidationError,
    config_hash,
)
from repro.serve.server import CallService, run_server, serve_tcp
from repro.serve.shards import RegionView, ShardMap, ShardWorker

__all__ = [
    "CachedResult",
    "CallRequest",
    "CallResponse",
    "CallService",
    "FileFingerprint",
    "RegionView",
    "RequestError",
    "ResultCache",
    "ResultKey",
    "ServeClient",
    "ServerClosedError",
    "ServerOverloadedError",
    "ShardMap",
    "ShardWorker",
    "ValidationError",
    "config_hash",
    "run_server",
    "serve_tcp",
]
