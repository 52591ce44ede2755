"""Tests for the calling service (repro.serve).

Covers the ISSUE 7 concurrency contract: coalesced duplicate in-flight
requests compute once, backpressure rejects (or queues) beyond the
bound, shutdown drains cleanly, served bodies are byte-identical to
offline Pipeline.run() output, and a BAM rewritten in place (same
path) misses the result cache by fingerprint construction.
"""

from __future__ import annotations

import asyncio
import io
import json
import os
import threading
import time

import pytest

from repro.core.config import CallerConfig
from repro.io.fasta import FastaRecord, write_fasta
from repro.pileup.engine import PileupConfig
from repro.pipeline import BamSource, JsonlSink, Pipeline, VcfSink
from repro.serve import (
    CallRequest,
    CallService,
    FileFingerprint,
    ResultCache,
    ResultKey,
    ServeClient,
    ServerClosedError,
    ServerOverloadedError,
    ShardMap,
    ShardWorker,
    ValidationError,
    config_hash,
    serve_tcp,
)
from repro.serve.cache import CachedResult
from repro.sim import ReadSimulator, random_panel, sars_cov_2_like


def _simulate(path_dir, *, seed=11, length=600, depth=250, variants=4):
    genome = sars_cov_2_like(length=length, seed=seed)
    panel = random_panel(
        genome.sequence, variants, freq_range=(0.03, 0.09), seed=seed
    )
    sample = ReadSimulator(genome, panel, read_length=80).simulate(
        depth, seed=seed
    )
    bam = os.path.join(path_dir, "sample.bam")
    ref = os.path.join(path_dir, "ref.fa")
    sample.write_bam(bam)
    write_fasta(ref, [genome])
    return genome, bam, ref


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    d = tmp_path_factory.mktemp("serve")
    genome, bam, ref = _simulate(str(d))
    return {"dir": str(d), "genome": genome, "bam": bam, "ref": ref}


@pytest.fixture()
def client(dataset):
    with ServeClient(default_reference=dataset["ref"], n_workers=2) as c:
        yield c


class TestModels:
    def test_fingerprint_identity(self, dataset):
        a = FileFingerprint.of(dataset["bam"])
        b = FileFingerprint.of(dataset["bam"])
        assert a == b
        assert os.path.isabs(a.path)

    def test_fingerprint_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot stat"):
            FileFingerprint.of(tmp_path / "nope.bam")

    def test_config_hash_sensitivity(self, dataset):
        ref = FileFingerprint.of(dataset["ref"])
        base = config_hash(
            CallerConfig.improved(), PileupConfig(), "vcf", ref
        )
        assert base == config_hash(
            CallerConfig.improved(), PileupConfig(), "vcf", ref
        )
        assert base != config_hash(
            CallerConfig.improved(alpha=0.01), PileupConfig(), "vcf", ref
        )
        assert base != config_hash(
            CallerConfig.improved(), PileupConfig(min_baseq=20), "vcf", ref
        )
        assert base != config_hash(
            CallerConfig.improved(), PileupConfig(), "jsonl", ref
        )

    def test_request_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValidationError, match="unknown request fields"):
            CallRequest.from_dict({"bam": "x.bam", "wat": 1})
        with pytest.raises(ValidationError, match="'bam'"):
            CallRequest.from_dict({})
        with pytest.raises(ValidationError, match="bad request config"):
            CallRequest.from_dict({"bam": "x.bam", "config": {"alpha": 2.0}})

    def test_validated_rejects_bad_requests(self, dataset):
        good = CallRequest(bam=dataset["bam"], reference=dataset["ref"])
        assert good.validated() is good
        with pytest.raises(ValidationError, match="output_format"):
            CallRequest(
                bam=dataset["bam"],
                reference=dataset["ref"],
                output_format="bcf",
            ).validated()
        with pytest.raises(ValidationError, match="malformed region"):
            CallRequest(
                bam=dataset["bam"],
                reference=dataset["ref"],
                region="::bad::",
            ).validated()
        with pytest.raises(ValidationError, match="no default"):
            CallRequest(bam=dataset["bam"]).validated()
        with pytest.raises(ValidationError, match="does not exist"):
            CallRequest(
                bam=dataset["bam"], reference="/no/such/ref.fa"
            ).validated()


class TestShardMap:
    def test_routing_is_deterministic_and_contig_sticky(self, dataset):
        fp = FileFingerprint.of(dataset["bam"])
        shards = ShardMap(4)
        key_a = ResultKey(bam=fp, region="ctgA:1-100", config="c1")
        key_b = ResultKey(bam=fp, region="ctgA:200-300", config="c2")
        # Same file+contig -> same shard, regardless of span or config.
        assert shards.shard_for(key_a) == shards.shard_for(key_b)
        assert 0 <= shards.shard_for(key_a) < 4
        # Stable across instances (content-addressed, not hash()).
        assert ShardMap(4).shard_for(key_a) == shards.shard_for(key_a)

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError, match="n_shards"):
            ShardMap(0)


class TestResultCache:
    def _entry(self, body="x"):
        return CachedResult(
            body=body, output_format="vcf", stats={}, n_calls=0, n_pass=0
        )

    def _key(self, dataset, region):
        return ResultKey(
            bam=FileFingerprint.of(dataset["bam"]), region=region, config="c"
        )

    def test_lru_eviction_and_counters(self, dataset):
        cache = ResultCache(2)
        k1, k2, k3 = (self._key(dataset, r) for r in ("a", "b", "c"))
        cache.put(k1, self._entry("1"))
        cache.put(k2, self._entry("2"))
        assert cache.get(k1).body == "1"
        cache.put(k3, self._entry("3"))  # evicts k2 (LRU)
        assert cache.get(k2) is None
        stats = cache.to_dict()
        assert stats["entries"] == 2
        assert stats["evictions"] == 1
        assert stats["hits"] == 1 and stats["misses"] == 1


class TestServeBasics:
    def test_cold_then_warm_byte_identical(self, dataset, client):
        cold = client.call(dataset["bam"])
        warm = client.call(dataset["bam"])
        assert not cold.cached and warm.cached
        assert warm.body == cold.body
        assert cold.stats["columns_seen"] > 0
        assert warm.stats["serve"]["result_cache_hit"] is True
        assert warm.stats["serve"]["result_cache"]["hits"] >= 1

    def test_vcf_body_matches_offline_pipeline(self, dataset, client):
        served = client.call(dataset["bam"])
        source = BamSource(
            dataset["bam"],
            {dataset["genome"].name: dataset["genome"].sequence},
        )
        buf = io.StringIO()
        Pipeline(source, sinks=[VcfSink(buf, contigs=source.contigs)]).run()
        assert served.body == buf.getvalue()

    def test_jsonl_body_matches_offline_pipeline(self, dataset, client):
        served = client.call(dataset["bam"], output_format="jsonl")
        source = BamSource(
            dataset["bam"],
            {dataset["genome"].name: dataset["genome"].sequence},
        )
        buf = io.StringIO()
        Pipeline(source, sinks=[JsonlSink(buf)]).run()
        assert served.body == buf.getvalue()
        assert all(json.loads(line) for line in served.body.splitlines())

    def test_region_request_scopes_calls(self, dataset, client):
        name = dataset["genome"].name
        whole = client.call(dataset["bam"])
        half = client.call(dataset["bam"], region=f"{name}:1-300")
        assert not half.cached  # different key than the whole-file body
        assert half.body != whole.body
        # The offline equivalent: same contigs header, half the scope.
        from repro.io.regions import Region

        source = BamSource(
            dataset["bam"],
            {name: dataset["genome"].sequence},
            regions=[Region(name, 0, 300)],
        )
        buf = io.StringIO()
        Pipeline(
            source, sinks=[VcfSink(buf, contigs=[(name, 600)])]
        ).run()
        assert half.body == buf.getvalue()

    def test_region_unknown_contig_fails_validation(self, dataset, client):
        with pytest.raises(ValidationError, match="not in the BAM header"):
            client.call(dataset["bam"], region="ctgZ:1-10")

    def test_distinct_configs_get_distinct_entries(self, dataset, client):
        a = client.call(dataset["bam"], config=CallerConfig.improved())
        b = client.call(
            dataset["bam"], config=CallerConfig.improved(alpha=0.001)
        )
        assert not b.cached
        assert a.key != b.key

    def test_warm_source_reused_across_requests(self, dataset, client):
        # Two distinct regions of one contig: the shard map routes by
        # (bam path, contig), so both deterministically land on the
        # same worker and the second reuses its warm source.  (A
        # whole-file request keys contig '', which may route to a
        # different shard than the named contig.)
        name = dataset["genome"].name
        client.call(dataset["bam"], region=f"{name}:1-200")
        client.call(dataset["bam"], region=f"{name}:201-400")
        stats = client.stats()
        hits = sum(w["warm_source_hits"] for w in stats["workers"])
        assert hits >= 1, stats["workers"]


class TestStaleFingerprint:
    def test_rewritten_bam_misses_and_recomputes(self, tmp_path):
        genome, bam, ref = _simulate(str(tmp_path), seed=21)
        with ServeClient(default_reference=ref, n_workers=1) as client:
            first = client.call(bam)
            fp_before = FileFingerprint.of(bam)
            # Rewrite the BAM in place: same path, different reads
            # (different seed -> different errors/variant support).
            panel = random_panel(
                genome.sequence, 4, freq_range=(0.03, 0.09), seed=99
            )
            sample = ReadSimulator(
                genome, panel, read_length=80
            ).simulate(250, seed=99)
            sample.write_bam(bam)
            # Force a different mtime even on coarse-grained clocks.
            st = os.stat(bam)
            os.utime(bam, ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000))
            fp_after = FileFingerprint.of(bam)
            assert fp_before != fp_after
            second = client.call(bam)
            assert second.cached is False, (
                "stale fingerprint must miss the result cache"
            )
            assert second.key.bam == fp_after
            assert second.body != first.body
            # And the *new* body is immediately warm under the new key.
            third = client.call(bam)
            assert third.cached and third.body == second.body


def _slow_render(monkeypatch, delay=0.15, release=None):
    """Patch ShardWorker._render to count invocations (and optionally
    block on an event) while still producing the real body."""
    calls = []
    original = ShardWorker._render

    def patched(self, request, key):
        calls.append(key)
        if release is not None:
            assert release.wait(timeout=30.0), "renderer never released"
        elif delay:
            time.sleep(delay)
        return original(self, request, key)

    monkeypatch.setattr(ShardWorker, "_render", patched)
    return calls


class TestConcurrency:
    def test_coalesced_duplicates_compute_once(self, dataset, monkeypatch):
        calls = _slow_render(monkeypatch, delay=0.2)
        service = CallService(default_reference=dataset["ref"], n_workers=2)
        request = CallRequest(bam=dataset["bam"], reference=dataset["ref"])

        async def burst():
            return await asyncio.gather(
                *(service.submit(request) for _ in range(6))
            )

        try:
            responses = asyncio.run(burst())
        finally:
            service.close()
        assert len(calls) == 1, "duplicate in-flight requests recomputed"
        bodies = {r.body for r in responses}
        assert len(bodies) == 1
        assert sum(1 for r in responses if r.coalesced) == 5
        assert sum(1 for r in responses if not r.coalesced and not r.cached) == 1
        stats = service.stats()
        assert stats["coalesced"] == 5 and stats["computed"] == 1

    def test_backpressure_rejects_beyond_bound(self, dataset, monkeypatch):
        release = threading.Event()
        _slow_render(monkeypatch, release=release)
        service = CallService(
            default_reference=dataset["ref"],
            n_workers=1,
            max_pending=1,
            on_full="reject",
        )
        name = dataset["genome"].name
        req_a = CallRequest(
            bam=dataset["bam"], reference=dataset["ref"], region=f"{name}:1-100"
        )
        req_b = CallRequest(
            bam=dataset["bam"], reference=dataset["ref"], region=f"{name}:101-200"
        )

        async def scenario():
            task_a = asyncio.create_task(service.submit(req_a))
            await asyncio.sleep(0.1)  # let A occupy the only slot
            with pytest.raises(ServerOverloadedError):
                await service.submit(req_b)
            # A duplicate of the in-flight request coalesces instead of
            # rejecting -- it needs no slot of its own.
            task_dup = asyncio.create_task(service.submit(req_a))
            await asyncio.sleep(0.05)
            release.set()
            a, dup = await asyncio.gather(task_a, task_dup)
            return a, dup

        try:
            a, dup = asyncio.run(scenario())
        finally:
            release.set()
            service.close()
        assert a.body == dup.body
        assert dup.coalesced
        assert service.stats()["rejected"] == 1

    def test_backpressure_wait_mode_queues(self, dataset, monkeypatch):
        _slow_render(monkeypatch, delay=0.1)
        service = CallService(
            default_reference=dataset["ref"],
            n_workers=1,
            max_pending=1,
            on_full="wait",
        )
        name = dataset["genome"].name
        requests = [
            CallRequest(
                bam=dataset["bam"],
                reference=dataset["ref"],
                region=f"{name}:{lo}-{lo + 99}",
            )
            for lo in (1, 101, 201)
        ]

        async def scenario():
            return await asyncio.gather(
                *(service.submit(r) for r in requests)
            )

        try:
            responses = asyncio.run(scenario())
        finally:
            service.close()
        assert len(responses) == 3
        assert all(r.body for r in responses)
        assert service.stats()["rejected"] == 0
        assert service.stats()["computed"] == 3

    def test_shutdown_drains_in_flight_requests(self, dataset, monkeypatch):
        _slow_render(monkeypatch, delay=0.15)
        service = CallService(default_reference=dataset["ref"], n_workers=2)
        name = dataset["genome"].name
        requests = [
            CallRequest(
                bam=dataset["bam"],
                reference=dataset["ref"],
                region=f"{name}:{lo}-{lo + 49}",
            )
            for lo in (1, 51, 101, 151)
        ]

        async def scenario():
            tasks = [
                asyncio.create_task(service.submit(r)) for r in requests
            ]
            await asyncio.sleep(0.05)  # all enqueued, none finished
            await service.shutdown()
            # Every in-flight request still completes with a real body.
            responses = await asyncio.gather(*tasks)
            with pytest.raises(ServerClosedError):
                await service.submit(requests[0])
            return responses

        responses = asyncio.run(scenario())
        assert len(responses) == 4
        assert all(r.body.startswith("##fileformat") for r in responses)
        assert service.stats()["computed"] == 4

    def test_worker_error_does_not_kill_the_worker(self, dataset, client):
        with pytest.raises(ValidationError):
            client.call(dataset["bam"], region="ctgZ")
        # The same worker still serves the next request.
        ok = client.call(dataset["bam"])
        assert ok.body
        assert client.stats()["errors"] == 1


class TestTcpFrontEnd:
    def test_tcp_round_trip_cold_warm_and_stats(self, dataset):
        service = CallService(default_reference=dataset["ref"], n_workers=1)

        async def scenario():
            server = await serve_tcp(service, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)

            async def roundtrip(payload):
                writer.write(json.dumps(payload).encode() + b"\n")
                await writer.drain()
                return json.loads(await reader.readline())

            cold = await roundtrip({"bam": dataset["bam"]})
            warm = await roundtrip({"bam": dataset["bam"]})
            bad = await roundtrip({"bam": dataset["bam"], "wat": 1})
            garbage = await roundtrip({"op": "stats"})
            writer.close()
            server.close()
            await server.wait_closed()
            return cold, warm, bad, garbage

        try:
            cold, warm, bad, stats = asyncio.run(scenario())
        finally:
            service.close()
        assert cold["status"] == "ok" and not cold["cached"]
        assert warm["status"] == "ok" and warm["cached"]
        assert warm["body"] == cold["body"]
        assert bad["status"] == "error" and bad["kind"] == "ValidationError"
        assert stats["status"] == "ok"
        assert stats["stats"]["computed"] == 1


class TestServerShutdown:
    def test_sigterm_with_an_idle_connection_open(self, dataset):
        """``serve`` on SIGTERM with an idle connection open: the server
        closes it (the client reads end of file), prints no traceback
        and exits 0 -- no handler is cancelled mid-read."""
        import signal
        import socket
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--reference", dataset["ref"]],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        try:
            ready = server.stdout.readline()
            assert ready.startswith("serving on "), ready
            host, port = ready.split()[-1].rsplit(":", 1)
            with socket.create_connection((host, int(port)), timeout=60) as sock:
                lines = sock.makefile("rw")
                lines.write(json.dumps({"op": "stats"}) + "\n")
                lines.flush()
                assert json.loads(lines.readline())["status"] == "ok"
                server.send_signal(signal.SIGTERM)
                _, stderr = server.communicate(timeout=60)
                assert sock.recv(1) == b""
        finally:
            if server.poll() is None:
                server.kill()
                server.communicate()
        assert server.returncode == 0
        assert "Traceback" not in stderr, stderr


def _tcp_session(service, payloads):
    """Send each payload on one TCP connection to ``service``; the
    decoded response lines, in order."""

    async def scenario():
        server = await serve_tcp(service, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        responses = []
        for payload in payloads:
            writer.write(json.dumps(payload).encode() + b"\n")
            await writer.drain()
            responses.append(json.loads(await reader.readline()))
        writer.close()
        server.close()
        await server.wait_closed()
        return responses

    try:
        return asyncio.run(scenario())
    finally:
        service.close()


class TestRequestErrorLines:
    """Every per-request failure is one typed error line over TCP, and
    the connection goes on to answer the next request."""

    def test_reference_missing_a_bam_contig(self, dataset, tmp_path):
        other = tmp_path / "other.fa"
        write_fasta(str(other), [FastaRecord("other", "", dataset["genome"].sequence)])
        service = CallService(default_reference=dataset["ref"], n_workers=1)
        bad, stats = _tcp_session(
            service,
            [{"bam": dataset["bam"], "reference": str(other)}, {"op": "stats"}],
        )
        assert bad["status"] == "error" and bad["kind"] == "ValidationError"
        assert f"BAM references ['{dataset['genome'].name}'] not in {other}" in bad["error"]
        assert stats["status"] == "ok"

    def test_corrupt_first_bgzf_block(self, dataset, tmp_path):
        raw = bytearray(open(dataset["bam"], "rb").read())
        raw[18] = 0x07  # BFINAL=1, BTYPE=11 (reserved) in block 0
        bam = tmp_path / "corrupt.bam"
        bam.write_bytes(bytes(raw))
        service = CallService(default_reference=dataset["ref"], n_workers=1)
        bad, stats = _tcp_session(service, [{"bam": str(bam)}, {"op": "stats"}])
        assert bad["status"] == "error" and bad["kind"] == "FormatError"
        assert "BGZF block at compressed offset 0" in bad["error"]
        assert stats["status"] == "ok"
        assert stats["stats"]["errors"] == 1

    def test_reference_that_is_not_fasta(self, dataset, tmp_path):
        ref = tmp_path / "bad.fa"
        ref.write_text("ACGT\n>chr\nACGT\n")
        service = CallService(n_workers=1)
        bad, stats = _tcp_session(
            service, [{"bam": dataset["bam"], "reference": str(ref)}, {"op": "stats"}]
        )
        assert bad["status"] == "error" and bad["kind"] == "FormatError"
        assert f"{ref}: line 1: FASTA data before first '>'" in bad["error"]
        assert stats["status"] == "ok"

    def test_reference_that_is_not_utf8(self, dataset, tmp_path):
        ref = tmp_path / "bad.fa"
        raw = bytearray(open(dataset["ref"], "rb").read())
        raw[-3] = 0xFF
        ref.write_bytes(bytes(raw))
        service = CallService(n_workers=1)
        bad, stats = _tcp_session(
            service, [{"bam": dataset["bam"], "reference": str(ref)}, {"op": "stats"}]
        )
        assert bad["status"] == "error" and bad["kind"] == "FormatError", bad
        assert f"{ref}: line " in bad["error"] and "not UTF-8" in bad["error"]
        assert stats["status"] == "ok"


class TestPerRequestIoCounters:
    def test_each_response_counts_its_own_lookups(self, dataset, monkeypatch):
        """On a warm service, a computed response's block-cache counters
        are the lookups made while computing it, whichever request the
        worker served before.  That count itself can depend on the
        previous request: a region whose first seek lands in the block
        the reader rests on looks up one block fewer."""
        from repro.io.bgzf import BgzfReader

        made = []
        lookup = BgzfReader._cached_block_at

        def counted(self, offset):
            before = self.cache_hits + self.cache_misses
            out = lookup(self, offset)
            made.append(self.cache_hits + self.cache_misses - before)
            return out

        monkeypatch.setattr(BgzfReader, "_cached_block_at", counted)
        name = dataset["genome"].name
        target = f"{name}:201-300"
        regions = [None, target, f"{name}:401-500", target, f"{name}:1-80", target]
        per_request = []
        with ServeClient(default_reference=dataset["ref"], n_workers=1) as client:
            # Open the warm source, its reader and its seek index (whose
            # build reads through a reader of its own).
            client.call(dataset["bam"], region=f"{name}:101-110")
            for i, region in enumerate(regions):
                made.clear()
                response = client.call(
                    dataset["bam"],
                    region=region,
                    config=CallerConfig.improved(alpha=0.05 - 0.001 * i),
                )
                assert not response.cached
                stats = response.stats
                per_request.append((stats["cache_hits"] + stats["cache_misses"], sum(made)))
        assert all(reported == seen for reported, seen in per_request), per_request
        assert all(reported > 0 for reported, _ in per_request), per_request


class TestRegionResolution:
    """``call --region`` and region requests share one resolver: an end
    past the contig is clamped, a start past it is an error."""

    @pytest.fixture(scope="class")
    def borderline(self, tmp_path_factory):
        """Low-frequency variants whose calls depend on the Bonferroni
        scope: counted over 60,000 positions instead of the contig's
        600, one of the four calls drops."""
        d = str(tmp_path_factory.mktemp("borderline"))
        genome = sars_cov_2_like(length=600, seed=2)
        panel = random_panel(genome.sequence, 4, freq_range=(0.01, 0.04), seed=2)
        sample = ReadSimulator(genome, panel, read_length=80).simulate(
            250, seed=2
        )
        bam = os.path.join(d, "sample.bam")
        ref = os.path.join(d, "ref.fa")
        sample.write_bam(bam)
        write_fasta(ref, [genome])
        return {"dir": d, "name": genome.name, "bam": bam, "ref": ref}

    def _call(self, data, out, *extra):
        from repro.cli import main

        path = os.path.join(data["dir"], out)
        rc = main(
            ["call", data["bam"], "--reference", data["ref"], "--out", path,
             *extra]
        )
        return rc, path

    def test_over_long_region_is_the_whole_contig(self, borderline):
        text = f"{borderline['name']}:1-60000"
        rc, whole = self._call(borderline, "whole.vcf")
        assert rc == 0
        rc, long_ = self._call(borderline, "long.vcf", "--region", text)
        assert rc == 0
        with open(whole) as fh:
            expected = fh.read()
        with open(long_) as fh:
            assert fh.read() == expected
        with ServeClient(default_reference=borderline["ref"]) as client:
            served = client.call(borderline["bam"], region=text)
        assert served.body == expected
        records = [ln for ln in expected.splitlines() if not ln.startswith("#")]
        assert len(records) == 4

    def test_start_past_the_end_is_rejected(self, borderline, capsys):
        text = f"{borderline['name']}:7001-8000"
        capsys.readouterr()
        rc, out = self._call(borderline, "past.vcf", "--region", text)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "past the end" in err
        assert not os.path.exists(out)

        service = CallService(default_reference=borderline["ref"], n_workers=1)
        request = CallRequest(
            bam=borderline["bam"], reference=borderline["ref"], region=text
        )

        async def scenario():
            with pytest.raises(ValidationError, match="past the end"):
                await service.submit(request)
            server = await serve_tcp(service, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)

            async def roundtrip(payload):
                writer.write(json.dumps(payload).encode() + b"\n")
                await writer.drain()
                return json.loads(await reader.readline())

            bad = await roundtrip({"bam": borderline["bam"], "region": text})
            good = await roundtrip({"bam": borderline["bam"]})
            writer.close()
            server.close()
            await server.wait_closed()
            return bad, good

        try:
            bad, good = asyncio.run(scenario())
        finally:
            service.close()
        assert bad["status"] == "error" and bad["kind"] == "ValidationError"
        assert "past the end" in bad["error"]
        assert good["status"] == "ok" and good["body"]
