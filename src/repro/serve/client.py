"""The in-process client for the calling service.

:class:`ServeClient` wraps a :class:`~repro.serve.server.CallService`
(its own, or one passed in) and exposes a synchronous
:meth:`~ServeClient.call` plus the async :meth:`~ServeClient.submit`.
This is what the test suite, ``benchmarks/bench_serve.py`` and the CI
serve smoke step drive.  The ``repro-lofreq serve`` TCP front end
speaks one JSON object per line each way; any socket client can talk
to it.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Optional

from repro.core.config import CallerConfig
from repro.pileup.engine import PileupConfig
from repro.serve.models import CallRequest, CallResponse
from repro.serve.server import CallService

__all__ = ["ServeClient"]


def _build_request(
    bam: str,
    *,
    region: Optional[str] = None,
    reference: Optional[str] = None,
    output_format: str = "vcf",
    config: Optional[CallerConfig] = None,
    pileup: Optional[PileupConfig] = None,
) -> CallRequest:
    """Assemble a :class:`CallRequest` from keyword conveniences."""
    return CallRequest(
        bam=bam,
        region=region,
        reference=reference,
        output_format=output_format,
        config=config or CallerConfig.improved(),
        pileup=pileup or PileupConfig(),
    )


class ServeClient:
    """In-process client over a :class:`CallService`.

    Args:
        service: an existing service to talk to; ``None`` creates a
            private one from ``**service_kwargs`` (closed again by
            :meth:`close` / the context manager).
        **service_kwargs: forwarded to :class:`CallService` when the
            client owns its service (e.g. ``default_reference=...``,
            ``n_workers=...``).

    Example::

        with ServeClient(default_reference="ref.fa") as client:
            cold = client.call("sample.bam", region="chr1:1-500")
            warm = client.call("sample.bam", region="chr1:1-500")
            assert warm.cached and warm.body == cold.body
    """

    def __init__(
        self, service: Optional[CallService] = None, **service_kwargs
    ) -> None:
        if service is not None and service_kwargs:
            raise ValueError(
                "pass either an existing service or kwargs for a new "
                "one, not both"
            )
        self._owned = service is None
        self.service = service or CallService(**service_kwargs)

    async def submit(self, request: CallRequest) -> CallResponse:
        """Async passthrough to :meth:`CallService.submit`."""
        return await self.service.submit(request)

    def call(
        self,
        bam: str,
        *,
        region: Optional[str] = None,
        reference: Optional[str] = None,
        output_format: str = "vcf",
        config: Optional[CallerConfig] = None,
        pileup: Optional[PileupConfig] = None,
    ) -> CallResponse:
        """Serve one request synchronously and return its response.

        Must not be called from inside a running event loop (use
        :meth:`submit` there).
        """
        request = _build_request(
            bam,
            region=region,
            reference=reference or self.service.default_reference,
            output_format=output_format,
            config=config,
            pileup=pileup,
        )
        return asyncio.run(self.service.submit(request))

    def stats(self) -> Dict[str, object]:
        """The service's counter snapshot."""
        return self.service.stats()

    def close(self) -> None:
        """Shut the service down if this client owns it."""
        if self._owned:
            self.service.close()

    def __enter__(self) -> "ServeClient":
        """Context-manager entry."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: close an owned service."""
        self.close()

