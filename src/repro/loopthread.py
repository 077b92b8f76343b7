"""One asyncio service on its own event-loop thread.

The TCP server, the cluster router and the chaos proxy are asyncio
services; tests, benchmarks and the CLI are synchronous.  :class:`LoopThread`
is the one host between the two: it owns the thread and its loop, and the
three named hosts (``ServerThread``, ``RouterThread``, ``ChaosProxyThread``)
only say which service they run and what stopping it means.

Lives at the package root, not under ``repro.net``: ``repro.faults`` is
imported by ``repro.core.engine``, and ``repro.net``'s package import
reaches back into ``repro.core``.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Optional

from .errors import ConfigurationError

__all__ = ["LoopThread"]


class LoopThread:
    """Runs ``service`` (``async start()``, ``host``, ``port``) on a thread.

    ``stop_service`` is the service's own ``async`` shutdown (a drain, a
    stop); :meth:`stop` runs it on the loop, then stops and joins the
    thread.  Start-up errors (bad config, port in use) re-raise from
    :meth:`start` on the calling thread.
    """

    def __init__(self, service, name: str, stop_service):
        self._service = service
        self._name = name
        self._stop_service = stop_service
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def host(self) -> str:
        return self._service.host

    @property
    def port(self) -> int:
        return self._service.port

    def start(self):
        if self._thread is not None:
            raise ConfigurationError(f"{self._name} thread already started")
        self._thread = threading.Thread(
            target=self._run, name=self._name, daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            self._thread.join()
            raise self._startup_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._service.start())
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    def call(self, coroutine, timeout: float = 30.0):
        """Run ``coroutine`` on the loop and wait for its result here."""
        return asyncio.run_coroutine_threadsafe(
            coroutine, self._loop
        ).result(timeout=timeout)

    def stop(self, timeout: float = 30.0) -> None:
        """Shut the service down on its loop, then stop and join the thread."""
        if self._thread is None or self._loop is None:
            return
        if self._thread.is_alive():
            self.call(self._stop_service(), timeout)
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=timeout)
        self._thread = None

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
