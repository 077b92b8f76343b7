"""One asyncio service on its own event-loop thread, behind one listener.

The TCP server, the cluster router and the chaos proxy are asyncio
services; tests, benchmarks and the CLI are synchronous.  :class:`LoopThread`
is the one host between the two: it owns the thread and its loop, and the
three named hosts (``ServerThread``, ``RouterThread``, ``ChaosProxyThread``)
only say which service they run and what stopping it means.
:class:`Listener` is the one accept loop under all three services: it owns
the bound socket, the registry of live connections and their teardown, and
a service only says what one connection does (:meth:`Listener.handle`).
:class:`LoopWaiters` is how a coroutine waits on its loop for a condition
that other code on that loop makes true.

Lives at the package root, not under ``repro.net``: ``repro.faults`` is
imported by ``repro.core.engine``, and ``repro.net``'s package import
reaches back into ``repro.core``.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Callable, Optional, Set

from .errors import ConfigurationError

__all__ = ["Listener", "LoopThread", "LoopWaiters"]


class LoopWaiters:
    """Coroutines parked on their loop until a condition holds.

    :meth:`wait_until` re-checks its condition each time :meth:`wake` is
    called, by the code on the same loop that may have made it true.
    Each wait makes its future on the running loop (Python 3.9 binds a
    loop primitive at creation), so an instance holds none between waits
    and outlives the loop of a killed server.  A kill cancels the future
    itself, so a woken check never resolves a dead loop's wait.
    """

    def __init__(self) -> None:
        self._checks: Set[Callable[[], None]] = set()

    async def wait_until(self, holds: Callable[[], bool],
                         timeout: float) -> bool:
        """Whether ``holds()`` is true by ``timeout`` seconds from now."""
        if holds():
            return True
        loop = asyncio.get_running_loop()
        done = loop.create_future()

        def check(expired: bool = False) -> None:
            if done.done():
                return
            if holds():
                done.set_result(True)
            elif expired:
                done.set_result(False)

        timer = loop.call_later(timeout, check, True)
        self._checks.add(check)
        try:
            return await done
        finally:
            timer.cancel()
            self._checks.discard(check)

    def wake(self) -> None:
        """Re-check every waiting condition (on the waiters' loop)."""
        for check in tuple(self._checks):
            check()


class Listener:
    """A bound TCP listener and the connections it accepted.

    Subclasses implement :meth:`handle`; around it, once: bind (``port`` 0
    is ephemeral, readable after :meth:`listen`), one registered task per
    connection, the writer's close however the handler ends, shutdown.
    """

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: Set[asyncio.Task] = set()
        self._writers: Set[asyncio.StreamWriter] = set()

    async def listen(self) -> None:
        if self._server is not None:
            raise ConfigurationError(f"{type(self).__name__} already started")
        self._server = await asyncio.start_server(
            self._accept, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def handle(self, reader, writer) -> None:
        """Serve one accepted connection; returning closes it."""
        raise NotImplementedError

    async def _accept(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self._writers.add(writer)
        try:
            await self.handle(reader, writer)
        except asyncio.CancelledError:
            # Shutdown is tearing the connection down.  The task must still
            # finish normally: asyncio's stream callback reads
            # task.exception(), which raises on a cancelled task and is
            # logged as "Exception in callback".
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (Exception, asyncio.CancelledError):
                # Closed either way: a reset peer raises here, and shutdown
                # may cancel this wait too (a client's BYE + close landing
                # just before it) — deregister regardless.
                pass
            self._writers.discard(writer)
            self._conn_tasks.discard(task)

    def stop_accepting(self) -> None:
        """Close the listening socket; live connections carry on."""
        if self._server is not None:
            self._server.close()

    async def cancel_connections(self) -> int:
        """Cancel every live handler and wait for its teardown.

        Closing the transports too unparks a handler that lost its
        cancellation: pre-3.12 ``asyncio.wait_for`` can swallow one that
        races with its inner await completing (python/cpython#86296).
        """
        tasks = list(self._conn_tasks)
        for task in tasks:
            task.cancel()
        for writer in self._writers:
            writer.close()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        return len(tasks)

    async def close(self) -> None:
        """Stop accepting, drop every connection, release the socket."""
        self.stop_accepting()
        await self.cancel_connections()
        if self._server is not None:
            # After the connections: from 3.12 on this waits for them.
            await self._server.wait_closed()
            self._server = None


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
            # As ``asyncio.run`` ends a loop: cancel every task still
            # pending and wait for all of them (a cancelled ``wait_for``
            # takes more than one turn to unwind), then one more turn for
            # the closed transports' callbacks, and only then close.
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.run_until_complete(asyncio.sleep(0))
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

    def kill(self, timeout: float = 30.0) -> None:
        """Abrupt shutdown: drop the listener and every task NOW.

        The crash path, for chaos tests and failover drills — the inverse
        of :meth:`stop`.  No refusals are sent, in-flight requests are
        abandoned mid-write, clients see resets.
        """
        if self._thread is None or self._loop is None:
            return
        loop = self._loop

        def _slam() -> None:
            self._service.stop_accepting()
            for task in asyncio.all_tasks(loop):
                task.cancel()
            # The loop stops after one more turn; the thread's exit then
            # waits for every cancelled task to finish before it closes
            # the loop (one turn is not enough to unwind a cancelled
            # ``wait_for``).
            loop.call_soon(loop.stop)

        if self._thread.is_alive():
            try:
                loop.call_soon_threadsafe(_slam)
            except RuntimeError:
                pass  # loop already closed
        self._thread.join(timeout=timeout)
        self._thread = None

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
