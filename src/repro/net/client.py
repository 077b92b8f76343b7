"""Network client for the PIR serving stack.

:class:`NetworkClient` is the blocking mirror of
:class:`~repro.service.frontend.ServiceClient`: the same typed operation
surface and the same round trip
(:meth:`~repro.service.frontend.ClientOperationsMixin._call`, retried on
:class:`~repro.errors.TransientChannelError` and retryable refusals) —
but over a real TCP socket, timed and backed off on the wall clock
instead of the virtual one.

Duplicate safety: each logical call seals its request **once** and
retransmits the *same* sealed bytes under the *same* request id on every
retry.  The frontend's reply cache answers a byte-identical duplicate
without re-executing, so a retransmission after a lost reply cannot
double-apply a mutation.  Replies carrying an older request id (the late
answer to a transmission we gave up on) are discarded, keeping the
stream synchronised.

Reconnect-and-resume: a connection reset or read timeout mid-request no
longer surfaces as a hard error.  The client tears the socket down,
re-dials, presents its session id in a RESUME frame (the server — or a
cluster backend adopting the session after failover — re-attaches the
suite and reply cache), and retransmits the identical sealed bytes.  A
read timeout can leave half a frame in the old receive buffer, which is
why the *only* safe reaction to any transport error is a fresh
connection — never another read on the same socket.  Connect and read
deadlines are configured separately and both surface as the typed
:class:`~repro.errors.NetTimeoutError`.
"""

from __future__ import annotations

import socket
import time
from typing import Optional

from .endpoint import (
    exchange_sock,
    open_sock,
    read_message_sock,
    write_message_sock,
)
from .framing import Bye, Hello, NetRefused, Reply, Request, Resume, Welcome
from ..analysis.stats import LatencySeries
from ..crypto.rng import SecureRandom
from ..crypto.suite import CipherSuite
from ..errors import ProtocolError, TransientChannelError
from ..faults.retry import RetryPolicy
from ..obs.registry import MetricsRegistry
from ..service.frontend import (
    SESSION_BACKEND,
    ClientOperationsMixin,
    session_master_key,
)
from ..service.health import error_for_refusal

__all__ = ["NetworkClient"]

#: Never sleep longer than this between retries, whatever the server's
#: retry-after hint says — a buggy hint must not hang a client for hours.
MAX_BACKOFF_S = 5.0


class _WallClock:
    """The round trip's clock: ``now`` is monotonic wall time, and a
    backoff is a real sleep capped at :data:`MAX_BACKOFF_S`."""

    @property
    def now(self) -> float:
        return time.monotonic()

    @staticmethod
    def advance(seconds: float) -> None:
        time.sleep(min(seconds, MAX_BACKOFF_S))


def _client_suite(session_id: int, seed: Optional[int] = None) -> CipherSuite:
    """The client's copy of the session suite (see ``session_master_key``).

    Nonces only need uniqueness — they travel inside each frame — so the
    client draws them from its own RNG; the two ends' streams are
    independent by construction (different seed derivations).
    """
    rng = SecureRandom(seed).spawn(f"net-client-nonces-{session_id}")
    return CipherSuite(session_master_key(session_id),
                       backend=SESSION_BACKEND, rng=rng)


def _reply_sealed(message, request_id: int) -> Optional[bytes]:
    """Sealed reply bytes if ``message`` answers ``request_id``.

    Returns None for a stale reply (an answer to an earlier transmission
    we already gave up on — discard and keep reading); raises for
    refusals and stream desynchronisation.
    """
    if isinstance(message, (Reply, NetRefused)):
        if message.request_id < request_id:
            return None
        if message.request_id > request_id:
            raise ProtocolError(
                f"reply for request {message.request_id} while "
                f"{request_id} is outstanding"
            )
        if isinstance(message, NetRefused):
            raise error_for_refusal(
                message.refusal.code,
                f"request refused: {message.refusal.reason}",
                message.refusal.retry_after,
            )
        return message.sealed
    raise ProtocolError(f"unexpected {type(message).__name__} frame")


class NetworkClient(ClientOperationsMixin):
    """Blocking TCP client with the :class:`ServiceClient` surface.

    With a :class:`~repro.faults.retry.RetryPolicy`, transient channel
    faults (timeouts — the connection survives) and retryable refusals
    (admission sheds, degraded service) are retried with exponential
    backoff, honouring the server's retry-after hint as a floor.
    """

    _clock = _WallClock()

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 10.0,
        retry: Optional[RetryPolicy] = None,
        rng_seed: Optional[int] = None,
        read_timeout: Optional[float] = None,
    ):
        """``timeout`` is the connect deadline, and the read deadline
        unless ``read_timeout`` overrides it — a connect timeout means
        "host is down" (a router should try another member), a read
        timeout means "request lost in flight" (reconnect and retransmit).
        """
        self.host = host
        self.port = port
        self.timeout = timeout
        self.read_timeout = (read_timeout if read_timeout is not None
                             else timeout)
        self.retry = retry
        self._retry_rng = SecureRandom(rng_seed).spawn("net-client-retry")
        self.counters = MetricsRegistry().counter_view()
        self.latencies = LatencySeries()
        self._next_request_id = 1
        self._sock: Optional[socket.socket] = None
        self.session_id = self._connect(Hello())
        self._suite = _client_suite(self.session_id, rng_seed)

    # -- transport -------------------------------------------------------------

    def _connect(self, opening) -> int:
        """Dial and shake hands — HELLO for a new session, RESUME to
        re-attach this one; returns the session id the server welcomed."""
        sock = open_sock(self.host, self.port, self.timeout,
                         self.read_timeout)
        try:
            answer = exchange_sock(sock, opening)
            if isinstance(answer, NetRefused):
                raise error_for_refusal(
                    answer.refusal.code,
                    f"handshake refused: {answer.refusal.reason}",
                    answer.refusal.retry_after,
                )
            if not isinstance(answer, Welcome):
                raise ProtocolError(
                    f"handshake expected WELCOME, got {type(answer).__name__}"
                )
            if (isinstance(opening, Resume)
                    and answer.session_id != opening.session_id):
                raise ProtocolError(
                    f"resumed session {answer.session_id} "
                    f"!= {opening.session_id}"
                )
        except BaseException:
            sock.close()
            raise
        self._sock = sock
        return answer.session_id

    def _teardown(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _reconnect(self) -> None:
        """Re-dial and RESUME the session on the fresh connection."""
        self._teardown()
        self._connect(Resume(self.session_id))
        self.counters.increment("reconnects")

    def _transact(self, request_id: int, sealed: bytes) -> bytes:
        """One transmission: send the sealed request, read its sealed reply.

        On a transport error (reset, peer gone, read deadline) the broken
        socket is torn down and — once per transaction, even without a
        retry policy — the client reconnects, resumes its session and
        retransmits the identical bytes; the server's reply cache turns
        the duplicate into the original reply.  Exposed for tests that
        need to retransmit the exact same bytes; normal callers go through
        the operation methods.
        """
        resumed = False
        while True:
            try:
                if self._sock is None:
                    self._reconnect()
                write_message_sock(self._sock, Request(request_id, sealed))
                while True:
                    sealed_reply = _reply_sealed(
                        read_message_sock(self._sock), request_id
                    )
                    if sealed_reply is not None:
                        return sealed_reply
            except TransientChannelError:
                # A timed-out read may leave half a frame buffered on the
                # old socket; the only safe continuation is a fresh
                # connection.  Resume once, then let the error propagate
                # to the retry policy (which re-enters with _sock=None).
                self._teardown()
                if resumed:
                    raise
                resumed = True
                self._reconnect()
                self.counters.increment("retransmits")

    def close(self) -> None:
        """Orderly goodbye; safe to call twice or on a broken socket."""
        if self._sock is None:
            return
        try:
            write_message_sock(self._sock, Bye())
        except TransientChannelError:
            pass
        self._teardown()

    def __enter__(self) -> "NetworkClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
