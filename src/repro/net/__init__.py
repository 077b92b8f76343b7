"""Real TCP serving stack for the PIR service (DESIGN.md §12).

Carries the sealed :mod:`repro.service.protocol` frames over sockets:
length-prefixed framing with a hard size cap (:mod:`~repro.net.framing`),
an asyncio server that serves one request at a time on its engine
thread, with graceful drain (:mod:`~repro.net.server`), admission
control that sheds load with retryable refusals
(:mod:`~repro.net.admission`), and a blocking client mirroring
:class:`~repro.service.frontend.ServiceClient`
(:mod:`~repro.net.client`).
"""

from .admission import AdmissionController, TokenBucket
from .client import NetworkClient
from .framing import MAX_FRAME_BYTES
from .server import PirServer, ServerThread

__all__ = [
    "AdmissionController",
    "TokenBucket",
    "NetworkClient",
    "MAX_FRAME_BYTES",
    "PirServer",
    "ServerThread",
]
