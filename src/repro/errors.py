"""Exception hierarchy shared across the RAVE reproduction.

The paper's testbed refuses a render request with "an explanatory error
message" when insufficient resources are available; :class:`InsufficientResources`
carries that explanation.  The remaining exceptions mirror the failure modes
of the grid-services substrate (discovery, marshalling, protocol framing).
"""

from __future__ import annotations


class RaveError(Exception):
    """Base class for all errors raised by this package."""


class SceneGraphError(RaveError):
    """Structural violation in a scene tree (unknown node, cycle, bad parent)."""


class RenderError(RaveError):
    """Failure inside the software renderer (bad geometry, camera, buffer)."""


class NetworkError(RaveError):
    """Failure in the simulated network (unknown host, no route, link down)."""


class ServiceError(RaveError):
    """Failure in a Grid/Web service call."""


class SoapFault(ServiceError):
    """SOAP-level fault returned by a service.

    Mirrors a SOAP 1.2 ``Fault`` element: ``code`` is the fault code
    (``Sender``/``Receiver``) and ``reason`` the human-readable cause.
    """

    def __init__(self, code: str, reason: str) -> None:
        super().__init__(f"{code}: {reason}")
        self.code = code
        self.reason = reason


class DiscoveryError(ServiceError):
    """UDDI lookup failed (unknown business, tModel, or service key)."""


class MarshallingError(ServiceError):
    """A value could not be marshalled to, or demarshalled from, the wire."""


class InsufficientResources(ServiceError):
    """No combination of render services can host the requested dataset.

    The paper: "if insufficient resources are available, the request is
    refused with an explanatory error message".  ``explanation`` is that
    message; ``required`` and ``available`` summarise the capacity gap.
    """

    def __init__(self, explanation: str, *, required: float = 0.0,
                 available: float = 0.0) -> None:
        super().__init__(explanation)
        self.explanation = explanation
        self.required = required
        self.available = available


class TooManyRequestsError(ServiceError):
    """The grid explicitly refused a request because it is full (HTTP 429).

    This is *backpressure*, not a failure: the service is healthy but at
    capacity, so the caller must not retry immediately and should surface
    the explanation to the user.  ``retry_after`` is the server's hint (in
    simulated seconds) for when capacity may free up; ``queue_position``
    is set when the request was dropped from (or refused a place in) a
    bounded admission queue.
    """

    status = 429

    def __init__(self, message: str, *, retry_after: float = 0.0,
                 queue_position: int | None = None,
                 tenant: str = "") -> None:
        super().__init__(message)
        self.retry_after = retry_after
        self.queue_position = queue_position
        self.tenant = tenant


class SessionError(ServiceError):
    """Invalid session operation (unknown session, duplicate subscription)."""


class DataFormatError(RaveError):
    """A model file (PLY/OBJ) or volume file is malformed."""
