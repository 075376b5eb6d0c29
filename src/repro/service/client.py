"""Client of the job daemon (one request per connection, stream excepted).

Thin and stateless: every call opens a connection, sends one JSON line,
reads the reply.  :meth:`ServiceClient.stream` keeps its connection open
and yields events until the job completes.  Raises
:class:`ServiceError` when the daemon reports a failure, and
:class:`ServiceUnavailable` when the address does not answer.
"""

from __future__ import annotations

import socket
from typing import Dict, Iterator, List, Optional

from repro.harness.experiment import RunSpec
from repro.service.protocol import (
    ServiceError,
    connect_address,
    recv_json,
    send_json,
    spec_to_json,
)

CONNECT_TIMEOUT = 10.0


class ServiceUnavailable(ServiceError):
    """Nothing is listening at the configured service address."""


class ServiceClient:
    def __init__(self, address: str,
                 connect_timeout: float = CONNECT_TIMEOUT) -> None:
        self.address = address
        self.connect_timeout = connect_timeout

    def _connect(self) -> socket.socket:
        try:
            return connect_address(self.address, timeout=self.connect_timeout)
        except (ConnectionRefusedError, FileNotFoundError, socket.gaierror,
                socket.timeout) as exc:
            raise ServiceUnavailable(
                f"no job daemon at {self.address!r} "
                f"(start one with: python -m repro.harness serve "
                f"--socket {self.address}): {exc}"
            ) from None

    def _request(self, payload: dict,
                 timeout: Optional[float] = None) -> dict:
        sock = self._connect()
        try:
            sock.settimeout(timeout)
            handle = sock.makefile("rwb")
            send_json(handle, payload)
            response = recv_json(handle)
            handle.close()
        finally:
            sock.close()
        if response is None:
            raise ServiceError(
                f"daemon at {self.address!r} closed the connection")
        if not response.get("ok", False):
            raise ServiceError(response.get("error", "unknown daemon error"))
        return response

    # -- operations ------------------------------------------------------

    def submit(self, specs: List[RunSpec]) -> List[dict]:
        """Submit a batch, each spec made explicit here
        (:meth:`RunSpec.scaled`); returns one status dict per spec."""
        response = self._request({
            "op": "submit",
            "specs": [spec_to_json(spec.scaled()) for spec in specs],
        })
        return response["jobs"]

    def status(self, job_ids: List[str]) -> List[dict]:
        return self._request({"op": "status", "jobs": list(job_ids)})["jobs"]

    def results(self, job_ids: List[str], wait: bool = True,
                timeout: Optional[float] = None) -> List[dict]:
        """Statuses with ``result`` payloads, blocking until terminal."""
        response = self._request(
            {"op": "results", "jobs": list(job_ids), "wait": wait,
             "timeout": timeout},
            # the socket must outlive the daemon-side wait
            timeout=timeout + 10.0 if timeout else None,
        )
        return response["jobs"]

    def stream(self, job_id: str) -> Iterator[dict]:
        """Yield ``{"event": "metric", ...}`` dicts, then the final
        ``{"event": "end", "state": ...}``."""
        sock = self._connect()
        try:
            sock.settimeout(None)
            handle = sock.makefile("rwb")
            send_json(handle, {"op": "stream", "job": job_id})
            first = recv_json(handle)
            if first is None or not first.get("ok", False):
                raise ServiceError(
                    (first or {}).get("error", "stream refused"))
            while True:
                event = recv_json(handle)
                if event is None:
                    return
                yield event
                if event.get("event") == "end":
                    return
        finally:
            sock.close()

    def info(self) -> Dict[str, object]:
        return self._request({"op": "info"})

    def shutdown(self) -> None:
        self._request({"op": "shutdown"})

    def ping(self) -> bool:
        try:
            self.info()
            return True
        except (ServiceError, OSError):
            # OSError covers a daemon caught mid-shutdown: the socket may
            # still accept the connection, then reset it.
            return False
