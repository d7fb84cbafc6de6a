"""Loopback HTTP clients for the analysis service.

:class:`Connection` sends ``POST /jobs`` and ``GET /jobs/<id>``, one TCP
connection per request, as ``urllib.request`` clients do.  (On a
keep-alive connection each response of the service's HTTP plane waits
about 40 ms: it writes headers and body in two sends without
``TCP_NODELAY``, and the second waits for the client's delayed ACK.)

:class:`FinishWatcher` reads the service's ``GET /events`` stream and
reports each ``job_finished`` event as it arrives, so a client learns
that a job is done without polling; it then fetches the answer with one
``GET /jobs/<id>``.  The watcher ACKs every frame at once
(``TCP_QUICKACK``), so frames the service sends back to back are not held
back by the same delayed-ACK wait.
"""

from __future__ import annotations

import http.client
import json
import select
import socket
from typing import Dict, Optional


class ServiceRefused(Exception):
    """The service answered a request with an unexpected status."""


class Connection:
    """Requests to one service, each on its own TCP connection."""

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self._address = (host, port)
        self._timeout = timeout

    def _call(self, method: str, path: str, body: Optional[bytes] = None,
              expect: int = 200) -> Dict[str, object]:
        headers = {"Connection": "close"}
        if body:
            headers["Content-Type"] = "application/json"
        conn = http.client.HTTPConnection(*self._address, timeout=self._timeout)
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            data = response.read()
        finally:
            conn.close()
        if response.status != expect:
            raise ServiceRefused(
                f"{method} {path} -> {response.status}: {data[:200]!r}"
            )
        return json.loads(data)

    def post_job(self, body: bytes) -> str:
        """Submit one encoded request; returns the job id."""
        return str(self._call("POST", "/jobs", body, expect=202)["id"])

    def get_job(self, job_id: str) -> Dict[str, object]:
        return self._call("GET", f"/jobs/{job_id}")


class FinishWatcher:
    """Live ``job_finished`` notifications from ``GET /events``.

    Subscribes past the end of the replay buffer, so only events emitted
    after :meth:`open` arrive.  Reads the raw socket through ``select``,
    so a wait can time out without spoiling the stream.
    """

    def __init__(self, host: str, port: int) -> None:
        self._address = (host, port)
        self._sock: Optional[socket.socket] = None
        self._buffer = b""

    def open(self) -> "FinishWatcher":
        sock = socket.create_connection(self._address, timeout=10.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
        sock.sendall(
            b"GET /events?since=999999999999 HTTP/1.1\r\n"
            b"Host: bench\r\nAccept: text/event-stream\r\n\r\n"
        )
        self._sock = sock
        head = self._read_until(b"\r\n\r\n", deadline_s=10.0)
        if head is None or b" 200 " not in head.split(b"\r\n", 1)[0]:
            raise ServiceRefused(f"GET /events -> {head!r}")
        return self

    def _read_until(self, marker: bytes, deadline_s: float) -> Optional[bytes]:
        while marker not in self._buffer:
            assert self._sock is not None
            ready, _, _ = select.select([self._sock], [], [], deadline_s)
            if not ready:
                return None
            chunk = self._sock.recv(65536)
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
            if not chunk:
                raise ServiceRefused("event stream closed by the service")
            self._buffer += chunk
        frame, self._buffer = self._buffer.split(marker, 1)
        return frame

    def next_finished(self, timeout: float) -> Optional[str]:
        """The id of the next finished job, or ``None`` when none
        finishes within ``timeout`` seconds."""
        while True:
            frame = self._read_until(b"\n\n", deadline_s=timeout)
            if frame is None:
                return None
            event = ""
            data = ""
            for line in frame.decode("utf-8").split("\n"):
                if line.startswith("event: "):
                    event = line[len("event: "):]
                elif line.startswith("data: "):
                    data = line[len("data: "):]
            if event == "job_finished" and data:
                return str(json.loads(data)["payload"]["job"])

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()
            self._sock = None
