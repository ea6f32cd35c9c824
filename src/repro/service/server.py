"""The stdlib HTTP front end over a :class:`StudyScheduler`.

A :class:`StudyServer` is a ``ThreadingHTTPServer`` — one daemon
thread per connection, all of them funnelling into the scheduler's
single lock — speaking plain HTTP/1.1 with ``Content-Length`` framed
JSON bodies.  The one exception is the progress stream,
``GET /studies/<id>/events``, which replies with newline-delimited
JSON (NDJSON) and ``Connection: close`` so clients simply read lines
until EOF.

Routes (docs/SERVICE.md carries the full table and examples):

====== ============================ =======================================
POST   ``/studies``                 submit a StudySpec JSON document
GET    ``/studies``                 index of known studies (live + on-disk)
GET    ``/studies/<id>``            status + per-cell progress counts
GET    ``/studies/<id>/result``     the full StudyResult (wire format)
GET    ``/studies/<id>/events``     NDJSON progress stream
GET    ``/healthz``                 liveness probe
GET    ``/stats``                   scheduler counters + cache stats
====== ============================ =======================================

Validation failures reuse the pointed :class:`~repro.api.spec.SpecError`
messages verbatim in a 400 body — the server never invents a second
vocabulary for spec mistakes.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro.api.session import Session
from repro.api.spec import SpecError, StudySpec
from repro.obs.logs import get_logger
from repro.service.scheduler import StudyRecord, StudyScheduler
from repro.service.wire import study_result_to_dict

log = get_logger("service")

#: Refuse request bodies beyond this many bytes (a spec is small; a
#: larger body is a mistake or abuse, not a study).
MAX_BODY_BYTES = 8 * 1024 * 1024


class StudyServer(ThreadingHTTPServer):
    """The service socket: per-connection threads over one scheduler."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int],
                 scheduler: StudyScheduler) -> None:
        super().__init__(address, _Handler)
        self.scheduler = scheduler

    @property
    def port(self) -> int:
        return self.server_address[1]

    def close(self) -> None:
        """Stop accepting, then drain the scheduler gracefully."""
        self.shutdown()
        self.server_close()
        self.scheduler.stop()


def make_server(host: str = "127.0.0.1", port: int = 0,
                scheduler: Optional[StudyScheduler] = None,
                **session_kwargs: Any) -> StudyServer:
    """A ready-to-serve :class:`StudyServer`.

    ``port=0`` binds an ephemeral port (read it back from
    ``server.port``) — the shape every in-process test uses.  Without a
    ``scheduler``, the extra keyword arguments (``jobs``,
    ``cache_dir``, ``no_cache``) build the :class:`Session` a new,
    started scheduler runs on; a caller that needs ``autostart=False``
    passes its own scheduler.
    """
    if scheduler is None:
        scheduler = StudyScheduler(Session(**session_kwargs))
    return StudyServer((host, port), scheduler)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: StudyServer  # narrowed for type checkers

    # ------------------------------------------------------------------
    def log_message(self, fmt: str, *args: Any) -> None:
        log.info("%s %s", self.address_string(), fmt % args)

    @property
    def scheduler(self) -> StudyScheduler:
        return self.server.scheduler

    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _record_or_404(self, study_id: str) -> Optional[StudyRecord]:
        record = self.scheduler.get(study_id)
        if record is None:
            self._error(404, f"unknown study {study_id!r}; POST the "
                             f"spec to /studies first (GET /studies "
                             f"lists known ones)")
        return record

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path, _, query = self.path.partition("?")
        parts = [p for p in path.split("/") if p]
        try:
            if parts == ["healthz"]:
                self._send_json(200, {"ok": True, "service": "repro",
                                      "stopping":
                                          self.scheduler.stopping})
            elif parts == ["stats"]:
                self._send_json(200, self.scheduler.stats())
            elif parts == ["studies"]:
                self._send_json(200,
                                {"studies": self.scheduler.study_index()})
            elif len(parts) == 2 and parts[0] == "studies":
                record = self._record_or_404(parts[1])
                if record is not None:
                    self._send_json(200, record.status_dict())
            elif (len(parts) == 3 and parts[0] == "studies"
                    and parts[2] == "result"):
                self._get_result(parts[1])
            elif (len(parts) == 3 and parts[0] == "studies"
                    and parts[2] == "events"):
                self._stream_events(parts[1], query)
            else:
                self._error(404, f"no route {path!r}")
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-reply; nothing to salvage

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = self.path.partition("?")[0].rstrip("/")
        try:
            if path == "/studies":
                self._submit()
            else:
                self._error(404, f"no route {path!r}")
        except (BrokenPipeError, ConnectionResetError):
            pass

    # ------------------------------------------------------------------
    def _submit(self) -> None:
        if self.scheduler.stopping:
            self._error(503, "server is shutting down")
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            self._error(400, "bad Content-Length")
            return
        if length <= 0 or length > MAX_BODY_BYTES:
            self._error(400, f"spec body must be 1..{MAX_BODY_BYTES} "
                             f"bytes, got {length}")
            return
        raw = self.rfile.read(length)
        try:
            data = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            self._error(400, f"body is not valid JSON: {exc}")
            return
        try:
            spec = StudySpec.from_json_dict(data)
            spec.validate()
        except SpecError as exc:
            self._error(400, str(exc))
            return
        record, summary = self.scheduler.submit(spec)
        status = record.status_dict()
        status["submission"] = summary
        self._send_json(202 if summary["created"] else 200, status)

    def _get_result(self, study_id: str) -> None:
        record = self._record_or_404(study_id)
        if record is None:
            return
        if record.state == "failed":
            self._error(409, f"study {study_id} failed: {record.error}")
            return
        if record.result is None:
            counts = record.counts()
            self._error(409, f"study {study_id} is still running "
                             f"({counts['done']}/{counts['total']} "
                             f"cells done); poll /studies/{study_id} "
                             f"or stream /studies/{study_id}/events")
            return
        self._send_json(200, study_result_to_dict(record.result))

    def _stream_events(self, study_id: str, query: str) -> None:
        record = self._record_or_404(study_id)
        if record is None:
            return
        since = 0
        for pair in query.split("&"):
            name, _, value = pair.partition("=")
            if name == "since" and value.isdigit():
                since = int(value)
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Connection", "close")
        self.end_headers()
        seq = since
        while True:
            fresh = self.scheduler.events_since(record, seq)
            if not fresh:
                break  # the study has ended, or the daemon is stopping
            # One write, so one send, per wakeup.
            self.wfile.write("".join(
                json.dumps(event, sort_keys=True) + "\n"
                for event in fresh).encode())
            self.wfile.flush()
            seq = fresh[-1]["seq"] + 1
        # Connection: close — the client reads EOF as end-of-stream.
        self.close_connection = True
