"""The service client: blocking, over the stdlib's ``urllib``.

:class:`ServiceClient` is the workhorse behind ``repro study submit``:
submit a spec, poll until terminal, fetch the full
:class:`~repro.api.result.StudyResult`, or iterate the NDJSON progress
stream line by line.  It raises :class:`ServiceError` carrying the HTTP
status and the server's pointed ``error`` message (which for a 400 is
the same SpecError text a local run prints).
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Iterator, Optional, Union

from repro.api.result import StudyResult
from repro.api.spec import StudySpec
from repro.service.wire import study_result_from_dict

#: How often the blocking ``wait`` re-polls study status.
DEFAULT_POLL_SECONDS = 0.2


class ServiceError(RuntimeError):
    """An HTTP-level failure, carrying the server's error message."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


def _spec_payload(spec: Union[StudySpec, Dict[str, Any]]
                  ) -> Dict[str, Any]:
    return spec.to_json_dict() if isinstance(spec, StudySpec) else spec


class ServiceClient:
    """Blocking client over ``urllib`` — no sessions, no dependencies."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # ------------------------------------------------------------------
    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        data = (None if body is None
                else json.dumps(body).encode())
        request = urllib.request.Request(
            self.base_url + path, data=data, method=method,
            headers={"Content-Type": "application/json"} if data else {})
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout) as reply:
                return json.loads(reply.read().decode())
        except urllib.error.HTTPError as exc:
            raise ServiceError(exc.code,
                               _error_message(exc.read())) from exc
        except urllib.error.URLError as exc:
            raise ServiceError(0, f"cannot reach {self.base_url}: "
                                  f"{exc.reason}") from exc

    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def stats(self) -> Dict[str, Any]:
        return self._request("GET", "/stats")

    def studies(self) -> Dict[str, Any]:
        return self._request("GET", "/studies")

    def submit(self, spec: Union[StudySpec, Dict[str, Any]]
               ) -> Dict[str, Any]:
        """POST the spec; returns the submission status dict (its
        ``study`` field is the id every other call takes)."""
        return self._request("POST", "/studies", _spec_payload(spec))

    def status(self, study_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/studies/{study_id}")

    def result(self, study_id: str) -> StudyResult:
        data = self._request("GET", f"/studies/{study_id}/result")
        return study_result_from_dict(data)

    def wait(self, study_id: str, timeout: Optional[float] = None,
             poll: float = DEFAULT_POLL_SECONDS) -> StudyResult:
        """Poll until the study is terminal, then fetch its result.

        Raises :class:`ServiceError` (409) for a failed study and
        :class:`TimeoutError` when ``timeout`` elapses first.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            status = self.status(study_id)
            if status["state"] in ("done", "failed"):
                return self.result(study_id)
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"study {study_id} still {status['state']} after "
                    f"{timeout}s ({status['cells']['done']}/"
                    f"{status['cells']['total']} cells)")
            time.sleep(poll)

    def run(self, spec: Union[StudySpec, Dict[str, Any]],
            timeout: Optional[float] = None) -> StudyResult:
        """submit + wait in one call — the remote ``Session.run``."""
        return self.wait(self.submit(spec)["study"], timeout=timeout)

    def stream_events(self, study_id: str,
                      since: int = 0) -> Iterator[Dict[str, Any]]:
        """Yield progress events until the study's terminal event.

        A plain line-by-line read of the NDJSON stream; the server
        closes the connection after the ``study-done`` event.
        """
        request = urllib.request.Request(
            f"{self.base_url}/studies/{study_id}/events?since={since}")
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout) as reply:
                for line in reply:
                    line = line.strip()
                    if line:
                        yield json.loads(line.decode())
        except urllib.error.HTTPError as exc:
            raise ServiceError(exc.code,
                               _error_message(exc.read())) from exc


def _error_message(raw: bytes) -> str:
    try:
        return json.loads(raw.decode())["error"]
    except Exception:  # noqa: BLE001 - any undecodable body
        return raw.decode(errors="replace") or "(no body)"
