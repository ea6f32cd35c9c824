"""The experiment service: studies over HTTP with a shared warm cache.

ROADMAP item 4 — "serve results, not processes".  A long-running
daemon (``repro serve``) owns one :class:`~repro.api.session.Session`
— its :class:`~repro.exec.parallel.ParallelRunner`, on-disk
:class:`~repro.exec.cache.ResultCache` and study manifests — and
multiplexes many clients over it:

* :mod:`repro.service.scheduler` — the queueing core over that
  session: study-level idempotency (same grid digest → same record),
  **in-flight cell dedup** (overlapping grids share each common cell's
  single execution), warm-cache probes at submit, and per-study
  progress events;
* :mod:`repro.service.wire` — the StudyResult JSON wire format, a
  lossless round-trip so a result fetched over HTTP is field-for-field
  the result a local ``repro study run`` returns;
* :mod:`repro.service.server` — the stdlib ``ThreadingHTTPServer``
  front end (``POST /studies``, ``GET /studies/<id>[/result|/events]``,
  ``GET /healthz``, ``GET /stats``) with graceful SIGTERM/SIGINT
  shutdown that persists every study manifest;
* :mod:`repro.service.client` — a blocking :class:`ServiceClient`
  over the stdlib's urllib, with zero third-party dependencies.

docs/SERVICE.md is the operations guide: endpoint table, client
examples, and the shared-cache deploy recipe.
"""

from __future__ import annotations

from repro.service.client import ServiceClient
from repro.service.scheduler import StudyRecord, StudyScheduler
from repro.service.server import StudyServer, make_server
from repro.service.wire import (WIRE_SCHEMA, study_result_from_dict,
                                study_result_to_dict)

__all__ = [
    "ServiceClient", "StudyRecord", "StudyScheduler", "StudyServer",
    "WIRE_SCHEMA", "make_server", "study_result_from_dict",
    "study_result_to_dict",
]
