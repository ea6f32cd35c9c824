"""Observability: timeline tracing, logging, and profiling.

The package every runtime layer reports through (see
docs/OBSERVABILITY.md).  Per-cell wall time and phase seconds need
none of it: every fresh cell records them on its ``RunResult``.

* :mod:`repro.obs.timeline` — per-cell Chrome trace-event capture
  behind ``REPRO_TIMELINE`` / ``--timeline``;
* :mod:`repro.obs.logs` — the ``repro.*`` logging namespace behind
  ``REPRO_LOG``;
* :mod:`repro.obs.profiling` — per-cell cProfile dumps behind
  ``REPRO_PROFILE_DIR`` / ``--profile`` and the ``repro obs top``
  merge.

Everything is off by default and observation-only: enabling any of it
never changes simulation results (pinned by the obs parity tests).
"""

from repro.obs.logs import (LOG_ENV, configure_logging, get_logger,
                            parse_level)
from repro.obs.profiling import (PROFILE_ENV, dump_profile, profile_dir,
                                 render_top, start_profile)
from repro.obs.timeline import (TIMELINE_ENV, TimelineRecorder,
                                timeline_path, timeline_target)

__all__ = [
    "LOG_ENV", "PROFILE_ENV", "TIMELINE_ENV", "TimelineRecorder",
    "configure_logging", "dump_profile", "get_logger", "parse_level",
    "profile_dir", "render_top", "start_profile", "timeline_path",
    "timeline_target",
]
