"""Structured logging for the ``repro.*`` namespace.

Every library logger hangs off the ``repro`` root
(``get_logger("exec.cache")`` -> ``repro.exec.cache``), which
carries a ``NullHandler`` so an un-configured import never prints.
:func:`configure_logging` — called once by the CLI and by executor
workers — reads ``REPRO_LOG`` (a level name like ``debug``/``INFO`` or
a numeric level) and, when set, attaches a stderr handler at that
level.  Log output shares stderr with the progress echoes, keeping
stdout machine-parseable.
"""

from __future__ import annotations

import logging
import os
import sys
from typing import Optional, TextIO

#: Environment knob selecting the log level (unset = silent).
LOG_ENV = "REPRO_LOG"

_ROOT = logging.getLogger("repro")
_ROOT.addHandler(logging.NullHandler())

#: Marks the handler configure_logging installs, so reconfiguration
#: replaces it instead of stacking duplicates.
_HANDLER_FLAG = "_repro_obs_handler"


def get_logger(name: str) -> logging.Logger:
    """The ``repro.*`` logger for ``name`` (idempotent namespacing)."""
    if name == "repro" or name.startswith("repro."):
        return logging.getLogger(name)
    return logging.getLogger(f"repro.{name}")


def parse_level(value: str) -> int:
    """A logging level from a name (``debug``) or number (``10``)."""
    text = value.strip()
    if not text:
        raise ValueError(f"{LOG_ENV} must be a level name or number, "
                         f"got {value!r}")
    try:
        return int(text)
    except ValueError:
        pass
    level = logging.getLevelName(text.upper())
    if not isinstance(level, int):
        raise ValueError(
            f"{LOG_ENV} must be a level name (debug/info/warning/error) "
            f"or number, got {value!r}")
    return level


def configure_logging(level: Optional[int] = None,
                      stream: Optional[TextIO] = None) -> Optional[int]:
    """Wire the ``repro`` root to stderr at ``level`` (or ``REPRO_LOG``).

    With no explicit ``level`` and ``REPRO_LOG`` unset, does nothing
    and returns None — library logging stays silent.  Returns the
    configured level otherwise.  Safe to call repeatedly (the CLI and
    every worker call it): the installed handler is replaced, never
    duplicated.
    """
    if level is None:
        env = os.environ.get(LOG_ENV)
        if not env:
            return None
        level = parse_level(env)
    handler = logging.StreamHandler(stream if stream is not None
                                    else sys.stderr)
    handler.setFormatter(logging.Formatter(
        "%(levelname)s %(name)s: %(message)s"))
    setattr(handler, _HANDLER_FLAG, True)
    for existing in list(_ROOT.handlers):
        if getattr(existing, _HANDLER_FLAG, False):
            _ROOT.removeHandler(existing)
    _ROOT.addHandler(handler)
    _ROOT.setLevel(level)
    return level
