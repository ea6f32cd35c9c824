"""Structured logging: namespacing, the env knob, idempotent wiring."""

import io
import logging

import pytest

from repro.obs.logs import (LOG_ENV, _ROOT, configure_logging, get_logger,
                            parse_level)


@pytest.fixture(autouse=True)
def _restore_root_handlers():
    """configure_logging mutates the shared ``repro`` root; undo it."""
    handlers = list(_ROOT.handlers)
    level = _ROOT.level
    yield
    _ROOT.handlers[:] = handlers
    _ROOT.setLevel(level)


def test_get_logger_prefixes_the_namespace():
    assert get_logger("exec.cache").name == "repro.exec.cache"
    assert get_logger("repro.exec").name == "repro.exec"  # idempotent
    assert get_logger("repro").name == "repro"


def test_library_import_never_prints():
    # The root carries a NullHandler, so an unconfigured logger call
    # must not trip logging's "no handlers" stderr warning.
    assert any(isinstance(h, logging.NullHandler) for h in _ROOT.handlers)


@pytest.mark.parametrize("value,expected", [
    ("debug", logging.DEBUG), ("INFO", logging.INFO),
    ("Warning", logging.WARNING), ("10", 10), (" 30 ", 30),
])
def test_parse_level(value, expected):
    assert parse_level(value) == expected


@pytest.mark.parametrize("value", ["", "  ", "loud", "verbose"])
def test_parse_level_rejects_nonsense(value):
    with pytest.raises(ValueError, match=LOG_ENV):
        parse_level(value)


def test_unset_env_means_silent(monkeypatch):
    monkeypatch.delenv(LOG_ENV, raising=False)
    before = list(_ROOT.handlers)
    assert configure_logging() is None
    assert _ROOT.handlers == before  # nothing wired


def test_env_wires_a_stderr_handler_once(monkeypatch):
    monkeypatch.setenv(LOG_ENV, "info")
    assert configure_logging() == logging.INFO
    installed = [h for h in _ROOT.handlers
                 if getattr(h, "_repro_obs_handler", False)]
    assert len(installed) == 1
    # Reconfiguration replaces, never stacks (the CLI and every worker
    # call configure_logging).
    assert configure_logging() == logging.INFO
    installed = [h for h in _ROOT.handlers
                 if getattr(h, "_repro_obs_handler", False)]
    assert len(installed) == 1


def test_configured_logger_emits_to_the_given_stream():
    stream = io.StringIO()
    configure_logging(level=logging.WARNING, stream=stream)
    get_logger("obs.test").warning("something %s happened", "odd")
    assert "WARNING repro.obs.test: something odd happened" \
        in stream.getvalue()
    # Below-level records stay silent.
    get_logger("obs.test").info("quiet")
    assert "quiet" not in stream.getvalue()
