"""Structured logging for the reproduction stack.

Every ``repro`` module gets its logger from :func:`get_logger` (namespaced
under ``repro.``), replacing the ad-hoc ``warnings.warn`` calls that sweeps
could neither capture nor filter. Nothing is emitted until the application
opts in: the root ``repro`` logger carries a ``NullHandler`` by default, so
library use stays silent (standard-library convention); attach a handler
to the ``repro`` logger to see the records.
"""

from __future__ import annotations

import logging

__all__ = ["get_logger"]

ROOT_NAME = "repro"

_root = logging.getLogger(ROOT_NAME)
if not _root.handlers:
    _root.addHandler(logging.NullHandler())


def get_logger(name: str) -> logging.Logger:
    """The module logger for ``name`` (namespaced under ``repro``)."""
    if name == ROOT_NAME or name.startswith(ROOT_NAME + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{ROOT_NAME}.{name}")
