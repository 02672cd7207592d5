"""Force the closed miner's projection mode by patching its gate constants.

:func:`repro.mining.closed.mine_closed_candidates` picks projection by
table size alone.  :func:`forced_projection` sets the module constants
that decide it, for the duration of a ``with`` block:

* ``"never"`` — the flat traversal: ``_AUTO_DIGEST_MIN_ROWS`` above any
  table size.
* ``"auto"`` — the production constants, unchanged.
* ``"always"`` — project at every eligible branch:
  ``_AUTO_DIGEST_MIN_ROWS = 0`` and ``_PROJECT_SHRINK = 1``, so the
  shrinkage test ``count * shrink <= space size`` always passes.
"""

from __future__ import annotations

import contextlib
import sys
from unittest import mock

import repro.mining.closed as closed

MODES = ("never", "auto", "always")


@contextlib.contextmanager
def forced_projection(mode: str):
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    with contextlib.ExitStack() as stack:
        if mode == "never":
            stack.enter_context(mock.patch.object(closed, "_AUTO_DIGEST_MIN_ROWS", sys.maxsize))
        elif mode == "always":
            stack.enter_context(mock.patch.object(closed, "_AUTO_DIGEST_MIN_ROWS", 0))
            stack.enter_context(mock.patch.object(closed, "_PROJECT_SHRINK", 1))
        yield
