"""Force ``covers._count_blocks`` down one route, for the differential tests."""

from __future__ import annotations

import math
from contextlib import contextmanager

import pytest

from drackn import covers

ROUTES = ("gather", "characters")


@contextmanager
def count_route(route: str, block: int | None = None):
    """Every count table built inside takes ``route``; with ``block``, its
    blocks hold that many keys (gathers) or counts (characters)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(covers, "_CHAR_R", math.inf if route == "characters" else -1)
        mp.setattr(covers, "_CHAR_STACK", math.inf)
        if block is not None:
            mp.setattr(covers, "_BLOCK", block)
            mp.setattr(covers, "_CHAR_BLOCK", block)
        assert covers._count_plan(2, 64)[0] == (route == "characters")
        yield
