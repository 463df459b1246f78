"""Force ``covers._count_blocks`` down one route, or skip its identity step,
for the differential tests."""

from __future__ import annotations

import math
from contextlib import contextmanager

import pytest

from drackn import covers

ROUTES = ("gather", "characters")
# (route, identity step) settings that run different code: the gathers have
# no identity step
SETTINGS = (("gather", True), ("characters", True), ("characters", False))


@contextmanager
def count_route(route: str | None = None, block: int | None = None, identity: bool = True):
    """Every count table built inside takes ``route`` (None: the rule's
    choice); with ``block``, its blocks hold that many keys (gathers) or
    counts (characters).  With ``identity`` False the character-domain
    identity step of ``covers._count_blocks`` is skipped, so every fibre
    from the caller's start is counted."""
    with pytest.MonkeyPatch.context() as mp:
        if route is not None:
            mp.setattr(covers, "_CHAR_R", math.inf if route == "characters" else -1)
            mp.setattr(covers, "_CHAR_STACK", math.inf)
            assert covers._count_plan(2, 64)[0] == (route == "characters")
        if block is not None:
            mp.setattr(covers, "_BLOCK", block)
            mp.setattr(covers, "_CHAR_BLOCK", block)
        if not identity:
            character_counts = covers._character_counts

            def counted(ind, orders, b, start, delta):
                return character_counts(ind, orders, b, start, None)

            mp.setattr(covers, "_character_counts", counted)
        yield
