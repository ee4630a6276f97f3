"""repro.sched — scoreboard-based out-of-order transfer issue engine.

The transfer methodologies of the paper (parallel §5.1, interleaved
§5.2, implemented in :mod:`repro.transfer`) are *in-order* within a
stream and assume a single network link.  This package stripes
transfer units across several links with the classic scoreboard
structure: transfer units are instructions, network links are
functional units, and hazard edges (a method unit needs its class's
global data) are data dependences.  Units issue out of order across
any number of possibly heterogeneous links; a unit's observable
*arrival* is its retire time — after its hazards — so execution
semantics never weaken.

Entry points:

* :func:`run_striped` — multi-link twin of
  :func:`repro.core.run_nonstrict`;
* :class:`StripedController` — plugs into
  :class:`repro.core.Simulator` like any other controller;
* :class:`IssueEngine` / :class:`Scoreboard` — the engine room;
  :func:`unit_board` builds the one-item-per-unit scoreboard that
  both the simulator and the socket client
  (:class:`repro.netserve.StripedResilientFetcher`) drive;
* :class:`LinkOutage` — schedule a link death mid-stripe (chaos
  testing: the survivors re-issue the dead link's unlanded units).
"""

from __future__ import annotations

from .engine import IssueEngine, LinkChannel, LinkOutage
from .scoreboard import IssueItem, ItemState, Scoreboard, unit_board
from .striped import (
    POLICIES,
    StripedController,
    StripedEntry,
    run_striped,
    striped_sequence,
)

__all__ = [
    "IssueEngine",
    "IssueItem",
    "ItemState",
    "LinkChannel",
    "LinkOutage",
    "POLICIES",
    "Scoreboard",
    "StripedController",
    "StripedEntry",
    "run_striped",
    "striped_sequence",
    "unit_board",
]
