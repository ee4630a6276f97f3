"""The event taxonomy shared by every traced subsystem.

One :class:`TraceEvent` model covers the cycle-exact simulator, the VM,
and the real network server/client: each event has a *name* drawn from a
small closed taxonomy, a timestamp on the emitting subsystem's clock,
and a typed ``args`` mapping whose required keys are declared in
:data:`EVENT_SCHEMA`.  Because every emitter conforms to the same
schema, a simulated run and a netserve-measured run of the same
workload produce directly comparable event streams — only the ``clock``
differs (``"cycles"`` vs ``"seconds"``).

Taxonomy (the paper's per-method timeline, Tables 4–7, as events):

* ``unit_arrived`` — a transfer unit finished arriving;
* ``method_first_invoke`` — a method's first instruction could run;
* ``stall_begin`` / ``stall_end`` — execution waited for transfer;
* ``demand_fetch`` — a first-use misprediction was corrected (§5.1);
* ``frame_sent`` — the server put a wire frame on the socket;
* ``schedule_decision`` — a transfer controller started, queued, or
  promoted a stream;
* ``fault_injected`` — the fault layer deliberately misbehaved;
* ``reconnect`` — the resilient client re-dialled after a failure;
* ``unit_retry`` — one damaged unit was re-requested on its own;
* ``degraded_to_strict`` — resilience gave up on overlap and fell back
  to a one-shot strict whole-file transfer;
* ``analysis_finding`` — the static analyzer reported a lint finding;
* ``unit_issued`` — the scoreboard issue engine dispatched a transfer
  unit to a network link;
* ``link_busy`` — one link's occupancy span for one issued unit
  (phase ``"X"`` spans from issue to landing);
* ``stripe_rebalance`` — the multi-link issue engine redistributed
  work (demand escalation or a link outage);
* ``cache_lookup`` — the server resolved a negotiated configuration
  against its shared artifact cache (hit or miss);
* ``connection_rejected`` — admission control turned a connection
  away (e.g. the server was at ``max_connections``);
* ``link_outage`` — a striped fetch declared one link dead (circuit
  opened) and requeued its in-flight units onto the survivors;
* ``link_restored`` — a half-open probe succeeded and the link
  rejoined the striped session;
* ``hedge_fired`` — a demand fetch raced a second copy of the needed
  unit on another link (the hedge request went on the wire);
* ``hedge_won`` — a hedged unit arrived; names the winning link and
  whether the primary or the hedge delivered first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Tuple

__all__ = [
    "TraceEvent",
    "EVENT_SCHEMA",
    "EVENT_CATEGORIES",
    "UNIT_ARRIVED",
    "METHOD_FIRST_INVOKE",
    "STALL_BEGIN",
    "STALL_END",
    "DEMAND_FETCH",
    "FRAME_SENT",
    "SCHEDULE_DECISION",
    "FAULT_INJECTED",
    "RECONNECT",
    "UNIT_RETRY",
    "DEGRADED_TO_STRICT",
    "ANALYSIS_FINDING",
    "CACHE_LOOKUP",
    "CONNECTION_REJECTED",
    "UNIT_ISSUED",
    "LINK_BUSY",
    "STRIPE_REBALANCE",
    "LINK_OUTAGE",
    "LINK_RESTORED",
    "HEDGE_FIRED",
    "HEDGE_WON",
    "validate_event",
]

UNIT_ARRIVED = "unit_arrived"
METHOD_FIRST_INVOKE = "method_first_invoke"
STALL_BEGIN = "stall_begin"
STALL_END = "stall_end"
DEMAND_FETCH = "demand_fetch"
FRAME_SENT = "frame_sent"
SCHEDULE_DECISION = "schedule_decision"
FAULT_INJECTED = "fault_injected"
RECONNECT = "reconnect"
UNIT_RETRY = "unit_retry"
DEGRADED_TO_STRICT = "degraded_to_strict"
ANALYSIS_FINDING = "analysis_finding"
CACHE_LOOKUP = "cache_lookup"
CONNECTION_REJECTED = "connection_rejected"
UNIT_ISSUED = "unit_issued"
LINK_BUSY = "link_busy"
STRIPE_REBALANCE = "stripe_rebalance"
LINK_OUTAGE = "link_outage"
LINK_RESTORED = "link_restored"
HEDGE_FIRED = "hedge_fired"
HEDGE_WON = "hedge_won"

#: Required ``args`` keys per event name.  Emitters may add extra keys
#: (they survive every exporter round-trip), but these must be present.
EVENT_SCHEMA: Dict[str, Tuple[str, ...]] = {
    UNIT_ARRIVED: ("class_name", "kind", "size"),
    METHOD_FIRST_INVOKE: ("method", "latency", "demand_fetched"),
    STALL_BEGIN: ("method",),
    STALL_END: ("method", "duration"),
    DEMAND_FETCH: ("method",),
    FRAME_SENT: ("kind", "size"),
    SCHEDULE_DECISION: ("action", "target"),
    FAULT_INJECTED: ("fault",),
    RECONNECT: ("attempt",),
    UNIT_RETRY: ("class_name",),
    DEGRADED_TO_STRICT: ("reason",),
    ANALYSIS_FINDING: ("rule", "severity", "target"),
    CACHE_LOOKUP: ("hit",),
    CONNECTION_REJECTED: ("reason",),
    UNIT_ISSUED: ("class_name", "link"),
    LINK_BUSY: ("link",),
    STRIPE_REBALANCE: ("reason",),
    LINK_OUTAGE: ("link", "reason"),
    LINK_RESTORED: ("link",),
    HEDGE_FIRED: ("class_name", "link"),
    HEDGE_WON: ("class_name", "link", "role"),
}

#: Display lane per event name (Chrome trace "thread", ASCII timeline
#: row grouping).
EVENT_CATEGORIES: Dict[str, str] = {
    UNIT_ARRIVED: "transfer",
    METHOD_FIRST_INVOKE: "execute",
    STALL_BEGIN: "execute",
    STALL_END: "execute",
    DEMAND_FETCH: "schedule",
    FRAME_SENT: "transfer",
    SCHEDULE_DECISION: "schedule",
    FAULT_INJECTED: "fault",
    RECONNECT: "schedule",
    UNIT_RETRY: "schedule",
    DEGRADED_TO_STRICT: "schedule",
    ANALYSIS_FINDING: "analyze",
    CACHE_LOOKUP: "schedule",
    CONNECTION_REJECTED: "schedule",
    UNIT_ISSUED: "schedule",
    LINK_BUSY: "transfer",
    STRIPE_REBALANCE: "schedule",
    LINK_OUTAGE: "fault",
    LINK_RESTORED: "schedule",
    HEDGE_FIRED: "schedule",
    HEDGE_WON: "schedule",
}


@dataclass(frozen=True)
class TraceEvent:
    """One typed observation.

    Attributes:
        name: Taxonomy name (a key of :data:`EVENT_SCHEMA`).
        ts: Timestamp in the recorder's clock units.
        args: Event payload; superset of the schema's required keys.
        phase: ``"i"`` for instants, ``"X"`` for complete spans
            (Chrome trace-event phases).
        dur: Span duration in clock units (``phase == "X"`` only).
    """

    name: str
    ts: float
    args: Mapping[str, Any] = field(default_factory=dict)
    phase: str = "i"
    dur: float = 0.0

    @property
    def category(self) -> str:
        return EVENT_CATEGORIES.get(self.name, "misc")

    @property
    def end(self) -> float:
        return self.ts + self.dur


def validate_event(event: TraceEvent) -> None:
    """Raise ``ValueError`` unless ``event`` conforms to the taxonomy."""
    required = EVENT_SCHEMA.get(event.name)
    if required is None:
        raise ValueError(
            f"unknown event name {event.name!r}; known: "
            f"{sorted(EVENT_SCHEMA)}"
        )
    missing = [key for key in required if key not in event.args]
    if missing:
        raise ValueError(
            f"event {event.name!r} is missing required args {missing} "
            f"(got {sorted(event.args)})"
        )
    if event.phase not in ("i", "X"):
        raise ValueError(f"unsupported phase {event.phase!r}")
