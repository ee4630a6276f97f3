"""The scoreboard-driven multi-link issue engine.

:class:`IssueEngine` presents the same simulator-facing protocol as the
single-link :class:`~repro.transfer.streams.StreamEngine` — ``time``,
``arrived``, ``arrival_times``, ``run_until``, ``run_until_unit``,
``total_delivered``, ``remaining_bytes`` — but behind the facade it
drives one :class:`~repro.transfer.streams.StreamEngine` *per network
link*, all advanced in lockstep to the globally earliest event
boundary (a unit completion on any link, a scheduled link outage, or
an external wake-up).  At every boundary it:

1. collects units that landed on each link and feeds them to the
   :class:`~repro.sched.scoreboard.Scoreboard`, which cascades
   retires (a unit's observable arrival is its *retire* time — after
   its hazard dependencies — never its raw landing);
2. processes link outages: the dead link's in-flight units go back to
   ``READY`` and retransmit on the survivors;
3. dispatches: asks the scoreboard for the ready set and issues one
   transfer unit to each idle link under the configured arbitration —
   true out-of-order striping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from ..errors import TransferError
from ..transfer import NetworkLink, TransferUnit
from ..transfer.streams import StreamEngine
from .scoreboard import IssueItem, ItemState, Scoreboard

if TYPE_CHECKING:  # pragma: no cover
    from ..observe import MetricsRegistry, TraceRecorder

__all__ = ["LinkOutage", "LinkChannel", "IssueEngine"]

_EPSILON = 1e-6

#: How an engine picks the link for a ready unit.
LINK_CHOICES = ("earliest_finish", "round_robin")


@dataclass(frozen=True)
class LinkOutage:
    """A link death scheduled into a striped run (chaos testing).

    Attributes:
        at_cycles: Simulated cycle at which the link goes dark.
        link_index: Index into the engine's link list.
    """

    at_cycles: float
    link_index: int

    def __post_init__(self) -> None:
        if self.at_cycles < 0:
            raise TransferError(
                f"outage time must be >= 0, got {self.at_cycles}"
            )
        if self.link_index < 0:
            raise TransferError(
                f"outage link index must be >= 0, got {self.link_index}"
            )


class LinkChannel:
    """One link plus its private stream engine and liveness flag."""

    def __init__(self, index: int, link: NetworkLink) -> None:
        self.index = index
        self.link = link
        self.engine = StreamEngine(link, max_streams=1)
        self.alive = True
        #: Event/metric label; the index disambiguates identical links.
        self.label = f"{index}:{link.name}"
        #: Arrivals already consumed by the facade's collect pass.
        self.collected = 0


class IssueEngine:
    """Scoreboard issue engine over one or more links.

    Args:
        links: The link set (1+ links, possibly heterogeneous).
        scoreboard: Pre-populated scoreboard of issue items.
        link_choice: Arbitration among idle links —
            ``"earliest_finish"`` (fastest link for the unit, i.e.
            weighted by bandwidth) or ``"round_robin"``.
        outages: Scheduled link deaths.
        recorder: Optional trace recorder for ``unit_issued`` /
            ``link_busy`` / ``stripe_rebalance`` events.
        metrics: Optional registry for the ``sched_*`` metric
            families.
    """

    def __init__(
        self,
        links: Sequence[NetworkLink],
        scoreboard: Scoreboard,
        link_choice: str = "earliest_finish",
        outages: Sequence[LinkOutage] = (),
        recorder: Optional["TraceRecorder"] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        if not links:
            raise TransferError("IssueEngine needs at least one link")
        if link_choice not in LINK_CHOICES:
            raise TransferError(
                f"unknown link choice {link_choice!r}; "
                f"known: {LINK_CHOICES}"
            )
        self.channels = [
            LinkChannel(index, link) for index, link in enumerate(links)
        ]
        for outage in outages:
            if outage.link_index >= len(self.channels):
                raise TransferError(
                    f"outage references link {outage.link_index}, "
                    f"but only {len(self.channels)} links exist"
                )
        self.scoreboard = scoreboard
        self.link_choice = link_choice
        self.recorder = recorder
        self.metrics = metrics
        self.time = 0.0
        #: Unit → *retire* time: what the co-simulator observes.
        self.arrival_times: Dict[TransferUnit, float] = {}
        self._outages: List[LinkOutage] = sorted(
            outages, key=lambda o: o.at_cycles
        )
        self._rr_cursor = 0
        self._busy_emitted: Dict[str, bool] = {}

    # -- simulator-facing protocol ----------------------------------------

    def arrived(self, unit: TransferUnit) -> bool:
        return unit in self.arrival_times

    def arrival_time(self, unit: TransferUnit) -> float:
        try:
            return self.arrival_times[unit]
        except KeyError as exc:
            raise TransferError(f"unit has not arrived: {unit}") from exc

    @property
    def total_delivered(self) -> float:
        """Bytes pushed over every link, including bytes a link
        outage later stranded."""
        return sum(ch.engine.total_delivered for ch in self.channels)

    @property
    def remaining_bytes(self) -> float:
        """Undelivered bytes of units already on live links
        (matching the single-engine semantics: never-requested units
        are not counted)."""
        return sum(
            ch.engine.remaining_bytes for ch in self._live()
        )

    @property
    def idle(self) -> bool:
        return all(ch.engine.idle for ch in self._live())

    def run_until(
        self,
        target_time: float,
        wakeup: Optional[
            Callable[["IssueEngine"], Optional[float]]
        ] = None,
        on_advance: Optional[Callable[["IssueEngine"], None]] = None,
    ) -> None:
        """Advance every link in lockstep to ``target_time``."""
        if target_time < self.time - _EPSILON:
            raise TransferError(
                f"cannot run backwards: {target_time} < {self.time}"
            )
        while self.time < target_time:
            self._advance_one_boundary(target_time, wakeup, on_advance)

    def run_until_unit(
        self,
        unit: TransferUnit,
        wakeup: Optional[
            Callable[["IssueEngine"], Optional[float]]
        ] = None,
        on_advance: Optional[Callable[["IssueEngine"], None]] = None,
    ) -> float:
        """Advance until ``unit`` retires; return its arrival time.

        Raises:
            TransferError: If every link goes idle with nothing left
                to dispatch first (a scheduling bug), or all links
                died.
        """
        while not self.arrived(unit):
            self._process_outages()
            if self.idle:
                self.dispatch()
            if self.idle:
                wake = wakeup(self) if wakeup is not None else None
                if wake is not None and wake > self.time:
                    self.time = wake
                    for channel in self._live():
                        # Idle engines: a pure clock jump, so streams
                        # issued next start at the facade's time.
                        channel.engine.run_until(self.time)
                    self._collect()
                    self.dispatch()
                    if on_advance is not None:
                        on_advance(self)
                    continue
                raise TransferError(
                    f"engine idle but unit never arrived: {unit}"
                )
            self._advance_one_boundary(math.inf, wakeup, on_advance)
        return self.arrival_times[unit]

    # -- dispatch ----------------------------------------------------------

    def dispatch(self) -> None:
        """Issue the best ready units to the idle links, one each."""
        ready = self.scoreboard.ready_items()
        if not ready:
            return
        free = [ch for ch in self._live() if ch.engine.idle]
        for item in ready:
            if not free:
                break
            channel = self._choose(item, free)
            free.remove(channel)
            self._issue(item, channel)

    def rebalance_event(self, reason: str, **extra: object) -> None:
        """Emit one ``stripe_rebalance`` event + metric."""
        if self.recorder is not None:
            self.recorder.stripe_rebalance(
                self.time, reason=reason, **extra
            )
        if self.metrics is not None:
            self.metrics.counter(
                "sched_rebalances_total", {"reason": reason}
            ).inc()

    # -- internals ---------------------------------------------------------

    def _live(self) -> List[LinkChannel]:
        channels = [ch for ch in self.channels if ch.alive]
        if not channels:
            raise TransferError(
                "all links are down: transfer cannot complete"
            )
        return channels

    def _choose(
        self, item: IssueItem, candidates: List[LinkChannel]
    ) -> LinkChannel:
        if len(candidates) == 1:
            return candidates[0]
        if self.link_choice == "round_robin":
            count = len(self.channels)
            for offset in range(count):
                index = (self._rr_cursor + offset) % count
                channel = self.channels[index]
                if channel in candidates:
                    self._rr_cursor = index + 1
                    return channel
            return candidates[0]  # pragma: no cover - candidates ⊆ channels
        # earliest_finish: the link that would land this unit first
        # (idle candidates ⇒ weighted by bandwidth).
        return min(
            candidates,
            key=lambda ch: (
                item.size * ch.link.cycles_per_byte,
                ch.index,
            ),
        )

    def _issue(self, item: IssueItem, channel: LinkChannel) -> None:
        channel.engine.request_stream(item.label, item.units)
        self.scoreboard.mark_issued(
            item.label, channel.index, self.time
        )
        if self.recorder is not None:
            self.recorder.unit_issued(
                self.time,
                class_name=item.class_name,
                link=channel.label,
                label=item.label,
                bytes=item.size,
                escalated=item.escalated,
            )
        if self.metrics is not None:
            labels = {"link": channel.label}
            self.metrics.counter(
                "sched_units_issued_total", labels
            ).inc()
            self.metrics.counter(
                "sched_bytes_issued_total", labels
            ).inc(float(item.size))
            if item.escalated:
                self.metrics.counter("sched_escalations_total").inc()

    def _advance_one_boundary(
        self,
        limit: float,
        wakeup: Optional[Callable[["IssueEngine"], Optional[float]]],
        on_advance: Optional[Callable[["IssueEngine"], None]],
    ) -> None:
        self._process_outages()
        step_to = self._next_boundary(limit, wakeup)
        for ch in self._live():
            engine = ch.engine
            dt = engine.next_event_dt()
            completes = dt is not None and engine.time + dt <= step_to
            if engine.time < step_to or completes:
                engine.advance(step_to)
        self.time = max(self.time, step_to)
        self._collect()
        self._process_outages()
        self.dispatch()
        if on_advance is not None:
            on_advance(self)

    def _next_boundary(
        self,
        limit: float,
        wakeup: Optional[Callable[["IssueEngine"], Optional[float]]],
    ) -> float:
        step_to = limit
        for ch in self._live():
            dt = ch.engine.next_event_dt()
            if dt is not None:
                step_to = min(step_to, ch.engine.time + dt)
        if self._outages:
            at = self._outages[0].at_cycles
            if self.time < at < step_to:
                step_to = at
        if wakeup is not None:
            wake = wakeup(self)
            if (
                wake is not None
                and self.time + _EPSILON < wake < step_to
            ):
                step_to = wake
        return step_to

    def _collect(self) -> None:
        for ch in self.channels:
            arrivals = ch.engine.arrival_times
            if len(arrivals) == ch.collected:
                continue
            landed = list(arrivals.items())[ch.collected:]
            ch.collected = len(arrivals)
            for unit, land_time in landed:
                for retired, retire_time in self.scoreboard.mark_landed(
                    unit, land_time
                ):
                    self.arrival_times[retired] = retire_time
                self._maybe_emit_busy(unit, land_time, ch)

    def _maybe_emit_busy(
        self, unit: TransferUnit, land_time: float, channel: LinkChannel
    ) -> None:
        label = self.scoreboard.label_of(unit)
        item = self.scoreboard.items[label]
        if item.state is not ItemState.LANDED:
            return
        if self._busy_emitted.get(label):
            return
        self._busy_emitted[label] = True
        issued_at = item.issue_time if item.issue_time is not None else 0.0
        duration = land_time - issued_at
        if self.recorder is not None:
            self.recorder.link_busy(
                issued_at,
                link=channel.label,
                duration=duration,
                label=label,
            )
        if self.metrics is not None:
            self.metrics.counter(
                "sched_link_busy_cycles", {"link": channel.label}
            ).inc(duration)

    def _process_outages(self) -> None:
        while (
            self._outages
            and self._outages[0].at_cycles <= self.time
        ):
            outage = self._outages.pop(0)
            channel = self.channels[outage.link_index]
            if not channel.alive:
                continue
            channel.alive = False
            self._live()  # raises if that was the last link
            if self.metrics is not None:
                self.metrics.counter(
                    "sched_link_outages_total",
                    {"link": channel.label},
                ).inc()
            lost: List[str] = []
            for stream in list(channel.engine.active) + list(
                channel.engine.waiting
            ):
                label = stream.name
                item = self.scoreboard.items.get(label)
                if item is None or item.state is not ItemState.ISSUED:
                    continue
                remaining = tuple(stream.units)
                if not remaining:
                    continue
                self.scoreboard.requeue(label, remaining)
                lost.append(label)
            # The dead channel never advances again; drop its queued
            # work so facade-wide accounting stays honest.
            channel.engine.active.clear()
            channel.engine.waiting.clear()
            self.rebalance_event(
                "link_outage",
                link=channel.label,
                requeued=len(lost),
            )
            self.dispatch()
