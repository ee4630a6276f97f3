"""The striped resilient fetch client: one fetch over many sockets.

:class:`StripedResilientFetcher` opens one *pull-mode* session per
endpoint (possibly several to the same :class:`~.server.ClassFileServer`,
or one each to CDN-style replicas) and drives every connection from a
client-side :class:`repro.sched.Scoreboard` — the same out-of-order
issue structure the cycle-exact simulator's
:class:`~repro.sched.StripedController` uses.  Each transfer unit is
one issue grain; the arbiter dispatches ready grains to the
least-loaded healthy link; landings may happen in any order, but a
unit only becomes *observable* (method availability, arrival time) at
its scoreboard **retire** time, after its class's leading global unit
has retired — so the real transfer obeys exactly the semantics the
simulator models.

Per-link health is a circuit breaker:

* ``HEALTHY`` — full issue window.
* ``DEGRADED`` — a recent failure; stays in rotation behind healthy
  links and reconnects immediately, one landing heals it.
* ``OPEN`` — ``failure_threshold`` consecutive failures (or a failed
  probe): the circuit is open, in-flight units are requeued onto
  survivors, and the link re-dials with per-link seeded backoff
  (:func:`repro.faults.derive_rng` keyed by link index, so concurrent
  links never draw correlated jitter).
* ``HALF_OPEN`` — a probe connection after an open circuit: issue
  window of one; its first landing restores the link
  (``link_restored``), another failure re-opens the circuit.

Reconnects reuse :class:`.resilient.ResilientFetcher`'s RESUME
machinery per link — the resumed manifest is filtered by the units the
*whole session* already holds, so a flapping link never re-fetches
bytes a survivor landed.  A first-use misprediction escalates the
demanded unit's grain (front of every queue) and, if it stays missing
for ``hedge_delay``, issues a duplicate request on the next-best link
(``hedge_fired``); whichever copy lands first wins (``hedge_won``) and
the loser is suppressed by wire key.

The degradation ladder never gives up early: N links → the surviving
links → the last resilient link (each link reconnects up to
``max_reconnects`` times) → a one-shot strict whole-file fetch tried
against every endpoint — and only when *that* fails does the fetch
surface :class:`~repro.errors.ResilienceExhaustedError`.
"""

from __future__ import annotations

import asyncio
import enum
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..errors import (
    ConnectionLostError,
    FrameCorruptionError,
    ProtocolError,
    ResilienceExhaustedError,
    ServerBusyError,
    TransferError,
)
from ..faults.rng import derive_rng
from ..program import MethodId
from ..sched import ItemState, Scoreboard, unit_board
from ..transfer import TransferUnit, UnitKind
from .protocol import (
    Frame,
    FrameKind,
    decode_frame,
    demand_fetch_frame,
    encode_frame,
    hello_frame,
    read_frame,
    read_raw_frame,
    resume_frame,
    salvage_unit_key,
    unit_kind_from_code,
    unit_wire_key,
)
from .resilient import ResilientFetcher, UnitKey

if TYPE_CHECKING:  # pragma: no cover
    from ..observe import TraceRecorder

__all__ = ["LinkState", "StripedResilientFetcher"]

#: A server endpoint: (host, port).
Endpoint = Tuple[str, int]


class LinkState(enum.IntEnum):
    """Circuit-breaker state of one striped link.

    The integer value is what ``netserve_link_state`` publishes, so
    dashboards can graph transitions.
    """

    HEALTHY = 0
    DEGRADED = 1
    HALF_OPEN = 2
    OPEN = 3


class _Link:
    """One striped connection's mutable state (owned by the fetcher)."""

    def __init__(self, index: int, host: str, port: int) -> None:
        self.index = index
        self.host = host
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.state = LinkState.OPEN  # not yet connected
        #: In-flight requests on this socket: wire key ->
        #: (scoreboard label, monotonic issue time).
        self.in_flight: Dict[UnitKey, Tuple[str, float]] = {}
        self.consecutive_failures = 0
        self.reconnects_used = 0
        self.probes = 0
        self.broken = False  # transport closed, failure not yet handled
        self.stalled = False  # watchdog verdict for the next failure
        self.dead = False  # reconnect budget exhausted
        self.task: Optional["asyncio.Task[None]"] = None

    @property
    def usable(self) -> bool:
        """True when the arbiter may issue on this link."""
        return (
            self.writer is not None
            and not self.broken
            and not self.dead
            and self.state is not LinkState.OPEN
        )


class StripedResilientFetcher(ResilientFetcher):
    """A resilient fetcher striping one session across many links.

    Args:
        endpoints: ``(host, port)`` pairs, one pull-mode connection
            each.  Repeating one endpoint stripes across several
            sockets to a single server; distinct endpoints stripe
            across replicas (every endpoint must serve the same
            program).
        window: Maximum in-flight unit requests per healthy link
            (half-open probes get a window of one).
        hedge_delay: Seconds a demand-fetched unit may stay missing
            before a duplicate request races on the next-best link.
        stall_timeout: Seconds without any frame while requests are in
            flight before a link is declared stalled (the one-slow-link
            failure mode) and its units requeue onto survivors.
        failure_threshold: Consecutive failures that open a link's
            circuit.
        max_reconnects: Reconnect budget *per link*; a link that
            exhausts it is dead for the session.  Only when every link
            is dead does the strict whole-file fallback run.

    All other arguments match :class:`.resilient.ResilientFetcher`;
    ``seed`` and ``rng_scope`` derive one independent backoff RNG per
    link.
    """

    def __init__(
        self,
        endpoints: Sequence[Endpoint],
        policy: str = "non_strict",
        strategy: str = "static",
        demand_timeout: float = 5.0,
        demand_retries: int = 3,
        connect_timeout: Optional[float] = 10.0,
        max_reconnects: int = 4,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        backoff_jitter: float = 0.25,
        deadline: Optional[float] = None,
        seed: int = 0,
        rng_scope: str = "",
        window: int = 4,
        hedge_delay: float = 0.25,
        stall_timeout: float = 5.0,
        failure_threshold: int = 3,
        recorder: Optional["TraceRecorder"] = None,
    ) -> None:
        if not endpoints:
            raise TransferError(
                "StripedResilientFetcher needs at least one endpoint"
            )
        if window < 1:
            raise TransferError(f"window must be >= 1: {window}")
        if failure_threshold < 1:
            raise TransferError(
                f"failure_threshold must be >= 1: {failure_threshold}"
            )
        host, port = endpoints[0]
        super().__init__(
            host,
            port,
            policy=policy,
            strategy=strategy,
            demand_timeout=demand_timeout,
            demand_retries=demand_retries,
            connect_timeout=connect_timeout,
            max_reconnects=max_reconnects,
            backoff_base=backoff_base,
            backoff_cap=backoff_cap,
            backoff_jitter=backoff_jitter,
            deadline=deadline,
            seed=seed,
            rng_scope=rng_scope,
            recorder=recorder,
        )
        self.endpoints: Tuple[Endpoint, ...] = tuple(
            (str(h), int(p)) for h, p in endpoints
        )
        self.window = window
        self.hedge_delay = hedge_delay
        self.stall_timeout = stall_timeout
        self.failure_threshold = failure_threshold
        self._links: List[_Link] = [
            _Link(index, h, p)
            for index, (h, p) in enumerate(self.endpoints)
        ]
        self._link_rngs = [
            derive_rng(seed, "backoff", rng_scope, "link", link.index)
            for link in self._links
        ]
        self._board: Optional[Scoreboard] = None
        self._unit_by_key: Dict[UnitKey, TransferUnit] = {}
        #: Hedge races in flight: wire key -> (primary link, hedge link).
        self._hedges: Dict[UnitKey, Tuple[int, int]] = {}
        self._dispatch_lock = asyncio.Lock()
        self._watchdog: Optional["asyncio.Task[None]"] = None
        self._degrading = False

    # -- lifecycle --------------------------------------------------------

    async def connect(self) -> Dict:
        """Open every link in pull mode; returns the shared manifest.

        At least one link must negotiate; the rest join late through
        their reconnect path.  The scoreboard is built from the first
        manifest, the per-link receive tasks and the stall watchdog
        start, and the first arbitration round issues the plan's head.
        """
        self._t0 = time.monotonic()
        if self.deadline is not None:
            self._deadline_at = time.monotonic() + self.deadline
        errors = await asyncio.gather(
            *(self._try_initial(link) for link in self._links)
        )
        if all(error is not None for error in errors):
            first = next(e for e in errors if e is not None)
            raise first
        self._build_board()
        self._watchdog = asyncio.create_task(self._watchdog_loop())
        for link, error in zip(self._links, errors):
            link.task = asyncio.create_task(
                self._link_main(link, connected=error is None)
            )
        await self._dispatch()
        return self.manifest

    async def _try_initial(
        self, link: _Link
    ) -> Optional[BaseException]:
        try:
            await self._link_connect(link, resume=False)
            return None
        except (ConnectionLostError, ProtocolError) as error:
            return error

    async def aclose(self) -> None:
        """Tear the whole stripe down without leaking anything.

        Every background task is cancelled and awaited (the count lands
        in ``netserve_cancelled_tasks_total``), every link transport is
        closed and awaited closed, then the base teardown closes any
        strict-fallback connection.
        """
        tasks = [self._watchdog] + [link.task for link in self._links]
        live = [t for t in tasks if t is not None]
        cancelled = sum(1 for t in live if not t.done())
        for task in live:
            task.cancel()
        for task in live:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self.stats.record_cancelled_tasks(cancelled)
        for link in self._links:
            writer = link.writer
            link.reader = link.writer = None
            if writer is not None:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
        await super().aclose()

    # -- per-link connection ----------------------------------------------

    async def _link_connect(self, link: _Link, resume: bool) -> None:
        """Dial one link in pull mode and fold in its manifest.

        A fresh link sends ``HELLO``; a reconnecting link sends
        ``RESUME`` carrying every wire key the *session* holds, so the
        resumed manifest covers only what is still missing anywhere.
        """
        if resume:
            greeting = resume_frame(
                self.policy,
                self.strategy,
                have=sorted(
                    self._received_keys,
                    key=lambda k: (k[0], k[1], k[2] or ""),
                ),
                pull=True,
            )
            expected = FrameKind.RESUME_ACK
        else:
            greeting = hello_frame(
                self.policy, self.strategy, pull=True
            )
            expected = FrameKind.HELLO_ACK
        reader, writer, ack = await self._dial(
            link.host, link.port, greeting
        )
        if ack.kind is not expected:
            writer.close()
            raise ProtocolError(
                f"link {link.index}: expected {expected.name}, got "
                f"{ack.kind.name}"
            )
        self._merge_manifest(ack.field_dict)
        if not self.manifest:
            self.manifest = ack.field_dict
            self.stats.strategy = self.manifest.get(
                "strategy", self.strategy
            )
        link.reader, link.writer = reader, writer
        link.broken = False
        link.stalled = False
        if link.state is LinkState.OPEN and resume:
            self._set_state(link, LinkState.HALF_OPEN)
        elif link.consecutive_failures:
            self._set_state(link, LinkState.DEGRADED)
        else:
            self._set_state(link, LinkState.HEALTHY)

    async def _dial(
        self, host: str, port: int, greeting: Frame
    ) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter, Frame]:
        """One handshake under ``connect_timeout``, typed on failure."""
        opened: Dict[str, asyncio.StreamWriter] = {}

        async def _handshake() -> Tuple[
            asyncio.StreamReader, asyncio.StreamWriter, Frame
        ]:
            reader, writer = await asyncio.open_connection(host, port)
            opened["writer"] = writer
            writer.write(encode_frame(greeting))
            await writer.drain()
            return reader, writer, await read_frame(reader)

        try:
            reader, writer, ack = await asyncio.wait_for(
                _handshake(), timeout=self.connect_timeout
            )
        except asyncio.TimeoutError as error:
            leaked = opened.get("writer")
            if leaked is not None:
                leaked.close()
            raise ConnectionLostError(
                f"connect to {host}:{port} timed out"
            ) from error
        except OSError as error:
            raise ConnectionLostError(
                f"cannot connect to {host}:{port}: {error}"
            ) from error
        if ack.kind is FrameKind.ERROR:
            writer.close()
            fields = ack.field_dict
            if fields.get("code") == "busy":
                raise ServerBusyError(
                    f"server busy: {fields.get('message')}"
                )
            raise ProtocolError(
                f"server rejected session: {fields.get('message')}"
            )
        return reader, writer, ack

    def _set_state(self, link: _Link, state: LinkState) -> None:
        link.state = state
        self.stats.set_link_state(link.index, int(state))

    # -- scoreboard construction ------------------------------------------

    def _build_board(self) -> None:
        """One issue grain per manifest unit, plus retire hazards.

        The same :func:`repro.sched.unit_board` the simulator's
        :class:`~repro.sched.StripedController` drives: a class's
        leading global unit is a retire dependency of every other unit
        of the class, so out-of-order landings never make a method
        observable before its global data.
        """
        units: List[TransferUnit] = []
        for row in self.manifest.get("sequence", []):
            kind_value, class_name, method_name, size = (
                row[0],
                row[1],
                row[2],
                row[3],
            )
            kind = UnitKind(kind_value)
            units.append(
                TransferUnit(
                    kind=kind,
                    class_name=str(class_name),
                    size=int(size),
                    method=(
                        MethodId(str(class_name), str(method_name))
                        if method_name is not None
                        else None
                    ),
                )
            )
        for unit in units:
            self._unit_by_key[unit_wire_key(unit)] = unit
        self._board = unit_board(units)

    # -- arbitration and issue --------------------------------------------

    def _capacity(self, link: _Link) -> int:
        return 1 if link.state is LinkState.HALF_OPEN else self.window

    def _pick_link(self, exclude: Optional[int] = None) -> Optional[_Link]:
        """The best link with free window: healthiest, least loaded.

        An idle half-open link outranks everyone for exactly one unit —
        its circuit can only close by proving itself on a landing, and
        a busy healthy link would otherwise starve the probe forever.
        """
        candidates = [
            link
            for link in self._links
            if link.usable
            and link.index != exclude
            and len(link.in_flight) < self._capacity(link)
        ]
        if not candidates:
            return None
        return min(
            candidates,
            key=lambda link: (
                0
                if link.state is LinkState.HALF_OPEN
                and not link.in_flight
                else 1,
                int(link.state),
                len(link.in_flight),
                link.index,
            ),
        )

    async def _dispatch(self) -> None:
        """Issue ready grains to links until windows or work run out.

        Serialized by a lock: landings, reconnects, and demand
        escalations all call this, and scoreboard transitions plus the
        matching sends must stay atomic per grain.
        """
        async with self._dispatch_lock:
            board = self._board
            if board is None:
                return
            while not self._eof.is_set():
                ready = board.ready_items()
                if not ready:
                    return
                link = self._pick_link()
                if link is None:
                    return
                item = ready[0]
                key = unit_wire_key(item.units[0])
                board.mark_issued(
                    item.label, link.index, self.elapsed()
                )
                link.in_flight[key] = (item.label, time.monotonic())
                await self._send_request(link, key)

    async def _send_request(self, link: _Link, key: UnitKey) -> bool:
        """Put one pull request on a link; False when the send failed
        (the transport is closed and the link task handles recovery)."""
        code, class_name, method_name = key
        frame = demand_fetch_frame(
            class_name,
            method_name,
            kind=unit_kind_from_code(code),
            resend=True,
        )
        writer = link.writer
        if writer is None:
            return False
        try:
            writer.write(encode_frame(frame))
            await writer.drain()
            return True
        except (ConnectionError, OSError):
            link.broken = True
            writer.close()
            return False

    # -- receive path -----------------------------------------------------

    async def _link_main(self, link: _Link, connected: bool) -> None:
        """One link's whole life: drain, fail, back off, resume."""
        error: Optional[BaseException] = ConnectionLostError(
            f"link {link.index} never connected"
        )
        try:
            while True:
                if not connected:
                    if not await self._link_reconnect(link, error):
                        return
                    # The fresh link needs work before it blocks in
                    # its read loop, or a fully-requeued stripe stalls.
                    await self._dispatch()
                connected = False
                try:
                    await self._link_drain(link)
                    return  # the stripe completed
                except (ConnectionLostError, ProtocolError) as exc:
                    if self._eof.is_set():
                        return
                    error = exc
                    await self._on_link_failure(link, exc)
                    await self._dispatch()
        except asyncio.CancelledError:
            raise
        except TransferError as exc:
            # Deadline exhaustion or another non-recoverable failure:
            # surface it to every waiter instead of dying silently.
            self._fail(exc)

    async def _link_reconnect(
        self, link: _Link, error: BaseException
    ) -> bool:
        """Back off and re-dial until the link resumes or dies."""
        while True:
            if self._eof.is_set() or self._failure is not None:
                return False
            if link.reconnects_used >= self.max_reconnects:
                link.dead = True
                self._set_state(link, LinkState.OPEN)
                await self._on_link_dead(link, error)
                return False
            link.reconnects_used += 1
            if link.state is LinkState.OPEN:
                link.probes += 1
            attempt = link.reconnects_used
            self._check_deadline()
            await asyncio.sleep(self._link_backoff(link, attempt))
            self._check_deadline()
            self.stats.record_link_reconnect(link.index)
            if self.recorder is not None:
                self.recorder.reconnect(
                    self.elapsed(),
                    attempt=attempt,
                    link=str(link.index),
                    error=str(error),
                )
            try:
                await self._link_connect(link, resume=True)
                return True
            except (ConnectionLostError, ProtocolError) as exc:
                error = exc

    def _link_backoff(self, link: _Link, attempt: int) -> float:
        """Per-link capped exponential backoff with independent jitter."""
        backoff = min(
            self.backoff_cap,
            self.backoff_base * (2 ** (attempt - 1)),
        )
        rng = self._link_rngs[link.index]
        return backoff + rng.uniform(
            0.0, self.backoff_jitter * backoff
        )

    async def _link_drain(self, link: _Link) -> None:
        """Receive on one link until the stripe completes or it fails."""
        while True:
            raw = await self._read_link_raw(link)
            try:
                frame, _ = decode_frame(raw)
            except FrameCorruptionError as error:
                key = salvage_unit_key(raw)
                if key is None:
                    raise self._decode_error(raw, error) from error
                self._wire_bytes += len(raw)
                await self._retry_on_link(link, key, error)
                continue
            self._wire_bytes += len(raw)
            self.stats.record_frame(frame.wire_size)
            if frame.kind is FrameKind.UNIT:
                assert frame.unit is not None
                self._land_unit(link, frame.unit, frame.payload)
                if self._eof.is_set():
                    return
                await self._dispatch()
            elif frame.kind is FrameKind.ERROR:
                raise ProtocolError(
                    f"server error: {frame.field_dict.get('message')}"
                )
            else:
                raise ProtocolError(
                    f"unexpected {frame.kind.name} frame in a pull "
                    f"session"
                )

    async def _read_link_raw(self, link: _Link) -> bytes:
        reader = link.reader
        assert reader is not None
        if self._deadline_at is None:
            return await read_raw_frame(reader)
        remaining = self._deadline_at - time.monotonic()
        if remaining <= 0:
            raise self._deadline_error()
        try:
            return await asyncio.wait_for(
                read_raw_frame(reader), timeout=remaining
            )
        except asyncio.TimeoutError as exc:
            raise self._deadline_error() from exc

    async def _retry_on_link(
        self, link: _Link, key: UnitKey, error: FrameCorruptionError
    ) -> None:
        """Re-request one damaged unit on the link that owns it."""
        self.stats.record_unit_retry()
        if self.recorder is not None:
            self.recorder.unit_retry(
                self.elapsed(),
                class_name=key[1],
                method=key[2],
                link=str(link.index),
                reason=str(error),
            )
        await self._send_request(link, key)

    # -- landing and retire -----------------------------------------------

    def _land_unit(
        self, link: _Link, unit: TransferUnit, payload: bytes
    ) -> None:
        """Record a landing; observability waits for the retire cascade.

        Duplicates (hedge losers, resume races, repeated faults) are
        suppressed by wire key before they can touch the scoreboard, so
        ``mark_landed`` never sees a unit twice.
        """
        key = unit_wire_key(unit)
        link.in_flight.pop(key, None)
        hedge = self._hedges.pop(key, None)
        if key in self._received_keys:
            self.stats.record_duplicate_unit()
            self._link_success(link)
            return
        now = self.elapsed()
        self.unit_log.append((unit, now))
        self._received_keys.add(key)
        self.stats.record_unit(len(payload))
        self.stats.record_link_unit(link.index, len(payload))
        if self.recorder is not None:
            self.recorder.unit_arrived(
                now,
                class_name=unit.class_name,
                kind=unit.kind.value,
                size=unit.size,
                method=(
                    unit.method.method_name if unit.method else None
                ),
                link=str(link.index),
            )
        if unit.kind is UnitKind.CLASS_FILE:
            self.buffers[unit.class_name] = [(unit, payload)]
        else:
            self.buffers.setdefault(unit.class_name, []).append(
                (unit, payload)
            )
        if hedge is not None:
            role = "hedge" if link.index == hedge[1] else "primary"
            self.stats.record_hedge_win(role)
            if self.recorder is not None:
                self.recorder.hedge_won(
                    now,
                    class_name=unit.class_name,
                    link=str(link.index),
                    role=role,
                )
        board = self._board
        board_unit = self._unit_by_key.get(key)
        if board is None or board_unit is None:
            self._signal_available(unit, now)
        else:
            for retired, retire_time in board.mark_landed(
                board_unit, now
            ):
                self._signal_available(retired, retire_time)
        self._link_success(link)
        if board is not None and not board.outstanding:
            self._finish()

    def _signal_available(self, unit: TransferUnit, at: float) -> None:
        """A unit retired: its methods may now execute (arrival = retire
        time, exactly the simulator's observable-arrival rule)."""
        if unit.kind is UnitKind.METHOD and unit.method is not None:
            self._method_arrivals.setdefault(unit.method, at)
            self._event_for(unit.method).set()
        elif unit.kind is UnitKind.CLASS_FILE:
            self._classes_complete.add(unit.class_name)
            for method_id, event in self._events.items():
                if method_id.class_name == unit.class_name:
                    self._method_arrivals.setdefault(method_id, at)
                    event.set()

    def _link_success(self, link: _Link) -> None:
        """A landing proves the link; heal its circuit state."""
        link.consecutive_failures = 0
        if link.state is LinkState.HALF_OPEN:
            self._set_state(link, LinkState.HEALTHY)
            if self.recorder is not None:
                self.recorder.link_restored(
                    self.elapsed(),
                    link=str(link.index),
                    probes=link.probes,
                )
            link.probes = 0
        elif link.state is LinkState.DEGRADED:
            self._set_state(link, LinkState.HEALTHY)

    def _finish(self) -> None:
        """Every grain retired: close the pull sessions (no EOF comes)."""
        self._eof.set()
        for link in self._links:
            if link.writer is not None:
                link.writer.close()

    # -- failure handling --------------------------------------------------

    async def _on_link_failure(
        self, link: _Link, error: BaseException
    ) -> None:
        """Requeue a failed link's flight onto survivors; open the
        circuit past the failure threshold."""
        link.consecutive_failures += 1
        board = self._board
        requeued = 0
        for key, (label, _issued) in list(link.in_flight.items()):
            link.in_flight.pop(key, None)
            if board is None:
                continue
            item = board.items.get(label)
            if (
                item is not None
                and item.state is ItemState.ISSUED
                and item.channel == link.index
            ):
                board.requeue(label, item.units)
                requeued += 1
        writer = link.writer
        link.reader = link.writer = None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        link.broken = False
        reason = (
            f"stalled: no frame for {self.stall_timeout:.1f}s"
            if link.stalled
            else str(error)
        )
        link.stalled = False
        opened = (
            link.state is LinkState.HALF_OPEN
            or link.consecutive_failures >= self.failure_threshold
        )
        was_open = link.state is LinkState.OPEN
        self._set_state(
            link, LinkState.OPEN if opened else LinkState.DEGRADED
        )
        if opened and not was_open:
            self.stats.record_link_outage(link.index)
            if self.recorder is not None:
                self.recorder.link_outage(
                    self.elapsed(),
                    link=str(link.index),
                    reason=reason,
                    requeued=requeued,
                )

    async def _on_link_dead(
        self, link: _Link, error: BaseException
    ) -> None:
        """A link exhausted its budget; degrade only when all have."""
        if any(not peer.dead for peer in self._links):
            return
        if self._degrading or self._eof.is_set():
            return
        self._degrading = True
        reason = (
            f"all {len(self._links)} links exhausted "
            f"({self.max_reconnects} reconnects each): {error}"
        )
        try:
            await self._degrade_striped(reason)
        except TransferError as exc:
            self._fail(exc)

    async def _degrade_striped(self, reason: str) -> None:
        """The ladder's last rung: one-shot strict fetch, any endpoint."""
        last: Optional[TransferError] = None
        for host, port in self.endpoints:
            self.host, self.port = host, port
            try:
                await self._degrade(reason)
                return
            except ResilienceExhaustedError as exc:
                last = exc
        assert last is not None
        raise last

    async def _watchdog_loop(self) -> None:
        """Detect the one-slow-link stall: in-flight but nothing lands.

        Closing the stalled transport makes its receive loop fail with
        a typed error, which requeues the flight onto survivors — a
        slow link is handled exactly like a dead one.
        """
        interval = max(self.stall_timeout / 4.0, 0.01)
        while not self._eof.is_set() and self._failure is None:
            await asyncio.sleep(interval)
            now = time.monotonic()
            for link in self._links:
                if link.writer is None or link.broken or link.dead:
                    continue
                if not link.in_flight:
                    continue
                oldest = min(
                    issued for _, issued in link.in_flight.values()
                )
                if now - oldest > self.stall_timeout:
                    link.broken = True
                    link.stalled = True
                    link.writer.close()

    # -- demand fetches and hedging ---------------------------------------

    def _needed_key(self, method_id: MethodId) -> Optional[UnitKey]:
        """The wire key whose retire makes ``method_id`` available."""
        for unit in self._unit_by_key.values():
            if (
                unit.kind is UnitKind.METHOD
                and unit.method == method_id
            ):
                return unit_wire_key(unit)
            if (
                unit.kind is UnitKind.CLASS_FILE
                and unit.class_name == method_id.class_name
            ):
                return unit_wire_key(unit)
        return None

    def _escalate_for(self, key: Optional[UnitKey]) -> None:
        board = self._board
        unit = self._unit_by_key.get(key) if key is not None else None
        if board is None or unit is None:
            return
        for needed in (unit, *board.retire_deps(unit)):
            board.escalate(board.label_of(needed))

    async def _fire_hedge(
        self, method_id: MethodId, key: Optional[UnitKey]
    ) -> None:
        """Race a missing demanded unit on the next-best link."""
        if key is None or key in self._received_keys:
            return
        if key in self._hedges:
            return
        board = self._board
        unit = self._unit_by_key.get(key)
        if board is None or unit is None:
            return
        item = board.item_for_unit(unit)
        if item.state is not ItemState.ISSUED or item.channel is None:
            return  # not in flight; escalation re-issues it instead
        link = self._pick_hedge_link(exclude=item.channel)
        if link is None:
            return
        self.stats.record_hedge()
        if self.recorder is not None:
            self.recorder.hedge_fired(
                self.elapsed(),
                class_name=method_id.class_name,
                link=str(link.index),
                method=method_id.method_name,
            )
        self._hedges[key] = (item.channel, link.index)
        link.in_flight.setdefault(key, (item.label, time.monotonic()))
        await self._send_request(link, key)

    def _pick_hedge_link(self, exclude: int) -> Optional[_Link]:
        """Best link other than the primary; a hedge may overfill the
        window (it races latency, it does not wait for capacity)."""
        candidates = [
            link
            for link in self._links
            if link.usable and link.index != exclude
        ]
        if not candidates:
            return None
        return min(
            candidates,
            key=lambda link: (
                int(link.state),
                len(link.in_flight),
                link.index,
            ),
        )

    async def _demand(
        self, method_id: MethodId, event: asyncio.Event
    ) -> None:
        """Striped misprediction correction: escalate, then hedge.

        The demanded grain jumps every queue (scoreboard escalation —
        the §5.1 front-of-queue rule); if it is still missing after
        ``hedge_delay`` a duplicate request races on the next-best
        link.  Falls back to the base single-socket demand while the
        strict-degradation connection is active.
        """
        if self._board is None or self._degrading:
            await super()._demand(method_id, event)
            return
        self._demanded.add(method_id)
        key = self._needed_key(method_id)
        for attempt in range(self.demand_retries):
            self._escalate_for(key)
            await self._dispatch()
            self.stats.record_demand_fetch()
            if self.recorder is not None:
                self.recorder.demand_fetch(
                    self.elapsed(),
                    method=str(method_id),
                    attempt=attempt + 1,
                )
            timeout = self.demand_timeout
            if attempt == 0 and self.hedge_delay < timeout:
                if await self._wait_available(
                    method_id, event, self.hedge_delay
                ):
                    return
                await self._fire_hedge(method_id, key)
                timeout = max(timeout - self.hedge_delay, 0.001)
            if await self._wait_available(method_id, event, timeout):
                return
        self._check_failure()
        raise TransferError(
            f"demand fetch for {method_id} timed out after "
            f"{self.demand_retries} attempts of "
            f"{self.demand_timeout:.1f}s"
        )

    async def _wait_available(
        self, method_id: MethodId, event: asyncio.Event, timeout: float
    ) -> bool:
        """Wait on the method's event; True once it is available."""
        try:
            await asyncio.wait_for(event.wait(), timeout=timeout)
        except asyncio.TimeoutError:
            return False
        self._check_failure()
        if self.is_method_available(method_id):
            return True
        # The event can wake spuriously (failure broadcast cleared):
        # re-arm and let the caller retry.
        event.clear()
        return False
