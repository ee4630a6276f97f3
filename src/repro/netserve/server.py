"""The asyncio class-file server.

:class:`ClassFileServer` holds one :class:`~repro.program.Program` and
serves it to many concurrent clients.  Each connection negotiates a
transfer policy (strict / non-strict / data-partitioned) and a reorder
strategy via ``HELLO``; the server resolves the negotiated
configuration to a shared immutable :class:`~.cache.SessionArtifact`
(restructured program, transfer plan, payload bytes, and pre-encoded
``UNIT`` frames) and streams the unit sequence over the socket.

Two behaviours mirror the paper's transfer fabric (§5.1/§5.2):

* **Bandwidth pacing** — an optional token bucket caps the send rate in
  bytes/second, so a T1- or modem-shaped link is reproducible on
  localhost and overlap effects are observable in wall-clock time.
  The bucket is *server-level*: it models one shared physical link, so
  aggregate egress respects ``bandwidth`` no matter how many clients
  are connected (each connection may additionally be capped with
  ``per_connection_bandwidth``).
* **Demand-fetch priority** — a ``DEMAND_FETCH`` from the client (a
  first-use misprediction) promotes the demanded class's still-pending
  units, as a block and in order, to the *front* of the send queue —
  the same front-of-queue rule :meth:`repro.transfer.StreamEngine`
  applies to demand-fetched streams.

Striped sessions negotiate *pull mode* (``HELLO`` with ``pull:
true``): the server answers with the full manifest but pushes nothing;
every unit is requested explicitly through the demand path (a
``DEMAND_FETCH`` with ``resend: true`` naming one wire key), so a
multi-link client's issue engine — not the server — decides which unit
travels on which connection and when.  A pull session has no ``EOF``;
the client closes the connection once its scoreboard drains.

Fleet-scale controls:

* **Admission control** — with ``max_connections`` set, a connection
  past the limit receives a clean ``ERROR`` frame with ``code:
  "busy"`` and is closed, instead of silently degrading every other
  session.
* **Send backpressure** — each connection's transport write buffer is
  bounded (``write_buffer_high``), so ``drain()`` genuinely pauses the
  sender for a slow client instead of buffering the whole stream in
  memory.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import TYPE_CHECKING, Deque, List, Optional, Tuple

from ..errors import ConnectionLostError, ProtocolError, ReproError
from ..faults import ConnectionFaults, FaultInjector, FaultPlan, FrameDirective
from ..program import Program
from ..reorder import (
    FirstUseOrder,
    estimate_first_use,
    order_from_profile,
    restructure,
    textual_first_use,
    weighted_first_use,
)
from ..transfer import (
    TransferPolicy,
    TransferUnit,
    build_interleaved_file,
    build_program_plans,
)
from ..vm import FirstUseProfile
from .cache import ArtifactCache, SessionArtifact, program_fingerprint
from .payloads import build_program_payloads
from .protocol import (
    FrameKind,
    encode_frame,
    eof_frame,
    error_frame,
    hello_ack_frame,
    read_frame,
    resume_ack_frame,
    unit_frame,
    unit_wire_key,
)
from .stats import ConnectionStats, ServerStats

if TYPE_CHECKING:  # pragma: no cover
    from ..observe import TraceRecorder

__all__ = ["TokenBucket", "ClassFileServer", "REORDER_STRATEGIES"]

#: Reorder strategies a client may request in its ``HELLO``.
REORDER_STRATEGIES = ("static", "textual", "profile", "weighted")

#: Longest a push session stays open after its ``EOF``, waiting for the
#: client to close its side (see :meth:`ClassFileServer._linger`).
LINGER_SECONDS = 5.0


class TokenBucket:
    """Paces sends to ``rate`` bytes/second with a bounded burst.

    The bucket may run a deficit: a frame larger than the burst is sent
    whole, and subsequent sends wait until the deficit refills — so the
    long-run rate converges to ``rate`` regardless of frame sizes.

    :meth:`consume` is serialized through an :class:`asyncio.Lock`, so
    one bucket shared by many connections is a fair FIFO model of one
    physical link: concurrent senders queue in arrival order and the
    aggregate rate never exceeds ``rate``.
    """

    def __init__(self, rate: float, burst: float = 256.0) -> None:
        if rate <= 0:
            raise ProtocolError(f"pacing rate must be positive: {rate}")
        self.rate = float(rate)
        self.burst = max(float(burst), 1.0)
        self._tokens = self.burst
        self._last = time.monotonic()
        self._lock = asyncio.Lock()

    def _refill(self) -> None:
        now = time.monotonic()
        self._tokens = min(
            self.burst, self._tokens + (now - self._last) * self.rate
        )
        self._last = now

    async def consume(self, amount: float) -> None:
        """Take ``amount`` tokens, sleeping until the rate allows it."""
        async with self._lock:
            self._refill()
            self._tokens -= amount
            if self._tokens < 0:
                await asyncio.sleep(-self._tokens / self.rate)
                self._refill()


class ClassFileServer:
    """Serves a program's transfer-unit streams over TCP.

    Args:
        program: The program to serve (original layout; restructured
            per negotiated configuration, shared via the artifact
            cache).
        host: Bind address.
        port: Bind port (0 = ephemeral; read :attr:`address` after
            :meth:`start`).
        bandwidth: Optional pacing cap in *bytes per second* for the
            server's whole egress link (frame overhead counts against
            it, like real link framing).  Shared by every connection.
        burst: Token-bucket burst size in bytes.
        per_connection_bandwidth: Optional additional per-connection
            cap in bytes/second (each connection gets its own bucket
            on top of the shared link bucket).
        max_connections: Optional admission limit; a connection past
            it receives an ``ERROR`` frame with ``code: "busy"`` and
            is closed.
        write_buffer_high: High-water mark in bytes for each
            connection's transport write buffer (send backpressure).
        cache: Optional shared :class:`~.cache.ArtifactCache`; one
            private cache is created when omitted.  Passing the same
            cache to several servers shares planned artifacts across
            them.
        profile: Optional training profile backing the ``profile``
            reorder strategy; without one the server falls back to
            ``static`` and says so in the ``HELLO_ACK``.
        once: Stop accepting after the first connection finishes
            (handy for demos and CLI pipelines).
        fault_plan: Optional :class:`repro.faults.FaultPlan`; outgoing
            post-negotiation frames pass through its per-connection
            fault state (cuts, corruption, drops, duplicates, stalls,
            jitter), each applied fault emitted as a ``fault_injected``
            event and counted in ``netserve_faults_injected``.
        recorder: Optional :class:`repro.observe.TraceRecorder` (clock
            ``"seconds"``); when given, every wire frame becomes a
            ``frame_sent`` event, every demand-fetch promotion a
            ``schedule_decision``, every plan lookup a ``cache_lookup``
            and every admission rejection a ``connection_rejected``,
            timestamped relative to server start.
    """

    def __init__(
        self,
        program: Program,
        host: str = "127.0.0.1",
        port: int = 0,
        bandwidth: Optional[float] = None,
        burst: float = 256.0,
        per_connection_bandwidth: Optional[float] = None,
        max_connections: Optional[int] = None,
        write_buffer_high: int = 64 * 1024,
        cache: Optional[ArtifactCache] = None,
        profile: Optional[FirstUseProfile] = None,
        once: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        recorder: Optional["TraceRecorder"] = None,
    ) -> None:
        self.program = program
        self.host = host
        self.port = port
        self.bandwidth = bandwidth
        self.burst = burst
        self.per_connection_bandwidth = per_connection_bandwidth
        if max_connections is not None and max_connections < 1:
            raise ProtocolError(
                f"max_connections must be >= 1: {max_connections}"
            )
        self.max_connections = max_connections
        self.write_buffer_high = write_buffer_high
        self.profile = profile
        self.once = once
        self.fault_plan = fault_plan
        self._injector = (
            FaultInjector(fault_plan)
            if fault_plan is not None and not fault_plan.is_noop
            else None
        )
        self.recorder = recorder
        self.stats = ServerStats()
        self.artifact_cache = (
            cache if cache is not None else ArtifactCache()
        )
        self._fingerprint: Optional[str] = None
        self._bucket: Optional[TokenBucket] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: List[asyncio.StreamWriter] = []
        self._finished = asyncio.Event()
        self._t0 = time.monotonic()

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound address."""
        if self.bandwidth is not None and self._bucket is None:
            # One bucket for the whole server: the shared link.
            self._bucket = TokenBucket(self.bandwidth, burst=self.burst)
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self._t0 = time.monotonic()
        return self.address

    def _now(self) -> float:
        """Seconds since the server started (the recorder clock)."""
        return time.monotonic() - self._t0

    @property
    def address(self) -> Tuple[str, int]:
        if self._server is None or not self._server.sockets:
            raise ProtocolError("server is not started")
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def serve_until_done(self) -> None:
        """Serve until closed (or, with ``once``, one connection ends)."""
        if self._server is None:
            await self.start()
        if self.once:
            await self._finished.wait()
        else:
            assert self._server is not None
            await self._server.serve_forever()

    async def aclose(self) -> None:
        """Stop accepting and drop every live connection.

        Waits for each transport to actually close (no leaked
        transports, no ``ResourceWarning`` under load).
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        writers = list(self._writers)
        for writer in writers:
            writer.close()
        for writer in writers:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._finished.set()

    # -- per-connection negotiation ---------------------------------------

    def _resolve_strategy(self, strategy: str) -> str:
        """Validate a requested strategy and apply the profile fallback.

        Cheap (no planning work), so it can gate the cache lookup.
        """
        if strategy == "profile" and self.profile is None:
            return "static"  # honest fallback, reported in the ack
        if strategy not in REORDER_STRATEGIES:
            raise ProtocolError(
                f"unknown reorder strategy {strategy!r}; pick from "
                f"{REORDER_STRATEGIES}"
            )
        return strategy

    def _order_for(self, strategy: str) -> FirstUseOrder:
        """First-use order for an already-resolved strategy."""
        if strategy == "textual":
            return textual_first_use(self.program)
        if strategy == "profile":
            assert self.profile is not None  # resolved upstream
            return order_from_profile(self.program, self.profile)
        if strategy == "weighted":
            # Degrades to the pure-static layout without a profile.
            return weighted_first_use(self.program, profile=self.profile)
        return estimate_first_use(self.program)

    def _build_artifact(
        self, policy: TransferPolicy, strategy: str
    ) -> SessionArtifact:
        """Do the full planning work for one configuration (cache miss)."""
        order = self._order_for(strategy)
        target = restructure(self.program, order)
        plans = build_program_plans(target, policy)
        if policy == TransferPolicy.STRICT:
            # Whole files, in class-first-use order: the strict
            # methodology still benefits from sending the entry class
            # first, and the comparison stays apples-to-apples.
            sequence = [
                unit
                for classfile in target.classes
                for unit in plans[classfile.name].units
            ]
        else:
            sequence = build_interleaved_file(plans, order)
        payloads = build_program_payloads(target, plans)
        frames = {
            unit: encode_frame(unit_frame(unit, payloads[unit]))
            for unit in sequence
        }
        manifest = tuple(
            (
                unit.kind.value,
                unit.class_name,
                unit.method.method_name if unit.method else None,
                unit.size,
            )
            for unit in sequence
        )
        return SessionArtifact(
            sequence=tuple(sequence),
            payloads=payloads,
            frames=frames,
            manifest=manifest,
            strategy=strategy,
            total_bytes=sum(unit.size for unit in sequence),
            wire_bytes=sum(len(data) for data in frames.values()),
        )

    def _plan_session(
        self, policy: TransferPolicy, strategy: str
    ) -> SessionArtifact:
        """Resolve a negotiated configuration to a shared artifact."""
        resolved = self._resolve_strategy(strategy)
        if self._fingerprint is None:
            self._fingerprint = program_fingerprint(self.program)
        key = (self._fingerprint, policy.value, resolved)
        before = self.artifact_cache.misses
        artifact = self.artifact_cache.get_or_build(
            key, lambda: self._build_artifact(policy, resolved)
        )
        if self.recorder is not None:
            self.recorder.cache_lookup(
                self._now(),
                hit=self.artifact_cache.misses == before,
                policy=policy.value,
                strategy=resolved,
            )
        return artifact

    # -- connection handling ----------------------------------------------

    def _reject_busy(self) -> bool:
        """True when admission control must turn a connection away."""
        return (
            self.max_connections is not None
            and len(self._writers) >= self.max_connections
        )

    async def _turn_away(self, writer: asyncio.StreamWriter) -> None:
        """Send the clean BUSY error frame and close the transport."""
        peer = str(writer.get_extra_info("peername"))
        self.stats.record_rejected()
        if self.recorder is not None:
            self.recorder.connection_rejected(
                self._now(),
                reason="busy",
                peer=peer,
                limit=self.max_connections,
            )
        try:
            writer.write(
                encode_frame(
                    error_frame(
                        f"server at capacity "
                        f"({self.max_connections} connections)",
                        code="busy",
                    )
                )
            )
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._reject_busy():
            await self._turn_away(writer)
            return
        conn = self.stats.open_connection(
            peer=str(writer.get_extra_info("peername")),
            started_at=time.monotonic(),
        )
        self._writers.append(writer)
        self.stats.set_active(len(self._writers))
        transport = writer.transport
        if transport is not None:
            # Bound the kernel-side buffering so drain() exerts real
            # backpressure against slow clients.
            transport.set_write_buffer_limits(
                high=self.write_buffer_high
            )
        faults = (
            self._injector.connection()
            if self._injector is not None
            else None
        )
        demand_task: Optional[asyncio.Task] = None
        demand_error: Optional[BaseException] = None
        try:
            try:
                sequence, artifact, pull = await self._negotiate(
                    reader, writer, conn
                )
            except ConnectionLostError:
                conn.aborted = True
                return
            except ReproError as error:
                writer.write(encode_frame(error_frame(str(error))))
                await writer.drain()
                conn.aborted = True
                return
            pending: Deque[TransferUnit] = deque(
                () if pull else sequence
            )
            wake = asyncio.Event()
            reader_done = asyncio.Event()
            demand_task = asyncio.create_task(
                self._demand_loop(
                    reader,
                    pending,
                    artifact.sequence,
                    conn,
                    wake=wake,
                    reader_done=reader_done,
                )
            )
            await self._send_units(
                writer,
                pending,
                artifact,
                conn,
                faults,
                pull=pull,
                wake=wake,
                reader_done=reader_done,
            )
        except (ConnectionLostError, ConnectionError, OSError):
            conn.aborted = True
        except asyncio.CancelledError:
            # Server shutdown mid-send: end the handler quietly (the
            # asyncio.streams callback would log a re-raise as noise).
            conn.aborted = True
        finally:
            if demand_task is not None:
                demand_task.cancel()
                try:
                    await demand_task
                except asyncio.CancelledError:
                    pass
                except Exception as error:  # noqa: BLE001 - surfaced below
                    # A real demand-loop failure (not teardown): count
                    # it and re-raise after cleanup so it is never
                    # silently swallowed.
                    demand_error = error
                    self.stats.record_demand_loop_error()
            conn.finished_at = time.monotonic()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            if writer in self._writers:
                self._writers.remove(writer)
            self.stats.set_active(len(self._writers))
            if self.once:
                self._finished.set()
            if demand_error is not None:
                raise demand_error

    async def _negotiate(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        conn: ConnectionStats,
    ) -> Tuple[List[TransferUnit], SessionArtifact, bool]:
        """Negotiate a session; returns (units to send, artifact, pull).

        Accepts a fresh ``HELLO`` or a ``RESUME`` carrying the unit
        wire keys the client already holds; a resume replays the same
        cached session plan minus the held units, so a reconnecting
        client pays only for what it lost — and the server pays one
        cache lookup, not a re-plan.

        A ``pull: true`` field in either greeting puts the session in
        pull mode: the ack still carries the full (resume-filtered)
        manifest, but nothing is queued for push — the client drives
        every unit through ``DEMAND_FETCH``/``resend``.
        """
        hello = await read_frame(reader)
        if hello.kind not in (FrameKind.HELLO, FrameKind.RESUME):
            raise ProtocolError(
                f"expected HELLO or RESUME, got {hello.kind.name}"
            )
        fields = hello.field_dict
        try:
            policy = TransferPolicy(fields.get("policy", "non_strict"))
        except ValueError as exc:
            raise ProtocolError(
                f"unknown policy {fields.get('policy')!r}"
            ) from exc
        strategy = fields.get("strategy", "static")
        pull = bool(fields.get("pull"))
        artifact = self._plan_session(policy, strategy)
        full_sequence = list(artifact.sequence)
        sequence = full_sequence
        resumed = hello.kind == FrameKind.RESUME
        if resumed:
            have = self._have_keys(fields.get("have", []))
            sequence = [
                unit
                for unit in full_sequence
                if unit_wire_key(unit) not in have
            ]
            conn.record_resume(len(full_sequence) - len(sequence))
        conn.policy = policy.value
        conn.strategy = artifact.strategy
        entry = self.program.entry_point
        if resumed:
            manifest = artifact.manifest_rows(sequence)
            total_bytes = sum(unit.size for unit in sequence)
        else:
            manifest = [list(row) for row in artifact.manifest]
            total_bytes = artifact.total_bytes
        ack_fields = dict(
            policy=policy.value,
            strategy=artifact.strategy,
            unit_count=len(sequence),
            total_bytes=total_bytes,
            bandwidth=self.bandwidth,
            entry=(
                [entry.class_name, entry.method_name] if entry else None
            ),
            sequence=manifest,
        )
        if pull:
            ack_fields["pull"] = True
            conn.record_pull_session()
        if resumed:
            ack = resume_ack_frame(
                skipped=len(full_sequence) - len(sequence),
                **ack_fields,
            )
        else:
            ack = hello_ack_frame(**ack_fields)
        writer.write(encode_frame(ack))
        await writer.drain()
        return sequence, artifact, pull

    @staticmethod
    def _have_keys(raw: object) -> set:
        """Parse a RESUME's ``have`` list into unit wire keys."""
        if not isinstance(raw, list):
            raise ProtocolError("RESUME 'have' must be a list")
        keys = set()
        for entry in raw:
            try:
                code, class_name, method_name = entry
                keys.add(
                    (
                        int(code),
                        str(class_name),
                        None
                        if method_name is None
                        else str(method_name),
                    )
                )
            except (TypeError, ValueError) as exc:
                raise ProtocolError(
                    f"malformed RESUME 'have' entry {entry!r}"
                ) from exc
        return keys

    async def _send_units(
        self,
        writer: asyncio.StreamWriter,
        pending: Deque[TransferUnit],
        artifact: SessionArtifact,
        conn: ConnectionStats,
        faults: Optional[ConnectionFaults] = None,
        pull: bool = False,
        wake: Optional[asyncio.Event] = None,
        reader_done: Optional[asyncio.Event] = None,
    ) -> None:
        """Drain ``pending`` to the wire, pacing through the buckets.

        Push sessions send the negotiated sequence then ``EOF``, and
        linger until the client closes.  Pull sessions start with an
        empty deque and sleep on ``wake`` until the demand loop
        promotes units into it; they end — without an ``EOF`` — when
        ``reader_done`` is set (client closed its side) and nothing is
        left to send.
        """
        conn_bucket = (
            TokenBucket(self.per_connection_bandwidth, burst=self.burst)
            if self.per_connection_bandwidth is not None
            else None
        )
        while True:
            while pending:
                unit = pending.popleft()
                data = artifact.frames[unit]
                if conn_bucket is not None:
                    await conn_bucket.consume(len(data))
                if self._bucket is not None:
                    await self._bucket.consume(len(data))
                alive = await self._transmit(
                    writer, data, conn, faults, kind="UNIT", unit=unit
                )
                if not alive:
                    return
            if not pull:
                break
            assert wake is not None and reader_done is not None
            if reader_done.is_set():
                return  # pull sessions end silently: no EOF
            # No await between the drain above and this clear, so a
            # promotion cannot slip through unnoticed.
            wake.clear()
            await wake.wait()
        eof = encode_frame(eof_frame())
        if not await self._transmit(
            writer, eof, conn, faults, kind="EOF"
        ):
            return
        if reader_done is not None:
            await self._linger(writer, reader_done)

    @staticmethod
    async def _linger(
        writer: asyncio.StreamWriter, reader_done: asyncio.Event
    ) -> None:
        """Half-close after ``EOF``; wait for the client to close.

        A client's ``DEMAND_FETCH`` can cross the ``EOF`` on the wire.
        Closing the socket with that frame unread makes the kernel
        answer with a reset, which discards every frame the client has
        not read yet.  So the demand loop keeps draining until the
        client closes its side, for at most :data:`LINGER_SECONDS`.
        The half-close still ends the stream for a client whose
        ``EOF`` frame a fault plan dropped.
        """
        if writer.can_write_eof():
            writer.write_eof()
        try:
            await asyncio.wait_for(reader_done.wait(), LINGER_SECONDS)
        except asyncio.TimeoutError:
            pass

    async def _transmit(
        self,
        writer: asyncio.StreamWriter,
        data: bytes,
        conn: ConnectionStats,
        faults: Optional[ConnectionFaults],
        kind: str,
        unit: Optional[TransferUnit] = None,
    ) -> bool:
        """Send one frame through the fault layer.

        Returns False when the directive severed the connection (the
        handler must stop sending on this socket).
        """
        directive = (
            faults.next_directive(len(data))
            if faults is not None
            else None
        )
        if directive is not None and directive.delay_seconds > 0:
            await asyncio.sleep(directive.delay_seconds)
        if directive is not None:
            self._record_faults(directive, conn)
        if directive is not None and directive.cut_at is not None:
            if directive.cut_at > 0:
                writer.write(data[: directive.cut_at])
                conn.record_frame(directive.cut_at)
                try:
                    await writer.drain()
                except (ConnectionError, OSError):
                    pass
            writer.close()
            conn.aborted = True
            return False
        if directive is not None and directive.drop:
            return True
        if directive is not None and directive.corrupt_offset is not None:
            damaged = bytearray(data)
            damaged[directive.corrupt_offset] ^= 0xFF
            data = bytes(damaged)
        copies = directive.copies if directive is not None else 1
        for _ in range(copies):
            writer.write(data)
            await writer.drain()
            conn.record_frame(len(data), unit=unit is not None)
            if self.recorder is not None:
                self.recorder.frame_sent(
                    self._now(),
                    kind=kind,
                    size=len(data),
                    class_name=unit.class_name if unit else None,
                    method=(
                        unit.method.method_name
                        if unit and unit.method
                        else None
                    ),
                    peer=conn.peer,
                )
        return True

    def _record_faults(
        self, directive: FrameDirective, conn: ConnectionStats
    ) -> None:
        for fault in directive.faults:
            conn.record_fault(fault.kind)
            if self.recorder is not None:
                self.recorder.fault_injected(
                    self._now(),
                    fault=fault.kind,
                    detail=fault.detail,
                    frame=directive.frame_index,
                    peer=conn.peer,
                )

    async def _demand_loop(
        self,
        reader: asyncio.StreamReader,
        pending: Deque[TransferUnit],
        full_sequence: Tuple[TransferUnit, ...],
        conn: ConnectionStats,
        wake: Optional[asyncio.Event] = None,
        reader_done: Optional[asyncio.Event] = None,
    ) -> None:
        """Serve DEMAND_FETCH frames by promoting pending units.

        A plain demand promotes the demanded class's still-pending
        units to the front.  A ``resend`` demand (a client recovering a
        damaged frame, or a pull session naming its next unit)
        additionally re-enqueues already-sent units from the session
        plan that match the given class / method / kind.

        Runs concurrently with the sender; the deque rearrangement is
        synchronous (no await between read and write of ``pending``),
        so the single-threaded event loop makes it atomic.  After a
        promotion the sender is nudged through ``wake``; when the
        client's read side closes, ``reader_done`` (then ``wake``) is
        set so a pull sender can finish.
        """
        try:
            await self._demand_requests(
                reader, pending, full_sequence, conn, wake
            )
        finally:
            if reader_done is not None:
                reader_done.set()
            if wake is not None:
                wake.set()

    async def _demand_requests(
        self,
        reader: asyncio.StreamReader,
        pending: Deque[TransferUnit],
        full_sequence: Tuple[TransferUnit, ...],
        conn: ConnectionStats,
        wake: Optional[asyncio.Event],
    ) -> None:
        while True:
            try:
                frame = await read_frame(reader)
            except ReproError:
                return  # peer gone or talking garbage; sender notices
            if frame.kind != FrameKind.DEMAND_FETCH:
                continue  # tolerate chatty clients; units keep flowing
            fields = frame.field_dict
            demanded = fields.get("class")
            promoted = [
                unit
                for unit in pending
                if unit.class_name == demanded
            ]
            if fields.get("resend"):
                in_pending = set(pending)
                method = fields.get("method")
                kind_code = fields.get("kind")

                def matches(unit: TransferUnit) -> bool:
                    code, class_name, method_name = unit_wire_key(unit)
                    if class_name != demanded:
                        return False
                    if kind_code is not None and code != int(kind_code):
                        return False
                    if method is not None and method_name != method:
                        return False
                    return True

                promoted = [
                    unit
                    for unit in full_sequence
                    if unit not in in_pending and matches(unit)
                ] + promoted
            conn.record_demand_fetch(len(promoted))
            if self.recorder is not None:
                self.recorder.demand_fetch(
                    self._now(),
                    method=f"{demanded}.{fields.get('method')}",
                    peer=conn.peer,
                )
            if not promoted:
                continue  # already sent (or unknown): nothing to jump
            promoted_set = set(promoted)
            remaining = [
                unit
                for unit in pending
                if unit not in promoted_set
            ]
            pending.clear()
            pending.extend(promoted)
            pending.extend(remaining)
            if wake is not None:
                wake.set()
            if self.recorder is not None:
                self.recorder.schedule_decision(
                    self._now(),
                    action="promote",
                    target=str(demanded),
                    promoted_units=len(promoted),
                    peer=conn.peer,
                )
