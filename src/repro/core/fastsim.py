"""Event-batched co-simulation core: the ``engine="batched"`` hot path.

The reference :class:`~repro.core.simulation.Simulator` walks the trace
segment by segment through layered abstractions — controller callbacks,
generator-expression byte sums, per-event attribute lookups.  That is
the right shape for exposition but pays Python overhead on every one of
the millions of micro-steps a parameter sweep takes.

This module rebuilds the same co-simulation as a *run-to-next-event*
loop over preallocated arrays:

* the trace is **precompiled** once into flat arrays (per-segment
  execution cost in cycles, first-use markers with their resolved
  transfer units);
* the paper's single-link methodologies get **specialized cores**
  (single-stream for interleaved/strict, processor-sharing for
  parallel) that inline the :class:`~repro.transfer.streams.StreamEngine`
  event loop into local-variable arithmetic.

Only those three controller types enter this module; any other
controller (the multi-link :mod:`repro.sched` engine, subclasses) runs
the reference loop in :meth:`~repro.core.simulation.Simulator.run`.

Fidelity contract: the batched cores perform *bit-for-bit the same
float operations in the same order* as the reference engine, so
``total_cycles``, every stall, and every per-method first-invocation
latency are exactly equal — property-tested in
``tests/core/test_fastsim.py`` across all six workloads, both
methodologies, and both orderings.  Schedule-release checks are the one
place the batched parallel core does *less* work: releases are byte-
monotone, so a class whose byte trigger is provably unreachable since
the last check is skipped until enough bytes flow (the skipped checks
are exactly the ones the reference evaluates to False).

Tracing: the zero-cost-disabled path is preserved by construction —
when a :class:`~repro.observe.TraceRecorder` is attached the simulator
falls back to the reference loop (which emits the event stream), so
``engine="batched"`` changes nothing about recorded runs.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import TransferError
from ..program import MethodId
from ..transfer.base import TransferController
from ..transfer.interleaved import InterleavedController
from ..transfer.parallel import ParallelController
from ..transfer.strict import StrictSequentialController
from ..transfer.units import TransferUnit
from .metrics import InvocationLatencyReport, MethodInvocationLatency
from .simulation import SimulationResult, StallEvent

if TYPE_CHECKING:  # pragma: no cover
    from ..transfer.schedule import ScheduledStart
    from ..vm import ExecutionTrace
    from .simulation import Simulator

__all__ = ["ENGINES", "compile_trace", "run_batched"]

#: The engine identifiers the ``engine=`` switches accept.
ENGINES = ("reference", "batched")

#: Matches ``repro.transfer.streams._EPSILON``.
_EPSILON = 1e-6

#: Slack (bytes) subtracted from deferred release-trigger gaps so float
#: noise in the recomputed dependency sums can never postpone a check
#: past the boundary where the reference engine would admit the stream.
_RELEASE_SLACK = 1e-3


class CompiledTrace:
    """Preallocated per-segment arrays for one (trace, controller) pair.

    Attributes:
        costs: Per-segment execution cost in cycles
            (``instructions × CPI``, the exact float the reference
            computes per segment).
        first_use: Aligned with ``costs``; ``None`` for repeat
            segments, ``(method, required_unit)`` on each method's
            first segment — the only segments that can stall.
        total_cost_basis: ``trace.total_instructions`` (int, exact).
    """

    __slots__ = ("costs", "first_use", "total_cost_basis")

    def __init__(
        self,
        costs: Sequence[float],
        first_use: List[Optional[Tuple[MethodId, TransferUnit]]],
        total_cost_basis: int,
    ) -> None:
        self.costs = costs
        self.first_use = first_use
        self.total_cost_basis = total_cost_basis


def compile_trace(
    trace: "ExecutionTrace",
    controller: TransferController,
    cpi: float,
) -> CompiledTrace:
    """Flatten a trace into the batched cores' preallocated arrays.

    Each cost is ``instructions × CPI``, the same IEEE multiply the
    reference performs per segment.
    """
    segments = trace.segments
    count = len(segments)
    cpi = float(cpi)
    costs = array(
        "d", (segment.instructions * cpi for segment in segments)
    ).tolist()
    first_use: List[Optional[Tuple[MethodId, TransferUnit]]] = (
        [None] * count
    )
    seen = set()
    required_unit = controller.required_unit
    for index, segment in enumerate(segments):
        method = segment.method
        if method not in seen:
            seen.add(method)
            first_use[index] = (method, required_unit(method))
    return CompiledTrace(costs, first_use, trace.total_instructions)


def _compiled_for(simulator: "Simulator") -> CompiledTrace:
    """Per-controller compile cache (identity-keyed, strong refs).

    A controller is typically driven repeatedly against the same trace
    (benchmark rounds, sweeps over links); the compiled arrays are pure
    functions of ``(trace, controller plans, cpi)`` so they are reused.
    """
    controller = simulator.controller
    cache: List[Tuple[object, float, CompiledTrace]]
    cache = controller.__dict__.setdefault("_fastsim_compiled", [])
    for trace_ref, cpi_ref, compiled in cache:
        if trace_ref is simulator.trace and cpi_ref == simulator.cpi:
            return compiled
    compiled = compile_trace(
        simulator.trace, controller, simulator.cpi
    )
    cache.append((simulator.trace, simulator.cpi, compiled))
    return compiled


def run_batched(simulator: "Simulator") -> Optional[SimulationResult]:
    """Run one co-simulation on the batched engine, if it has a core.

    Dispatches to the specialized single-stream or processor-sharing
    core when the controller is exactly one of the paper's single-link
    methodologies; returns ``None`` for any other controller, which
    the caller then runs on the reference loop.
    """
    kind = type(simulator.controller)
    if kind is InterleavedController or kind is StrictSequentialController:
        return _run_single_stream(simulator, _compiled_for(simulator))
    if kind is ParallelController:
        return _run_parallel(simulator, _compiled_for(simulator))
    return None


def _report(
    entries: List[MethodInvocationLatency],
) -> InvocationLatencyReport:
    report = InvocationLatencyReport(unit="cycles")
    report.entries = entries
    return report


# ---------------------------------------------------------------------------
# Single-stream core: interleaved and strict-sequential transfer
# ---------------------------------------------------------------------------


def _single_stream_units(
    controller: TransferController,
) -> Tuple[TransferUnit, ...]:
    """The one stream's unit sequence, exactly as ``setup`` requests it."""
    if isinstance(controller, InterleavedController):
        units = tuple(controller.sequence)
        if not units:
            raise TransferError("stream 'interleaved' has no units")
        return units
    assert isinstance(controller, StrictSequentialController)
    sequence: List[TransferUnit] = []
    for class_name in controller.program.class_names:
        sequence.extend(controller.plans[class_name].units)
    if not sequence:
        raise TransferError("program has no classes to transfer")
    return tuple(sequence)


def _run_single_stream(
    simulator: "Simulator", compiled: CompiledTrace
) -> SimulationResult:
    """One stream, full bandwidth: interleaved/strict methodologies.

    Inlines the reference engine's bounded-step loop for the
    ``len(active) == 1`` case.  Units complete strictly in sequence
    order, so ``arrived(unit)`` reduces to an index comparison.
    """
    controller = simulator.controller
    link = simulator.link
    cycles_per_byte = link.cycles_per_byte
    bytes_per_cycle = link.bytes_per_cycle

    units = _single_stream_units(controller)
    unit_count = len(units)
    sizes = [float(unit.size) for unit in units]
    int_sizes = [unit.size for unit in units]
    unit_index: Dict[TransferUnit, int] = {
        unit: position for position, unit in enumerate(units)
    }
    arrivals = array("d", bytes(8 * unit_count))

    time = 0.0  # execution clock
    engine_time = 0.0
    remaining = sizes[0]  # Stream.__post_init__: float(units[0].size)
    done = 0  # units completed so far (completion order == sequence)
    total_delivered = 0.0
    stall_cycles = 0.0
    stalls: List[StallEvent] = []
    entries: List[MethodInvocationLatency] = []

    costs = compiled.costs
    first_use = compiled.first_use
    for index in range(len(costs)):
        pair = first_use[index]
        if pair is not None:
            method, unit = pair
            position = unit_index.get(unit)
            if position is None or position >= done:
                # Stall: single-stream controllers have a no-op
                # on_stall (the unit is already en route), so this is
                # run_until_unit — full completion steps to arrival.
                while position is None or position >= done:
                    if done >= unit_count:
                        raise TransferError(
                            "engine idle but unit never arrived: "
                            f"{unit}"
                        )
                    step_to = engine_time + remaining * cycles_per_byte
                    if step_to <= engine_time:
                        total_delivered += remaining
                        remaining = 0.0
                    else:
                        delivered = (
                            step_to - engine_time
                        ) * bytes_per_cycle
                        remaining -= delivered
                        total_delivered += delivered
                        engine_time = step_to
                    while done < unit_count and remaining <= _EPSILON:
                        arrivals[done] = engine_time
                        done += 1
                        if done < unit_count:
                            remaining += sizes[done]
                        else:
                            remaining = 0.0
                arrival = arrivals[position]
                if arrival < time:
                    arrival = time
                stalls.append(
                    StallEvent(
                        method=method,
                        start=time,
                        duration=arrival - time,
                    )
                )
                stall_cycles += arrival - time
                time = arrival
            entries.append(
                MethodInvocationLatency(
                    method=method, latency=time, demand_fetched=False
                )
            )
        time = time + costs[index]
        # engine.run_until(time): bounded steps to the target.
        while engine_time < time:
            step_to = time
            if done < unit_count:
                boundary = engine_time + remaining * cycles_per_byte
                if boundary < step_to:
                    step_to = boundary
                if step_to <= engine_time:
                    # Float resolution swallowed the step: snap the
                    # nearest completion to done (reference `_step`).
                    total_delivered += remaining
                    remaining = 0.0
                else:
                    delta = step_to - engine_time
                    if delta > 0:
                        delivered = delta * bytes_per_cycle
                        remaining -= delivered
                        total_delivered += delivered
                    if step_to > engine_time:
                        engine_time = step_to
                while done < unit_count and remaining <= _EPSILON:
                    arrivals[done] = engine_time
                    done += 1
                    if done < unit_count:
                        remaining += sizes[done]
                    else:
                        remaining = 0.0
            else:
                if step_to > engine_time:
                    engine_time = step_to

    if done < unit_count:
        later = 0
        for position in range(done + 1, unit_count):
            later += int_sizes[position]
        bytes_terminated: float = remaining + later
    else:
        bytes_terminated = 0

    return SimulationResult(
        total_cycles=time,
        execution_cycles=compiled.total_cost_basis * simulator.cpi,
        stall_cycles=stall_cycles,
        invocation_latency=entries[0].latency if entries else 0.0,
        bytes_delivered=total_delivered,
        bytes_terminated=bytes_terminated,
        stalls=stalls,
        controller_name=controller.name,
        latencies=_report(entries),
    )


# ---------------------------------------------------------------------------
# Processor-sharing core: parallel file transfer
# ---------------------------------------------------------------------------


class _FastStream:
    """Flat mirror of :class:`repro.transfer.streams.Stream`."""

    __slots__ = (
        "name",
        "units",
        "sizes",
        "int_sizes",
        "count",
        "index",
        "remaining",
        "started",
    )

    def __init__(
        self, name: str, units: Tuple[TransferUnit, ...]
    ) -> None:
        self.name = name
        self.units = units
        self.sizes = [float(unit.size) for unit in units]
        self.int_sizes = [unit.size for unit in units]
        self.count = len(units)
        self.index = 0
        self.remaining = self.sizes[0]
        self.started = False

    def remaining_bytes(self) -> float:
        if self.index >= self.count:
            return 0.0
        later = 0
        for position in range(self.index + 1, self.count):
            later += self.int_sizes[position]
        return self.remaining + later


def _run_parallel(
    simulator: "Simulator", compiled: CompiledTrace
) -> SimulationResult:
    """Scheduled multi-stream transfer with demand-fetch correction.

    Replicates :class:`~repro.transfer.ParallelController` +
    :class:`~repro.transfer.streams.StreamEngine` with the controller's
    per-run state (pending starts, streams, demand fetches) rebuilt
    locally, so a cached controller can drive any number of runs.
    """
    controller = simulator.controller
    assert isinstance(controller, ParallelController)
    link = simulator.link
    cycles_per_byte = link.cycles_per_byte
    bytes_per_cycle = link.bytes_per_cycle
    max_streams = controller.max_streams
    eager_start = controller.eager_start
    plans = controller.plans

    active: List[_FastStream] = []
    waiting: deque[_FastStream] = deque()
    streams: Dict[str, _FastStream] = {}
    arrivals: Dict[TransferUnit, float] = {}
    delivered_per_stream: Dict[str, float] = {}
    pending: List["ScheduledStart"] = (
        controller.schedule.in_start_order()
    )
    demand_fetches: List[MethodId] = []

    engine_time = 0.0
    total_delivered = 0.0
    # Total-delivered level below which no pending release trigger can
    # possibly fire (set by each full scan; -inf forces a scan).
    scan_floor = float("-inf")

    def request(class_name: str, front: bool) -> None:
        nonlocal pending
        if class_name in streams:
            return
        pending = [
            start
            for start in pending
            if start.class_name != class_name
        ]
        units = plans[class_name].units
        if not units:
            raise TransferError(
                f"stream {class_name!r} has no units"
            )
        stream = _FastStream(class_name, units)
        streams[class_name] = stream
        if max_streams is None or len(active) < max_streams:
            stream.started = True
            active.append(stream)
        elif front:
            waiting.appendleft(stream)
        else:
            waiting.append(stream)

    def release_due() -> None:
        """The controller's ``_release_due``, byte-monotone deferred.

        Evaluates exactly the reference's trigger condition, but only
        when total delivered bytes have crossed ``scan_floor`` — the
        level below which *no* pending trigger can have fired since the
        last full scan (a trigger's dependency byte sum grows no faster
        than the total, and the floor keeps a slack margin well above
        accumulated float rounding).  Every skipped scan is one the
        reference evaluates all-False.
        """
        nonlocal scan_floor
        if total_delivered < scan_floor:
            return
        due: List["ScheduledStart"] = []
        min_need: Optional[float] = None
        get_delivered = delivered_per_stream.get
        for start in pending:
            if eager_start:
                due.append(start)
                continue
            delivered = 0.0
            for dependency in start.dependency_classes:
                delivered += get_delivered(dependency, 0.0)
            if start.start_after_bytes <= delivered + 1e-9:
                due.append(start)
            else:
                need = start.start_after_bytes - delivered - 1e-9
                if min_need is None or need < min_need:
                    min_need = need
        if min_need is None:
            # Nothing deferred: pending will be empty once the due
            # classes are requested below.
            scan_floor = float("inf")
        else:
            scan_floor = total_delivered + min_need - _RELEASE_SLACK
        for start in due:
            request(start.class_name, False)

    def step(step_to: float) -> None:
        """One bounded engine step: deliver, complete, release."""
        nonlocal engine_time, total_delivered
        stream_count = len(active)
        if step_to <= engine_time and stream_count:
            floor = active[0].remaining
            for stream in active:
                if stream.remaining < floor:
                    floor = stream.remaining
            for stream in active:
                if stream.remaining <= floor:
                    total_delivered += stream.remaining
                    delivered_per_stream[stream.name] = (
                        delivered_per_stream.get(stream.name, 0.0)
                        + stream.remaining
                    )
                    stream.remaining = 0.0
        else:
            delta = step_to - engine_time
            if delta > 0 and stream_count:
                share = delta * bytes_per_cycle / stream_count
                for stream in active:
                    stream.remaining -= share
                    total_delivered += share
                    delivered_per_stream[stream.name] = (
                        delivered_per_stream.get(stream.name, 0.0)
                        + share
                    )
            if step_to > engine_time:
                engine_time = step_to
        finished: List[_FastStream] = []
        for stream in active:
            while (
                stream.index < stream.count
                and stream.remaining <= _EPSILON
            ):
                arrivals[stream.units[stream.index]] = engine_time
                stream.index += 1
                if stream.index < stream.count:
                    stream.remaining += stream.sizes[stream.index]
                else:
                    stream.remaining = 0.0
                    finished.append(stream)
        for stream in finished:
            active.remove(stream)
        if finished:
            while waiting and (
                max_streams is None or len(active) < max_streams
            ):
                stream = waiting.popleft()
                stream.started = True
                active.append(stream)
        release_due()

    def next_boundary(limit: float) -> float:
        stream_count = len(active)
        if not stream_count:
            return limit
        floor = active[0].remaining
        for stream in active:
            if stream.remaining < floor:
                floor = stream.remaining
        boundary = engine_time + (
            floor * cycles_per_byte * stream_count
        )
        return boundary if boundary < limit else limit

    # controller.setup(engine): release whatever is due at byte zero.
    release_due()

    time = 0.0
    stall_cycles = 0.0
    stalls: List[StallEvent] = []
    entries: List[MethodInvocationLatency] = []

    costs = compiled.costs
    first_use = compiled.first_use
    for index in range(len(costs)):
        pair = first_use[index]
        if pair is not None:
            method, unit = pair
            if unit not in arrivals:
                # on_stall: demand-fetch correction.
                class_name = method.class_name
                stream = streams.get(class_name)
                if stream is None:
                    demand_fetches.append(method)
                    request(class_name, True)
                elif (
                    not stream.started
                    and stream.index < stream.count
                ):
                    demand_fetches.append(method)
                    if stream in waiting:
                        waiting.remove(stream)
                        waiting.appendleft(stream)
                # run_until_unit: completion-to-completion steps.
                while unit not in arrivals:
                    if not active:
                        raise TransferError(
                            "engine idle but unit never arrived: "
                            f"{unit}"
                        )
                    floor = active[0].remaining
                    for candidate in active:
                        if candidate.remaining < floor:
                            floor = candidate.remaining
                    step(
                        engine_time
                        + floor * cycles_per_byte * len(active)
                    )
                arrival = arrivals[unit]
                if arrival < time:
                    arrival = time
                stalls.append(
                    StallEvent(
                        method=method,
                        start=time,
                        duration=arrival - time,
                    )
                )
                stall_cycles += arrival - time
                time = arrival
            entries.append(
                MethodInvocationLatency(
                    method=method,
                    latency=time,
                    demand_fetched=method in demand_fetches,
                )
            )
        time = time + costs[index]
        while engine_time < time:
            step(next_boundary(time))

    pending_bytes = 0
    for stream in active:
        pending_bytes = pending_bytes + stream.remaining_bytes()
    queued_bytes = 0
    for stream in waiting:
        queued_bytes = queued_bytes + stream.remaining_bytes()

    return SimulationResult(
        total_cycles=time,
        execution_cycles=compiled.total_cost_basis * simulator.cpi,
        stall_cycles=stall_cycles,
        invocation_latency=entries[0].latency if entries else 0.0,
        bytes_delivered=total_delivered,
        bytes_terminated=pending_bytes + queued_bytes,
        stalls=stalls,
        controller_name=controller.name,
        latencies=_report(entries),
    )
