"""The execution/transfer co-simulator.

Replays an execution trace against a transfer timeline, cycle-exactly:

* executing ``n`` bytecode instructions costs ``n × CPI`` cycles (the
  paper's §6.1 model: per-program average CPI on a 500 MHz Alpha);
* a trace segment may begin only once the transfer unit its method
  requires has arrived — otherwise execution *stalls* and the
  controller gets a chance to demand-fetch (§5.1 misprediction
  correction);
* while execution proceeds, transfer continues in the background
  (that is the whole point of non-strict execution);
* when the trace ends, any remaining transfer is terminated, exactly
  as the paper does ("if an application completes execution before all
  the methods have transferred, we terminate the remaining transfer").

The same machinery simulates the strict base case by pairing the
strict controller (whole-file units) with a strict-semantics trace.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Set

from ..errors import SimulationError
from ..program import MethodId, Program
from ..transfer import TransferController, NetworkLink
from ..vm import ExecutionTrace
from .metrics import InvocationLatencyReport

if TYPE_CHECKING:  # pragma: no cover
    from ..observe import TraceRecorder

__all__ = ["StallEvent", "SimulationResult", "Simulator", "resolve_engine"]

_ENGINES = ("reference", "batched")


def resolve_engine(engine: Optional[str]) -> str:
    """Resolve an ``engine=`` argument to a concrete engine name.

    ``None`` falls back to the ``REPRO_SIM_ENGINE`` environment
    variable, then to ``"batched"``.  The batched engine is
    cycle-exact (see :mod:`repro.core.fastsim`), so either choice
    produces identical results — only wall-clock differs.
    """
    resolved = engine or os.environ.get("REPRO_SIM_ENGINE") or "batched"
    if resolved not in _ENGINES:
        raise SimulationError(
            f"unknown simulation engine {resolved!r}; pick from {_ENGINES}"
        )
    return resolved


def _cycle_latency_report() -> InvocationLatencyReport:
    return InvocationLatencyReport(unit="cycles")


@dataclass(frozen=True)
class StallEvent:
    """Execution waited for transfer.

    Attributes:
        method: Method whose unit had not arrived.
        start: Cycle at which execution stopped.
        duration: Stall length in cycles.
    """

    method: MethodId
    start: float
    duration: float


@dataclass
class SimulationResult:
    """Outcome of one co-simulation.

    Attributes:
        total_cycles: Invocation-to-completion cycles (transfer
            remaining at completion is terminated, not waited for).
        execution_cycles: Pure compute cycles (instructions × CPI).
        stall_cycles: Cycles execution spent waiting on transfer.
        invocation_latency: Cycles until the first instruction ran.
        bytes_delivered: Bytes that arrived before completion.
        bytes_terminated: Bytes whose transfer was cut off at the end.
        stalls: Every stall, in order.
        controller_name: Which transfer methodology ran.
        latencies: Per-method first-invocation latencies (unit
            ``"cycles"``) — the simulated twin of the measured report
            :func:`repro.netserve.run_networked` produces.
    """

    total_cycles: float
    execution_cycles: float
    stall_cycles: float
    invocation_latency: float
    bytes_delivered: float
    bytes_terminated: float
    stalls: List[StallEvent] = field(default_factory=list)
    controller_name: str = ""
    latencies: InvocationLatencyReport = field(
        default_factory=_cycle_latency_report
    )

    @property
    def stall_count(self) -> int:
        return len(self.stalls)

    def normalized_to(self, baseline_cycles: float) -> float:
        """Percent of a baseline: the paper's normalized execution time."""
        if baseline_cycles <= 0:
            raise SimulationError(
                f"non-positive baseline: {baseline_cycles}"
            )
        return 100.0 * self.total_cycles / baseline_cycles


class Simulator:
    """Co-simulates one configuration.

    Args:
        program: The (possibly restructured) program being transferred.
        trace: The execution trace to replay (method ids must exist in
            ``program``).
        controller: Transfer methodology.
        link: Network link model.
        cpi: Average cycles per bytecode instruction.
        recorder: Optional :class:`repro.observe.TraceRecorder` (clock
            ``"cycles"``); when given, the run emits ``unit_arrived``,
            ``method_first_invoke``, ``stall_begin``/``stall_end``, and
            the controller's ``schedule_decision``/``demand_fetch``
            events on the simulated clock.
        engine: ``"reference"`` (the readable per-segment loop below)
            or ``"batched"`` (the event-batched hot path in
            :mod:`repro.core.fastsim` — cycle-exact, ~10× faster).
            ``None`` defers to ``REPRO_SIM_ENGINE``, default
            ``"batched"``.  Only the paper's interleaved, strict and
            parallel controllers have a batched core; any other
            controller, and every recorded run, uses the reference
            loop, so the event stream (and the recorder's zero-cost
            disabled path) is untouched.
    """

    def __init__(
        self,
        program: Program,
        trace: ExecutionTrace,
        controller: TransferController,
        link: NetworkLink,
        cpi: float,
        recorder: Optional["TraceRecorder"] = None,
        engine: Optional[str] = None,
    ) -> None:
        if cpi <= 0:
            raise SimulationError(f"CPI must be positive, got {cpi}")
        self.program = program
        self.trace = trace
        self.controller = controller
        self.link = link
        self.cpi = float(cpi)
        self.recorder = recorder
        self.engine = resolve_engine(engine)

    def run(self) -> SimulationResult:
        """Run the co-simulation to completion."""
        if self.engine == "batched" and self.recorder is None:
            from .fastsim import run_batched

            result = run_batched(self)
            if result is not None:
                return result
        engine = self.controller.build_engine(self.link)
        controller = self.controller
        recorder = self.recorder
        if recorder is not None and controller.recorder is None:
            controller.recorder = recorder
        controller.setup(engine)

        wakeup = controller.next_wakeup
        on_advance = controller.on_advance

        time = 0.0
        stall_cycles = 0.0
        stalls: List[StallEvent] = []
        latencies = _cycle_latency_report()
        invoked: Set[MethodId] = set()
        invocation_latency: Optional[float] = None

        for segment in self.trace.segments:
            unit = controller.required_unit(segment.method)
            if not engine.arrived(unit):
                controller.on_stall(engine, segment.method)
                if recorder is not None:
                    recorder.stall_begin(time, method=str(segment.method))
                arrival = engine.run_until_unit(
                    unit, wakeup=wakeup, on_advance=on_advance
                )
                arrival = max(arrival, time)
                stalls.append(
                    StallEvent(
                        method=segment.method,
                        start=time,
                        duration=arrival - time,
                    )
                )
                stall_cycles += arrival - time
                if recorder is not None:
                    recorder.stall_end(
                        arrival,
                        method=str(segment.method),
                        duration=arrival - time,
                    )
                time = arrival
            if segment.method not in invoked:
                invoked.add(segment.method)
                demand_fetched = segment.method in getattr(
                    controller, "demand_fetches", ()
                )
                latencies.record(
                    segment.method, time, demand_fetched=demand_fetched
                )
                if recorder is not None:
                    recorder.method_first_invoke(
                        time,
                        method=str(segment.method),
                        latency=time,
                        demand_fetched=demand_fetched,
                    )
            if invocation_latency is None:
                invocation_latency = time
            time += segment.instructions * self.cpi
            engine.run_until(time, wakeup=wakeup, on_advance=on_advance)

        if invocation_latency is None:
            invocation_latency = 0.0
        if recorder is not None:
            for unit, arrival in sorted(
                engine.arrival_times.items(), key=lambda item: item[1]
            ):
                recorder.unit_arrived(
                    arrival,
                    class_name=unit.class_name,
                    kind=unit.kind.value,
                    size=unit.size,
                    method=(
                        unit.method.method_name if unit.method else None
                    ),
                )
        execution_cycles = self.trace.total_instructions * self.cpi
        return SimulationResult(
            total_cycles=time,
            execution_cycles=execution_cycles,
            stall_cycles=stall_cycles,
            invocation_latency=invocation_latency,
            bytes_delivered=engine.total_delivered,
            bytes_terminated=engine.remaining_bytes,
            stalls=stalls,
            controller_name=controller.name,
            latencies=latencies,
        )
