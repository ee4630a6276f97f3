"""Multi-link striped transfer: the scoreboard engine's controller.

:class:`StripedController` plugs into the co-simulator exactly like
the paper's parallel and interleaved controllers, but builds a
multi-link :class:`~repro.sched.engine.IssueEngine` instead of a
single :class:`~repro.transfer.streams.StreamEngine`.  Every policy
issues one transfer unit per idle link; three arbitration policies are
supported:

* ``"deadline"`` — out-of-order unit striping, earliest deadline
  first: each unit's deadline is its method's predicted first-use
  time (``instructions_before × CPI``, the first-use order's
  annotation built for exactly this purpose).
* ``"round_robin"`` — sequence-ordered units dealt round-robin
  across links.
* ``"weighted"`` — sequence-ordered units, each issued to the link
  that lands it earliest (weighted by bandwidth).

Mispredictions are handled by *hazard-priority escalation*: the
stalled method's unit (and its class's global unit) jump to the top of
the next arbitration round — the scoreboard's generalisation of §5.1's
front-of-queue demand fetch.  The paper's single-link methodologies
themselves are :class:`~repro.transfer.ParallelController` and
:class:`~repro.transfer.InterleavedController`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..errors import TransferError
from ..program import MethodId, Program
from ..reorder import FirstUseOrder
from ..transfer import (
    NetworkLink,
    TransferController,
    TransferUnit,
)
from ..transfer.interleaved import build_interleaved_file
from ..transfer.streams import StreamEngine
from ..transfer.units import (
    ClassTransferPlan,
    TransferPolicy,
    UnitKind,
    build_program_plans,
)
from .engine import IssueEngine, LinkOutage
from .scoreboard import unit_board

if TYPE_CHECKING:  # pragma: no cover
    from ..core.simulation import SimulationResult
    from ..observe import TraceRecorder
    from ..vm import ExecutionTrace

__all__ = [
    "POLICIES",
    "StripedEntry",
    "StripedController",
    "striped_sequence",
    "run_striped",
]

#: The arbitration policies :class:`StripedController` accepts.
POLICIES = ("deadline", "round_robin", "weighted")

_LINK_CHOICE_OF_POLICY = {
    "deadline": "earliest_finish",
    "round_robin": "round_robin",
    "weighted": "earliest_finish",
}


@dataclass(frozen=True)
class StripedEntry:
    """One transfer unit with its striping priority.

    Attributes:
        unit: The unit.
        deadline: Predicted first-use time in cycles (``math.inf``
            for units no traced method needs).
        seq: Position in the virtual interleaved file (sequence-
            ordered policies, and the deadline tie-break).
    """

    unit: TransferUnit
    deadline: float
    seq: int

    def priority_key(self) -> Tuple[float, int]:
        return (self.deadline, self.seq)


def striped_sequence(
    plans: Dict[str, ClassTransferPlan],
    order: FirstUseOrder,
    cpi: float,
) -> List[StripedEntry]:
    """Annotate the interleaved unit sequence with issue deadlines.

    Method units take their method's predicted first-use time
    (``instructions_before × CPI``); each class's leading global unit
    takes the earliest deadline among the class's method units (it
    must retire before any of them); trailing / unpredicted units get
    ``math.inf``.
    """
    if cpi <= 0:
        raise TransferError(f"CPI must be positive, got {cpi}")
    sequence = build_interleaved_file(plans, order)
    deadlines: List[float] = []
    for unit in sequence:
        if unit.kind == UnitKind.METHOD and unit.method is not None:
            if unit.method in order:
                entry = order.entry_for(unit.method)
                deadlines.append(entry.instructions_before * cpi)
            else:
                deadlines.append(math.inf)
        else:
            deadlines.append(math.inf)
    earliest_of_class: Dict[str, float] = {}
    for unit, deadline in zip(sequence, deadlines):
        if unit.kind == UnitKind.METHOD:
            current = earliest_of_class.get(unit.class_name, math.inf)
            earliest_of_class[unit.class_name] = min(current, deadline)
    entries: List[StripedEntry] = []
    for index, (unit, deadline) in enumerate(zip(sequence, deadlines)):
        if unit.kind in (UnitKind.GLOBAL_DATA, UnitKind.GLOBAL_FIRST):
            deadline = earliest_of_class.get(unit.class_name, math.inf)
        entries.append(
            StripedEntry(unit=unit, deadline=deadline, seq=index)
        )
    return entries


class StripedController(TransferController):
    """Scoreboard-scheduled transfer across one or more links."""

    def __init__(
        self,
        program: Program,
        order: FirstUseOrder,
        links: Sequence[NetworkLink],
        cpi: float,
        policy: str = "deadline",
        data_partitioning: bool = False,
        outages: Sequence[LinkOutage] = (),
        escalate: bool = True,
    ) -> None:
        if policy not in POLICIES:
            raise TransferError(
                f"unknown striping policy {policy!r}; known: {POLICIES}"
            )
        if not links:
            raise TransferError(
                "StripedController needs at least one link"
            )
        unit_policy = (
            TransferPolicy.DATA_PARTITIONED
            if data_partitioning
            else TransferPolicy.NON_STRICT
        )
        self.program = program
        self.order = order
        self.links: Tuple[NetworkLink, ...] = tuple(links)
        self.cpi = float(cpi)
        self.policy = policy
        self.escalate = escalate
        self.outages: Tuple[LinkOutage, ...] = tuple(outages)
        self.name = f"striped-{policy}x{len(self.links)}"
        self.plans: Dict[str, ClassTransferPlan] = build_program_plans(
            program, unit_policy
        )
        self.demand_fetches: List[MethodId] = []
        self._engine: Optional[IssueEngine] = None

    # -- controller interface ---------------------------------------------

    def build_engine(self, link: NetworkLink) -> StreamEngine:
        entries = striped_sequence(self.plans, self.order, self.cpi)
        board = unit_board(
            [entry.unit for entry in entries],
            (
                [entry.deadline for entry in entries]
                if self.policy == "deadline"
                else None
            ),
        )
        engine = IssueEngine(
            self.links,
            board,
            link_choice=_LINK_CHOICE_OF_POLICY[self.policy],
            outages=self.outages,
            recorder=self.recorder,
        )
        self._engine = engine
        # The simulator's `link` argument is links[0]; the facade
        # satisfies the same protocol as a StreamEngine.
        return engine  # type: ignore[return-value]

    def setup(self, engine: StreamEngine) -> None:
        issue_engine = self._issue_engine(engine)
        issue_engine.recorder = self.recorder
        issue_engine.dispatch()

    def required_unit(self, method_id: MethodId) -> TransferUnit:
        plan = self.plans.get(method_id.class_name)
        if plan is None:
            raise TransferError(
                f"no transfer plan for class {method_id.class_name!r}"
            )
        return plan.method_unit(method_id.method_name)

    def next_wakeup(self, engine: StreamEngine) -> Optional[float]:
        # Everything is event-driven off unit completions; no clock
        # wake-ups are needed (mirrors the parallel controller).
        return None

    def on_advance(self, engine: StreamEngine) -> None:
        # The issue engine dispatches internally at every boundary.
        return None

    def on_stall(self, engine: StreamEngine, method_id: MethodId) -> None:
        issue_engine = self._issue_engine(engine)
        if self.escalate:
            self._escalate_stall(issue_engine, method_id)

    # -- misprediction correction -----------------------------------------

    def _escalate_stall(
        self, engine: IssueEngine, method_id: MethodId
    ) -> None:
        """Hazard-priority escalation: the stalled method's unit and
        the units it retires after jump the next arbitration round."""
        board = engine.scoreboard
        try:
            needed = self.required_unit(method_id)
        except TransferError:
            return
        escalated = [
            unit
            for unit in (needed, *board.retire_deps(needed))
            if board.escalate(board.label_of(unit))
        ]
        if not escalated:
            return
        self.demand_fetches.append(method_id)
        self._demand_event(engine, method_id)
        engine.rebalance_event(
            "demand_escalation",
            method=str(method_id),
            items=len(escalated),
        )
        engine.dispatch()

    def _demand_event(
        self, engine: IssueEngine, method_id: MethodId
    ) -> None:
        if self.recorder is not None:
            self.recorder.demand_fetch(
                engine.time, method=str(method_id)
            )

    # -- plumbing ----------------------------------------------------------

    def _issue_engine(self, engine: StreamEngine) -> IssueEngine:
        if not isinstance(engine, IssueEngine):
            raise TransferError(
                "StripedController must drive the IssueEngine it "
                "built (got a bare StreamEngine)"
            )
        return engine


def run_striped(
    program: Program,
    trace: "ExecutionTrace",
    order: FirstUseOrder,
    links: Sequence[NetworkLink],
    cpi: float,
    policy: str = "deadline",
    data_partitioning: bool = False,
    outages: Sequence[LinkOutage] = (),
    escalate: bool = True,
    restructure: bool = True,
    recorder: Optional["TraceRecorder"] = None,
) -> "SimulationResult":
    """Co-simulate one striped configuration end to end.

    The multi-link twin of :func:`repro.core.run_nonstrict`: the
    program is restructured into first-use order (unless
    ``restructure=False``), a :class:`StripedController` is built
    over the link set, and the co-simulator's reference loop replays
    the trace (the batched engine has no multi-link core).

    Returns:
        The :class:`repro.core.SimulationResult`.
    """
    from ..core.simulation import Simulator
    from ..reorder import restructure as apply_restructure

    target = (
        apply_restructure(program, order) if restructure else program
    )
    controller = StripedController(
        target,
        order,
        links,
        cpi,
        policy=policy,
        data_partitioning=data_partitioning,
        outages=outages,
        escalate=escalate,
    )
    simulator = Simulator(
        target,
        trace,
        controller,
        links[0],
        cpi,
        recorder=recorder,
    )
    return simulator.run()
