"""Scoreboard: issue state and hazard tracking for transfer units.

The scoreboard borrows the classic out-of-order processor structure
(CDC 6600): transfer units play the role of instructions, network
links play the role of functional units, and hazard edges play the
role of data dependences.  Each :class:`IssueItem` is one transfer
unit and moves through ``READY → ISSUED → LANDED``:

* ``READY``: the arbiter may dispatch the item to a link;
* ``ISSUED``: on the wire on one link;
* ``LANDED``: every byte of the item has arrived.

Landing is not the end of the story: a unit *retires* only once every
unit it depends on has retired too (a method unit needs its class's
global-data unit, exactly as an out-of-order core retires in
dependence order even though execution completes out of order).  The
retire time — ``max(landing, dependency retires)`` — is what the
co-simulator observes as the unit's arrival, so out-of-order landings
never let execution start before the paper's semantics allow.

Demand-fetch correction (§5.1 misprediction handling) appears here as
*hazard-priority escalation*: an escalated item sorts before every
deadline at the next arbitration round.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import TransferError
from ..transfer import TransferUnit, UnitKind

__all__ = ["ItemState", "IssueItem", "Scoreboard", "unit_board"]


class ItemState(enum.Enum):
    """Where an issue item is in its lifecycle."""

    READY = "ready"
    ISSUED = "issued"
    LANDED = "landed"


@dataclass
class IssueItem:
    """One issue item: a transfer unit plus its arbitration priority.

    Attributes:
        label: Unique scoreboard key; doubles as the stream name on
            the link engine.
        units: The item's units, delivered strictly in this order (a
            requeue after a link outage may shorten them).
        seq: Program-order sequence number (ties and sequence-ordered
            policies use it).
        deadline: Cycles by which the item should land (deadline
            arbitration); ``math.inf`` when unconstrained.
        state: Current lifecycle state.
        escalated: Demand-fetch escalation flag; sorts before every
            deadline.
        channel: Index of the link the item issued on, once issued.
        issue_time: Cycle at which the item issued, once issued.
    """

    label: str
    units: Tuple[TransferUnit, ...]
    seq: int
    deadline: float = math.inf
    state: ItemState = ItemState.READY
    escalated: bool = False
    channel: Optional[int] = None
    issue_time: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.units:
            raise TransferError(f"issue item {self.label!r} has no units")

    @property
    def size(self) -> int:
        """Total wire bytes of the item."""
        return sum(unit.size for unit in self.units)

    @property
    def class_name(self) -> str:
        """Owning class when unambiguous, else the label."""
        names = {unit.class_name for unit in self.units}
        if len(names) == 1:
            return next(iter(names))
        return self.label

    def priority_key(self) -> Tuple[int, float, int]:
        """Sort key for arbitration: escalated, then deadline, then
        program order."""
        return (0 if self.escalated else 1, self.deadline, self.seq)


@dataclass
class Scoreboard:
    """Tracks every issue item's state and every unit's hazards.

    The scoreboard is pure bookkeeping: it never touches a link.  The
    :class:`~repro.sched.engine.IssueEngine` asks it which items are
    ready, tells it what was issued and what landed, and reads back
    retire times.
    """

    items: Dict[str, IssueItem] = field(default_factory=dict)
    land_times: Dict[TransferUnit, float] = field(default_factory=dict)
    retire_times: Dict[TransferUnit, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._label_of_unit: Dict[TransferUnit, str] = {}
        self._unit_deps: Dict[TransferUnit, Tuple[TransferUnit, ...]] = {}
        self._dependents: Dict[TransferUnit, List[TransferUnit]] = {}

    # -- construction ------------------------------------------------------

    def add_item(self, item: IssueItem) -> None:
        """Register one issue item.

        Raises:
            TransferError: On a duplicate label or a unit already
                owned by another item.
        """
        if item.label in self.items:
            raise TransferError(
                f"duplicate scoreboard item label {item.label!r}"
            )
        for unit in item.units:
            if unit in self._label_of_unit:
                raise TransferError(
                    f"unit {unit} already owned by item "
                    f"{self._label_of_unit[unit]!r}"
                )
            self._label_of_unit[unit] = item.label
        self.items[item.label] = item

    def add_unit_dep(
        self, unit: TransferUnit, *deps: TransferUnit
    ) -> None:
        """Add retire hazards: ``unit`` retires only after ``deps``."""
        existing = self._unit_deps.get(unit, ())
        self._unit_deps[unit] = existing + deps
        for dep in deps:
            self._dependents.setdefault(dep, []).append(unit)

    # -- queries -----------------------------------------------------------

    def label_of(self, unit: TransferUnit) -> str:
        """The owning item's label."""
        try:
            return self._label_of_unit[unit]
        except KeyError as exc:
            raise TransferError(
                f"unit not on the scoreboard: {unit}"
            ) from exc

    def item_for_unit(self, unit: TransferUnit) -> IssueItem:
        return self.items[self.label_of(unit)]

    def retire_deps(self, unit: TransferUnit) -> Tuple[TransferUnit, ...]:
        """The units ``unit`` must wait for before it retires."""
        return self._unit_deps.get(unit, ())

    def unissued_bytes(self) -> float:
        """Bytes of items not yet dispatched to any link."""
        return float(
            sum(
                item.size
                for item in self.items.values()
                if item.state is ItemState.READY
            )
        )

    @property
    def outstanding(self) -> bool:
        """True while any item has not fully landed."""
        return any(
            item.state is not ItemState.LANDED
            for item in self.items.values()
        )

    # -- state transitions -------------------------------------------------

    def ready_items(self) -> List[IssueItem]:
        """Every ``READY`` item, best-priority first."""
        ready = [
            item
            for item in self.items.values()
            if item.state is ItemState.READY
        ]
        ready.sort(key=IssueItem.priority_key)
        return ready

    def escalate(self, label: str) -> bool:
        """Escalate an unlanded item's priority (demand correction).

        Returns:
            True if the item was newly escalated (it was ready or in
            flight and not yet flagged).
        """
        item = self.items[label]
        if item.state is ItemState.LANDED or item.escalated:
            return False
        item.escalated = True
        return True

    def mark_issued(
        self, label: str, channel: int, time: float
    ) -> None:
        item = self.items[label]
        if item.state is not ItemState.READY:
            raise TransferError(
                f"cannot issue item {label!r} in state {item.state}"
            )
        item.state = ItemState.ISSUED
        item.channel = channel
        item.issue_time = time

    def requeue(
        self, label: str, remaining: Tuple[TransferUnit, ...]
    ) -> None:
        """Return an in-flight item to ``READY`` (link outage).

        Partially delivered bytes on the dead link are lost; the
        surviving units retransmit whole on another link.
        """
        item = self.items[label]
        if item.state is not ItemState.ISSUED:
            raise TransferError(
                f"cannot requeue item {label!r} in state {item.state}"
            )
        if not remaining:
            raise TransferError(
                f"requeue of {label!r} with no remaining units"
            )
        item.units = remaining
        item.state = ItemState.READY
        item.channel = None
        item.issue_time = None

    def mark_landed(
        self, unit: TransferUnit, time: float
    ) -> List[Tuple[TransferUnit, float]]:
        """Record a unit's landing; cascade retires.

        Returns:
            Every unit retired by this landing, ``(unit, retire
            time)``, in cascade order.  The landed unit itself retires
            immediately unless a hazard dependency is still in flight.
        """
        if unit in self.land_times:
            raise TransferError(f"unit landed twice: {unit}")
        self.land_times[unit] = time
        retired: List[Tuple[TransferUnit, float]] = []
        worklist: List[TransferUnit] = [unit]
        while worklist:
            candidate = worklist.pop(0)
            if (
                candidate in self.retire_times
                or candidate not in self.land_times
            ):
                continue
            deps = self._unit_deps.get(candidate, ())
            if any(dep not in self.retire_times for dep in deps):
                continue
            retire_at = self.land_times[candidate]
            for dep in deps:
                retire_at = max(retire_at, self.retire_times[dep])
            self.retire_times[candidate] = retire_at
            retired.append((candidate, retire_at))
            worklist.extend(self._dependents.get(candidate, ()))
        label = self._label_of_unit.get(unit)
        if label is not None:
            item = self.items[label]
            if all(u in self.land_times for u in item.units):
                item.state = ItemState.LANDED
        return retired


def unit_board(
    units: Sequence[TransferUnit],
    deadlines: Optional[Sequence[float]] = None,
) -> Scoreboard:
    """One issue item per unit, plus the class retire hazards.

    Item ``seq`` is the unit's position in ``units`` and its label is
    ``"{seq}:{class}.{method or kind}"``.  A class's first global unit
    (``GLOBAL_DATA`` or ``GLOBAL_FIRST``) is a retire dependency of
    every other unit of the class: nothing of a class is usable before
    its global data, so landings may happen out of order.

    Args:
        units: Transfer units in sequence order.
        deadlines: Per-unit deadlines for deadline arbitration;
            ``None`` leaves every deadline at ``math.inf``.
    """
    leading: Dict[str, TransferUnit] = {}
    for unit in units:
        if unit.kind in (UnitKind.GLOBAL_DATA, UnitKind.GLOBAL_FIRST):
            leading.setdefault(unit.class_name, unit)
    board = Scoreboard()
    for seq, unit in enumerate(units):
        tail = (
            unit.method.method_name
            if unit.method is not None
            else unit.kind.value
        )
        board.add_item(
            IssueItem(
                label=f"{seq}:{unit.class_name}.{tail}",
                units=(unit,),
                seq=seq,
                deadline=(
                    deadlines[seq] if deadlines is not None else math.inf
                ),
            )
        )
        lead = leading.get(unit.class_name)
        if lead is not None and unit is not lead:
            board.add_unit_dep(unit, lead)
    return board
