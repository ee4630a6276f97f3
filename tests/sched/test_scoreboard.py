"""Scoreboard unit tests: states, hazards, retirement, escalation."""

import math

import pytest

from repro.errors import TransferError
from repro.program import MethodId
from repro.sched import IssueItem, ItemState, Scoreboard
from repro.transfer import (
    TransferUnit,
    UnitKind,
    links_from_bandwidths,
)


def _global(name, size=100):
    return TransferUnit(
        kind=UnitKind.GLOBAL_DATA, class_name=name, size=size
    )


def _method(name, method, size=50):
    return TransferUnit(
        kind=UnitKind.METHOD,
        class_name=name,
        size=size,
        method=MethodId(name, method),
    )


def _board():
    board = Scoreboard()
    g = _global("A")
    m = _method("A", "run")
    board.add_item(IssueItem(label="g", units=(g,), seq=0))
    board.add_item(IssueItem(label="m", units=(m,), seq=1))
    board.add_unit_dep(m, g)
    return board, g, m


def test_item_needs_units():
    with pytest.raises(TransferError):
        IssueItem(label="empty", units=(), seq=0)


def test_duplicate_label_and_unit_rejected():
    board, g, m = _board()
    with pytest.raises(TransferError):
        board.add_item(IssueItem(label="g", units=(_global("B"),), seq=2))
    with pytest.raises(TransferError):
        board.add_item(IssueItem(label="again", units=(g,), seq=3))


def test_lifecycle_and_unissued_bytes():
    board, g, m = _board()
    assert board.unissued_bytes() == 150.0
    assert board.outstanding
    ready = board.ready_items()
    assert [item.label for item in ready] == ["g", "m"]
    board.mark_issued("g", channel=0, time=1.0)
    assert board.items["g"].state is ItemState.ISSUED
    assert board.unissued_bytes() == 50.0
    with pytest.raises(TransferError):
        board.mark_issued("g", channel=1, time=2.0)


def test_retire_cascade_waits_for_dependencies():
    board, g, m = _board()
    board.mark_issued("g", 0, 0.0)
    board.mark_issued("m", 1, 0.0)
    # Method lands first: it must NOT retire before its global data.
    assert board.mark_landed(m, 10.0) == []
    retired = board.mark_landed(g, 25.0)
    assert retired == [(g, 25.0), (m, 25.0)]
    assert board.retire_times[m] == 25.0
    assert not board.outstanding


def test_retire_in_order_is_immediate():
    board, g, m = _board()
    board.mark_issued("g", 0, 0.0)
    board.mark_issued("m", 1, 0.0)
    assert board.mark_landed(g, 5.0) == [(g, 5.0)]
    assert board.mark_landed(m, 9.0) == [(m, 9.0)]


def test_double_landing_rejected():
    board, g, m = _board()
    board.mark_issued("g", 0, 0.0)
    board.mark_landed(g, 5.0)
    with pytest.raises(TransferError):
        board.mark_landed(g, 6.0)


def test_escalation_overrides_watermark_and_priority():
    board = Scoreboard()
    board.add_item(
        IssueItem(
            label="urgent",
            units=(_global("A"),),
            seq=5,
            deadline=9000.0,
        )
    )
    board.add_item(
        IssueItem(
            label="early", units=(_global("B"),), seq=0, deadline=1.0
        )
    )
    assert board.escalate("urgent") is True
    assert board.escalate("urgent") is False  # already escalated
    ready = board.ready_items()
    # Escalation beats every deadline.
    assert [item.label for item in ready] == ["urgent", "early"]


def test_requeue_returns_item_to_ready():
    board, g, m = _board()
    board.mark_issued("m", 1, 3.0)
    replacement = _method("A", "run", size=50)
    board.requeue("m", (replacement,))
    item = board.items["m"]
    assert item.state is ItemState.READY
    assert item.channel is None and item.issue_time is None
    with pytest.raises(TransferError):
        board.requeue("m", (replacement,))  # not issued any more
    board.mark_issued("m", 0, 4.0)
    with pytest.raises(TransferError):
        board.requeue("m", ())  # nothing left to send


def test_label_lookup():
    board, g, m = _board()
    assert board.label_of(g) == "g"
    assert board.item_for_unit(m).label == "m"
    with pytest.raises(TransferError):
        board.label_of(_global("Z"))


def test_priority_key_ordering():
    normal = IssueItem(label="a", units=(_global("A"),), seq=2)
    dated = IssueItem(
        label="b", units=(_global("B"),), seq=9, deadline=100.0
    )
    hot = IssueItem(
        label="c", units=(_global("C"),), seq=99, escalated=True
    )
    ordered = sorted([normal, dated, hot], key=IssueItem.priority_key)
    assert [item.label for item in ordered] == ["c", "b", "a"]
    assert normal.deadline == math.inf


def test_links_from_bandwidths_validation():
    links = links_from_bandwidths((57_600, 28_800))
    assert [link.name for link in links] == [
        "link0@57600bps",
        "link1@28800bps",
    ]
    assert links[0].cycles_per_byte < links[1].cycles_per_byte
    with pytest.raises(TransferError):
        links_from_bandwidths(())
    with pytest.raises(TransferError):
        links_from_bandwidths((57_600, 0))
