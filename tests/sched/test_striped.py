"""StripedController: striping wins, chaos, proofs."""

import math

import pytest

from repro.analyze import StallVerdict, analyze_transfer_plan
from repro.errors import TransferError
from repro.harness import bundle
from repro.sched import (
    LinkOutage,
    StripedController,
    run_striped,
    striped_sequence,
)
from repro.transfer import (
    MODEM_LINK,
    T1_LINK,
    build_program_plans,
    links_from_bandwidths,
)
from repro.transfer.units import TransferPolicy, UnitKind


@pytest.mark.parametrize("policy", ("deadline", "round_robin", "weighted"))
def test_striping_two_links_beats_one(policy):
    item = bundle("BIT")
    workload = item.workload
    single = run_striped(
        workload.program,
        workload.test_trace,
        item.scg,
        (MODEM_LINK,),
        workload.cpi,
        policy=policy,
    )
    double = run_striped(
        workload.program,
        workload.test_trace,
        item.scg,
        (MODEM_LINK, MODEM_LINK),
        workload.cpi,
        policy=policy,
    )
    assert double.total_cycles < single.total_cycles
    assert len(double.latencies) == len(single.latencies)


def test_heterogeneous_links_beat_their_fastest_member():
    item = bundle("Hanoi")
    workload = item.workload
    links = links_from_bandwidths((57_600, 28_800))
    fast_only = run_striped(
        workload.program,
        workload.test_trace,
        item.scg,
        (links[0],),
        workload.cpi,
    )
    both = run_striped(
        workload.program,
        workload.test_trace,
        item.scg,
        links,
        workload.cpi,
    )
    assert both.total_cycles < fast_only.total_cycles


def test_link_outage_converges_byte_identical():
    item = bundle("Hanoi")
    workload = item.workload
    links = (MODEM_LINK, MODEM_LINK)

    def controllers(outages):
        return StripedController(
            target, item.scg, links, workload.cpi, outages=outages
        )

    from repro.core import Simulator
    from repro.reorder import restructure

    target = restructure(workload.program, item.scg)
    baseline_ctrl = controllers(())
    baseline = Simulator(
        target,
        workload.test_trace,
        baseline_ctrl,
        links[0],
        workload.cpi,
    ).run()
    outage_at = baseline.total_cycles / 4.0
    chaos_ctrl = controllers((LinkOutage(outage_at, link_index=1),))
    chaos = Simulator(
        target,
        workload.test_trace,
        chaos_ctrl,
        links[0],
        workload.cpi,
    ).run()
    # The fetch converges: the exact same unit set arrives in full.
    assert baseline_ctrl._engine is not None
    assert chaos_ctrl._engine is not None
    assert set(chaos_ctrl._engine.arrival_times) == set(
        baseline_ctrl._engine.arrival_times
    )
    assert chaos.latencies.methods() == baseline.latencies.methods()
    # Retransmission costs cycles, never correctness.
    assert chaos.total_cycles >= baseline.total_cycles
    assert not chaos_ctrl._engine.channels[1].alive


def test_validation_errors():
    item = bundle("Hanoi")
    workload = item.workload
    with pytest.raises(TransferError, match="unknown striping policy"):
        StripedController(
            workload.program, item.scg, (T1_LINK,), workload.cpi,
            policy="psychic",
        )
    with pytest.raises(TransferError, match="at least one link"):
        StripedController(
            workload.program, item.scg, (), workload.cpi
        )


def test_striped_sequence_deadlines():
    item = bundle("Hanoi")
    workload = item.workload
    plans = build_program_plans(
        workload.program, TransferPolicy.NON_STRICT
    )
    entries = striped_sequence(plans, item.scg, workload.cpi)
    assert [entry.seq for entry in entries] == list(range(len(entries)))
    by_class = {}
    for entry in entries:
        if entry.unit.kind == UnitKind.METHOD:
            method = entry.unit.method
            if method in item.scg:
                expected = (
                    item.scg.entry_for(method).instructions_before
                    * workload.cpi
                )
                assert entry.deadline == expected
            else:
                assert math.isinf(entry.deadline)
            lead = by_class.get(entry.unit.class_name)
            if lead is not None:
                # Class global unit deadline = earliest method need.
                assert lead.deadline <= entry.deadline
        elif entry.unit.kind == UnitKind.GLOBAL_DATA:
            by_class[entry.unit.class_name] = entry
    with pytest.raises(TransferError):
        striped_sequence(plans, item.scg, 0.0)


def test_escalation_toggle_controls_demand_correction():
    item = bundle("BIT")
    workload = item.workload
    links = (MODEM_LINK, MODEM_LINK)
    corrected = run_striped(
        workload.program,
        workload.test_trace,
        item.test,
        links,
        workload.cpi,
        escalate=True,
    )
    uncorrected = run_striped(
        workload.program,
        workload.test_trace,
        item.test,
        links,
        workload.cpi,
        escalate=False,
    )
    # Both complete; escalation may only help.
    assert corrected.total_cycles <= uncorrected.total_cycles


def test_striped_analyzer_verdicts_hold_in_simulation():
    item = bundle("BIT")
    workload = item.workload
    links = links_from_bandwidths((57_600, 28_800))
    report = analyze_transfer_plan(
        workload.program,
        item.scg,
        links[0],
        workload.cpi,
        methodology="striped",
        trace=workload.test_trace,
        links=links,
    )
    result = run_striped(
        workload.program,
        workload.test_trace,
        item.scg,
        links,
        workload.cpi,
        policy="deadline",
        escalate=False,  # the analyzer models escalation-free runs
    )
    stalled = {stall.method for stall in result.stalls}
    proven_quiet = {
        method
        for method, verdict in report.verdicts.items()
        if verdict.verdict is StallVerdict.PROVEN_NO_STALL
    }
    proven_stall = {
        method
        for method, verdict in report.verdicts.items()
        if verdict.verdict is StallVerdict.PROVEN_STALL
    }
    assert proven_quiet, "striped analyzer proved nothing"
    assert not (proven_quiet & stalled)
    assert proven_stall <= stalled
