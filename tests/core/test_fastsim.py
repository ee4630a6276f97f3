"""Batched engine equivalence: bit-identical to the reference.

The contract of :mod:`repro.core.fastsim` is *exact* replication —
every cycle count, stall boundary, and per-method first-invocation
latency must equal the reference simulator's floats bit for bit, not
approximately.  All comparisons below use ``==`` on raw floats on
purpose.
"""

import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import compile_source
from repro.core import run_nonstrict, run_strict
from repro.core.simulation import resolve_engine
from repro.errors import SimulationError
from repro.harness import BENCHMARK_NAMES, bundle
from repro.observe import TraceRecorder
from repro.reorder import estimate_first_use
from repro.transfer import MODEM_LINK, T1_LINK
from repro.vm import record_run
from repro.workloads import figure1_program


def _key(result):
    """Every observable field of a SimulationResult, exactly."""
    return (
        result.total_cycles,
        result.execution_cycles,
        result.stall_cycles,
        result.invocation_latency,
        result.bytes_delivered,
        result.bytes_terminated,
        result.controller_name,
        tuple(
            (stall.method, stall.start, stall.duration)
            for stall in result.stalls
        ),
        tuple(
            (entry.method, entry.latency, entry.demand_fetched)
            for entry in result.latencies.entries
        ),
    )


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
@pytest.mark.parametrize("method", ["parallel", "interleaved"])
@pytest.mark.parametrize("ordering", ["SCG", "Train"])
def test_engine_equivalence(name, method, ordering):
    item = bundle(name)
    workload = item.workload
    order = item.order(ordering)
    kwargs = dict(
        method=method,
        max_streams=4 if method == "parallel" else None,
    )
    reference = run_nonstrict(
        workload.program,
        workload.test_trace,
        order,
        T1_LINK,
        workload.cpi,
        engine="reference",
        **kwargs,
    )
    batched = run_nonstrict(
        workload.program,
        workload.test_trace,
        order,
        T1_LINK,
        workload.cpi,
        engine="batched",
        **kwargs,
    )
    assert _key(reference) == _key(batched)


def test_data_partitioned_equivalence():
    item = bundle(BENCHMARK_NAMES[0])
    workload = item.workload
    for method in ("parallel", "interleaved"):
        keys = [
            _key(
                run_nonstrict(
                    workload.program,
                    workload.test_trace,
                    item.order("Test"),
                    MODEM_LINK,
                    workload.cpi,
                    method=method,
                    max_streams=4 if method == "parallel" else None,
                    data_partitioning=True,
                    engine=engine,
                )
            )
            for engine in ("reference", "batched")
        ]
        assert keys[0] == keys[1]


def test_strict_equivalence():
    program = figure1_program()
    _, recorder = record_run(program)
    keys = [
        _key(
            run_strict(
                program, recorder.trace, T1_LINK, 30.0, engine=engine
            )
        )
        for engine in ("reference", "batched")
    ]
    assert keys[0] == keys[1]


def test_batched_run_does_not_import_numpy():
    """The batched engine is pure Python: numpy would add ~13 MB RSS."""
    code = (
        "import sys\n"
        "from repro.core import run_nonstrict\n"
        "from repro.reorder import estimate_first_use\n"
        "from repro.transfer import T1_LINK\n"
        "from repro.vm import record_run\n"
        "from repro.workloads import figure1_program\n"
        "program = figure1_program()\n"
        "_, recorder = record_run(program)\n"
        "run_nonstrict(program, recorder.trace,"
        " estimate_first_use(program), T1_LINK, 30.0,"
        " method='parallel', engine='batched')\n"
        "assert 'repro.core.fastsim' in sys.modules\n"
        "print('numpy' in sys.modules)\n"
    )
    output = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert output.strip() == "False"


def test_recorder_runs_use_reference_loop():
    """A recorder forces the reference path: event streams must exist
    and results must match a recorder-less batched run exactly."""
    program = figure1_program()
    _, vm_recorder = record_run(program)
    order = estimate_first_use(program)
    recorder = TraceRecorder(clock="cycles")
    recorded = run_nonstrict(
        program,
        vm_recorder.trace,
        order,
        T1_LINK,
        30.0,
        method="parallel",
        recorder=recorder,
        engine="batched",
    )
    assert len(recorder.events) > 0
    batched = run_nonstrict(
        program,
        vm_recorder.trace,
        order,
        T1_LINK,
        30.0,
        method="parallel",
        engine="batched",
    )
    assert _key(recorded) == _key(batched)


def test_engine_resolution(monkeypatch):
    monkeypatch.delenv("REPRO_SIM_ENGINE", raising=False)
    assert resolve_engine(None) == "batched"
    assert resolve_engine("reference") == "reference"
    monkeypatch.setenv("REPRO_SIM_ENGINE", "reference")
    assert resolve_engine(None) == "reference"
    # Explicit argument beats the environment.
    assert resolve_engine("batched") == "batched"
    with pytest.raises(SimulationError, match="unknown simulation"):
        resolve_engine("warp")
    monkeypatch.setenv("REPRO_SIM_ENGINE", "warp")
    with pytest.raises(SimulationError, match="unknown simulation"):
        resolve_engine(None)


def test_config_cache_reused_across_links():
    """The batched config cache is keyed on order identity and shared
    across links (the schedule ignores the link)."""
    item = bundle(BENCHMARK_NAMES[2])
    workload = item.workload
    workload.program.__dict__.pop("_batched_config_cache", None)
    for link in (T1_LINK, MODEM_LINK):
        run_nonstrict(
            workload.program,
            workload.test_trace,
            item.order("SCG"),
            link,
            workload.cpi,
            method="parallel",
            max_streams=4,
            engine="batched",
        )
    cache = workload.program.__dict__["_batched_config_cache"]
    assert len(cache) == 1  # one config entry served both links


_SNIPPETS = st.sampled_from(
    [
        "var x = 0; while (x < 8) { x = x + 1; helper(); } print(x);",
        "G.x = 2; helper(); print(G.x * 3); helper();",
        "var a = 1; if (a < 5) { helper(); } print(a);",
        "helper(); helper(); print(9);",
    ]
)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(body=_SNIPPETS, cpi=st.sampled_from([1.0, 12.5, 30.0, 77.0]))
def test_property_random_programs_equivalent(body, cpi):
    """Random programs, fresh traces: both engines agree exactly."""
    source = (
        f"class Main {{ func main() {{ {body} }} "
        "func helper() { var t = 3; print(t); } } "
        "class G { global x = 3; }"
    )
    program = compile_source(source)
    _, recorder = record_run(program)
    order = estimate_first_use(program)
    for method in ("parallel", "interleaved"):
        keys = [
            _key(
                run_nonstrict(
                    program,
                    recorder.trace,
                    order,
                    MODEM_LINK,
                    cpi,
                    method=method,
                    engine=engine,
                )
            )
            for engine in ("reference", "batched")
        ]
        assert keys[0] == keys[1]
