"""High-level API: configure and run one non-strict experiment.

This is the façade most users want::

    from repro import (
        figure1_program, record_run, estimate_first_use, T1_LINK,
    )
    from repro.core import run_nonstrict, run_strict, strict_baseline

    program = figure1_program()
    _, recorder = record_run(program)
    order = estimate_first_use(program)
    result = run_nonstrict(
        program, recorder.trace, order, T1_LINK, cpi=30,
        method="interleaved",
    )
    base = strict_baseline(program, recorder.trace, T1_LINK, cpi=30)
    print(result.normalized_to(base.total_cycles))
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from ..errors import SimulationError
from ..program import Program
from ..reorder import FirstUseOrder
from ..reorder import restructure as apply_restructure
from ..transfer import (
    InterleavedController,
    NetworkLink,
    ParallelController,
    StrictSequentialController,
    TransferController,
)
from ..vm import ExecutionTrace
from .simulation import SimulationResult, Simulator, resolve_engine

if TYPE_CHECKING:  # pragma: no cover
    from ..observe import TraceRecorder

__all__ = ["run_nonstrict", "run_strict"]

_METHODS = ("parallel", "interleaved")

_ConfigKey = Tuple[str, Optional[int], bool, bool]
_ConfigEntry = Tuple[
    FirstUseOrder, _ConfigKey, Program, TransferController
]


def _build_controller(
    target: Program,
    order: FirstUseOrder,
    link: NetworkLink,
    cpi: float,
    method: str,
    max_streams: Optional[int],
    data_partitioning: bool,
) -> TransferController:
    if method == "parallel":
        return ParallelController(
            target,
            order,
            link,
            cpi,
            max_streams=max_streams,
            data_partitioning=data_partitioning,
        )
    return InterleavedController(
        target, order, data_partitioning=data_partitioning
    )


def _cached_config(
    program: Program,
    order: FirstUseOrder,
    link: NetworkLink,
    cpi: float,
    method: str,
    max_streams: Optional[int],
    data_partitioning: bool,
    restructure: bool,
) -> Tuple[Program, TransferController]:
    """Reuse (restructured program, controller) pairs across runs.

    Only the batched engine takes this path: its specialized cores keep
    all per-run state locally, so a controller is reusable, and the
    schedule builder ignores the link, so one cached pair serves every
    link × CPI sweep point.  Keyed on order *identity* (orders are
    built once per workload and reused) plus the config tuple; the
    cache lives on the program object so it dies with the program.
    """
    cache: List[_ConfigEntry] = program.__dict__.setdefault(
        "_batched_config_cache", []
    )
    key: _ConfigKey = (
        method, max_streams, data_partitioning, restructure
    )
    for cached_order, cached_key, target, controller in cache:
        if cached_order is order and cached_key == key:
            return target, controller
    target = (
        apply_restructure(program, order) if restructure else program
    )
    controller = _build_controller(
        target, order, link, cpi, method, max_streams, data_partitioning
    )
    cache.append((order, key, target, controller))
    return target, controller


def run_nonstrict(
    program: Program,
    trace: ExecutionTrace,
    order: FirstUseOrder,
    link: NetworkLink,
    cpi: float,
    method: str = "interleaved",
    max_streams: Optional[int] = None,
    data_partitioning: bool = False,
    restructure: bool = True,
    recorder: Optional["TraceRecorder"] = None,
    engine: Optional[str] = None,
) -> SimulationResult:
    """Simulate non-strict execution of one configuration.

    Args:
        program: The program (original layout; restructured internally
            unless ``restructure=False``).
        trace: Execution trace to replay (from any layout — method
            identity is layout-invariant).
        order: First-use order guiding restructuring and scheduling.
        link: Network link model.
        cpi: Average cycles per bytecode instruction.
        method: ``"parallel"`` or ``"interleaved"``.
        max_streams: Parallel-only concurrent stream limit
            (None = unlimited).
        data_partitioning: Split global data into GMDs (§7.3).
        restructure: Reorder methods/classes into first-use order
            first (the paper always does; disable only for ablation).
        recorder: Optional :class:`repro.observe.TraceRecorder`
            collecting the run's event stream on the cycle clock.
        engine: ``"reference"`` or ``"batched"`` (cycle-exact fast
            path; see :mod:`repro.core.fastsim`); ``None`` defers to
            ``REPRO_SIM_ENGINE``, default ``"batched"``.

    Returns:
        The :class:`~repro.core.simulation.SimulationResult`.
    """
    if method not in _METHODS:
        raise SimulationError(
            f"unknown transfer method {method!r}; pick from {_METHODS}"
        )
    resolved_engine = resolve_engine(engine)
    if resolved_engine == "batched" and recorder is None:
        target, controller = _cached_config(
            program,
            order,
            link,
            cpi,
            method,
            max_streams,
            data_partitioning,
            restructure,
        )
    else:
        target = (
            apply_restructure(program, order) if restructure else program
        )
        controller = _build_controller(
            target,
            order,
            link,
            cpi,
            method,
            max_streams,
            data_partitioning,
        )
    simulator = Simulator(
        target,
        trace,
        controller,
        link,
        cpi,
        recorder=recorder,
        engine=resolved_engine,
    )
    return simulator.run()


def run_strict(
    program: Program,
    trace: ExecutionTrace,
    link: NetworkLink,
    cpi: float,
    recorder: Optional["TraceRecorder"] = None,
    engine: Optional[str] = None,
) -> SimulationResult:
    """Simulate the strict base case (sequential whole-file transfer).

    Note that the paper's headline "strict" *total* (Table 3) is the
    arithmetic sum of full transfer and execution; use
    :func:`repro.core.metrics.strict_baseline` for that.  This
    simulation shows what sequential strict transfer with on-demand
    execution actually does — useful for ablations.
    """
    controller = StrictSequentialController(program)
    simulator = Simulator(
        program,
        trace,
        controller,
        link,
        cpi,
        recorder=recorder,
        engine=engine,
    )
    return simulator.run()
