"""``paper_sweep``: the whole-file rows of the Figure 6 grid, cold, in a fresh interpreter.

Six paper programs x {parallel(4), interleaved} whole-file transfer x
{T1, modem} x {SCG, Train, Test}: 72 grid points, from workload
generation to the rendered table, on the program's default simulation
engine.  The grid is rebuilt here from public functions so that the
benchmark's seed reaches the program only as generated inputs; with
seed 0 its rows are exactly those of ``figure6_summary()``.  The two
data-partitioned rows are left out: they double a pass that must fit,
with the other workloads, in the benchmark's time budget.

Run as a child of ``run.py``::

    PYTHONPATH=src python3 perfbench/sweep.py --seed 0 [--trace 1]
"""

from __future__ import annotations

import math
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import (
    MODEM_LINK,
    T1_LINK,
    estimate_first_use,
    generate_workload,
    order_from_profile,
    run_nonstrict,
    strict_baseline,
    synthesize_profile,
)
from repro.harness import BENCHMARK_NAMES, ResultTable
from repro.reorder import weighted_first_use

import child
from calib import SpeedLog
from instrument import instrument
from spans import Tracer
from stats import self_times

LINKS = (("T1", T1_LINK), ("modem", MODEM_LINK))
ORDERINGS = ("SCG", "Train", "Test")
CONFIGURATIONS = (
    ("Parallel File Transfer", "parallel", 4),
    ("Interleaved File Transfer", "interleaved", None),
)

#: Per-layer metrics this workload reports, from span self times.
TIMED_LAYERS = (
    "workloads.generate",
    "vm.synthesize_profile",
    "reorder.estimate_first_use",
    "reorder.order_from_profile",
    "reorder.weighted_first_use",
    "reorder.restructure",
    "transfer.controller_build",
    "core.simulate",
    "core.strict_baseline",
)
COUNTED_LAYERS = (
    "core.simulate",
    "transfer.controller_build",
    "reorder.restructure",
    "classfile.class_layout",
    "classfile.serialize",
)


def workload_seed(seed: int) -> Optional[int]:
    """Seed 0 keeps the generator's own per-program seeds (the paper grid)."""
    return None if seed == 0 else seed


def point_key(label: str, link: str, ordering: str, name: str) -> str:
    return f"{label}|{link}|{ordering}|{name}"


def _bundle(name: str, seed: int, tracer: Tracer):
    """Workload plus its SCG/Train/Test orders, as the harness builds them."""
    with tracer.span("workloads.generate"):
        workload = generate_workload(name, workload_seed(seed))
    program = workload.program
    with tracer.span("reorder.estimate_first_use"):
        scg = estimate_first_use(program)
    with tracer.span("vm.synthesize_profile"):
        train_profile = synthesize_profile(program, workload.train_trace)
    with tracer.span("reorder.order_from_profile"):
        train = order_from_profile(program, train_profile, static_order=scg)
    with tracer.span("vm.synthesize_profile"):
        test_profile = synthesize_profile(program, workload.test_trace)
    with tracer.span("reorder.order_from_profile"):
        test = order_from_profile(program, test_profile, static_order=scg)
    # The harness builds the weighted order in every bundle although
    # Figure 6 does not read it; a cold sweep pays for it.
    with tracer.span("reorder.weighted_first_use"):
        weighted_first_use(program, profile=train_profile, cpi=workload.cpi)
    return workload, {"SCG": scg, "Train": train, "Test": test}


def sweep(
    seed: int, tracer: Tracer, speed: SpeedLog
) -> Tuple[ResultTable, Dict[str, Optional[float]], List[Tuple[float, float]]]:
    """Run the grid; returns the rendered-table source, every point's value
    and the ``(start, end)`` ``perf_counter`` times of each point.

    A point that raises is recorded as ``None`` (a failed operation).
    ``speed`` is sampled after every bundle, strict baseline and point,
    and marked when the first row is complete.
    """
    bundles = {}
    for name in BENCHMARK_NAMES:
        bundles[name] = _bundle(name, seed, tracer)
        speed.sample()
    baselines: Dict[Tuple[str, str], float] = {}
    for name, (workload, _) in bundles.items():
        for link_name, link in LINKS:
            with tracer.span("core.strict_baseline"):
                base = strict_baseline(
                    workload.program, workload.test_trace, link, workload.cpi
                )
            baselines[name, link_name] = base.total_cycles
            speed.sample()
    table = ResultTable(
        key="figure6",
        title=(
            "Figure 6: Average normalized execution time (percent of "
            "strict; lower is better)"
        ),
        columns=[
            "Configuration",
            "T1 SCG",
            "T1 Train",
            "T1 Test",
            "Modem SCG",
            "Modem Train",
            "Modem Test",
        ],
    )
    points: Dict[str, Optional[float]] = {}
    times: List[Tuple[float, float]] = []
    for label, method, max_streams in CONFIGURATIONS:
        cells: List[Any] = []
        for link_name, link in LINKS:
            for ordering in ORDERINGS:
                values = []
                for name in BENCHMARK_NAMES:
                    workload, orders = bundles[name]
                    begin = time.perf_counter()
                    try:
                        result = run_nonstrict(
                            workload.program,
                            workload.test_trace,
                            orders[ordering],
                            link,
                            workload.cpi,
                            method=method,
                            max_streams=max_streams,
                        )
                        value: Optional[float] = result.normalized_to(
                            baselines[name, link_name]
                        )
                    except Exception:  # noqa: BLE001 - a failed grid point
                        value = None
                    times.append((begin, time.perf_counter()))
                    speed.sample()
                    points[point_key(label, link_name, ordering, name)] = value
                    values.append(value if value is not None else math.nan)
                cells.append(sum(values) / len(values))
        table.add_row(label, *cells)
        if not speed.marks:
            speed.mark()  # the first row of the table is complete
    return table, points, times


def run(seed: int, traced: bool, check: bool) -> Dict[str, Any]:
    tracer = Tracer(traced)
    missing = instrument(tracer) if traced else []
    cpu = time.process_time()
    speed = SpeedLog()
    table, points, times = sweep(seed, tracer, speed)
    rendered = table.render()
    speed.sample()
    # Times leave out the speed samples' own time.
    wall = speed.raw_s()
    first_row = speed.marks[0]
    result: Dict[str, Any] = {
        "wall_s": wall,
        "cpu_s": time.process_time() - cpu - speed.spent_s,
        "points": points,
        "table": rendered,
        # The table's first row: every bundle and strict baseline, then
        # the row's 36 points.
        "first_result_s": speed.raw_s(first_row),
        "first_result_factor": speed.factor(first_row),
        "op_s": [end - begin for begin, end in times],
        "work_s": speed.work_s,
        "kernel_s": speed.kernel_s,
        "speed_factor": speed.factor(),
    }
    if traced:
        result["layers"] = layer_metrics(tracer, wall, TIMED_LAYERS, COUNTED_LAYERS)
        result["missing"] = missing
        result["spans"] = tracer.chrome_events()
    return result


def layer_metrics(
    tracer: Tracer, wall: float, timed: Sequence[str], counted: Sequence[str]
) -> Dict[str, float]:
    """Self time and call count per layer, plus the wall time no span covers.

    Raises when the self times and the unattributed time do not add up
    to ``wall``.
    """
    own = self_times(tracer.spans)
    metrics = {f"{layer}_s": own.get(layer, 0.0) for layer in timed}
    metrics.update({f"{layer}_calls": float(tracer.counts.get(layer, 0)) for layer in counted})
    metrics["harness.unattributed_s"] = wall - tracer.top_level_time()
    accounted = sum(own.values()) + metrics["harness.unattributed_s"]
    if abs(accounted - wall) > 1e-6 * wall:
        raise AssertionError(
            f"self times + unattributed = {accounted:.6f}s, wall = {wall:.6f}s"
        )
    return metrics


if __name__ == "__main__":
    child.main(run)
