"""``traced_dev``: a developer's loop, in a fresh interpreter.

First two Mini programs with a known answer are compiled (or built),
verified and run on the VM under ``record_run``: a Towers-of-Hanoi
applet, whose move count is ``2**rings - 1``, and
``fibonacci_program(n)``.  Then the six paper programs are simulated
with a ``TraceRecorder`` attached (Train order, {parallel(4),
interleaved} x {T1, modem}) and each recorder is exported with
``chrome_trace_json``.

Tracing forces the reference simulator and VM instruments force
reference dispatch, so this workload uses ``core`` and ``vm``
differently from ``paper_sweep``; it is also the only one that runs
``lang``, ``linker``, VM interpretation and ``observe``.

Run as a child of ``run.py``::

    PYTHONPATH=src python3 perfbench/devloop.py --seed 0 [--trace 1] [--check]
"""

from __future__ import annotations

import itertools
import time
from typing import Any, Dict, List, Sequence, Tuple

from repro import (
    MODEM_LINK,
    T1_LINK,
    compile_source,
    estimate_first_use,
    fibonacci_program,
    generate_workload,
    order_from_profile,
    record_run,
    run_nonstrict,
    synthesize_profile,
)
from repro.harness import BENCHMARK_NAMES
from repro.linker import verify_class
from repro.observe import TraceRecorder, chrome_trace_json

import child
from calib import SpeedLog
from instrument import instrument
from spans import Tracer
from sweep import layer_metrics, workload_seed

LINKS = (("T1", T1_LINK), ("modem", MODEM_LINK))
METHODS = (("parallel", 4), ("interleaved", None))

HANOI_SOURCE = """
class Applet {
    global moves = 0;

    func main() {
        Board.setup();
        move(%d, %d, %d, %d);
        Board.show(Applet.moves);
    }

    func move(n, src, dst, via) {
        if (n <= 0) { return; }
        move(n - 1, src, via, dst);
        Applet.moves = Applet.moves + 1;
        move(n - 1, via, dst, src);
    }
}

class Board {
    global shown = 0;

    func setup() {
        print("hanoi");
    }

    func show(moves) {
        Board.shown = moves;
        print(moves);
    }
}
"""

TIMED_LAYERS = (
    "lang.compile_source",
    "linker.verify_class",
    "vm.record_run",
    "workloads.generate",
    "reorder.estimate_first_use",
    "vm.synthesize_profile",
    "reorder.order_from_profile",
    "reorder.restructure",
    "transfer.controller_build",
    "core.simulate_traced",
    "observe.chrome_export",
)
COUNTED_LAYERS = (
    "core.simulate_traced",
    "transfer.controller_build",
    "reorder.restructure",
    "classfile.class_layout",
    "classfile.serialize",
)


#: Mini program sizes.  Fixed, so that every seed does the same VM work.
HANOI_RINGS = 11
FIBONACCI_N = 18


def hanoi_source(seed: int) -> str:
    """The applet for a seed: the seed only relabels the three pegs."""
    pegs = list(itertools.permutations((1, 2, 3)))[seed % 6]
    return HANOI_SOURCE % (HANOI_RINGS, *pegs)


def config_key(name: str, method: str, link: str) -> str:
    return f"{name}|{method}|{link}"


def run(seed: int, traced: bool, check: bool) -> Dict[str, Any]:
    tracer = Tracer(traced)
    missing = instrument(tracer) if traced else []
    cpu = time.process_time()
    speed = SpeedLog()
    # One operation per Mini program (build, verify, run) and per traced
    # configuration (simulate, export): their wall times.
    op_s: List[float] = []

    instructions = 0
    mini: Dict[str, Any] = {}
    for label, field in (("hanoi", ("Applet", "moves")), ("fibonacci", ("Fib", "result"))):
        begin = time.perf_counter()
        if label == "hanoi":
            with tracer.span("lang.compile_source"):
                program = compile_source(hanoi_source(seed))
        else:
            program = fibonacci_program(FIBONACCI_N)
        for classfile in program.classes:
            with tracer.span("linker.verify_class"):
                verify_class(classfile)
        with tracer.span("vm.record_run"):
            result, _ = record_run(program)
        instructions += result.instructions_executed
        mini[label] = result.global_value(*field)
        op_s.append(time.perf_counter() - begin)
        speed.sample()

    cycles: Dict[str, float] = {}
    events = 0
    export_bytes = 0
    bundles = {}
    for name in BENCHMARK_NAMES:
        workload, train = bundles[name] = train_bundle(name, seed, tracer)
        speed.sample()
        program = workload.program
        for method, max_streams in METHODS:
            for link_name, link in LINKS:
                begin = time.perf_counter()
                recorder = TraceRecorder(clock="cycles")
                simulated = run_nonstrict(
                    program,
                    workload.test_trace,
                    train,
                    link,
                    workload.cpi,
                    method=method,
                    max_streams=max_streams,
                    recorder=recorder,
                )
                events += len(recorder)
                with tracer.span("observe.chrome_export"):
                    export_bytes += len(chrome_trace_json(recorder))
                cycles[config_key(name, method, link_name)] = simulated.total_cycles
                op_s.append(time.perf_counter() - begin)
                speed.sample()
        if not speed.marks:
            speed.mark()  # the first program's traces are exported
    speed.sample()
    # Times leave out the speed samples' own time.
    wall = speed.raw_s()

    result_record: Dict[str, Any] = {
        "wall_s": wall,
        "cpu_s": time.process_time() - cpu - speed.spent_s,
        "work_s": speed.work_s,
        "kernel_s": speed.kernel_s,
        "speed_factor": speed.factor(),
        # The first program's traces, all exported: a single Mini
        # program takes too short a time to measure steadily.  Scaled
        # with the samples taken until then.
        "first_result_s": speed.raw_s(speed.marks[0]),
        "first_result_factor": speed.factor(speed.marks[0]),
        "op_s": op_s,
        "rings": HANOI_RINGS,
        "fib_n": FIBONACCI_N,
        "mini": mini,
        "cycles": cycles,
        "events": events,
        "export_bytes": export_bytes,
    }
    if traced:
        layers = layer_metrics(tracer, wall, TIMED_LAYERS, COUNTED_LAYERS)
        layers["vm.instructions_per_s"] = instructions / layers["vm.record_run_s"]
        layers["observe.events"] = float(events)
        result_record["layers"] = layers
        result_record["missing"] = missing
        result_record["spans"] = tracer.chrome_events()
    if check:
        # The T1 half of the configurations again, without a recorder:
        # tracing must not change a single cycle.  Runs after the timed
        # pass; half, to keep the run short.
        result_record["untraced_cycles"] = untraced_cycles(bundles, LINKS[:1])
    return result_record


def train_bundle(name: str, seed: int, tracer: Tracer) -> Tuple[Any, Any]:
    """A paper program's workload and its Train order."""
    with tracer.span("workloads.generate"):
        workload = generate_workload(name, workload_seed(seed))
    with tracer.span("reorder.estimate_first_use"):
        scg = estimate_first_use(workload.program)
    with tracer.span("vm.synthesize_profile"):
        profile = synthesize_profile(workload.program, workload.train_trace)
    with tracer.span("reorder.order_from_profile"):
        train = order_from_profile(workload.program, profile, static_order=scg)
    return workload, train


def untraced_cycles(
    bundles: Dict[str, Tuple[Any, Any]], links: Sequence[Tuple[str, Any]]
) -> Dict[str, float]:
    """Total cycles of each configuration on ``links``, without a recorder."""
    return {
        config_key(name, method, link_name): run_nonstrict(
            workload.program,
            workload.test_trace,
            train,
            link,
            workload.cpi,
            method=method,
            max_streams=max_streams,
        ).total_cycles
        for name, (workload, train) in bundles.items()
        for method, max_streams in METHODS
        for link_name, link in links
    }


if __name__ == "__main__":
    child.main(run)
