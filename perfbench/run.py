#!/usr/bin/env python3
"""The repository benchmark: end to end untraced, per layer traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_sweep --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py            # every workload untraced, seed 0

With ``--trace 0`` the last line of standard output is one JSON object
with the workload's end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics.  Every output is checked; the exit status is 1 when
a check fails and 2 when the checkout has no program to run.  Each run
appends one row to ``.benchmarks/perfbench/run_table.csv`` and writes
its raw samples under ``.benchmarks/perfbench/raw_runs/`` (see
``README.md`` for the columns).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import procs
import stats
from checks import Tally, check_dev_pass, check_sweep_pass

OUT = procs.ROOT / ".benchmarks" / "perfbench"
BASELINE = procs.HERE / "baseline"
#: Import-only interpreter spawns per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Hard limit on one child pass, far above any expected pass.
PASS_TIMEOUT_S = 170.0

Metrics = Dict[str, float]


@dataclasses.dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: Metrics
    tally: Tally
    notes: List[str]
    raw: Dict[str, Any]
    #: Layers a traced run could not wrap from outside.
    missing: List[str] = dataclasses.field(default_factory=list)
    #: Scales a traced run's layer times to the reference speed.
    speed_factor: float = 1.0


# -- child interpreters ---------------------------------------------------


def start_pass(script: str, *args: str) -> Tuple[subprocess.Popen, float]:
    with open(OUT / "child-stderr.log", "ab") as log:
        process = subprocess.Popen(
            [sys.executable, str(procs.HERE / script), *args],
            cwd=procs.ROOT,
            env=procs.child_env(),
            stdout=subprocess.PIPE,
            stderr=log,
            text=True,
        )
    return process, time.perf_counter()


def finish_pass(process: subprocess.Popen, start: float) -> Tuple[float, Dict[str, Any]]:
    """Wait for a child pass; returns (seconds until ``READY``, its JSON result)."""
    watchdog = threading.Timer(PASS_TIMEOUT_S, process.kill)
    watchdog.start()
    try:
        assert process.stdout is not None
        first = process.stdout.readline()
        ready = time.perf_counter() - start
        out = process.stdout.read()
        process.wait()
    finally:
        watchdog.cancel()
        procs.kill(process)
    if first.strip() != "READY" or process.returncode != 0:
        raise RuntimeError(
            f"{process.args} exited {process.returncode}; see {OUT / 'child-stderr.log'}"
        )
    lines = out.strip().splitlines()
    return ready, (json.loads(lines[-1]) if lines else {})


def run_pass(script: str, *args: str) -> Tuple[float, Dict[str, Any]]:
    return finish_pass(*start_pass(script, *args))


def measure_setup(script: str) -> List[float]:
    """Interpreter start until imports finish, ``SETUP_REPEATS`` times.

    One uncounted spawn first, so that compiling bytecode caches in a
    fresh checkout is not counted as set-up.  Not scaled by host speed:
    start-up is import and file work, whose time did not follow the
    speed kernel's (correlation 0.2 over 30 spawns).
    """
    run_pass(script, "--seed", "0", "--setup-only")
    return [run_pass(script, "--seed", "0", "--setup-only")[0] for _ in range(SETUP_REPEATS)]


def timed_passes(
    script: str, seed: int, seconds: float, traced: bool, check: bool, min_passes: int = 1
) -> Tuple[List[Dict[str, Any]], Optional[Dict[str, Any]]]:
    """Untraced passes for ``seconds`` (at least ``min_passes``), each in a fresh interpreter.

    A traced run makes one untraced and one traced pass side by side,
    one per core, so it takes about as long as an untraced run.  With
    ``check`` the first untraced pass also runs the workload's
    after-the-clock checks.  Returns ``(untraced passes, traced pass or None)``.
    """
    seed_args = ("--seed", str(seed))
    first_args = seed_args + (("--check",) if check else ())
    if traced:
        children = [start_pass(script, *first_args), start_pass(script, *seed_args, "--trace", "1")]
        try:
            untraced, traced_result = [finish_pass(*child)[1] for child in children]
        finally:
            for process, _ in children:
                procs.kill(process)
        return [untraced], traced_result
    passes = [run_pass(script, *first_args)[1]]
    while len(passes) < min_passes or sum(result["wall_s"] for result in passes) < seconds:
        passes.append(run_pass(script, *seed_args)[1])
    return passes, None


# -- committed values and the cross-run ledger -----------------------------


def load_committed(name: str) -> Dict[str, Any]:
    with open(BASELINE / name) as handle:
        return json.load(handle)


def known(workload: str, seed: int) -> Optional[Any]:
    """What an earlier run of this checkout recorded for the seed, if any."""
    path = OUT / "ledger.json"
    return json.loads(path.read_text()).get(f"{workload}:{seed}") if path.exists() else None


def ledger(workload: str, seed: int, values: Any) -> Any:
    """Values an earlier run of this checkout recorded for the seed.

    The first run of a seed records its own values and gets them back,
    so repeated runs with one seed must agree with the first.
    """
    earlier = known(workload, seed)
    if earlier is not None:
        return earlier
    path = OUT / "ledger.json"
    recorded = json.loads(path.read_text()) if path.exists() else {}
    recorded[f"{workload}:{seed}"] = values
    temporary = path.with_suffix(".tmp")
    temporary.write_text(json.dumps(recorded, sort_keys=True))
    os.replace(temporary, path)
    return values


def overhead_note(traced_wall: float, untraced_wall: float) -> str:
    return (
        f"tracing overhead: traced/untraced wall = {traced_wall:.3f}/{untraced_wall:.3f} s"
        f" = {traced_wall / untraced_wall:.3f}"
    )


def missing_notes(missing: List[str]) -> List[str]:
    return [f"missing layer (not wrapped from outside): {layer}" for layer in missing]


def end_to_end(
    setup_s: float,
    peak_rss_mb: float,
    tally: Tally,
    operations: int,
    first_result_s: List[float],
    wall_s: float,
    cpu_s: float,
) -> Metrics:
    """The end-to-end metrics every workload reports.

    ``operations`` were completed in ``wall_s`` seconds, in which every
    process of the workload spent ``cpu_s`` seconds of CPU.  Every time
    but set-up is already scaled to the reference speed (see ``calib.py``
    and :func:`measure_setup`).
    """
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "success_rate": stats.success_rate(tally.failed, tally.attempted),
        "ops_per_s": operations / wall_s,
        "first_result_ms": stats.median(first_result_s) * 1e3,
        "cpu_ms_per_op": cpu_s * 1e3 / operations,
    }


def passes_end_to_end(setup: List[float], tally: Tally, passes: List[Dict[str, Any]]) -> Metrics:
    """:func:`end_to_end` over the passes of a workload run in fresh interpreters."""
    return end_to_end(
        stats.median(setup),
        stats.median([result["peak_rss_mb"] for result in passes]),
        tally,
        sum(len(result["op_s"]) for result in passes),
        [result["first_result_s"] * result["first_result_factor"] for result in passes],
        sum(result["wall_s"] * result["speed_factor"] for result in passes),
        sum(result["cpu_s"] * result["speed_factor"] for result in passes),
    )


def passes_note(kind: str, passes: List[Dict[str, Any]]) -> str:
    """The raw pass times, with the speed factors that scale them."""
    return (
        f"{kind}: {len(passes)}; raw wall "
        + ", ".join(f"{result['wall_s']:.3f}" for result in passes)
        + " s; speed factor "
        + ", ".join(f"{result['speed_factor']:.3f}" for result in passes)
    )


# -- workloads ----------------------------------------------------------------


def paper_sweep(seed: int, seconds: float, traced: bool) -> Outcome:
    setup = measure_setup("sweep.py")
    passes, traced_pass = timed_passes("sweep.py", seed, seconds, traced, check=False)
    committed = load_committed("paper_sweep_seed0.json") if seed == 0 else None
    reference = ledger("paper_sweep", seed, passes[0]["points"])
    tally = Tally()
    for result in passes + ([traced_pass] if traced_pass else []):
        check_sweep_pass(tally, result["points"], result["table"], reference, committed)
    notes = [passes_note("sweeps", passes)]
    return passes_outcome(setup, tally, notes, passes, traced_pass)


def passes_outcome(
    setup: List[float],
    tally: Tally,
    notes: List[str],
    passes: List[Dict[str, Any]],
    traced_pass: Optional[Dict[str, Any]],
) -> Outcome:
    """The outcome of a workload run in fresh interpreters."""
    raw = {"setup_s": setup, "passes": passes, "traced_pass": traced_pass}
    if traced_pass is None:
        return Outcome(passes_end_to_end(setup, tally, passes), tally, notes, raw)
    walls = [result["wall_s"] * result["speed_factor"] for result in passes]
    notes.append(overhead_note(traced_pass["wall_s"] * traced_pass["speed_factor"], stats.median(walls)))
    notes += missing_notes(traced_pass["missing"])
    return Outcome(
        traced_pass["layers"], tally, notes, raw, traced_pass["missing"], traced_pass["speed_factor"]
    )


def traced_dev(seed: int, seconds: float, traced: bool) -> Outcome:
    setup = measure_setup("devloop.py")
    # Traced cycles must equal untraced ones: the committed values for
    # seed 0; for another seed, the first run of the seed in this
    # checkout compares its first pass with an untraced run made after
    # the clock, and later runs must repeat that pass.
    committed = load_committed("traced_dev_seed0.json")["cycles"] if seed == 0 else None
    check = committed is None and known("traced_dev", seed) is None
    # Two passes at least: one ~15 s pass is as long as a run measures,
    # and its first result alone spread 0.13 between runs.
    passes, traced_pass = timed_passes("devloop.py", seed, seconds, traced, check, min_passes=2)
    first = passes[0]
    recorded = ledger(
        "traced_dev", seed, {"cycles": committed or first["cycles"], "events": first["events"]}
    )
    tally = Tally()
    for index, result in enumerate(passes + ([traced_pass] if traced_pass else [])):
        reference = first["untraced_cycles"] if check and index == 0 else recorded["cycles"]
        check_dev_pass(tally, result, reference, committed)
        if result["events"] != recorded["events"]:
            tally.note(f"{result['events']} trace events, {recorded['events']} for the same seed")
    notes = [
        passes_note("passes", passes),
        f"hanoi rings {passes[0]['rings']}, fibonacci n {passes[0]['fib_n']}, "
        f"{passes[0]['events']} trace events",
    ]
    return passes_outcome(setup, tally, notes, passes, traced_pass)


def serve_jess(seed: int, seconds: float, traced: bool) -> Outcome:
    import serve

    result = serve.run(seed, seconds, traced, OUT / "work")
    tally = Tally()
    for problem in result["cold_problems"]:
        tally.op(problem)
    loop, plain = result["loop"], result["plain"]
    for session in (plain.sessions if plain else []) + loop.sessions:
        tally.op(serve.check_session(session, result["reference"]))
    good = [s for s in loop.sessions if s.error is None]
    count = len(loop.sessions)
    factor = loop.speed_factor
    spawn = stats.median([spawn_s for spawn_s, _ in result["setups"]])
    cold = stats.median([cold_s for _, cold_s in result["setups"]])
    notes = [
        f"sessions: {count} in {loop.wall_s:.3f} s over {serve.CONNECTIONS} connections; "
        f"client CPU {loop.client_cpu_s:.3f} s, server CPU {loop.server_cpu_s:.3f} s (raw); "
        f"speed factor {factor:.3f}",
        f"peak RSS: client {result['client_rss_mb']:.1f} MB, server {result['server_rss_mb']:.1f} MB",
    ]
    if traced:
        units = result["unit_count"] * count
        notes.append(
            overhead_note(
                stats.median([s.closed - s.start for s in good]) * factor,
                stats.median([s.closed - s.start for s in plain.sessions if s.error is None])
                * plain.speed_factor,
            ).replace("wall", "session wall")
        )
        session_tail, session_pct, _ = stats.tail([s.total_ms for s in good])
        invoke_tail, invoke_pct, _ = stats.tail([s.first_invoke_ms for s in good])
        notes.append(
            f"netserve.session_tail_ms is p{session_pct:.2f} and netserve.first_invoke_tail_ms"
            f" is p{invoke_pct:.2f} of {len(good)} sessions"
        )
        # Times are raw here, and every_layer scales them with the loop's
        # factor; set-up is not scaled (see measure_setup).
        metrics: Metrics = {
            "netserve.server_spawn_s": spawn / factor,
            "netserve.cold_session_ms": cold * 1e3 / factor,
            "netserve.connect_ms": stats.median([(s.connected - s.start) * 1e3 for s in good]),
            "netserve.first_unit_ms": stats.median([(s.entry - s.connected) * 1e3 for s in good]),
            "netserve.session_p50_ms": stats.median([s.total_ms for s in good]),
            "netserve.session_tail_ms": session_tail,
            "netserve.first_invoke_tail_ms": invoke_tail,
            "netserve.drain_ms": stats.median([(s.complete - s.entry) * 1e3 for s in good]),
            "netserve.close_ms": stats.median([(s.closed - s.complete) * 1e3 for s in good]),
            "netserve.units_per_session": float(result["unit_count"]),
            "netserve.bytes_per_session": float(result["total_bytes"]),
            "netserve.server_cpu_us_per_unit": loop.server_cpu_s * 1e6 / units,
            "netserve.client_cpu_us_per_unit": loop.client_cpu_s * 1e6 / units,
            "netserve.client_busy_share": loop.client_cpu_s / loop.wall_s,
        }
    else:
        # A session is the operation; its first result is the entry
        # method, available to invoke.
        metrics = end_to_end(
            stats.median([spawn_s + cold_s for spawn_s, cold_s in result["setups"]]),
            result["peak_rss_mb"],
            tally,
            len(good),
            [s.first_invoke_ms / 1e3 * factor for s in good],
            loop.wall_s * factor,
            (loop.client_cpu_s + loop.server_cpu_s) * factor,
        )
    raw = {
        "setups": result["setups"],
        "loop": dataclasses.asdict(loop),
    }
    return Outcome(metrics, tally, notes, raw, speed_factor=factor)


WORKLOADS: Dict[str, Callable[[int, float, bool], Outcome]] = {
    "paper_sweep": paper_sweep,
    "serve_jess": serve_jess,
    "traced_dev": traced_dev,
}


# -- reporting ------------------------------------------------------------------


RUN_TABLE_COLUMNS = (
    "run_id", "started_utc", "workload", "seed", "trace", "repetition", "seconds",
    "run_wall_s", "correct", "attempted", "failed", "metrics", "raw_artifact",
)


def record_run(workload: str, seed: int, trace: int, seconds: float, started: str,
               run_wall: float, outcome: Outcome) -> Path:
    """Append the run's row to the run table and write its raw artifact."""
    raw_dir = OUT / "raw_runs"
    raw_dir.mkdir(parents=True, exist_ok=True)
    table = OUT / "run_table.csv"
    rows: List[Dict[str, str]] = []
    if table.exists():
        with table.open() as handle:
            rows = list(csv.DictReader(handle))
    repetition = sum(
        1 for row in rows
        if (row["workload"], row["seed"], row["trace"]) == (workload, str(seed), str(trace))
    )
    run_id = f"{workload}-s{seed}-t{trace}-r{repetition}"
    artifact = raw_dir / f"{run_id}.json"
    artifact.write_text(json.dumps({
        "run_id": run_id, "problems": outcome.tally.problems, "notes": outcome.notes,
        "metrics": outcome.metrics, "raw": outcome.raw,
    }))
    new_table = not table.exists()
    with table.open("a", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=RUN_TABLE_COLUMNS)
        if new_table:
            writer.writeheader()
        writer.writerow({
            "run_id": run_id, "started_utc": started, "workload": workload, "seed": seed,
            "trace": trace, "repetition": repetition, "seconds": seconds,
            "run_wall_s": f"{run_wall:.3f}", "correct": outcome.tally.correct,
            "attempted": outcome.tally.attempted, "failed": outcome.tally.failed,
            "metrics": json.dumps(outcome.metrics, sort_keys=True),
            "raw_artifact": str(artifact.relative_to(procs.ROOT)),
        })
    return artifact


def benchmark_spec() -> Dict[str, Any]:
    return json.loads((procs.ROOT / "BENCHMARK.json").read_text())


def units(spec: Dict[str, Any], trace: int) -> Dict[str, str]:
    """Metric name -> unit for the metrics a run with ``--trace`` may print."""
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {metric["name"]: metric["unit"] for metric in group}


def report(workload: str, outcome: Outcome, unit_of: Dict[str, str]) -> None:
    print(f"== {workload}")
    for name, value in outcome.metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit_of[name]}")
    for note in outcome.notes:
        print(f"  - {note}")
    for problem in outcome.tally.problems[:20]:
        print(f"  ! {problem}")
    if len(outcome.tally.problems) > 20:
        print(f"  ! ... {len(outcome.tally.problems) - 20} more")


def result_line(tally: Tally, metrics: Metrics, unit_of: Dict[str, str]) -> str:
    return json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": max(tally.failed, 0 if tally.correct else 1),
        "metrics": {
            name: {"value": value, "unit": unit_of[name.rpartition("/")[2]]}
            for name, value in metrics.items()
        },
    })


def at_reference_speed(value: float, unit: str, factor: float) -> float:
    """A raw layer metric scaled by a speed factor: times with it, rates against it."""
    if unit in ("s", "ms", "us"):
        return value * factor
    if unit == "1/s":
        return value / factor
    return value


def every_layer(outcome: Outcome, unit_of: Dict[str, str]) -> None:
    """Give a traced run every per-layer metric.

    A layer that does no work in this workload reads 0 (no calls, no
    time); a layer that could not be wrapped is left out, so that it
    shows as missing rather than as zero.  Times and rates are scaled
    to the reference speed with the traced run's factor.
    """
    idle = []
    metrics: Metrics = {}
    for name, unit in unit_of.items():
        if any(name.startswith(layer + "_") for layer in outcome.missing):
            continue
        if name not in outcome.metrics:
            idle.append(name)
        metrics[name] = at_reference_speed(outcome.metrics.get(name, 0.0), unit, outcome.speed_factor)
    outcome.metrics = metrics
    if idle:
        outcome.notes.append("no work in this workload, read as 0: " + ", ".join(idle))


def run_one(workload: str, seed: int, seconds: float, trace: int) -> Outcome:
    started = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    start = time.perf_counter()
    outcome = WORKLOADS[workload](seed, seconds, bool(trace))
    if trace:
        every_layer(outcome, units(benchmark_spec(), trace))
    artifact = record_run(workload, seed, trace, seconds, started, time.perf_counter() - start, outcome)
    outcome.notes.append(f"raw artifact: {artifact.relative_to(procs.ROOT)}")
    return outcome


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="one workload (default: every workload, untraced)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args()
    # Let ``finally`` blocks stop child processes when the run is terminated.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (procs.SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program under {procs.SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(procs.SRC))
    OUT.mkdir(parents=True, exist_ok=True)
    spec = benchmark_spec()
    seconds = arguments.seconds if arguments.seconds is not None else float(spec["run_seconds"])

    if arguments.workload is not None:
        unit_of = units(spec, arguments.trace)
        outcome = run_one(arguments.workload, arguments.seed, seconds, arguments.trace)
        report(arguments.workload, outcome, unit_of)
        print(result_line(outcome.tally, outcome.metrics, unit_of))
        return 0 if outcome.tally.correct else 1

    unit_of = units(spec, 0)
    total = Tally()
    metrics: Metrics = {}
    for workload in WORKLOADS:
        outcome = run_one(workload, arguments.seed, seconds, 0)
        report(workload, outcome, unit_of)
        total.attempted += outcome.tally.attempted
        total.failed += outcome.tally.failed
        total.problems += outcome.tally.problems
        metrics.update({f"{workload}/{name}": value for name, value in outcome.metrics.items()})
    print(result_line(total, metrics, unit_of))
    return 0 if total.correct else 1


if __name__ == "__main__":
    sys.exit(main())
