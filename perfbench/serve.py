"""``serve_jess``: the Jess program served over loopback, out of process.

``python -m repro.tools serve`` runs unpaced in its own process; this
process runs a closed loop of :data:`CONNECTIONS` concurrent sessions,
each ``connect`` -> entry method available -> ``wait_until_complete``
-> ``aclose`` with policy ``non_strict`` and strategy ``static``.  The
server's CPU comes from ``/proc``, the client's from this process, so
they are counted apart.

The entry method is waited for passively (``demand=False``): it heads
the static order, so a demand fetch cannot bring it sooner.  With
demand fetches on, at two connections some sessions end in
``ConnectionResetError`` (see ``README.md``, "Known defect").
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import procs
from calib import SpeedLog

HOST = "127.0.0.1"
#: One client process with at most ``nproc`` (2) connections.
CONNECTIONS = 2
#: Server spawns (each with one cold session) per run; set-up is their median.
SETUP_REPEATS = 3
#: Sessions a run needs at least, so that a tail percentile exists.
MIN_SESSIONS = 50
#: Seconds between host speed samples in the closed loop.
SPEED_SAMPLE_EVERY_S = 0.25
_PORT_WAIT_S = 30.0


@dataclass
class Session:
    """Boundary timestamps (``perf_counter``) of one session, and its outcome."""

    start: float
    connected: float = 0.0
    entry: float = 0.0
    complete: float = 0.0
    closed: float = 0.0
    units: int = 0
    payload_bytes: int = 0
    manifest_units: int = 0
    manifest_bytes: int = 0
    digest: str = ""
    error: Optional[str] = None

    @property
    def total_ms(self) -> float:
        return (self.complete - self.start) * 1e3

    @property
    def first_invoke_ms(self) -> float:
        return (self.entry - self.start) * 1e3


def class_digest(classes: Dict[str, bytes]) -> str:
    """Digest of every class's reassembled bytes, by class name."""
    digest = hashlib.sha256()
    for name in sorted(classes):
        data = classes[name]
        digest.update(f"{name}:{len(data)}:".encode())
        digest.update(data)
    return digest.hexdigest()


def expected_classes(program_dir: Path) -> Tuple[Dict[str, bytes], int, int]:
    """What a non-strict/static session must deliver, from public functions.

    Returns ``(class bytes, unit count, total bytes)``: the server's plan
    rebuilt here (static order, restructure, per-class plans, interleaved
    file, payloads), reassembled per class in stream order.
    """
    from repro import estimate_first_use, load_program, restructure
    from repro.netserve import build_program_payloads
    from repro.transfer import TransferPolicy, build_interleaved_file, build_program_plans

    program = load_program(program_dir)
    order = estimate_first_use(program)
    target = restructure(program, order)
    plans = build_program_plans(target, TransferPolicy.NON_STRICT)
    sequence = build_interleaved_file(plans, order)
    payloads = build_program_payloads(target, plans)
    classes: Dict[str, List[bytes]] = {}
    for unit in sequence:
        classes.setdefault(unit.class_name, []).append(payloads[unit])
    return (
        {name: b"".join(parts) for name, parts in classes.items()},
        len(sequence),
        sum(unit.size for unit in sequence),
    )


async def run_session(port: int) -> Session:
    from repro.netserve import NonStrictFetcher
    from repro.program import MethodId

    session = Session(start=time.perf_counter())
    fetcher = NonStrictFetcher(HOST, port, policy="non_strict", strategy="static")
    try:
        manifest = await fetcher.connect()
        session.connected = time.perf_counter()
        await fetcher.wait_for_method(MethodId(*manifest["entry"]), demand=False)
        session.entry = time.perf_counter()
        await fetcher.wait_until_complete()
        session.complete = time.perf_counter()
    except Exception as error:  # noqa: BLE001 - a failed session is counted
        session.error = f"{type(error).__name__}: {error}"
    finally:
        await fetcher.aclose()
        session.closed = time.perf_counter()
    if session.error is None:
        session.manifest_units = manifest["unit_count"]
        session.manifest_bytes = manifest["total_bytes"]
        session.units = len(fetcher.unit_log)
        session.payload_bytes = sum(len(payload) for parts in fetcher.buffers.values() for _, payload in parts)
        session.digest = class_digest(
            {name: fetcher.class_bytes(name) for name in fetcher.buffers}
        )
    return session


def check_session(session: Session, reference_digest: str) -> Optional[str]:
    """Why a session's output is wrong, or ``None`` when it is right."""
    if session.error is not None:
        return session.error
    if session.units != session.manifest_units:
        return f"{session.units} units arrived, manifest says {session.manifest_units}"
    if session.payload_bytes != session.manifest_bytes:
        return f"{session.payload_bytes} bytes arrived, manifest says {session.manifest_bytes}"
    if session.digest != reference_digest:
        return "reassembled class bytes differ from the first verified session"
    return None


@dataclass
class Server:
    process: subprocess.Popen
    port: int
    spawn_s: float


def spawn_server(program_dir: Path, work: Path, index: int) -> Server:
    """Start ``repro.tools serve`` and wait until it has written its port."""
    port_file = work / f"port-{index}.txt"
    port_file.unlink(missing_ok=True)
    start = time.perf_counter()
    with open(work / f"server-{index}.log", "wb") as log:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.tools", "serve", str(program_dir), "--port-file", str(port_file)],
            cwd=procs.ROOT,
            env=procs.child_env(),
            stdout=subprocess.DEVNULL,
            stderr=log,
        )
    deadline = start + _PORT_WAIT_S
    while True:
        text = port_file.read_text().strip() if port_file.exists() else ""
        if text:
            return Server(process, int(text), time.perf_counter() - start)
        if process.poll() is not None or time.perf_counter() > deadline:
            procs.stop(process)
            raise RuntimeError(f"server did not start; see {work / f'server-{index}.log'}")
        time.sleep(0.002)


@dataclass
class LoopResult:
    sessions: List[Session] = field(default_factory=list)
    #: Wall and client CPU time without the speed samples.
    wall_s: float = 0.0
    client_cpu_s: float = 0.0
    server_cpu_s: float = 0.0
    work_s: List[float] = field(default_factory=list)
    kernel_s: List[float] = field(default_factory=list)
    speed_factor: float = 1.0


async def closed_loop(port: int, seconds: float, server_pid: int) -> LoopResult:
    """``CONNECTIONS`` workers, each starting a session when its last one ends.

    Host speed is sampled every :data:`SPEED_SAMPLE_EVERY_S` meanwhile;
    a sample holds up the sessions in flight for its ~5 ms.
    """
    result = LoopResult()
    server_cpu = procs.cpu_seconds(server_pid)
    client_cpu = time.process_time()
    speed = SpeedLog()
    deadline = time.perf_counter() + seconds

    async def worker() -> None:
        while time.perf_counter() < deadline or len(result.sessions) < MIN_SESSIONS:
            result.sessions.append(await run_session(port))

    async def sample_speed() -> None:
        while True:
            speed.sample()
            await asyncio.sleep(SPEED_SAMPLE_EVERY_S)

    sampler = asyncio.ensure_future(sample_speed())
    try:
        await asyncio.gather(*(worker() for _ in range(CONNECTIONS)))
    finally:
        sampler.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await sampler
    speed.sample()
    result.wall_s = speed.raw_s()
    result.client_cpu_s = time.process_time() - client_cpu - speed.spent_s
    result.server_cpu_s = procs.cpu_seconds(server_pid) - server_cpu
    result.work_s = speed.work_s
    result.kernel_s = speed.kernel_s
    result.speed_factor = speed.factor()
    return result


def run(seed: int, seconds: float, traced: bool, work: Path) -> Dict[str, Any]:
    """One ``serve_jess`` run: set-up repeated, then the measured loop."""
    from repro import generate_workload, save_program
    from sweep import workload_seed

    work.mkdir(parents=True, exist_ok=True)
    program_dir = work / "jess"
    save_program(generate_workload("Jess", workload_seed(seed)).program, program_dir)
    expected, unit_count, total_bytes = expected_classes(program_dir)
    reference = class_digest(expected)

    cold_problems: List[Optional[str]] = []
    setups: List[Tuple[float, float]] = []
    server: Optional[Server] = None
    server_rss = 0.0
    try:
        for index in range(SETUP_REPEATS):
            if server is not None:
                procs.stop(server.process)
            server = None
            server = spawn_server(program_dir, work, index)
            cold = asyncio.run(run_session(server.port))
            problem = check_session(cold, reference)
            if problem is None and (cold.manifest_units, cold.manifest_bytes) != (unit_count, total_bytes):
                problem = "manifest disagrees with the plan rebuilt from public functions"
            cold_problems.append(problem and f"cold session: {problem}")
            setups.append((server.spawn_s, (cold.complete - cold.start)))
        if traced:
            # Half the time untraced, half traced: the ratio of median
            # session times is the tracing overhead.
            plain = asyncio.run(closed_loop(server.port, seconds / 2, server.process.pid))
            loop = asyncio.run(closed_loop(server.port, seconds / 2, server.process.pid))
        else:
            plain = None
            loop = asyncio.run(closed_loop(server.port, seconds, server.process.pid))
        server_rss = procs.peak_rss_mb(server.process.pid)
    finally:
        if server is not None:
            procs.stop(server.process)

    client_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setups": setups,
        "loop": loop,
        "plain": plain,
        "cold_problems": cold_problems,
        "reference": reference,
        "peak_rss_mb": max(client_rss, server_rss),
        "client_rss_mb": client_rss,
        "server_rss_mb": server_rss,
        "unit_count": unit_count,
        "total_bytes": total_bytes,
    }
