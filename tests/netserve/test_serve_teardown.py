"""Session teardown against an out-of-process server.

A client that demand-fetches its entry method can put a
``DEMAND_FETCH`` on the wire after the server has streamed every unit
and its ``EOF``.  If the server then closes with that frame unread, the
kernel answers with a reset that discards the client's unread frames,
and the session fails with ``ConnectionLostError``.  Two closed-loop
connections against ``repro.tools serve`` reproduce the race within a
few dozen sessions when it is present.
"""

import asyncio
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import generate_workload, save_program
from repro.netserve import NonStrictFetcher
from repro.program import MethodId

SRC = Path(__file__).resolve().parents[2] / "src"
CONNECTIONS = 2
SESSIONS_PER_CONNECTION = 60


@pytest.fixture()
def jess_server(tmp_path):
    directory = save_program(
        generate_workload("Jess", 0).program, tmp_path / "jess"
    )
    port_file = tmp_path / "port.txt"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.tools",
            "serve",
            str(directory),
            "--port-file",
            str(port_file),
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 30.0
        while not (port_file.exists() and port_file.read_text().strip()):
            assert process.poll() is None, "server exited at start-up"
            assert time.monotonic() < deadline, "server wrote no port"
            time.sleep(0.01)
        yield int(port_file.read_text())
    finally:
        process.terminate()
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


async def _session(port):
    fetcher = NonStrictFetcher("127.0.0.1", port)
    try:
        manifest = await fetcher.connect()
        await fetcher.wait_for_method(
            MethodId(*manifest["entry"]), demand=True
        )
        await fetcher.wait_until_complete()
        if len(fetcher.unit_log) != manifest["unit_count"]:
            return f"{len(fetcher.unit_log)} of {manifest['unit_count']} units"
        return None
    except Exception as error:  # noqa: BLE001 - a failed session is counted
        return f"{type(error).__name__}: {error}"
    finally:
        await fetcher.aclose()


async def _closed_loop(port):
    async def worker():
        return [
            await _session(port) for _ in range(SESSIONS_PER_CONNECTION)
        ]

    rows = await asyncio.gather(*(worker() for _ in range(CONNECTIONS)))
    return [outcome for row in rows for outcome in row]


def test_demand_fetch_sessions_survive_teardown(jess_server):
    outcomes = asyncio.run(_closed_loop(jess_server))
    failures = [outcome for outcome in outcomes if outcome is not None]
    assert len(outcomes) == CONNECTIONS * SESSIONS_PER_CONNECTION
    assert failures == []
