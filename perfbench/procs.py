"""Child processes: environment, ``/proc`` readings, and shutdown.

Every process the benchmark starts runs the checkout's ``src`` with the
program's defaults: ``REPRO_*`` variables from the caller's environment
are dropped so that, for example, ``REPRO_SIM_ENGINE`` cannot change
which engine is measured.  ``PYTHONHASHSEED`` is fixed so that set and
dict layouts, and with them timings, do not vary between runs.
"""

from __future__ import annotations

import os
import subprocess
from pathlib import Path
from typing import Dict

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def child_env() -> Dict[str, str]:
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_") and key != "PYTHONPATH"
    }
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/stat") as handle:
        # The command name may hold spaces; fields restart after ')'.
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def kill(process: subprocess.Popen) -> None:
    """Kill a child that is still running and wait until it has ended."""
    if process.poll() is None:
        process.kill()
        process.wait()


def stop(process: subprocess.Popen, timeout: float = 10.0) -> None:
    """Terminate a child, kill it if it lingers, and wait until it has ended.

    SIGTERM rather than SIGINT: a shell without job control starts
    background commands with SIGINT ignored, and children inherit that.
    """
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            kill(process)
