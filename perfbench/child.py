"""Entry point shared by the workloads that run in a fresh interpreter.

The parent times set-up from spawning the interpreter until the child
prints ``READY``, which it does right after its imports.  The child then
runs one pass of its workload and prints the pass's result as one JSON
line.  ``--setup-only`` stops after ``READY``: that is how the parent
repeats set-up within one run.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from typing import Any, Callable, Dict


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(run: Callable[[int, bool, bool], Dict[str, Any]]) -> None:
    print("READY", flush=True)
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    arguments = parser.parse_args()
    if arguments.setup_only:
        return
    result = run(arguments.seed, bool(arguments.trace), arguments.check)
    result["peak_rss_mb"] = peak_rss_mb()
    sys.stdout.write(json.dumps(result) + "\n")
