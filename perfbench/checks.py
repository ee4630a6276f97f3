"""Output checks: each returns the problems it found, one string per failure.

Kept free of timing and process code so that the benchmark's tests can
feed them corrupted outputs and see each one fail.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any, Dict, List, Optional


class Tally:
    """Operations attempted and failed, with the reason for each failure.

    A failed check that belongs to no single operation (for example the
    rendered table) is recorded with :meth:`note`; it makes the run
    incorrect without inventing an operation.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def op(self, problem: Optional[str]) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problems.append(problem)

    def note(self, problem: Optional[str]) -> None:
        if problem is not None:
            self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return not self.problems


def table_sha256(rendered: str) -> str:
    return hashlib.sha256(rendered.encode()).hexdigest()


def check_sweep_pass(
    tally: Tally,
    points: Dict[str, Optional[float]],
    table: str,
    reference: Dict[str, Optional[float]],
    committed: Optional[Dict[str, Any]],
) -> None:
    """One ``paper_sweep`` pass: every grid point is an operation.

    A point fails when it raised, is not a positive finite number, or
    differs from ``reference`` (an earlier pass or run with the same
    seed).  With ``committed`` (seed 0) it must also equal the committed
    Figure 6 value, and the rendered table must hash to the committed
    digest.
    """
    expected_keys = set(committed["points"]) if committed else set(reference)
    for key in sorted(expected_keys - set(points)):
        tally.op(f"{key}: grid point missing")
    for key, value in points.items():
        if value is None or not math.isfinite(value) or value <= 0:
            tally.op(f"{key}: no valid value ({value!r})")
        elif key in reference and value != reference[key]:
            tally.op(f"{key}: {value!r} differs from {reference[key]!r} for the same seed")
        elif committed is not None and value != committed["points"].get(key):
            tally.op(f"{key}: {value!r}, committed {committed['points'].get(key)!r}")
        else:
            tally.op(None)
    if committed is not None and table_sha256(table) != committed["table_sha256"]:
        tally.note("rendered Figure 6 differs from the committed digest")


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def check_dev_pass(
    tally: Tally,
    result: Dict[str, Any],
    reference: Dict[str, float],
    committed: Optional[Dict[str, float]],
) -> None:
    """One ``traced_dev`` pass: two VM programs and every traced configuration.

    VM outputs must equal their closed forms.  A configuration's traced
    total cycles must equal ``reference`` (the untraced run of the same
    configuration, or an earlier pass or run with the same seed) and,
    with ``committed`` (seed 0), the committed untraced value.
    """
    moves = result["mini"]["hanoi"]
    want_moves = 2 ** result["rings"] - 1
    tally.op(None if moves == want_moves else f"hanoi({result['rings']}): {moves} moves, want {want_moves}")
    fib = result["mini"]["fibonacci"]
    want_fib = fibonacci(result["fib_n"])
    tally.op(None if fib == want_fib else f"fibonacci({result['fib_n']}) = {fib}, want {want_fib}")
    expected_keys = set(committed) if committed else set(reference)
    for key in sorted(expected_keys - set(result["cycles"])):
        tally.op(f"{key}: configuration missing")
    for key, cycles in result["cycles"].items():
        if key in reference and cycles != reference[key]:
            tally.op(f"{key}: traced {cycles!r} cycles, untraced {reference[key]!r}")
        elif committed is not None and cycles != committed.get(key):
            tally.op(f"{key}: traced {cycles!r} cycles, committed {committed.get(key)!r}")
        else:
            tally.op(None)
