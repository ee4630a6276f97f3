"""Regenerate the committed seed-0 values the output checks compare against.

Run only when a change is meant to alter the program's outputs::

    PYTHONPATH=src python3 perfbench/baseline.py

It checks that the benchmark's rebuilt rows equal the same rows of the
program's own ``figure6_summary()`` cell for cell before writing
``baseline/paper_sweep_seed0.json``, and records the untraced total
cycles of every ``traced_dev`` configuration in
``baseline/traced_dev_seed0.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

import devloop
import sweep
from calib import SpeedLog
from checks import table_sha256
from spans import Tracer

HERE = Path(__file__).resolve().parent / "baseline"


def main() -> None:
    from repro.harness import BENCHMARK_NAMES, figure6_summary

    table, points, _ = sweep.sweep(0, Tracer(False), SpeedLog())
    labels = {label for label, *_ in sweep.CONFIGURATIONS}
    program_rows = [row for row in figure6_summary().rows if row[0] in labels]
    if table.rows != program_rows:
        raise SystemExit("the rebuilt grid does not reproduce figure6_summary()")
    (HERE / "paper_sweep_seed0.json").write_text(
        json.dumps(
            {"table_sha256": table_sha256(table.render()), "rows": table.rows, "points": points},
            indent=1,
        )
        + "\n"
    )
    bundles = {name: devloop.train_bundle(name, 0, Tracer(False)) for name in BENCHMARK_NAMES}
    cycles = devloop.untraced_cycles(bundles, devloop.LINKS)
    (HERE / "traced_dev_seed0.json").write_text(json.dumps({"cycles": cycles}, indent=1) + "\n")


if __name__ == "__main__":
    main()
