"""Wrap the program's layer entry points for a traced run.

Only traced runs call :func:`instrument`; untraced runs execute the
program unmodified.  Layers are named after the modules the program
passes through, and these names are the contract later changes use for
claims.
"""

from __future__ import annotations

from typing import List

from spans import Tracer, counted, rebind, timed, wrap_method


def instrument(tracer: Tracer) -> List[str]:
    """Wrap simulation, controller construction, restructuring and layout.

    Returns the layers that could not be wrapped from outside; the run
    reports them as missing rather than as zero.
    """
    from repro import classfile, reorder
    from repro.classfile import serializer
    from repro.core.simulation import Simulator
    from repro.transfer import InterleavedController, ParallelController

    wrap_method(
        tracer,
        Simulator,
        "run",
        lambda sim: "core.simulate_traced" if sim.recorder is not None else "core.simulate",
    )
    for cls in (ParallelController, InterleavedController):
        wrap_method(tracer, cls, "__init__", lambda _: "transfer.controller_build")
    bindings = {
        "reorder.restructure": rebind(
            reorder.restructure,
            timed(tracer, "reorder.restructure", reorder.restructure),
        ),
        "classfile.class_layout": rebind(
            classfile.class_layout,
            counted(tracer, "classfile.class_layout", classfile.class_layout),
        ),
        "classfile.serialize": rebind(
            serializer.serialize,
            counted(tracer, "classfile.serialize", serializer.serialize),
        ),
    }
    return [layer for layer, replaced in bindings.items() if not replaced]
