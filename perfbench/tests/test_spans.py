import sys
import time
import types

from spans import Tracer, counted, rebind, timed, wrap_method
from stats import self_times


def test_self_times_and_unattributed_add_up_to_wall():
    tracer = Tracer(True)
    start = time.perf_counter()
    with tracer.span("outer"):
        with tracer.span("inner"):
            time.sleep(0.002)
        time.sleep(0.001)
    time.sleep(0.001)
    with tracer.span("other"):
        pass
    wall = time.perf_counter() - start
    unattributed = wall - tracer.top_level_time()
    assert unattributed > 0
    total = sum(self_times(tracer.spans).values()) + unattributed
    assert abs(total - wall) < 1e-9
    assert tracer.counts == {"outer": 1, "inner": 1, "other": 1}
    parents = {name: parent for _, parent, name, _, _ in tracer.spans}
    ids = {name: span_id for span_id, _, name, _, _ in tracer.spans}
    assert parents == {"inner": ids["outer"], "outer": 0, "other": 0}


def test_disabled_tracer_records_nothing():
    tracer = Tracer(False)
    with tracer.span("x"):
        tracer.count("y")
    assert tracer.spans == [] and tracer.counts == {}


def test_timed_passes_nested_calls_of_the_same_layer_through():
    tracer = Tracer(True)

    def recurse(n):
        return 0 if n == 0 else 1 + wrapped(n - 1)

    wrapped = timed(tracer, "layer", recurse)
    assert wrapped(3) == 3
    assert tracer.counts == {"layer": 1}


def test_rebind_replaces_every_binding_in_the_package():
    def original():
        return "original"

    package = types.ModuleType("fakepkg")
    child = types.ModuleType("fakepkg.child")
    package.original = original
    child.alias = original
    sys.modules.update({"fakepkg": package, "fakepkg.child": child})
    try:
        tracer = Tracer(True)
        assert rebind(original, counted(tracer, "calls", original), "fakepkg") == 2
        package.original()
        child.alias()
        assert tracer.counts == {"calls": 2}
    finally:
        del sys.modules["fakepkg"], sys.modules["fakepkg.child"]


def test_wrap_method_names_the_span_per_instance():
    class Engine:
        def __init__(self, traced):
            self.traced = traced

        def run(self):
            return self.traced

    tracer = Tracer(True)
    wrap_method(tracer, Engine, "run", lambda e: "traced" if e.traced else "plain")
    assert Engine(True).run() is True
    assert Engine(False).run() is False
    assert tracer.counts == {"traced": 1, "plain": 1}
