"""Layout accounting must agree with the serializer byte-for-byte."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bytecode import Instruction, Opcode
from repro.classfile import (
    METHOD_DELIMITER_SIZE,
    ClassFileBuilder,
    class_layout,
    global_data_breakdown,
    serialize,
)
from repro.errors import ClassFileError
from repro.harness import BENCHMARK_NAMES
from repro.workloads.synthetic import generate_workload


def build_class(method_count=3, local_data=b"", field_count=2):
    builder = ClassFileBuilder("app/L")
    for index in range(field_count):
        builder.add_field(f"field{index}")
    for index in range(method_count):
        builder.add_method(
            f"m{index}",
            "()V",
            [
                Instruction(Opcode.ICONST, (index,)),
                Instruction(Opcode.POP),
                Instruction(Opcode.RETURN),
            ],
            local_data=local_data,
        )
    return builder.build()


def test_layout_total_matches_serialized_length():
    classfile = build_class()
    layout = class_layout(classfile)
    assert layout.strict_size == len(serialize(classfile))


def test_nonstrict_size_adds_one_delimiter_per_method():
    classfile = build_class(method_count=4)
    layout = class_layout(classfile)
    assert (
        layout.nonstrict_size
        == layout.strict_size + 4 * METHOD_DELIMITER_SIZE
    )


def test_local_plus_structural_overhead_equals_total():
    classfile = build_class(local_data=b"\xaa" * 20)
    layout = class_layout(classfile)
    assert layout.local_bytes + layout.global_bytes == layout.strict_size
    # Local data payload must be inside the local byte count.
    assert layout.local_bytes >= 20 * 3


def test_method_size_lookup():
    classfile = build_class()
    layout = class_layout(classfile)
    assert layout.method_size("m1") == classfile.method("m1").size
    with pytest.raises(ClassFileError):
        layout.method_size("missing")


def test_method_sizes_in_file_order():
    classfile = build_class()
    reordered = classfile.reordered(["m2", "m0", "m1"])
    layout = class_layout(reordered)
    assert [name for name, _ in layout.method_sizes] == ["m2", "m0", "m1"]


def test_reordering_does_not_change_sizes():
    classfile = build_class()
    before = class_layout(classfile)
    after = class_layout(classfile.reordered(["m2", "m0", "m1"]))
    assert before.strict_size == after.strict_size
    assert before.global_size == after.global_size


def test_global_breakdown_percentages_sum():
    classfile = build_class()
    breakdown = global_data_breakdown(classfile)
    of_global = breakdown.percent_of_global()
    assert sum(of_global.values()) == pytest.approx(100.0)
    of_pool = breakdown.percent_of_pool()
    # Tag percentages cover the entry bytes; the 2-byte count header is
    # the only part not attributed to a tag.
    assert sum(of_pool.values()) == pytest.approx(
        100.0 * (breakdown.constant_pool - 2) / breakdown.constant_pool
    )


def test_utf8_dominates_pool_like_the_paper():
    # Paper Table 8: Utf8 strings are the largest pool component for
    # real programs.  Our builder-produced classes (all names interned)
    # show the same shape.
    classfile = build_class(method_count=8, field_count=6)
    breakdown = global_data_breakdown(classfile)
    of_pool = breakdown.percent_of_pool()
    assert of_pool["Utf8"] == max(of_pool.values())


@settings(max_examples=25, deadline=None)
@given(
    method_count=st.integers(1, 6),
    field_count=st.integers(0, 5),
    local_size=st.integers(0, 64),
)
def test_layout_serializer_agreement_property(
    method_count, field_count, local_size
):
    classfile = build_class(
        method_count=method_count,
        field_count=field_count,
        local_data=b"\x00" * local_size,
    )
    layout = class_layout(classfile)
    assert layout.strict_size == len(serialize(classfile))
    assert layout.global_size + layout.local_bytes <= layout.strict_size


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_layout_needs_no_serialize_on_paper_workloads(name):
    # An uncached generation: nothing has laid out or serialized these
    # classes yet, so their pools still lack the attribute names.
    program = generate_workload.__wrapped__(name, None).program
    for fresh in program.classes:
        serialized = copy.deepcopy(fresh)
        wire = serialize(serialized)
        layout = class_layout(fresh)
        assert layout == class_layout(serialized)
        assert layout.strict_size == len(wire)
        assert serialize(fresh) == wire
        pool_entries = len(fresh.constant_pool)
        assert class_layout(fresh) == layout
        assert len(fresh.constant_pool) == pool_entries
