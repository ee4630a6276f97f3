"""Interpreter semantics: arithmetic, control flow, calls, globals."""

import pytest

from repro.bytecode import SysCall, assemble
from repro.classfile import ClassFileBuilder
from repro.errors import ConstantPoolError, StackUnderflowError, VMError
from repro.program import MethodId, Program
from repro.vm import VirtualMachine
from repro.workloads import (
    fibonacci_program,
    figure1_program,
    mutual_recursion_program,
)


def run_main(source: str, fields=(), extra_methods=()):
    """Build a one-class program from assembly and run it."""
    builder = ClassFileBuilder("T")
    for name in fields:
        builder.add_field(name)
    for name, descriptor, body in extra_methods:
        builder.add_method(name, descriptor, assemble(body))
    builder.add_method("main", "()V", assemble(source))
    program = Program(classes=[builder.build()])
    machine = VirtualMachine(program)
    return machine.run(entry=MethodId("T", "main"))


def test_print_intrinsic():
    result = run_main(f"iconst 42\nsys {SysCall.PRINT}\nreturn")
    assert result.output == [42]


@pytest.mark.parametrize(
    "op,a,b,expected",
    [
        ("add", 2, 3, 5),
        ("sub", 2, 3, -1),
        ("mul", -4, 3, -12),
        ("div", 7, 2, 3),
        ("div", -7, 2, -3),  # truncation toward zero, Java-style
        ("mod", 7, 2, 1),
        ("mod", -7, 2, -1),
        ("and", 6, 3, 2),
        ("or", 6, 3, 7),
        ("xor", 6, 3, 5),
        ("shl", 1, 4, 16),
        ("shr", 16, 4, 1),
    ],
)
def test_arithmetic(op, a, b, expected):
    result = run_main(
        f"iconst {a}\niconst {b}\n{op}\nsys {SysCall.PRINT}\nreturn"
    )
    assert result.output == [expected]


def test_add_wraps_to_32_bits():
    result = run_main(
        f"iconst 2147483647\niconst 1\nadd\nsys {SysCall.PRINT}\nreturn"
    )
    assert result.output == [-2147483648]


def test_division_by_zero_raises():
    with pytest.raises(VMError):
        run_main("iconst 1\niconst 0\ndiv\nreturn")


def test_neg_dup_pop_swap():
    result = run_main(
        "iconst 5\nneg\n"
        "dup\nadd\n"  # -10
        "iconst 3\nswap\n"  # stack: -10, 3 -> 3, -10? swap to [-10?]
        f"sub\nsys {SysCall.PRINT}\nreturn"
    )
    # stack: push -10, push 3, swap -> [3, -10]; sub -> 3 - (-10) = 13
    assert result.output == [13]


def test_conditional_branch_taken_and_not_taken():
    source = """
        iconst 0
        ifeq yes
        iconst 111
        sys 0
        return
    yes:
        iconst 222
        sys 0
        return
    """
    assert run_main(source).output == [222]


def test_loop_execution():
    source = """
        iconst 4
        store 0
        iconst 0
        store 1
    loop:
        load 0
        ifle done
        load 1
        load 0
        add
        store 1
        load 0
        iconst 1
        sub
        store 0
        goto loop
    done:
        load 1
        sys 0
        return
    """
    assert run_main(source).output == [4 + 3 + 2 + 1]


def test_globals_initialized_and_updated():
    builder = ClassFileBuilder("G")
    builder.add_field("seeded", initial_value=41)
    field_ref = builder.field_ref("G", "seeded")
    builder.add_method(
        "main",
        "()V",
        assemble(
            f"""
            getstatic {field_ref}
            iconst 1
            add
            putstatic {field_ref}
            return
            """
        ),
    )
    program = Program(classes=[builder.build()])
    result = VirtualMachine(program).run()
    assert result.global_value("G", "seeded") == 42


def test_cross_class_call_and_return_value():
    result, = [VirtualMachine(fibonacci_program(10)).run()]
    assert result.global_value("Fib", "result") == 55


def test_mutual_recursion_parity():
    even = VirtualMachine(mutual_recursion_program(8)).run()
    assert even.global_value("Even", "answer") == 1
    odd = VirtualMachine(mutual_recursion_program(9)).run()
    assert odd.global_value("Even", "answer") == 0


def test_figure1_program_globals():
    result = VirtualMachine(figure1_program()).run()
    assert result.global_value("A", "a_total") == 25
    assert result.global_value("B", "b_total") == 18


def test_arrays():
    source = f"""
        iconst 3
        newarray
        store 0
        load 0
        iconst 1
        iconst 77
        astore
        load 0
        iconst 1
        aload
        sys {SysCall.PRINT}
        load 0
        arraylen
        sys {SysCall.PRINT}
        return
    """
    assert run_main(source).output == [77, 3]


def test_array_bounds_checked():
    with pytest.raises(VMError):
        run_main("iconst 2\nnewarray\nstore 0\nload 0\niconst 5\naload\nreturn")


def test_negative_array_size_rejected():
    with pytest.raises(VMError):
        run_main("iconst -1\nnewarray\nreturn")


def test_stack_underflow_detected():
    with pytest.raises(StackUnderflowError):
        run_main("pop\nreturn")


def test_instruction_limit_enforced():
    builder = ClassFileBuilder("Spin")
    builder.add_method(
        "main", "()V", assemble("loop:\ngoto loop")
    )
    program = Program(classes=[builder.build()])
    machine = VirtualMachine(program, max_instructions=1000)
    with pytest.raises(VMError, match="instruction limit 1000 exceeded"):
        machine.run()
    # The instruction past the limit is counted, then refused.
    assert machine.instructions_executed == 1001


def test_sys_halt_stops_execution():
    result = run_main(
        f"iconst 1\nsys {SysCall.PRINT}\nsys {SysCall.HALT}\n"
        f"iconst 2\nsys {SysCall.PRINT}\nreturn"
    )
    assert result.output == [1]
    assert result.halted


def test_sys_rand_is_seeded_and_deterministic():
    source = f"sys {SysCall.RAND}\nsys {SysCall.PRINT}\nreturn"
    first = run_main(source)
    second = run_main(source)
    assert first.output == second.output
    assert 0 <= first.output[0] < 2**31


def test_sys_time_pushes_instruction_count():
    result = run_main(f"nop\nsys {SysCall.TIME}\nsys {SysCall.PRINT}\nreturn")
    assert result.output == [2]  # nop + the SYS TIME itself


def test_external_call_returns_zero():
    builder = ClassFileBuilder("E")
    ref = builder.method_ref("lib/Native", "mystery", "(I)I")
    builder.add_method(
        "main",
        "()V",
        assemble(f"iconst 9\ncall {ref}\nsys {SysCall.PRINT}\nreturn"),
    )
    program = Program(classes=[builder.build()])
    result = VirtualMachine(program).run()
    assert result.output == [0]


def test_call_arity_mismatch_raises():
    builder = ClassFileBuilder("T")
    builder.add_method("needs_two", "(II)I", assemble("load 0\nireturn"))
    ref = builder.method_ref("T", "needs_two", "(II)I")
    builder.add_method(
        "main", "()V", assemble(f"iconst 1\ncall {ref}\npop\nreturn")
    )
    program = Program(classes=[builder.build()])
    with pytest.raises(StackUnderflowError):
        VirtualMachine(program).run()


def test_missing_entry_point_raises():
    builder = ClassFileBuilder("NoMain")
    builder.add_method("other", "()V", assemble("return"))
    program = Program(classes=[builder.build()])
    with pytest.raises(Exception):
        VirtualMachine(program).run()


def test_deep_recursion_overflows():
    builder = ClassFileBuilder("Deep")
    ref = builder.method_ref("Deep", "spin", "()V")
    builder.add_method("spin", "()V", assemble(f"call {ref}\nreturn"))
    builder.add_method("main", "()V", assemble(f"call {ref}\nreturn"))
    program = Program(classes=[builder.build()])
    with pytest.raises(VMError):
        VirtualMachine(program).run()


@pytest.mark.parametrize(
    "source,message",
    [
        ("iconst 1\npop", "fell off the end"),
        ("load 200\nreturn", "unallocated local 200"),
        ("iconst 5\narraylen\nreturn", "non-array"),
        ("iconst 1\nsys 99\nreturn", "unknown SYS code 99"),
    ],
)
def test_runtime_errors(source, message):
    with pytest.raises(VMError, match=message):
        run_main(source)


@pytest.mark.parametrize(
    "bad,error,message",
    [
        ("goto 1", VMError, "non-boundary offset"),
        ("ldc 99", ConstantPoolError, "index 99 out of range"),
    ],
)
@pytest.mark.parametrize("executed", [False, True])
def test_bad_operand_raises_only_when_executed(
    bad, error, message, executed
):
    source = f"""
        iconst {0 if executed else 1}
        ifne skip
        {bad}
    skip:
        iconst 5
        sys {SysCall.PRINT}
        return
    """
    if executed:
        with pytest.raises(error, match=message):
            run_main(source)
    else:
        assert run_main(source).output == [5]


def test_entry_args_bind_to_locals():
    builder = ClassFileBuilder("T")
    builder.add_method(
        "main", "(II)I", assemble("load 0\nload 1\nmul\nireturn")
    )
    program = Program(classes=[builder.build()])
    result = VirtualMachine(program).run(
        entry=MethodId("T", "main"), args=(6, 7)
    )
    # The entry method's return value goes to the output.
    assert result.output == [42]


def test_run_leaves_program_state_unchanged():
    program = figure1_program()
    before = dict(vars(program))
    VirtualMachine(program).run()
    assert vars(program) == before
