"""The bytecode interpreter.

Semantics are Java-flavoured: 32-bit wrapping integer arithmetic,
truncating division, explicit operand stack, static methods only.
External calls (CALL targets not defined in the program) model
uninstrumented native methods: they consume their arguments and produce
a zero result, and instrumentation is notified.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..bytecode import Instruction, Opcode, SysCall
from ..classfile import parse_descriptor
from ..errors import VMError
from ..program import MethodId, Program
from .frame import Frame
from .instrument import Instrument

__all__ = ["VirtualMachine", "ExecutionResult"]

_INT_MASK = 0xFFFFFFFF


def _int32(value: int) -> int:
    """Wrap to signed 32-bit, Java-style."""
    value &= _INT_MASK
    return value - 0x100000000 if value >= 0x80000000 else value


def _truncated_div(a: int, b: int) -> int:
    if b == 0:
        raise VMError("integer division by zero")
    quotient = abs(a) // abs(b)
    return quotient if (a >= 0) == (b >= 0) else -quotient


def _truncated_mod(a: int, b: int) -> int:
    return a - _truncated_div(a, b) * b


class ExecutionResult:
    """Outcome of a VM run.

    Attributes:
        instructions_executed: Total dynamic instruction count.
        output: Values emitted by ``SYS PRINT``.
        globals: Final static field values, keyed by (class, field).
        halted: True when ``SYS HALT`` stopped execution early.
    """

    def __init__(
        self,
        instructions_executed: int,
        output: List[Any],
        globals_map: Dict[Tuple[str, str], Any],
        halted: bool,
    ) -> None:
        self.instructions_executed = instructions_executed
        self.output = list(output)
        self.globals = dict(globals_map)
        self.halted = halted

    def global_value(self, class_name: str, field_name: str) -> Any:
        return self.globals.get((class_name, field_name), 0)


class VirtualMachine:
    """Executes a :class:`~repro.program.Program`.

    Args:
        program: The program to run.
        instruments: BIT-style observers (see :mod:`repro.vm.instrument`).
        max_instructions: Safety limit; exceeding it raises VMError.
        rng_seed: Seed for the ``SYS RAND`` intrinsic.
    """

    def __init__(
        self,
        program: Program,
        instruments: Sequence[Instrument] = (),
        max_instructions: int = 50_000_000,
        rng_seed: int = 0x5EED,
    ) -> None:
        self.program = program
        self.instruments = list(instruments)
        self.max_instructions = max_instructions
        self.globals: Dict[Tuple[str, str], Any] = {}
        self.output: List[Any] = []
        self._rng = random.Random(rng_seed)
        self._frames: List[Frame] = []
        self._instructions_executed = 0
        self._halted = False
        self._initialize_globals()

    def _initialize_globals(self) -> None:
        """Run 'class variable initializers in textual order' (§3.1):
        every declared field starts at its ConstantValue or zero."""
        for classfile in self.program.classes:
            pool = classfile.constant_pool
            for field_info in classfile.fields:
                value: Any = 0
                for attribute in field_info.attributes:
                    if attribute.name == "ConstantValue":
                        index = int.from_bytes(attribute.data, "big")
                        value = pool.constant_value(index)
                self.globals[(classfile.name, field_info.name)] = value

    # -- public API -------------------------------------------------------

    def run(
        self, entry: Optional[MethodId] = None, args: Sequence[int] = ()
    ) -> ExecutionResult:
        """Execute from ``entry`` (default: the program entry point)."""
        entry_id = entry or self.program.resolve_entry()
        if not self.program.has_method(entry_id):
            raise VMError(f"entry method {entry_id} not found")
        for instrument in self.instruments:
            instrument.on_start(self.program)
        self._push_frame(entry_id, list(args))
        self._dispatch_loop()
        for instrument in self.instruments:
            instrument.on_halt()
        return ExecutionResult(
            instructions_executed=self._instructions_executed,
            output=self.output,
            globals_map=self.globals,
            halted=self._halted,
        )

    @property
    def instructions_executed(self) -> int:
        return self._instructions_executed

    # -- frame management ---------------------------------------------------

    def _push_frame(self, method_id: MethodId, args: List[Any]) -> None:
        method = self.program.method(method_id)
        descriptor = method.parsed_descriptor
        if len(args) != descriptor.arity:
            raise VMError(
                f"{method_id} expects {descriptor.arity} args, "
                f"got {len(args)}"
            )
        frame = Frame(method_id=method_id, method=method, locals=args)
        self._frames.append(frame)
        if len(self._frames) > 4096:
            raise VMError("call stack overflow (depth > 4096)")
        for instrument in self.instruments:
            instrument.on_method_entry(method_id, frame)

    def _pop_frame(self, return_value: Optional[Any]) -> None:
        frame = self._frames.pop()
        for instrument in self.instruments:
            instrument.on_method_exit(frame.method_id)
        if self._frames:
            if return_value is not None:
                self._frames[-1].push(return_value)
        elif return_value is not None:
            self.output.append(return_value)

    # -- dispatch -------------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while self._frames and not self._halted:
            frame = self._frames[-1]
            if frame.pc >= len(frame.instructions):
                raise VMError(
                    f"{frame.method_id}: fell off the end of the code"
                )
            instruction = frame.instructions[frame.pc]
            offset = frame.current_offset
            self._instructions_executed += 1
            if self._instructions_executed > self.max_instructions:
                raise VMError(
                    f"instruction limit {self.max_instructions} exceeded"
                )
            for instrument in self.instruments:
                instrument.on_instruction(
                    frame.method_id, instruction, offset
                )
            self._execute(frame, instruction, offset)

    def _execute(
        self, frame: Frame, instruction: Instruction, offset: int
    ) -> None:
        opcode = instruction.opcode
        frame.pc += 1

        if opcode == Opcode.NOP:
            return
        if opcode == Opcode.ICONST:
            frame.push(instruction.operand)
            return
        if opcode == Opcode.LDC:
            pool = self.program.class_named(
                frame.method_id.class_name
            ).constant_pool
            frame.push(pool.constant_value(instruction.operand))
            return
        if opcode == Opcode.LOAD:
            frame.push(frame.load(instruction.operand))
            return
        if opcode == Opcode.STORE:
            frame.store(instruction.operand, frame.pop())
            return
        if opcode == Opcode.GETSTATIC:
            frame.push(self.globals.get(self._field_key(frame, instruction), 0))
            return
        if opcode == Opcode.PUTSTATIC:
            self.globals[self._field_key(frame, instruction)] = frame.pop()
            return

        if opcode in _ARITHMETIC:
            right = frame.pop()
            left = frame.pop()
            frame.push(_ARITHMETIC[opcode](left, right))
            return
        if opcode == Opcode.NEG:
            frame.push(_int32(-frame.pop()))
            return

        if opcode == Opcode.DUP:
            value = frame.pop()
            frame.push(value)
            frame.push(value)
            return
        if opcode == Opcode.POP:
            frame.pop()
            return
        if opcode == Opcode.SWAP:
            first = frame.pop()
            second = frame.pop()
            frame.push(first)
            frame.push(second)
            return

        if opcode in _UNARY_BRANCHES:
            if _UNARY_BRANCHES[opcode](frame.pop()):
                frame.jump_to_offset(instruction.branch_target(offset))
            return
        if opcode in _BINARY_BRANCHES:
            right = frame.pop()
            left = frame.pop()
            if _BINARY_BRANCHES[opcode](left, right):
                frame.jump_to_offset(instruction.branch_target(offset))
            return
        if opcode == Opcode.GOTO:
            frame.jump_to_offset(instruction.branch_target(offset))
            return

        if opcode == Opcode.CALL:
            self._call(frame, instruction)
            return
        if opcode == Opcode.RETURN:
            self._pop_frame(None)
            return
        if opcode == Opcode.IRETURN:
            self._pop_frame(frame.pop())
            return

        if opcode == Opcode.NEWARRAY:
            size = frame.pop()
            if not 0 <= size <= 10_000_000:
                raise VMError(f"bad array size {size}")
            frame.push([0] * size)
            return
        if opcode == Opcode.ALOAD:
            index = frame.pop()
            array = frame.pop()
            self._check_array(array, index)
            frame.push(array[index])
            return
        if opcode == Opcode.ASTORE:
            value = frame.pop()
            index = frame.pop()
            array = frame.pop()
            self._check_array(array, index)
            array[index] = value
            return
        if opcode == Opcode.ARRAYLEN:
            array = frame.pop()
            if not isinstance(array, list):
                raise VMError("arraylen on non-array")
            frame.push(len(array))
            return

        if opcode == Opcode.SYS:
            self._sys(frame, instruction.operand)
            return

        raise VMError(f"unimplemented opcode {opcode!r}")  # pragma: no cover

    # -- helpers ---------------------------------------------------------

    def _field_key(
        self, frame: Frame, instruction: Instruction
    ) -> Tuple[str, str]:
        pool = self.program.class_named(
            frame.method_id.class_name
        ).constant_pool
        class_name, field_name, _ = pool.member_ref(instruction.operand)
        return (class_name, field_name)

    def _call(self, frame: Frame, instruction: Instruction) -> None:
        pool = self.program.class_named(
            frame.method_id.class_name
        ).constant_pool
        class_name, method_name, descriptor = pool.member_ref(
            instruction.operand
        )
        callee = MethodId(class_name, method_name)
        parsed = parse_descriptor(descriptor)
        args = [frame.pop() for _ in range(parsed.arity)]
        args.reverse()
        if self.program.has_method(callee):
            self._push_frame(callee, args)
        else:
            for instrument in self.instruments:
                instrument.on_external_call(frame.method_id, callee)
            if parsed.returns_value:
                frame.push(0)

    @staticmethod
    def _check_array(array: Any, index: Any) -> None:
        if not isinstance(array, list):
            raise VMError("array operation on non-array")
        if not isinstance(index, int) or not 0 <= index < len(array):
            raise VMError(
                f"array index {index} out of bounds [0, {len(array)})"
            )

    def _sys(self, frame: Frame, code: int) -> None:
        if code == SysCall.PRINT:
            self.output.append(frame.pop())
        elif code == SysCall.TIME:
            frame.push(self._instructions_executed)
        elif code == SysCall.RAND:
            frame.push(self._rng.randrange(0, 2**31))
        elif code == SysCall.HALT:
            self._halted = True
        elif code == SysCall.BLACKHOLE:
            frame.pop()
        else:
            raise VMError(f"unknown SYS code {code}")


_ARITHMETIC = {
    Opcode.ADD: lambda a, b: _int32(a + b),
    Opcode.SUB: lambda a, b: _int32(a - b),
    Opcode.MUL: lambda a, b: _int32(a * b),
    Opcode.DIV: _truncated_div,
    Opcode.MOD: _truncated_mod,
    Opcode.AND: lambda a, b: _int32(a & b),
    Opcode.OR: lambda a, b: _int32(a | b),
    Opcode.XOR: lambda a, b: _int32(a ^ b),
    Opcode.SHL: lambda a, b: _int32(a << (b & 31)),
    Opcode.SHR: lambda a, b: _int32(a >> (b & 31)),
}

_UNARY_BRANCHES = {
    Opcode.IFEQ: lambda v: v == 0,
    Opcode.IFNE: lambda v: v != 0,
    Opcode.IFLT: lambda v: v < 0,
    Opcode.IFGE: lambda v: v >= 0,
    Opcode.IFGT: lambda v: v > 0,
    Opcode.IFLE: lambda v: v <= 0,
}

_BINARY_BRANCHES = {
    Opcode.IF_ICMPEQ: lambda a, b: a == b,
    Opcode.IF_ICMPNE: lambda a, b: a != b,
    Opcode.IF_ICMPLT: lambda a, b: a < b,
    Opcode.IF_ICMPGE: lambda a, b: a >= b,
    Opcode.IF_ICMPGT: lambda a, b: a > b,
    Opcode.IF_ICMPLE: lambda a, b: a <= b,
}
