"""Program and basic-block containers for the TK ISA.

A :class:`Program` is a single function: an ordered list of basic blocks
with label-based control flow. The compiler passes mutate programs in
place; :meth:`Program.validate` checks structural invariants after every
pass (tests lean on this heavily).
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, Optional

from repro.isa.instructions import Instruction, Opcode
from repro.isa.registers import Reg, RegisterFile, DEFAULT_REGISTER_FILE


class ProgramError(Exception):
    """Raised when a program violates a structural invariant."""


class BasicBlock:
    """A straight-line sequence of instructions ending in a terminator.

    Blocks created mid-construction may temporarily lack a terminator;
    :meth:`Program.validate` enforces termination on finished programs.
    """

    __slots__ = ("label", "instructions")

    def __init__(self, label: str, instructions: Optional[list[Instruction]] = None):
        self.label = label
        self.instructions: list[Instruction] = list(instructions or [])

    @property
    def terminator(self) -> Optional[Instruction]:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    @property
    def body(self) -> list[Instruction]:
        """Instructions excluding the terminator."""
        term = self.terminator
        if term is None:
            return list(self.instructions)
        return self.instructions[:-1]

    def successors(self) -> tuple[str, ...]:
        term = self.terminator
        if term is None:
            return ()
        return term.targets

    def insert_before_terminator(self, instrs: Iterable[Instruction]) -> None:
        """Insert instructions just before the block terminator."""
        new = list(instrs)
        if not new:
            return
        if self.terminator is None:
            self.instructions.extend(new)
        else:
            self.instructions[-1:-1] = new

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:
        return f"BasicBlock({self.label!r}, {len(self.instructions)} instrs)"


class Program:
    """A single-function TK program.

    Attributes:
        name: human-readable program name.
        blocks: ordered blocks; ``blocks[0]`` is the entry block.
        live_in: registers holding meaningful values at entry (function
            arguments / pre-initialised pointers); the resilience runtime
            checkpoints these at startup so any region can recover.
        num_virtual_regs: high-water mark for virtual register numbering.
    """

    def __init__(self, name: str, register_file: RegisterFile = DEFAULT_REGISTER_FILE):
        self.name = name
        self.register_file = register_file
        self.blocks: list[BasicBlock] = []
        self._block_index: dict[str, BasicBlock] = {}
        self.live_in: set[Reg] = set()
        self.num_virtual_regs = 0

    # -- block management --------------------------------------------------

    def add_block(self, label: str) -> BasicBlock:
        if label in self._block_index:
            raise ProgramError(f"duplicate block label {label!r}")
        block = BasicBlock(label)
        self.blocks.append(block)
        self._block_index[label] = block
        return block

    def block(self, label: str) -> BasicBlock:
        try:
            return self._block_index[label]
        except KeyError:
            raise ProgramError(f"no block labelled {label!r}") from None

    def has_block(self, label: str) -> bool:
        return label in self._block_index

    def insert_block_after(self, after: str, label: str) -> BasicBlock:
        """Create a new block positioned immediately after ``after``."""
        if label in self._block_index:
            raise ProgramError(f"duplicate block label {label!r}")
        block = BasicBlock(label)
        pos = self.blocks.index(self._block_index[after])
        self.blocks.insert(pos + 1, block)
        self._block_index[label] = block
        return block

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise ProgramError("program has no blocks")
        return self.blocks[0]

    # -- register management -------------------------------------------------

    def fresh_vreg(self) -> Reg:
        """Allocate a fresh virtual register."""
        reg = Reg.virt(self.num_virtual_regs)
        self.num_virtual_regs += 1
        return reg

    def note_vreg(self, reg: Reg) -> None:
        """Record an externally-created virtual register number."""
        if reg.is_virtual and reg.index >= self.num_virtual_regs:
            self.num_virtual_regs = reg.index + 1

    # -- iteration -------------------------------------------------------------

    def instructions(self) -> Iterator[Instruction]:
        """All instructions in block order."""
        for block in self.blocks:
            yield from block.instructions

    def instructions_with_blocks(self) -> Iterator[tuple[BasicBlock, Instruction]]:
        for block in self.blocks:
            for instr in block.instructions:
                yield block, instr

    def all_registers(self) -> set[Reg]:
        regs: set[Reg] = set(self.live_in)
        for instr in self.instructions():
            if instr.dest is not None:
                regs.add(instr.dest)
            regs.update(instr.srcs)
        return regs

    @property
    def static_size_bytes(self) -> int:
        """Binary size of the program, for the Figure 26 code-size study."""
        return sum(i.encoded_size for i in self.instructions())

    @property
    def num_instructions(self) -> int:
        return sum(len(b) for b in self.blocks)

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants; raise :class:`ProgramError` if broken.

        Invariants:
          * every block ends with exactly one terminator, which is its last
            instruction;
          * all branch targets name existing blocks;
          * at least one RET is reachable (the program can finish);
          * no instruction appears twice (uids unique).
        """
        if not self.blocks:
            raise ProgramError("program has no blocks")
        seen_uids: set[int] = set()
        has_ret = False
        for block in self.blocks:
            if not block.instructions:
                raise ProgramError(f"block {block.label!r} is empty")
            term = block.instructions[-1]
            if not term.is_terminator:
                raise ProgramError(
                    f"block {block.label!r} does not end in a terminator "
                    f"(ends with {term!r})"
                )
            for pos, instr in enumerate(block.instructions):
                if instr.uid in seen_uids:
                    raise ProgramError(
                        f"instruction {instr!r} appears twice in the program"
                    )
                seen_uids.add(instr.uid)
                if instr.is_terminator and pos != len(block.instructions) - 1:
                    raise ProgramError(
                        f"terminator {instr!r} mid-block in {block.label!r}"
                    )
                for target in instr.targets:
                    if target not in self._block_index:
                        raise ProgramError(
                            f"{instr!r} targets unknown block {target!r}"
                        )
            if term.op is Opcode.RET:
                has_ret = True
        if not has_ret:
            raise ProgramError("program has no RET")

    def copy(self) -> "Program":
        """Structural deep copy (fresh instruction objects)."""
        clone = Program(self.name, self.register_file)
        clone.live_in = set(self.live_in)
        clone.num_virtual_regs = self.num_virtual_regs
        for block in self.blocks:
            new_block = clone.add_block(block.label)
            new_block.instructions = [i.copy() for i in block.instructions]
        return clone

    def __repr__(self) -> str:
        return (
            f"Program({self.name!r}, blocks={len(self.blocks)}, "
            f"instrs={self.num_instructions})"
        )


def program_digest(program: Program) -> str:
    """Uid-free structural digest of a program (process-invariant).

    Two programs with the same digest execute identically, so the
    sweep planner keys shared functional runs and design points by it.
    Registers are numbered as trace fields number them (virtual
    registers offset by 1024).
    """

    def slot(reg: Reg) -> int:
        return reg.index + 1024 if reg.is_virtual else reg.index

    hasher = hashlib.sha256()
    hasher.update(program.name.encode())
    for block in program.blocks:
        hasher.update(f"\n@{block.label}".encode())
        for instr in block.instructions:
            dest = -1 if instr.dest is None else slot(instr.dest)
            srcs = tuple(slot(r) for r in instr.srcs)
            kind = "" if instr.store_kind is None else instr.store_kind.name
            hasher.update(
                f"\n{instr.op.name}|{dest}|{srcs}|{instr.imm}"
                f"|{instr.targets}|{instr.region_id}|{kind}".encode()
            )
    return hasher.hexdigest()[:16]
