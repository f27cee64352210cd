"""Checkpoint pruning tests (Section 4.1.3, Penny-style).

The pruning scenarios need real region boundaries between a definition
and the consuming region; the helpers below insert filler stores and use
a store cap of 1 so the partitioner creates those boundaries.
"""

from repro.compiler.checkpoints import count_checkpoints, insert_eager_checkpoints
from repro.compiler.pruning import (
    PRUNED_ANNOTATION,
    prune_checkpoints,
    pruned_definitions,
)
from repro.compiler.regions import partition_regions
from repro.isa.builder import ProgramBuilder
from repro.isa.instructions import Opcode


def _prep(prog, cap=1):
    partition_regions(prog, max_stores=cap)
    insert_eager_checkpoints(prog)
    return prog


class TestPruning:
    def test_constant_checkpoint_pruned(self):
        """A LI definition's checkpoint is always reconstructable."""
        b = ProgramBuilder("c")
        b.begin_block("entry")
        base = b.li(0x100)
        filler = b.li(1)
        k = b.li(42)
        b.store(filler, base, offset=64)  # forces a boundary before use of k
        b.store(k, base)
        b.ret()
        prog = _prep(b.finish())
        before = count_checkpoints(prog)
        assert before >= 1
        stats = prune_checkpoints(prog)
        assert stats.pruned >= 1
        assert count_checkpoints(prog) < before
        annotated = pruned_definitions(prog)
        assert any(i.op is Opcode.LI for i in annotated)
        consts = [
            i.annotations[PRUNED_ANNOTATION]
            for i in annotated
            if i.op is Opcode.LI
        ]
        assert all(e.kind == "const" for e in consts)

    def test_derived_value_pruned_when_operand_stable(self):
        """y = x + 4 with x never redefined: y reconstructs from x's
        checkpoint at recovery time."""
        b = ProgramBuilder("prune")
        b.begin_block("entry")
        base = b.li(0x100)
        x = b.li(10)
        y = b.addi(x, 4)
        b.store(x, base)
        b.store(y, base, offset=4)
        b.store(x, base, offset=8)
        b.ret()
        prog = _prep(b.finish())
        stats = prune_checkpoints(prog)
        assert stats.pruned >= 1
        exprs = [
            i.annotations[PRUNED_ANNOTATION]
            for i in pruned_definitions(prog)
            if i.op is Opcode.ADDI
        ]
        assert exprs and exprs[0].kind == "op"

    def test_not_pruned_when_operand_redefined_later(self):
        """y = x + 4 but x is redefined afterwards: x's recovery-time
        checkpoint would hold the new value, so y keeps its checkpoint."""
        b = ProgramBuilder("nope")
        b.begin_block("entry")
        base = b.li(0x100)
        x = b.li(10)
        y = b.addi(x, 4)
        b.li(99, dest=x)  # x redefined -> y not reconstructable
        b.store(x, base)
        b.store(y, base, offset=4)
        b.store(x, base, offset=8)
        b.ret()
        prog = _prep(b.finish())
        prune_checkpoints(prog)
        remaining = [
            i.srcs[0] for i in prog.instructions() if i.is_checkpoint
        ]
        assert y in remaining

    def test_load_checkpoint_never_pruned(self):
        """Loaded values cannot be reconstructed (memory may change)."""
        b = ProgramBuilder("ld")
        b.begin_block("entry")
        base = b.li(0x100)
        v = b.load(base)
        filler = b.li(1)
        b.store(filler, base, offset=64)
        b.store(v, base, offset=4)
        b.ret()
        prog = _prep(b.finish())
        prune_checkpoints(prog)
        remaining = [i.srcs[0] for i in prog.instructions() if i.is_checkpoint]
        assert v in remaining

    def test_iv_self_update_not_pruned(self):
        """i = i + 1 cannot be reconstructed from i's own latest
        checkpoint (self-reference)."""
        from helpers import build_sum_loop

        prog = _prep(build_sum_loop(trip=4), cap=2)
        before_regs = {
            i.srcs[0] for i in prog.instructions() if i.is_checkpoint
        }
        prune_checkpoints(prog)
        after_regs = {
            i.srcs[0] for i in prog.instructions() if i.is_checkpoint
        }
        loop = prog.block("loop")
        iv_regs = {
            i.dest
            for i in loop.instructions
            if i.dest is not None and i.dest in i.srcs
        }
        assert iv_regs
        assert iv_regs & after_regs == iv_regs & before_regs

    def test_transitive_boundedness(self):
        """y reconstructs from x because x's own definition is bound by a
        pruned-checkpoint annotation (const)."""
        b = ProgramBuilder("chain")
        b.begin_block("entry")
        base = b.li(0x100)
        x = b.li(7)
        y = b.addi(x, 1)
        b.store(x, base)
        b.store(y, base, offset=4)
        b.store(x, base, offset=8)
        b.ret()
        prog = _prep(b.finish())
        stats = prune_checkpoints(prog)
        assert stats.pruned >= 2  # x via const, y via op(x)

    def test_prune_preserves_program_validity(self):
        b = ProgramBuilder("v")
        b.begin_block("entry")
        base = b.li(0x100)
        k = b.li(5)
        b.store(k, base, offset=16)
        b.store(k, base)
        b.ret()
        prog = _prep(b.finish())
        prune_checkpoints(prog)
        prog.validate()

    def test_examined_counts_eager_pairs(self):
        """Every eager (def, checkpoint) pair is examined exactly once,
        prunable or not: two constants are pruned, the loaded value
        (its cell is stored to later) keeps its checkpoint."""
        b = ProgramBuilder("e")
        b.begin_block("entry")
        base = b.li(0x100)
        k = b.li(5)
        x = b.load(base, offset=8)
        b.store(k, base, offset=16)
        b.store(x, base, offset=8)
        b.store(k, base)
        b.ret()
        prog = _prep(b.finish())
        pairs = count_checkpoints(prog)
        stats = prune_checkpoints(prog)
        assert (pairs, stats.examined, stats.pruned) == (3, 3, 2)
        assert count_checkpoints(prog) == pairs - stats.pruned

    def test_pruned_run_still_functionally_equivalent(self):
        from repro.runtime.interpreter import execute
        from repro.runtime.memory import Memory

        b = ProgramBuilder("eq")
        b.begin_block("entry")
        base = b.li(0x100)
        x = b.li(3)
        y = b.addi(x, 9)
        b.store(x, base)
        b.store(y, base, offset=4)
        b.ret()
        golden = execute(b.program.copy(), Memory()).memory.data_image()
        prog = _prep(b.finish())
        prune_checkpoints(prog)
        image = execute(prog, Memory()).memory.data_image()
        assert image == golden
