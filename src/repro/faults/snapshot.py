"""Snapshot acceleration for fault-injection campaigns.

A campaign's cost is dominated by re-simulating the *same* fault-free
prefix and suffix thousands of times: an injection at tick ``T`` first
replays ``T`` clean ticks to reach the strike, applies a one-tick
perturbation, recovers within a few WCDL windows, and then replays the
remaining clean suffix to completion. This module removes both replays:

* :func:`record_golden_run` executes each (benchmark, variant) pair
  fault-free **once**, capturing periodic :class:`MachineSnapshot`\\ s
  plus an *architectural fingerprint* at every region-boundary point
  (a tick whose next instruction is a ``BOUNDARY``) — where a
  recovered run, which rolls back to a boundary, re-enters the golden
  stream.
* :func:`prepare_accelerated_run` fast-forwards an injection run by
  restoring the nearest snapshot strictly before the injection tick
  (prefix removal) and installs a convergence checker.
* The checker compares the injected machine's fingerprint against the
  golden stream at the same boundary points, after recovery quiesces;
  on a match it raises :class:`ConvergedExit`, and the injector splices
  the golden terminal statistics (suffix removal).

Soundness
---------

The fingerprint is a stable 64-bit hash of the machine's *observable
state*: program point, live-register values, and the effective memory
image (the cell dict with every pending store-buffer write applied, as
an incremental XOR fingerprint).  The checker only ever compares it
once the injected machine carries **no outstanding fault state**: no
armed injection, no pending detection, no tainted registers or cells,
and no latent ECC flips in memory or checkpoint storage.  Under that
guard the observable state determines the entire future:

* **Control flow and step count** depend only on the program point,
  register reads (``instr.srcs``) and load values.  A load returns the
  youngest pending store-buffer value or the memory cell — exactly what
  the effective image encodes — so two machines with equal observable
  state execute the same instruction sequence forever.
* **The final data image** is the effective image evolved by those same
  writes: quarantined stores drain the very values the fingerprint
  already folded in, so drain *timing* (RBB deadlines, CLQ fast-release
  decisions) cannot change it.
* **Recovery metadata is write-only.**  Checkpoint bindings, coloring
  maps, checkpoint storage and the CLQ are only ever *read* during a
  recovery or an injection — and with no fault state left, neither can
  occur again on either run.  The structures may differ (a recovered
  run's free-list rotation and binding kinds diverge from golden's
  forever), but no future transition observes the difference.
* **Liveness filtering** — recovery rebuilds only checkpointed (live)
  registers, so a recovered run's dead registers differ from golden
  forever.  Dead registers cannot influence any future transition, so
  the encoding includes only the registers *live at the current program
  point*, computed by a backward dataflow fixpoint over the compiled
  CFG.

Equal observable state therefore implies identical futures — final
memory image, remaining step count, and zero further recoveries,
detections or parity events on both sides.  Splicing cannot change an
outcome's taxonomy class, only the wall-clock spent computing it.  Two
distinct golden ticks can never share an observable state (the machine
is deterministic, so both would have to finish in the same number of
remaining steps), hence duplicate fingerprints are genuine 64-bit
collisions; they are dropped from the index, which is always sound — a
missed match merely means the run simulates on.  For the same reason
any fixed set of program points may be indexed: a sparser index can
only miss a match, and a missed match simulates on to the next indexed
point.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from repro.compiler.pipeline import CompiledProgram
from repro.runtime.machine import (
    MachineSnapshot,
    ResilienceConfig,
    ResilientMachine,
    SnapshotError,
    _cell_hash,
    memory_fingerprint,
)
from repro.runtime.memory import Memory

DEFAULT_SNAPSHOT_INTERVAL = 256

_M64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    """splitmix64 finalizer: full-avalanche 64-bit mix, pure arithmetic.

    Process-independent by construction (Python's builtin ``hash`` is
    salted per process, so golden records written by one worker must not
    be matched with it), and an order of magnitude cheaper than hashing
    a ``repr`` — the golden recording computes a fingerprint at every
    region-boundary point of the run.
    """
    x &= _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


class ConvergedExit(Exception):
    """Raised out of ``ResilientMachine.run`` when the injected run's
    architectural state matches a boundary point of the golden stream.

    Carries enough to splice the golden suffix: ``golden_tick`` /
    ``golden_steps`` locate the matched point in the golden run and
    ``steps`` is the injected run's own step count at the match.
    """

    def __init__(self, golden_tick: int, golden_steps: int, steps: int):
        super().__init__(
            f"converged with the golden run at tick {golden_tick}"
        )
        self.golden_tick = golden_tick
        self.golden_steps = golden_steps
        self.steps = steps


class _FingerprintEngine:
    """Computes observable-state fingerprints for one machine.

    ``at_boundary[label][pc]`` flags the loop-bottom points whose next
    instruction is a ``BOUNDARY`` (plus a fall-off sentinel per block):
    the only points the recorder indexes and the checker compares.
    """

    def __init__(self, machine: ResilientMachine):
        self.machine = machine
        program = machine.program
        self._block_index = {b.label: i for i, b in enumerate(program.blocks)}
        self._succs: dict[str, list[str]] = {}
        for block in program.blocks:
            succs: list[str] = []
            for instr in block.instructions:
                if instr.targets:
                    succs.extend(instr.targets)
            self._succs[block.label] = succs
        self._block_live_in = self._solve_liveness(program)
        # label -> per-position live-register tuples (lazily materialised).
        self._live: dict[str, list[tuple]] = {}
        self._blocks = {b.label: b.instructions for b in program.blocks}
        self.at_boundary: dict[str, list[bool]] = {
            b.label: [i.is_boundary for i in b.instructions] + [False]
            for b in program.blocks
        }

    # -- liveness ---------------------------------------------------------

    def _solve_liveness(self, program) -> dict[str, set]:
        """Backward may-liveness fixpoint over the compiled CFG.

        Every register read in the machine goes through ``instr.srcs``
        (ALU operands, load bases, store value+base, branch operands,
        checkpoint sources), and every write through ``instr.dest``, so
        gen/kill straight off the instruction encoding is exact.
        """
        live_in: dict[str, set] = {b.label: set() for b in program.blocks}
        changed = True
        while changed:
            changed = False
            for block in reversed(program.blocks):
                live: set = set()
                for succ in self._succs[block.label]:
                    live |= live_in[succ]
                for instr in reversed(block.instructions):
                    if instr.dest is not None:
                        live = live - {instr.dest}
                    if instr.srcs:
                        live = live | set(instr.srcs)
                if live != live_in[block.label]:
                    live_in[block.label] = live
                    changed = True
        return live_in

    def _live_list(self, label: str) -> list[tuple]:
        """Live register *indices* before each instruction (plus live-out).

        Stored as sorted index tuples so :meth:`fingerprint` can read the
        machine's flat register list directly; the canon's value order is
        unchanged (ascending register index, exactly as before).
        """
        cached = self._live.get(label)
        if cached is not None:
            return cached
        instrs = self._blocks[label]
        live: set = set()
        for succ in self._succs[label]:
            live |= self._block_live_in[succ]
        out: list[tuple] = [()] * (len(instrs) + 1)
        out[len(instrs)] = tuple(sorted(r.index for r in live))
        for i in range(len(instrs) - 1, -1, -1):
            instr = instrs[i]
            if instr.dest is not None:
                live = live - {instr.dest}
            if instr.srcs:
                live = live | set(instr.srcs)
            out[i] = tuple(sorted(r.index for r in live))
        self._live[label] = out
        return out

    # -- the observable canon ---------------------------------------------

    def fingerprint(self, label: str, pc: int, t: int) -> int:
        """Stable hash of the machine's observable state at the
        loop-bottom point ``(label, pc)`` reached at tick ``t``.

        The canon is (block, pc, live-register values, effective memory
        fingerprint), where the effective image applies every pending
        regular store-buffer entry over the cell dict — exactly the
        values loads can observe and drains will eventually merge.  See
        the module docstring for why this determines the entire future
        once no fault state is outstanding.
        """
        m = self.machine
        live = self._live_list(label)
        live_regs = live[pc] if pc < len(live) else live[-1]
        vals = m.regs.vals
        eff = m._mem_fp
        entries = m.sb.entries
        if entries:
            pending: dict[int, int] = {}
            for entry in entries:
                if not entry.is_checkpoint:
                    pending[entry.addr] = entry.value  # youngest wins
            if pending:
                cells_get = m.mem.cells.get
                for addr, value in pending.items():
                    eff ^= _cell_hash(addr, cells_get(addr, 0))
                    eff ^= _cell_hash(addr, value)
        # Iterated splitmix64 over (block, pc, live values..., eff): each
        # step is order-sensitive, so this is a stable 64-bit digest of
        # the same canonical tuple the old repr-based hash encoded.
        h = _mix64(self._block_index[label] * 0x9E3779B97F4A7C15 + pc + 1)
        for i in live_regs:
            h = _mix64(h ^ (vals[i] & _M64))
        return _mix64(h ^ (eff & _M64))


def _canon_expr(expr) -> tuple:
    return (
        expr.kind,
        expr.opcode.name if expr.opcode is not None else None,
        tuple(r.index for r in expr.regs),
        expr.imm,
    )


def _canon_binding(binding) -> tuple:
    kind, payload = binding
    if kind == "value":
        return (0, payload)
    if kind == "slot":
        return (1, payload)
    return (2, _canon_expr(payload))


def full_state_canonical(machine: ResilientMachine, t: int) -> tuple:
    """Exhaustive translation-invariant encoding of the machine state.

    Much stricter than the observable canon the convergence checker
    uses: every protocol structure is included, with region-instance
    ids renumbered by age rank and timestamps made relative to ``t``.
    The parity suite uses it to assert that ``snapshot``/``restore``
    reproduces a machine *exactly*, not merely observably.
    """
    m = machine
    rbb = m.rbb
    imap = {
        inst.instance: rank
        for rank, inst in enumerate(rbb.active_instances())
    }
    rank_of = imap.get
    cur = rbb.current
    return (
        tuple(sorted((r.index, v) for r, v in m.regs.items())),
        tuple(sorted(m.mem.cells.items())),
        (cur.region_id, cur.start_time - t) if cur is not None else None,
        tuple(
            (inst.region_id, inst.start_time - t, inst.end_time - t)
            for inst in rbb.unverified
        ),
        m.sb.canonical(imap),
        m.clq.canonical(imap) if m.clq is not None else None,
        m.coloring.canonical(imap),
        tuple(sorted(m.ckpt_storage.items())),
        tuple(sorted(
            (idx, _canon_binding(b)) for idx, b in m.vc_bindings.items()
        )),
        tuple(
            (
                rank_of(inst, ~inst),
                tuple(
                    (ridx, _canon_binding(b))
                    for ridx, b in bindings.items()
                ),
            )
            for inst, bindings in m.pending_bindings.items()
        ),
        m._detection_due is None,
        tuple(sorted(
            (key, tuple(sorted(bits)))
            for key, bits in m._slot_flips.items()
        )),
        tuple(sorted(
            (addr, tuple(sorted(bits)))
            for addr, bits in m._mem_flips.items()
        )),
        tuple(sorted(r.index for r in m._tainted_regs)),
        tuple(sorted(m._tainted_cells)),
    )


class _ConvergenceChecker:
    """``_on_tick`` hook: raises :class:`ConvergedExit` on a golden match.

    Only boundary points are compared (the golden index holds no
    others). Checks are gated on the machine carrying *no outstanding
    fault state*, then throttled with an exponential backoff (reset
    whenever a new recovery fires, since convergence usually follows
    within a few ticks of the rollback).
    """

    MAX_GAP = 64

    __slots__ = ("_machine", "_fp_index", "_engine", "_at_boundary",
                 "_gap", "_skip", "_recoveries")

    def __init__(self, machine: ResilientMachine,
                 fp_index: dict[int, tuple[int, int]],
                 engine: _FingerprintEngine):
        self._machine = machine
        self._fp_index = fp_index
        self._engine = engine
        self._at_boundary = engine.at_boundary
        self._gap = 1
        self._skip = 0
        self._recoveries = machine.stats.recoveries

    def __call__(self, label: str, pc: int, t: int, steps: int) -> None:
        if not self._at_boundary[label][pc]:
            return
        m = self._machine
        if m.injection is not None:
            return  # strike not applied yet — nothing to converge from
        recoveries = m.stats.recoveries
        if recoveries != self._recoveries:
            self._recoveries = recoveries
            self._gap = 1
            self._skip = 0
        if (
            m._tainted_cells
            or m._tainted_regs
            or m._detection_due is not None
            or m._slot_flips
            or m._mem_flips
        ):
            # Outstanding fault state: cannot have converged yet. Checked
            # cells-first — silent corruptions keep tainted cells for the
            # whole remaining run, so that read short-circuits the most.
            return
        if self._skip:
            self._skip -= 1
            return
        hit = self._fp_index.get(self._engine.fingerprint(label, pc, t))
        if hit is not None:
            raise ConvergedExit(
                golden_tick=hit[0], golden_steps=hit[1], steps=steps
            )
        self._skip = self._gap
        if self._gap < self.MAX_GAP:
            self._gap <<= 1


@dataclass
class GoldenRecord:
    """One fault-free run's acceleration artefacts.

    ``fp_index`` maps each unambiguous boundary-point fingerprint to its
    ``(tick, steps)`` position in the golden run; ``snapshots`` carry
    delta-encoded machine images at ``snap_times`` (sorted ascending),
    taken on the tick grid ``interval`` apart.
    """

    interval: int | None
    max_steps: int
    total_ticks: int
    total_steps: int
    fp_index: dict[int, tuple[int, int]] = field(repr=False)
    snap_times: list[int] = field(repr=False)
    snapshots: list[MachineSnapshot] = field(repr=False)

    def snapshot_index_before(self, time: int) -> int | None:
        """Index of the latest snapshot strictly before ``time``.

        Strict: restoring *at* the injection tick would land after
        ``_maybe_inject`` already passed that tick, silently skipping
        the strike.
        """
        i = bisect_left(self.snap_times, time) - 1
        return i if i >= 0 else None

    def cells_at(self, index: int, base_cells: dict[int, int]) -> dict[int, int]:
        """Memory cell dict at snapshot ``index``: the initial image plus
        every delta up to and including that snapshot.

        Rebuilt fresh on every call — memoising per-snapshot full images
        would multiply the working set by the snapshot count.
        """
        cells = dict(base_cells)
        for snap in self.snapshots[: index + 1]:
            cells.update(snap.mem_delta)
        return cells


def record_golden_run(
    compiled: CompiledProgram,
    config: ResilienceConfig,
    memory: Memory,
    *,
    interval: int | None = DEFAULT_SNAPSHOT_INTERVAL,
    max_steps: int = 4_000_000,
    golden_image: dict[int, int] | None = None,
) -> GoldenRecord:
    """Execute one fault-free run and capture its acceleration record.

    ``interval`` spaces the periodic snapshots in ticks (``None`` or
    ``<= 0`` records fingerprints only — fast-forward disabled, the
    degenerate configuration the parity suite exercises).  When
    ``golden_image`` (the interpreter reference) is given, the run's
    final data image is checked against it: splicing is only sound if
    the golden suffix itself terminates correctly.
    """
    if interval is not None and interval <= 0:
        interval = None
    machine = ResilientMachine(compiled, config, memory.copy(),
                               max_steps=max_steps)
    machine._mem_fp = memory_fingerprint(machine.mem.cells)
    dirty: set[int] = set()
    machine._mem_dirty = dirty
    engine = _FingerprintEngine(machine)
    at_boundary = engine.at_boundary
    fp_index: dict[int, tuple[int, int]] = {}
    ambiguous: set[int] = set()
    snapshots: list[MachineSnapshot] = []
    snap_times: list[int] = []
    prev_cells = dict(machine.mem.cells)
    ticks = 0
    next_snap_t = interval if interval is not None else float("inf")

    def hook(label: str, pc: int, t: int, steps: int) -> None:
        nonlocal ticks, next_snap_t
        ticks = t
        if at_boundary[label][pc]:
            fp = engine.fingerprint(label, pc, t)
            if fp in ambiguous:
                pass
            elif fp in fp_index:
                # Two distinct golden ticks share a fingerprint (either a
                # genuinely revisited state or a 64-bit collision):
                # matching it could splice the wrong suffix length, so
                # drop it.
                del fp_index[fp]
                ambiguous.add(fp)
            else:
                fp_index[fp] = (t, steps)
        if t >= next_snap_t:
            snap = machine.snapshot(label, pc, t, steps, prev_cells=prev_cells)
            snapshots.append(snap)
            snap_times.append(t)
            prev_cells.update(snap.mem_delta)
            dirty.clear()
            next_snap_t = t + interval

    machine._on_tick = hook
    stats = machine.run()
    machine._on_tick = None
    if golden_image is not None and machine.mem.data_image() != golden_image:
        raise SnapshotError(
            "fault-free resilient run diverged from the interpreter "
            "reference image; refusing to build an acceleration record"
        )
    # Every loop iteration either commits a tick (including the final
    # RET), executes a boundary, or takes a recovery — and a fault-free
    # run never recovers — so the exact step total is:
    total_steps = stats.committed + stats.regions
    return GoldenRecord(
        interval=interval,
        max_steps=max_steps,
        total_ticks=ticks,
        total_steps=total_steps,
        fp_index=fp_index,
        snap_times=snap_times,
        snapshots=snapshots,
    )


def prepare_accelerated_run(
    machine: ResilientMachine,
    record: GoldenRecord,
    injection_time: int,
    base_memory: Memory,
) -> None:
    """Fast-forward ``machine`` to just before ``injection_time`` and arm
    the convergence checker.

    Must be called *before* ``arm_injection`` (restore overwrites the
    machine's injection field) and before ``run``.
    """
    index = record.snapshot_index_before(injection_time)
    if index is not None:
        snap = record.snapshots[index]
        machine.restore(snap, cells=record.cells_at(index, base_memory.cells))
    if machine._mem_fp is None:
        machine._mem_fp = memory_fingerprint(machine.mem.cells)
    engine = _FingerprintEngine(machine)
    machine._on_tick = _ConvergenceChecker(machine, record.fp_index, engine)
