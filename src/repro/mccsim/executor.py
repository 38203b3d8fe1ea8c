"""The mcc execution model (paper §4.4).

Every array is a heap ``mxArray``: an 88-byte struct of meta
information (shape, intrinsic class, flags) plus the payload, set up at
run time as arrays get created.  Every IR operation is a library call
that performs run-time type/shape checks on its operands and returns a
freshly created array.  Copies are sharing + copy-on-write.  Arrays
created inside library calls are deallocated immediately after their
last use in the block (the paper's "deallocated immediately after
being used"); a named variable's old value is freed on reassignment.

The run-time stack stays small — mcc functions pass handles, so the
paper saw a flat 16 KB stack segment for every benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.liveness import compute_liveness
from repro.ir.cfg import IRFunction
from repro.ir.instr import Instr, Var
from repro.memsim.costs import CostModel, DEFAULT_COSTS
from repro.memsim.heap import HeapModel
from repro.memsim.meter import MemoryMeter, MemoryReport
from repro.memsim.stack import StackModel
from repro.runtime.builtins import RuntimeContext
from repro.runtime.marray import MArray

from repro.vm.base import BaseIRExecutor

MXARRAY_HEADER_BYTES = 88  # mcc 2.2's struct size (paper §4.4)

#: mcc binaries are small (operations live in the shared library), but
#: the mapped MATLAB math library dominates the virtual-memory picture.
MCC_IMAGE_BASE = 180 * 1024
MCC_LIBRARY_MAPPED = 620 * 1024
#: fraction of the mapped library a benchmark actually touches
MCC_LIBRARY_RESIDENT_FRACTION = 0.45

#: handle-passing frames only
MCC_FRAME_BYTES = 256


@dataclass(slots=True)
class _Box:
    """One mxArray allocation (possibly shared by several names)."""

    addr: int
    bytes: int
    refs: int = 1


#: how an instruction that does not fold is charged (``_Facts.kind``)
_COPY = "copy"          # copy-on-write share
_CONST = "const"        # a type check; the box is charged on store
_LIBRARY = "library"    # a library call with per-operand checks


@dataclass(frozen=True, slots=True)
class _Facts:
    """What the mcc model knows about one instruction before it runs."""

    never_folds: bool
    kind: str
    #: call overhead plus one type check per operand
    library_base: float
    #: the copied variable whose box a ``copy`` shares
    shares: str | None
    #: names of the Var operands
    var_args: tuple[str, ...]


def _all_scalar(values) -> bool:
    for value in values:
        if value.data.size != 1:
            return False
    return True


class MccExecutor(BaseIRExecutor):
    def __init__(
        self,
        func: IRFunction,
        ctx: RuntimeContext | None = None,
        costs: CostModel = DEFAULT_COSTS,
        max_steps: int = 20_000_000,
    ) -> None:
        super().__init__(func, ctx, costs, max_steps)
        self.heap = HeapModel()
        self.stack = StackModel()
        self.meter = MemoryMeter(
            self.heap,
            self.stack,
            MCC_IMAGE_BASE + MCC_LIBRARY_MAPPED,
            resident_image_bytes=int(
                MCC_IMAGE_BASE
                + MCC_LIBRARY_MAPPED * MCC_LIBRARY_RESIDENT_FRACTION
            ),
        )
        self._box_of: dict[str, _Box] = {}
        # per block: the compiler temporaries not live out of it
        live_out = compute_liveness(func).live_out
        temps = {
            name
            for block in func.blocks.values()
            for instr in block.instrs
            for name in instr.results
            if "$" in name
        }
        self._dead_temps = {
            block_id: temps - live_out.get(block_id, set())
            for block_id in func.blocks
        }

    # ------------------------------------------------------------------

    def on_start(self) -> None:
        self.stack.push_frame(MCC_FRAME_BYTES)
        # mcc codes were observed at a flat 16 KB stack segment
        self.stack.push_frame(MCC_FRAME_BYTES * 2)
        self.stack.pop_frame()
        self.meter.sample(self.clock)

    def on_finish(self) -> None:
        for name in list(self._box_of):
            self._release(name)
        self.stack.pop_frame()
        self.clock += 1.0
        self.meter.sample(self.clock)

    # -- box management ----------------------------------------------------

    def _allocate_box(self, name: str, value: MArray) -> None:
        payload = value.byte_size()
        box = _Box(
            addr=self.heap.malloc(MXARRAY_HEADER_BYTES + payload),
            bytes=MXARRAY_HEADER_BYTES + payload,
        )
        self._box_of[name] = box
        self.clock += self.costs.mxarray_create + self.costs.malloc_call

    def _release(self, name: str) -> None:
        box = self._box_of.pop(name, None)
        if box is None:
            return
        box.refs -= 1
        if box.refs == 0:
            self.heap.free(box.addr)
            self.clock += self.costs.mxarray_free + self.costs.free_call

    def decode(self, instr: Instr) -> _Facts:
        op = instr.op
        costs = self.costs
        if op == "copy":
            kind = _COPY
        elif op == "const":
            kind = _CONST
        else:
            kind = _LIBRARY
        return _Facts(
            # mcc folds all-scalar arithmetic to native doubles at
            # compile time (paper §4.4: only scalars that *don't* get
            # folded are boxed) — this is why adpt's speedup is
            # marginal in Figure 5.  Calls, indexing and display never
            # fold.
            never_folds=(
                op.startswith("call:")
                or op in ("subsref", "subsasgn", "display")
            ),
            kind=kind,
            library_base=(
                costs.library_call
                + costs.type_check * max(1, len(instr.args))
            ),
            shares=(
                instr.args[0].name
                if op == "copy" and isinstance(instr.args[0], Var)
                else None
            ),
            var_args=tuple(instr.used_vars()),
        )

    def commit(self, step, args, results) -> None:
        env = self.env
        facts = step.facts
        box_of = self._box_of
        for name, value in zip(step.writes, results):
            env[name] = value
            if name in box_of:
                self._release(name)  # reassignment frees the old value
            # decided on the environment as just written: in x = x + 1
            # the operand x is the new value
            if not facts.never_folds and value.data.size == 1 and (
                _all_scalar(map(env.__getitem__, facts.var_args))
            ):
                continue  # lives in a C double, not an mxArray
            if facts.shares is not None:
                # copy-on-write: share the source's box
                src_box = box_of.get(facts.shares)
                if src_box is not None:
                    src_box.refs += 1
                    box_of[name] = src_box
                    self.clock += self.costs.cow_share
                    continue
            self._allocate_box(name, value)
        costs = self.costs
        if not facts.never_folds and _all_scalar(args) and _all_scalar(
            results
        ):
            self.clock += costs.element_op * step.work(args, results)
        elif facts.kind is _COPY:
            self.clock += costs.cow_share
        elif facts.kind is _CONST:
            # mcc boxes run-time scalars as 1×1 mxArrays (paper §4.4);
            # creation cost is charged when the result is stored
            self.clock += costs.type_check
        else:
            self.clock += (
                facts.library_base
                + costs.element_op * step.work(args, results)
            )
        self.meter.sample(self.clock)

    def on_block_end(self, block_id: int) -> None:
        # mxArrays created within library calls are deallocated right
        # after their last use (§4.4) — compiler temporaries, in our
        # IR.  *Named* user variables persist until reassigned.
        dead = self._dead_temps[block_id]
        for name in [name for name in self._box_of if name in dead]:
            self._release(name)
        self.meter.sample(self.clock)

    def build_report(self) -> MemoryReport:
        return self.meter.report()
