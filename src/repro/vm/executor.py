"""The mat2c execution model: GCTD-allocated storage.

Runs the inverted IR against the :mod:`repro.memsim` machine exactly as
the paper's generated C would use memory:

* one stack frame holding every STACK group at its maximal size, fixed
  for the activation (§3.2.1) — scalars and statically-sized arrays
  live here;
* one heap buffer per HEAP group, created on first definition and
  *resized on the fly* to each member's needs (§3.2.2); definitions
  marked ``∘`` skip even the resize check;
* in-place operations write through the group buffer — no allocation,
  no copy;
* identity copies (same group) cost nothing — they were folded away.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.allocation import (
    AllocationPlan,
    MAY_RESIZE,
    NO_RESIZE,
)
from repro.ir.cfg import IRFunction
from repro.ir.instr import Instr, Var
from repro.memsim.costs import CostModel, DEFAULT_COSTS
from repro.memsim.heap import HeapModel
from repro.memsim.meter import MemoryMeter, MemoryReport
from repro.memsim.stack import StackModel
from repro.runtime.builtins import RuntimeContext
from repro.runtime.marray import MArray

from repro.vm.base import BaseIRExecutor

#: fixed text+data of a mat2c binary, plus per-instruction inlined code
MAT2C_IMAGE_BASE = 400 * 1024
MAT2C_IMAGE_PER_INSTR = 96

#: C scalars/locals bookkeeping per frame
FRAME_OVERHEAD_BYTES = 512


@dataclass(slots=True)
class _HeapBuffer:
    addr: int
    size: int


#: cost classes of an instruction (``_Facts.kind``)
_FOLDED = "folded copy"        # same-group copy: no code at all
_MOVE = "cross-group copy"     # copy between groups: the bytes move
_INDEXED = "indexing"          # subsref/subsasgn: rate * max(1, work)
_LIBRARY = "library call"      # display/disp/fprintf: a call + work
_SCALAR = "scalar"             # everything else: rate * work


@dataclass(frozen=True, slots=True)
class _Facts:
    """What the plan settles about one instruction before it runs."""

    kind: str
    #: cycles per unit of work (``_INDEXED``/``_SCALAR``)
    rate: float
    #: per result: ``(gid, resize mark)`` of its heap group, or ``None``
    heap: tuple[tuple[int, str] | None, ...]
    #: heap group whose buffer the first result is written into
    touch: int | None


class Mat2CExecutor(BaseIRExecutor):
    def __init__(
        self,
        func: IRFunction,
        plan: AllocationPlan,
        ctx: RuntimeContext | None = None,
        costs: CostModel = DEFAULT_COSTS,
        max_steps: int = 20_000_000,
        aliased: bool = False,
    ) -> None:
        super().__init__(func, ctx, costs, max_steps)
        self.plan = plan
        #: aliased mode keys the environment by *storage group* instead
        #: of name — reads and writes go through the shared buffer just
        #: like the generated C, so a coalescing bug that a name-keyed
        #: environment would hide corrupts output here.  Used by the
        #: soundness-validation tests.
        self.aliased = aliased
        self.heap = HeapModel()
        self.stack = StackModel()
        image = MAT2C_IMAGE_BASE + MAT2C_IMAGE_PER_INSTR * sum(
            len(b.instrs) for b in func.blocks.values()
        )
        # inlined code is hot: most of the (larger) image is resident
        self.meter = MemoryMeter(
            self.heap, self.stack, image,
            resident_image_bytes=int(image * 0.85),
        )
        self._buffers: dict[int, _HeapBuffer] = {}

    # ------------------------------------------------------------------

    def on_start(self) -> None:
        self.stack.push_frame(
            self.plan.stack_frame_bytes() + FRAME_OVERHEAD_BYTES
        )
        self.meter.sample(self.clock)

    def on_finish(self) -> None:
        for buffer in self._buffers.values():
            self.heap.free(buffer.addr)
            self.clock += self.costs.free_call
        self._buffers.clear()
        self.stack.pop_frame()
        self.clock += 1.0
        self.meter.sample(self.clock)

    def env_key(self, name: str) -> str:
        if not self.aliased:
            return name
        gid = self.plan.group_of.get(name)
        return f"@group{gid}" if gid is not None else name

    def decode(self, instr: Instr) -> _Facts:
        plan, costs = self.plan, self.costs
        rate = costs.scalar_op
        op = instr.op
        if op == "copy" and isinstance(instr.args[0], Var):
            # identity assignments were folded away by the C back end
            kind = (
                _FOLDED
                if plan.same_storage(instr.args[0].name, instr.results[0])
                else _MOVE
            )
        elif op == "subsref":
            kind, rate = _INDEXED, costs.subsref_compiled
        elif op == "subsasgn":
            kind, rate = _INDEXED, costs.subsasgn_compiled
        elif op in ("display", "call:disp", "call:fprintf"):
            kind = _LIBRARY
        else:
            kind = _SCALAR
        heap = []
        for name in instr.results:
            gid = plan.group_of.get(name)
            if gid is None or plan.groups[gid].is_stack:
                # unplanned, or frame space preallocated and fixed
                heap.append(None)
            else:
                heap.append((gid, plan.resize_marks.get(name, MAY_RESIZE)))
        return _Facts(
            kind=kind,
            rate=rate,
            heap=tuple(heap),
            # only heap groups ever get a buffer to touch
            touch=heap[0][0] if heap and heap[0] is not None else None,
        )

    def commit(self, step, args, results) -> None:
        env = self.env
        facts = step.facts
        for key, value, heap in zip(step.writes, results, facts.heap):
            env[key] = value
            if heap is not None:
                self._resize(heap, value)
        kind = facts.kind
        if kind is _FOLDED:
            return
        costs = self.costs
        if kind is _MOVE:
            # cross-group copy: move the bytes
            self.clock += costs.element_copy * results[0].numel + 2.0
        elif kind is _SCALAR:
            self.clock += facts.rate * step.work(args, results)
        elif kind is _INDEXED:
            self.clock += facts.rate * max(1.0, step.work(args, results))
        else:
            self.clock += costs.library_call + step.work(args, results)
        gid = facts.touch
        if gid is not None and results:
            buffer = self._buffers.get(gid)
            if buffer is not None:
                self.heap.touch_bytes(buffer.addr, min(
                    buffer.size, results[0].byte_size() or 1
                ))
        self.meter.sample(self.clock)

    def _resize(self, heap: tuple[int, str], value: MArray) -> None:
        """Fit a heap group's buffer to a member's new value (§3.2.2);
        ``heap`` is the member's ``(gid, resize mark)``."""
        gid, mark = heap
        need = value.byte_size()
        buffer = self._buffers.get(gid)
        if buffer is None:
            addr = self.heap.malloc(max(need, 8))
            self._buffers[gid] = _HeapBuffer(addr, max(need, 8))
            self.clock += self.costs.malloc_call
            return
        if mark != NO_RESIZE:
            self.clock += self.costs.resize_check
        if need > buffer.size:
            new_addr, new_pages = self.heap.realloc(buffer.addr, need)
            buffer.addr, buffer.size = new_addr, need
            self.clock += (
                self.costs.realloc_base
                + self.costs.page_touch * new_pages
            )
        elif need < buffer.size and mark == MAY_RESIZE:
            # shrink to the member's needs to relieve heap pressure
            new_addr, _ = self.heap.realloc(buffer.addr, max(need, 8))
            buffer.addr, buffer.size = new_addr, max(need, 8)
            self.clock += self.costs.realloc_base * 0.25

    def build_report(self) -> MemoryReport:
        return self.meter.report()
