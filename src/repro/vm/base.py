"""Shared IR execution engine.

Both executors — the mat2c model (GCTD-allocated storage) and the mcc
model (everything a heap ``mxArray``) — run the same SSA-inverted IR
through this engine, so their *semantics* are identical by
construction and only their storage/cost accounting differs (the
subclass hooks).

``run`` first *decodes* every block into a list of :class:`Step`
records, once per run: operands resolved to environment keys or to
constants boxed once (read-only buffers, shared by every execution of
the step), a bound evaluator, the work estimator of the op class, and
whatever static facts the subclass's :meth:`BaseIRExecutor.decode`
hook settles ahead of time.  The main loop then runs the records with
no per-step string or type dispatch — the move from run-time to
compile-time dispatch the paper's generated C makes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.frontend.source import MatlabError
from repro.ir.cfg import IRFunction
from repro.ir.instr import (
    Branch,
    Const,
    Instr,
    Jump,
    Operand,
    Ret,
    StrConst,
    Var,
)
from repro.memsim.costs import CostModel, DEFAULT_COSTS
from repro.memsim.meter import MemoryReport
from repro.runtime import ops
from repro.runtime.builtins import RuntimeContext, call_builtin
from repro.runtime.errors import MatlabRuntimeError
from repro.runtime.indexing import COLON, subsasgn, subsref
from repro.runtime.marray import MArray
from repro.vm.work import work_estimator


class ExecutionLimitExceeded(MatlabError):
    pass


@dataclass(slots=True)
class ExecutionResult:
    output: str
    report: MemoryReport
    steps: int
    env: dict[str, MArray] = field(default_factory=dict)


_BINOPS = {
    "add": ops.add,
    "sub": ops.sub,
    "elmul": ops.elmul,
    "eldiv": ops.eldiv,
    "elldiv": ops.elldiv,
    "elpow": ops.elpow,
    "mul": ops.mul,
    "div": ops.div,
    "ldiv": ops.ldiv,
    "pow": ops.pow_,
    "lt": ops.lt,
    "le": ops.le,
    "gt": ops.gt,
    "ge": ops.ge,
    "eq": ops.eq,
    "ne": ops.ne,
    "and": ops.and_,
    "or": ops.or_,
}

#: ops whose evaluator needs nothing from the instruction but its args
_EVALUATORS: dict[str, Callable[[list], list[MArray]]] = {
    "const": lambda args: [args[0]],
    "copy": lambda args: [args[0]],
    "neg": lambda args: [ops.neg(args[0])],
    "not": lambda args: [ops.not_(args[0])],
    "transpose": lambda args: [ops.transpose(args[0], conjugate=False)],
    "ctranspose": lambda args: [ops.transpose(args[0], conjugate=True)],
    "range": lambda args: [ops.make_range(args[0], args[1], args[2])],
    # start + counter*step (bounds args[2] carried for analysis)
    "forindex": lambda args: [MArray.from_scalar(
        args[0].scalar() + args[3].scalar() * args[1].scalar()
    )],
    "horzcat": lambda args: [ops.horzcat(args)],
    "vertcat": lambda args: [ops.vertcat(args)],
    "empty": lambda args: [MArray.empty()],
    "undef": lambda args: [MArray.empty()],
}

Fetch = Callable[[dict], list]


@dataclass(slots=True)
class Step:
    """One instruction, decoded for the main loop."""

    instr: Instr
    #: ``env -> args``: operand values in instruction order
    fetch: Fetch
    #: ``args -> results``
    evaluate: Callable[[list], list[MArray]]
    #: environment keys the results are stored under
    writes: tuple[str, ...]
    #: the op class's :mod:`repro.vm.work` estimator, ``(args, results)``
    work: Callable[[list, list], float]
    #: whatever the executor's ``decode`` hook settled statically
    facts: Any = None


@dataclass(slots=True)
class _Block:
    steps: list[Step]
    terminator: object
    #: ``env -> [condition]`` for a Branch
    condition: Fetch | None = None


#: a ``:`` subscript of subsref/subsasgn
_COLON_SUBSCRIPT = StrConst(":")


def _box(operand: Const | StrConst) -> MArray:
    """A literal as an MArray built once and shared by every use, so
    its buffer is made read-only: no operation may write through it."""
    if isinstance(operand, Const):
        value = MArray.from_scalar(operand.value)
    else:
        value = MArray.from_string(operand.value)
    value.data.flags.writeable = False
    return value


class BaseIRExecutor:
    """Executes non-SSA IR; subclasses implement the accounting hooks."""

    def __init__(
        self,
        func: IRFunction,
        ctx: RuntimeContext | None = None,
        costs: CostModel = DEFAULT_COSTS,
        max_steps: int = 20_000_000,
    ) -> None:
        self.func = func
        self.ctx = ctx or RuntimeContext()
        self.costs = costs
        self.max_steps = max_steps
        self.env: dict[str, MArray] = {}
        self.clock = 0.0
        self.steps = 0

    # -- subclass hooks ----------------------------------------------------

    def on_start(self) -> None: ...

    def on_finish(self) -> None: ...

    def env_key(self, name: str) -> str:
        """The environment slot variable ``name`` lives in."""
        return name

    def decode(self, instr: Instr) -> Any:
        """Static accounting facts for ``instr`` (``Step.facts``)."""
        return None

    def commit(self, step: Step, args: list, results: list[MArray]) -> None:
        """Store one executed instruction's results, charge its cycles
        and update the memory models."""
        env = self.env
        for key, value in zip(step.writes, results):
            env[key] = value

    def on_block_end(self, block_id: int) -> None: ...

    def build_report(self) -> MemoryReport:
        return MemoryReport()

    # -- decoding --------------------------------------------------------

    def _fetcher(self, operands: list[Operand], indexing: bool) -> Fetch:
        """``env -> args`` for ``operands``: a Var reads its environment
        slot (``KeyError`` when unset); a literal is boxed here, once."""
        keys = [
            self.env_key(o.name) if isinstance(o, Var) else None
            for o in operands
        ]
        if None not in keys:
            if len(keys) == 1:
                (k0,) = keys
                return lambda env: [env[k0]]
            if len(keys) == 2:
                k0, k1 = keys
                return lambda env: [env[k0], env[k1]]
        template = [
            None if key is not None
            else COLON if indexing and operand == _COLON_SUBSCRIPT
            else _box(operand)
            for key, operand in zip(keys, operands)
        ]
        reads = [(i, key) for i, key in enumerate(keys) if key is not None]

        def fetch(env: dict) -> list:
            args = template.copy()
            for i, key in reads:
                args[i] = env[key]
            return args

        return fetch

    def _evaluator(self, instr: Instr) -> Callable[[list], list[MArray]]:
        # the runtime entry points are read from this module's namespace
        # here, at decode time, so patching them (e.g. to plant a
        # slowdown) reaches the VM
        op = instr.op
        ctx = self.ctx
        binop = _BINOPS.get(op)
        if binop is not None:
            return lambda args: [binop(args[0], args[1])]
        fixed = _EVALUATORS.get(op)
        if fixed is not None:
            return fixed
        if op == "subsref":
            ref = subsref
            return lambda args: [ref(args[0], args[1:])]
        if op == "subsasgn":
            asgn = subsasgn
            return lambda args: [asgn(args[0], args[1], args[2:])]
        if op.startswith("call:"):
            call, callee = call_builtin, op[5:]
            nargout = max(1, len(instr.results))
            return lambda args: call(ctx, callee, args, nargout=nargout)
        if op == "display":
            call, label = call_builtin, instr.args[1].value  # type: ignore[union-attr]

            def display(args: list) -> list[MArray]:
                ctx.write(f"{label} =\n")
                call(ctx, "disp", args)
                return []

            return display

        def unsupported(args: list) -> list[MArray]:
            raise MatlabRuntimeError(f"unsupported IR op {op!r}")

        return unsupported

    def _decode_step(self, instr: Instr) -> Step:
        # display echoes its first operand; the label is fixed text
        operands = instr.args[:1] if instr.op == "display" else instr.args
        return Step(
            instr=instr,
            fetch=self._fetcher(
                operands, instr.op in ("subsref", "subsasgn")
            ),
            evaluate=self._evaluator(instr),
            writes=tuple(self.env_key(name) for name in instr.results),
            work=work_estimator(instr),
            facts=self.decode(instr),
        )

    def _decode(self) -> dict[int, _Block]:
        blocks = {}
        for block_id, block in self.func.blocks.items():
            term = block.terminator
            blocks[block_id] = _Block(
                steps=[self._decode_step(instr) for instr in block.instrs],
                terminator=term,
                condition=(
                    self._fetcher([term.condition], False)
                    if isinstance(term, Branch)
                    else None
                ),
            )
        return blocks

    def _undefined(self, operands: list[Operand]) -> MatlabRuntimeError:
        """The error for the first operand with no value in the
        environment (a fetch raised ``KeyError``)."""
        name = next(
            o.name for o in operands
            if isinstance(o, Var) and self.env_key(o.name) not in self.env
        )
        return MatlabRuntimeError(f"use of undefined variable {name!r}")

    def _limit_exceeded(self) -> ExecutionLimitExceeded:
        return ExecutionLimitExceeded(
            f"exceeded {self.max_steps} executed instructions"
        )

    # -- main loop ------------------------------------------------------

    def run(self) -> ExecutionResult:
        self.on_start()
        blocks = self._decode()
        env = self.env
        commit = self.commit
        limit = self.max_steps
        steps = self.steps
        block_id = self.func.entry
        try:
            while True:
                block = blocks[block_id]
                for step in block.steps:
                    steps += 1
                    if steps > limit:
                        raise self._limit_exceeded()
                    try:
                        args = step.fetch(env)
                    except KeyError:
                        raise self._undefined(step.instr.args) from None
                    commit(step, args, step.evaluate(args))
                self.on_block_end(block_id)
                # count the control transfer too: an empty loop (all
                # body instructions dead-coded away) must still hit the
                # limit
                steps += 1
                if steps > limit:
                    raise self._limit_exceeded()
                term = block.terminator
                if isinstance(term, Jump):
                    block_id = term.target
                elif isinstance(term, Branch):
                    try:
                        (cond,) = block.condition(env)
                    except KeyError:
                        raise self._undefined([term.condition]) from None
                    self.clock += self.costs.branch
                    block_id = (
                        term.true_target if cond.is_true()
                        else term.false_target
                    )
                elif isinstance(term, Ret):
                    break
                else:
                    raise MatlabRuntimeError("block without terminator")
        finally:
            self.steps = steps
        self.on_finish()
        return ExecutionResult(
            output=self.ctx.captured(),
            report=self.build_report(),
            steps=self.steps,
            env=self.env,
        )
