"""Pure computational work (scalar operations) of one IR instruction.

This is the cost both compilation models share — the actual numeric
work.  What distinguishes mat2c, mcc, and the interpreter is the
*overhead* they add around it, charged by each executor.
"""

from __future__ import annotations

from typing import Callable

from repro.ir.instr import Instr
from repro.runtime.marray import MArray

_CHEAP_CALLS = frozenset(
    {"size", "numel", "length", "ndims", "isempty", "isreal", "tic", "toc"}
)

#: libm-grade per-element cost (UltraSPARC-era transcendentals are two
#: orders of magnitude above an add — this is why adpt, dominated by
#: integrand evaluations, shows the paper's smallest mat2c/mcc gap)
_TRANSCENDENTAL_COST = 150.0
_TRANSCENDENTALS = frozenset(
    {
        "sin",
        "cos",
        "tan",
        "asin",
        "acos",
        "atan",
        "atan2",
        "sinh",
        "cosh",
        "tanh",
        "exp",
        "log",
        "log2",
        "log10",
    }
)
_SLOWISH_CALLS = frozenset({"sqrt", "norm", "mod", "rem"})
_SLOWISH_COST = 25.0


def computation_work(instr: Instr, args: list, results: list[MArray]) -> float:
    """Approximate scalar-operation count for the instruction."""
    return work_estimator(instr)(args, results)


Estimator = Callable[[list, list], float]


def work_estimator(instr: Instr) -> Estimator:
    """The ``(args, results) -> work`` function of the instruction's op
    class, chosen once so executors do not re-dispatch on every step."""
    op = instr.op
    if op == "mul":
        return _matmul_work
    if op in ("div", "ldiv"):
        return _solve_work
    if op == "subsasgn":
        return _subsasgn_work
    if op.startswith("call:"):
        callee = op[5:]
        if callee in _CHEAP_CALLS:
            return _cheap_call_work
        if callee in _TRANSCENDENTALS:
            return _transcendental_call_work
        if callee in _SLOWISH_CALLS:
            return _slowish_call_work
        return _call_work
    if op in ("elpow", "pow"):
        return _pow_work
    return _result_work


def _result_work(args: list, results: list) -> float:
    """One operation per element produced (or read, for no result)."""
    if len(results) == 1:
        return float(results[0].data.size)
    if results:
        return float(max(r.numel for r in results))
    if args and isinstance(args[0], MArray):
        return float(args[0].numel)
    return 1.0


def _matmul_work(args: list, results: list) -> float:
    if len(args) == 2:
        a, b = args[0], args[1]
        if isinstance(a, MArray) and isinstance(b, MArray):
            if not a.is_scalar and not b.is_scalar:
                # (m×k)·(k×n): m·k·n multiply-adds
                return float(
                    a.shape[0] * a.shape[1] * b.shape[1]
                )
    return _result_work(args, results)


def _solve_work(args: list, results: list) -> float:
    if len(args) == 2:
        a, b = args[0], args[1]
        if isinstance(a, MArray) and isinstance(b, MArray):
            if not a.is_scalar and not b.is_scalar:
                n = max(a.shape[0], a.shape[1])
                return float(n**3) / 3.0  # LU-style solve
    return _result_work(args, results)


def _subsasgn_work(args: list, results: list) -> float:
    rhs = args[1] if len(args) > 1 else None
    moved = rhs.numel if isinstance(rhs, MArray) else 1
    if results and results[0].numel > args[0].numel:
        moved += results[0].numel  # expansion copies the old array
    return float(moved)


def _cheap_call_work(args: list, results: list) -> float:
    return 1.0


def _per_element_call(cost: float | None) -> Estimator:
    """A library call charged ``cost`` per element of its largest
    operand or result (``None``: one operation per element)."""

    def work(args: list, results: list) -> float:
        if not args:
            return _result_work(args, results)
        input_elems = max(
            (a.numel for a in args if isinstance(a, MArray)), default=1
        )
        output_elems = max((r.numel for r in results), default=1)
        elems = float(max(input_elems, output_elems))
        return elems if cost is None else elems * cost

    return work


_call_work = _per_element_call(None)
_transcendental_call_work = _per_element_call(_TRANSCENDENTAL_COST)
_slowish_call_work = _per_element_call(_SLOWISH_COST)


def _pow_work(args: list, results: list) -> float:
    return float(
        max((r.numel for r in results), default=1)
    ) * _TRANSCENDENTAL_COST
