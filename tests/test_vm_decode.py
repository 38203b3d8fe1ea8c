"""The decoded execution engine (``repro.vm.base``): each block is
decoded once per run into steps with pre-resolved operands, a bound
evaluator and static accounting facts.  These tests pin the behaviour
the decode must keep: error messages, the step limit, aliased mode,
mcc's fold decision, read-only shared constants, and reaching the
runtime through the module namespace."""

import numpy as np
import pytest

import repro.vm.base
from repro.compiler.pipeline import compile_source
from repro.ir.cfg import IRFunction
from repro.ir.instr import Branch, Const, Instr, Jump, Ret, Var
from repro.mccsim.executor import MccExecutor
from repro.runtime.builtins import RuntimeContext
from repro.runtime.errors import MatlabRuntimeError
from repro.verify.mutate import flip_one_coalescing
from repro.vm.base import ExecutionLimitExceeded
from repro.vm.executor import Mat2CExecutor

LOOP = "s = 0;\nfor k = 1:6\n s = s + k;\n disp(s);\nend\n"


def function(*instrs, terminator=None):
    """A one-block IR function of ``(op, results, args)`` triples."""
    func = IRFunction("main")
    block = func.entry_block()
    for op, results, args in instrs:
        block.append(Instr(op=op, results=results, args=args))
    block.terminator = terminator or Ret()
    return func


def executors(result, max_steps=20_000_000):
    """Fresh executors for every IR model of one compilation."""
    return {
        "mat2c": Mat2CExecutor(
            result.exec_func, result.plan, RuntimeContext(seed=1),
            max_steps=max_steps,
        ),
        "mat2c-aliased": Mat2CExecutor(
            result.exec_func, result.plan, RuntimeContext(seed=1),
            max_steps=max_steps, aliased=True,
        ),
        "mcc": MccExecutor(
            result.exec_func, RuntimeContext(seed=1), max_steps=max_steps
        ),
    }


def without_definition(result, name):
    """``result`` with the instruction defining ``name`` deleted."""
    for block in result.exec_func.blocks.values():
        block.instrs = [i for i in block.instrs if name not in i.results]
    return result


class TestUndefinedVariable:
    def test_operand_message(self):
        result = compile_source("a = rand(3); b = a + 1; disp(sum(sum(b)));")
        (name,) = [
            n for n in result.plan.group_of if n.startswith("a#")
        ]
        without_definition(result, name)
        for model, executor in executors(result).items():
            with pytest.raises(MatlabRuntimeError) as info:
                executor.run()
            assert str(info.value) == (
                f"use of undefined variable {name!r}"
            ), model

    def test_branch_condition_message(self):
        func = function(terminator=Branch(Var("q"), 1, 1))
        func.new_block().terminator = Ret()
        with pytest.raises(MatlabRuntimeError) as info:
            MccExecutor(func, RuntimeContext(seed=1)).run()
        assert str(info.value) == "use of undefined variable 'q'"


def test_unknown_op_fails_when_executed_not_when_decoded():
    bad = Instr(op="frobnicate", results=["x"], args=[Const(1)])
    func = function(terminator=Jump(1))
    func.new_block().terminator = Ret()
    unreachable = func.new_block()
    unreachable.instrs.append(bad)
    unreachable.terminator = Ret()
    assert MccExecutor(func, RuntimeContext(seed=1)).run().steps == 2
    func.blocks[1].instrs.append(bad)
    with pytest.raises(MatlabRuntimeError, match="unsupported IR op"):
        MccExecutor(func, RuntimeContext(seed=1)).run()


class TestStepLimit:
    # (limit, output printed before the limit, mat2c clock, mcc clock),
    # as the engine before the decode step produced them
    PINNED = [
        (1, "", 1.0, 1.0),
        (5, "", 4.0, 4.0),
        (17, "1\n", 72.0, 92.0),
        (30, "1\n3\n6\n", 200.0, 258.0),
        (65, "1\n3\n6\n10\n15\n21\n", 400.0, 520.0),
    ]

    def test_full_run_takes_66_steps(self):
        result = compile_source(LOOP)
        for model, executor in executors(result, max_steps=66).items():
            assert executor.run().steps == 66, model

    @pytest.mark.parametrize("limit,output,mat2c_clock,mcc_clock", PINNED)
    def test_limit_fires_at_the_same_step(
        self, limit, output, mat2c_clock, mcc_clock
    ):
        result = compile_source(LOOP)
        clocks = {
            "mat2c": mat2c_clock,
            "mat2c-aliased": mat2c_clock,
            "mcc": mcc_clock,
        }
        for model, executor in executors(result, limit).items():
            with pytest.raises(ExecutionLimitExceeded) as info:
                executor.run()
            assert str(info.value) == (
                f"exceeded {limit} executed instructions"
            )
            assert executor.steps == limit + 1, model
            assert executor.ctx.captured() == output, model
            assert executor.clock == clocks[model], model


class TestAliasedMode:
    PROGRAM = (
        "a = rand(3); b = a + 1; c = a .* b;\n"
        "disp(sum(sum(c))); disp(sum(sum(a)));"
    )

    def test_sound_plan_agrees_with_name_keyed_run(self):
        result = compile_source(self.PROGRAM)
        plain = result.run_mat2c(RuntimeContext(seed=5))
        aliased = result.run_mat2c(RuntimeContext(seed=5), aliased=True)
        assert aliased.output == plain.output
        assert any(key.startswith("@group") for key in aliased.env)

    def test_planted_bad_coalescing_corrupts_output(self):
        result = compile_source(self.PROGRAM)
        mutation = flip_one_coalescing(result)
        assert mutation is not None
        plain = result.run_mat2c(RuntimeContext(seed=5))
        bad = Mat2CExecutor(
            result.exec_func, mutation.plan, RuntimeContext(seed=5),
            aliased=True,
        ).run()
        assert bad.output != plain.output


class TestMccFoldDecision:
    """mcc decides whether a result lives in a C double *after* storing
    it, so an operand named like the result reads the new value.
    Reports pinned from the engine before the decode step."""

    CASES = {
        # x = 1; x = x + 1: scalar stays scalar, nothing boxed
        "scalar": (
            function(
                ("copy", ["x"], [Const(1)]),
                ("add", ["x"], [Var("x"), Const(1)]),
                ("call:disp", [], [Var("x")]),
            ),
            "2\n", 4, "1.8636363636363637e-07", 0, 0,
        ),
        # x = 1; x = x + ones(1, 3): scalar to matrix
        "scalar to matrix": (
            function(
                ("copy", ["x"], [Const(1)]),
                ("call:ones", ["t$"], [Const(1), Const(3)]),
                ("add", ["x"], [Var("x"), Var("t$")]),
                ("call:disp", [], [Var("x")]),
            ),
            "2  2  2\n", 5, "3.0477272727272725e-06", 2, 2,
        ),
        # x = []; x = [x 5]: the old x is a matrix, the new one a
        # scalar, so the store folds although the operation is charged
        # as a library call
        "matrix to scalar": (
            function(
                ("empty", ["x"], []),
                ("horzcat", ["x"], [Var("x"), Const(5)]),
                ("call:disp", [], [Var("x")]),
            ),
            "5\n", 4, "1.784090909090909e-06", 1, 1,
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_report_is_unchanged(self, case):
        func, output, steps, seconds, mallocs, frees = self.CASES[case]
        run = MccExecutor(func, RuntimeContext(seed=1)).run()
        assert run.output == output
        assert run.steps == steps
        assert repr(run.report.execution_seconds) == seconds
        assert run.report.mallocs == mallocs
        assert run.report.frees == frees


class TestSharedConstants:
    PROGRAM = (
        "v = 7; w = [1 2 3];\n"
        "for k = 1:4\n v(k) = k * 2; w(k + 3) = v(k) + 1;\nend\n"
        "disp(v); disp(w); disp(sum(w));"
    )

    def test_rerun_of_one_compilation_is_identical(self):
        result = compile_source(self.PROGRAM)
        runs = {
            "mat2c": lambda: result.run_mat2c(RuntimeContext(seed=1)),
            "aliased": lambda: result.run_mat2c(
                RuntimeContext(seed=1), aliased=True
            ),
            "mcc": lambda: result.run_mcc(RuntimeContext(seed=1)),
        }
        for model, run in runs.items():
            first, second = run(), run()
            assert first.output == second.output, model
            assert first.report == second.report, model
            assert first.steps == second.steps, model
            assert first.env.keys() == second.env.keys(), model
            for key, value in first.env.items():
                other = second.env[key]
                assert np.array_equal(value.data, other.data), (model, key)

    def test_literal_values_are_read_only(self):
        func = function(
            ("copy", ["x"], [Const(7)]),
            ("subsasgn", ["y"], [Var("x"), Const(9), Const(1)]),
            ("call:disp", [], [Var("y")]),
        )
        run = MccExecutor(func, RuntimeContext(seed=1)).run()
        assert run.output == "9\n"
        literal = run.env["x"]
        assert literal.scalar() == 7  # subsasgn wrote a copy
        with pytest.raises(ValueError):
            literal.data[0, 0] = 1.0


def test_patched_subsref_reaches_the_vm(monkeypatch):
    calls = []
    original = repro.vm.base.subsref

    def counting(a, subs):
        calls.append(len(subs))
        return original(a, subs)

    monkeypatch.setattr(repro.vm.base, "subsref", counting)
    result = compile_source("a = rand(3); disp(a(2, 3)); disp(a(4));")
    expected = result.run_interpreter(RuntimeContext(seed=1)).output
    assert result.run_mat2c(RuntimeContext(seed=1)).output == expected
    assert result.run_mcc(RuntimeContext(seed=1)).output == expected
    assert calls == [2, 1, 2, 1]


def test_call_statement_whose_value_is_discarded():
    # rand(3); returns a value no variable receives, so there is no
    # result name whose group buffer the write could touch
    result = compile_source("rand(3); disp(1);")
    for model, executor in executors(result).items():
        assert executor.run().output == "1\n", model
