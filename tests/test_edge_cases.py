"""Edge cases across the pipeline: frontend quirks, degenerate
programs, runtime corners, and error paths."""

import pytest

from repro.compiler.pipeline import compile_source
from repro.frontend.parser import parse_source
from repro.frontend.source import MatlabSyntaxError
from repro.ir.lower import LoweringError
from repro.runtime.builtins import RuntimeContext
from repro.runtime.errors import MatlabRuntimeError
from repro.verify import run_differential


def run(text, seed=3):
    result = compile_source(text)
    return result.run_mat2c(RuntimeContext(seed=seed))


class TestFrontendQuirks:
    def test_semicolons_and_commas_mixed(self):
        out = run("a = 1; b = 2, c = a + b; disp(c);")
        assert "3" in out.output

    def test_comment_only_lines(self):
        out = run("% nothing\n% here\nx = 5;\ndisp(x); % trailing\n")
        assert out.output == "5\n"

    def test_continuation_inside_expression(self):
        out = run("x = 1 + ...\n    2 + ...\n    3;\ndisp(x);")
        assert out.output == "6\n"

    def test_nested_parens_and_transpose(self):
        out = run("a = [1, 2; 3, 4]; t = (a)'; disp(t(1, 2));")
        assert out.output == "3\n"

    def test_indexing_parenthesized_expr_rejected(self):
        # MATLAB only indexes named values; `(a')(1, 2)` is an error
        with pytest.raises(LoweringError):
            compile_source("a = [1, 2]; disp((a')(1));")

    def test_deeply_nested_indexing(self):
        out = run(
            "a = [10, 20, 30]; i = [3, 1, 2];\n"
            "disp(a(i(i(1))));"
        )
        # i(i(1)) = i(3) = 2 → a(2) = 20
        assert out.output == "20\n"

    def test_empty_function_body(self):
        funcs = parse_source("function noop()\n", "noop.m")
        assert funcs[0].body == []

    def test_unbalanced_parens_raises(self):
        with pytest.raises(MatlabSyntaxError):
            parse_source("x = (1 + 2;\n", "bad.m")

    def test_missing_end_raises(self):
        with pytest.raises(MatlabSyntaxError):
            parse_source("if x > 1\n y = 2;\n", "bad.m")

    def test_keyword_as_variable_rejected(self):
        with pytest.raises(MatlabSyntaxError):
            parse_source("end = 5;\n", "bad.m")


class TestDegenerateprograms:
    def test_empty_program(self):
        result = compile_source("")
        out = result.run_mat2c()
        assert out.output == ""

    def test_only_comments(self):
        result = compile_source("% just a comment\n")
        assert result.run_mat2c().output == ""

    def test_single_display(self):
        assert run("disp(7);").output == "7\n"

    def test_zero_trip_loop(self):
        out = run("s = 0;\nfor k = 5:1\n s = s + 1;\nend\ndisp(s);")
        assert out.output == "0\n"

    def test_zero_trip_while(self):
        out = run("s = 1;\nwhile s < 1\n s = s + 1;\nend\ndisp(s);")
        assert out.output == "1\n"

    def test_if_with_no_else_not_taken(self):
        out = run("x = 1;\nif x > 5\n x = 99;\nend\ndisp(x);")
        assert out.output == "1\n"

    def test_branch_on_empty_matrix_is_false(self):
        out = run("e = [];\nif e\n disp(1);\nelse\n disp(2);\nend")
        assert out.output == "2\n"

    def test_branch_on_matrix_all_elements(self):
        out = run(
            "m = [1, 1; 1, 0];\nif m\n disp(1);\nelse\n disp(2);\nend"
        )
        assert out.output == "2\n"


class TestRuntimeCorners:
    def test_1x1_matrix_times_matrix(self):
        out = run("a = [2]; b = [1, 2; 3, 4]; disp(a * b);")
        assert "2  4" in out.output

    def test_empty_sum(self):
        out = run("e = []; disp(sum(e));")
        assert out.output == "0\n"

    def test_negative_zero_formatting(self):
        out = run("disp(0 * -1);")
        assert out.output == "0\n"

    def test_inf_arithmetic(self):
        out = run("x = 1 / 0;\nif x > 1000000\n disp(1);\nend")
        assert out.output == "1\n"

    def test_string_display(self):
        out = run("disp('hello world');")
        assert out.output == "hello world\n"

    def test_char_arithmetic(self):
        # 'a' + 1 = 98 (MATLAB promotes chars to doubles)
        out = run("c = 'a'; disp(c + 1);")
        assert out.output == "98\n"

    def test_logical_indexing_roundtrip(self):
        out = run(
            "v = [5, 10, 15, 20];\n"
            "m = v > 8;\n"
            "picked = v(m);\n"
            "disp(sum(picked));"
        )
        assert out.output == "45\n"

    def test_matrix_power_identity(self):
        out = run("a = [2, 0; 0, 3]; b = a ^ 0; disp(b);")
        assert "1  0" in out.output

    def test_division_shapes(self):
        out = run("a = [4, 8]; disp(a / 2);")
        assert "2  4" in out.output

    def test_mod_negative(self):
        out = run("disp(mod(7, 3)); disp(mod(10, 4));")
        assert out.output == "1\n2\n"


class TestErrorPaths:
    def test_nonconformant_add(self):
        result = compile_source("a = [1, 2]; b = [1, 2, 3]; c = a + b; disp(c);")
        with pytest.raises(MatlabRuntimeError):
            result.run_mat2c()

    def test_matmul_mismatch(self):
        result = compile_source(
            "a = rand(2, 3); b = rand(2, 3); c = a * b; disp(c);"
        )
        with pytest.raises(MatlabRuntimeError):
            result.run_mat2c()

    def test_error_builtin_message(self):
        result = compile_source("error('custom failure');")
        with pytest.raises(MatlabRuntimeError, match="custom failure"):
            result.run_mat2c()

    def test_undefined_in_one_branch_ok_if_unexecuted(self):
        # `u` only defined on the taken path: fine at run time
        out = run(
            "q = 2;\nif q > 1\n u = 5;\nend\ndisp(u);"
        )
        assert out.output == "5\n"

    def test_too_many_args_to_user_function(self):
        with pytest.raises(LoweringError):
            compile_source("disp(f(1, 2));", name="main")

    def test_shape_error_messages_mention_shapes(self):
        result = compile_source("a = [1, 2]; b = [1; 2]; c = a + b; disp(c);")
        with pytest.raises(MatlabRuntimeError, match="shape"):
            result.run_mat2c()

    # sizes numpy rejects before allocating anything, so these tests
    # never take real memory
    @pytest.mark.parametrize("text,size", [
        ("a = 1; a(2^62) = 5; disp(a(1));", "4611686018427387904-element"),
        ("a = []; a(2^62) = 5; disp(a(1));", "4611686018427387904-element"),
        ("a = ones(2); a(2^62, [1 2]) = 5; disp(a(1));",
         "4611686018427387904x2"),
        ("a = ones(2); a(2^62, 3) = 5; disp(a(1));", "4611686018427387904x3"),
        ("z = zeros(2^62, 1); disp(z(1));", "4611686018427387904x1"),
        ("z = ones(2^62, 1); disp(z(1));", "4611686018427387904x1"),
        ("z = rand(2^62, 2); disp(z(1));", "4611686018427387904x2"),
        ("z = eye(2^62); disp(z(1));",
         "4611686018427387904x4611686018427387904"),
    ])
    def test_unallocatable_array_is_out_of_memory(self, text, size):
        result = compile_source(text)
        runs = {
            "mat2c": result.run_mat2c,
            "mcc": result.run_mcc,
            "interpreter": result.run_interpreter,
        }
        for model, execute in runs.items():
            with pytest.raises(MatlabRuntimeError) as info:
                execute(RuntimeContext(seed=1))
            assert str(info.value) == (
                f"out of memory: cannot allocate a {size} array"
            ), model

    # MATLAB clamps a negative extent to 0; numel(z) also checks that
    # the compiler's shape folding agrees with the run-time array
    @pytest.mark.parametrize("text,output", [
        ("z = zeros(-1); disp(size(z)); disp(numel(z));", "0  0\n0\n"),
        ("z = ones(2, -3); disp(size(z)); disp(numel(z));", "2  0\n0\n"),
        ("z = rand(-2); disp(size(z)); disp(numel(z));", "0  0\n0\n"),
        ("n = -2; z = zeros(n, 3); disp(size(z)); disp(numel(z));",
         "0  3\n0\n"),
    ])
    def test_negative_extent_gives_empty_array(self, text, output):
        result = compile_source(text)
        report = run_differential(result)
        assert report.problems == []
        assert report.models_run == ("interp", "mat2c", "mat2c-aliased",
                                     "mcc")
        assert result.run_interpreter(RuntimeContext(seed=1)).output == output


class TestDisplayFormats:
    def test_integer_scalar(self):
        assert run("x = 42\n").output == "x =\n42\n"

    def test_float_scalar(self):
        out = run("x = 1.5\n").output
        assert "1.5" in out

    def test_matrix_display(self):
        out = run("m = [1, 2; 3, 4]\n").output
        assert "m =" in out
        assert "1  2" in out
        assert "3  4" in out

    def test_complex_display(self):
        out = run("z = 1 + 2i\n").output
        assert "1.0000" in out and "2.0000" in out
