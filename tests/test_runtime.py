"""Unit tests for the MATLAB runtime: arrays, ops, indexing, builtins."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime import indexing, ops
from repro.runtime.builtins import RuntimeContext, call_builtin
from repro.runtime.errors import (
    IndexError_,
    MatlabRuntimeError,
    ShapeConformanceError,
)
from repro.runtime.indexing import COLON, subsasgn, subsref
from repro.runtime.marray import MArray


def arr(values, **kw):
    return MArray.from_numpy(np.array(values, dtype=float), **kw)


def scalar(v):
    return MArray.from_scalar(v)


class TestMArray:
    def test_scalar_is_1x1(self):
        a = scalar(3.5)
        assert a.shape == (1, 1)
        assert a.is_scalar

    def test_column_major_layout(self):
        a = arr([[1, 2], [3, 4]])
        assert list(a.flat()) == [1, 3, 2, 4]

    def test_truthiness_all_nonzero(self):
        assert arr([[1, 2]]).is_true()
        assert not arr([[1, 0]]).is_true()
        assert not MArray.empty().is_true()

    def test_string_roundtrip(self):
        s = MArray.from_string("hello")
        assert s.is_char
        assert s.as_string() == "hello"
        assert s.shape == (1, 5)

    def test_byte_size_by_class(self):
        assert scalar(1.0).byte_size() == 8
        assert MArray.from_scalar(True).byte_size() == 4  # logical → int
        assert MArray.from_scalar(1j).byte_size() == 16
        assert MArray.from_string("ab").byte_size() == 2

    def test_complex_collapses_when_imag_zero(self):
        a = MArray.from_numpy(np.array([[1 + 0j, 2 + 0j]]))
        assert not a.is_complex


def _reference_from_scalar(value):
    """``MArray.from_scalar`` as it was before its float fast path:
    every non-bool value went through ``complex()``."""
    if isinstance(value, bool):
        return MArray(np.array(float(value), ndmin=2), is_logical=True)
    value = complex(value)
    if value.imag == 0:
        return MArray(np.array(value.real, ndmin=2))
    return MArray(np.array(value, ndmin=2))


def _bits(m):
    return (m.data.dtype, m.data.shape, repr(m.data), m.data.tobytes(),
            m.is_logical, m.is_char)


special_floats = st.sampled_from(
    [0.0, -0.0, 1.0, -2.5, float("nan"), float("inf"), float("-inf")]
)


class TestMArrayContract:
    """MArray behaves as the frozen dataclass it replaced: immutable,
    picklable, with field-tuple ``==`` and ``hash``."""

    @pytest.mark.parametrize("name", ["data", "is_logical", "is_char",
                                      "other"])
    def test_fields_cannot_be_assigned_or_deleted(self, name):
        a = scalar(1.0)
        with pytest.raises(AttributeError):
            setattr(a, name, np.zeros((1, 1)))
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert a.data.item() == 1.0 and not a.is_logical

    @pytest.mark.parametrize("flags", [(False, False), (True, False),
                                       (False, True)])
    def test_pickle_and_deepcopy_round_trip(self, flags):
        import copy
        import pickle

        a = MArray(np.asfortranarray([[1.0, -0.0], [np.nan, 4.0]]), *flags)
        for b in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
            assert type(b) is MArray
            assert b.data is not a.data
            assert _bits(b) == _bits(a)
            assert b.data.flags.f_contiguous

    def test_eq_and_hash_as_the_dataclass(self):
        assert scalar(2.0) == scalar(2.0)
        assert scalar(2.0) != scalar(3.0)
        assert MArray.from_scalar(True) != scalar(1.0)  # flags differ
        assert scalar(2.0).__eq__(2.0) is NotImplemented
        assert scalar(2.0) != 2.0
        with pytest.raises(TypeError):
            hash(scalar(2.0))

    def test_numel_is_int(self):
        assert type(scalar(1.0).numel) is int
        assert type(arr([[1, 2, 3]]).numel) is int
        assert MArray.empty().numel == 0

    @settings(max_examples=200)
    @given(
        st.one_of(
            special_floats,
            st.floats(),
            st.builds(complex, special_floats, special_floats),
            st.complex_numbers(),
        ),
        st.sampled_from([(False, False), (True, False), (False, True)]),
    )
    def test_is_true_1x1_matches_np_all(self, value, flags):
        data = np.array(value, ndmin=2)
        truth = MArray(data, *flags).is_true()
        assert type(truth) is bool
        assert truth == bool(np.all(data != 0))

    @pytest.mark.parametrize("shape", [(0, 0), (1, 0), (0, 3)])
    def test_is_true_empty_is_false(self, shape):
        assert MArray(np.zeros(shape, order="F")).is_true() is False

    @settings(max_examples=300)
    @given(st.one_of(
        special_floats,
        st.floats(),
        st.floats().map(np.float64),
        st.integers(min_value=-(2 ** 63), max_value=2 ** 63),
        st.booleans(),
        st.builds(complex, special_floats, special_floats),
        st.complex_numbers(),
    ))
    def test_from_scalar_matches_complex_path(self, value):
        assert _bits(MArray.from_scalar(value)) == _bits(
            _reference_from_scalar(value)
        )

    @pytest.mark.parametrize("shape", [(1, 1), (2, 3), (0, 0)])
    def test_from_numpy_keeps_a_canonical_array(self, shape):
        data = np.zeros(shape, order="F")
        assert MArray.from_numpy(data).data is data
        boxed = MArray.from_numpy(data, is_logical=True)
        assert boxed.data is data and boxed.is_logical


class TestElementwiseOps:
    def test_add_equal_shapes(self):
        c = ops.add(arr([[1, 2]]), arr([[10, 20]]))
        assert list(c.flat()) == [11, 22]

    def test_add_scalar_broadcast(self):
        c = ops.add(arr([[1, 2], [3, 4]]), scalar(10))
        assert c.data[1, 1] == 14

    def test_mismatched_shapes_raise(self):
        with pytest.raises(ShapeConformanceError):
            ops.add(arr([[1, 2]]), arr([[1, 2, 3]]))

    def test_elmul(self):
        c = ops.elmul(arr([[2, 3]]), arr([[4, 5]]))
        assert list(c.flat()) == [8, 15]

    def test_eldiv_by_zero_inf(self):
        c = ops.eldiv(scalar(1.0), scalar(0.0))
        assert np.isinf(c.scalar_real())

    def test_elpow_negative_base_fractional(self):
        c = ops.elpow(scalar(-8.0), scalar(1 / 3))
        assert c.is_complex

    def test_comparison_logical(self):
        c = ops.lt(arr([[1, 5]]), scalar(3))
        assert c.is_logical
        assert list(c.flat()) == [1, 0]

    def test_neg(self):
        assert ops.neg(scalar(2)).scalar_real() == -2

    def test_not(self):
        c = ops.not_(arr([[0, 7]]))
        assert list(c.flat()) == [1, 0]


class TestMatrixOps:
    def test_matrix_multiply(self):
        a = arr([[1, 2], [3, 4]])
        b = arr([[5, 6], [7, 8]])
        c = ops.mul(a, b)
        assert c.data[0, 0] == 19

    def test_matmul_conformance(self):
        with pytest.raises(ShapeConformanceError):
            ops.mul(arr([[1, 2]]), arr([[1, 2]]))

    def test_scalar_times_matrix_elementwise(self):
        c = ops.mul(scalar(2), arr([[1, 2], [3, 4]]))
        assert c.data[1, 0] == 6

    def test_left_divide_solves(self):
        a = arr([[2, 0], [0, 4]])
        b = arr([[2], [8]])
        x = ops.ldiv(a, b)
        assert np.allclose(x.flat(), [1, 2])

    def test_right_divide(self):
        # x * a = b  ⇒  x = b / a
        a = arr([[2, 0], [0, 4]])
        b = arr([[2, 8]])
        x = ops.div(b, a)
        assert np.allclose(x.flat(), [1, 2])

    def test_matrix_power(self):
        a = arr([[2, 0], [0, 3]])
        c = ops.pow_(a, scalar(2))
        assert c.data[1, 1] == 9

    def test_transpose_conjugates(self):
        a = MArray.from_numpy(np.array([[1 + 2j]]))
        t = ops.transpose(a, conjugate=True)
        assert t.scalar() == 1 - 2j
        t2 = ops.transpose(a, conjugate=False)
        assert t2.scalar() == 1 + 2j


class TestRangesAndConcat:
    def test_simple_range(self):
        r = ops.make_range(scalar(1), scalar(1), scalar(5))
        assert r.shape == (1, 5)
        assert list(r.flat()) == [1, 2, 3, 4, 5]

    def test_negative_step(self):
        r = ops.make_range(scalar(4), scalar(-1), scalar(1))
        assert list(r.flat()) == [4, 3, 2, 1]

    def test_empty_range(self):
        r = ops.make_range(scalar(5), scalar(1), scalar(1))
        assert r.is_empty

    def test_fractional_step(self):
        r = ops.make_range(scalar(0), scalar(0.5), scalar(2))
        assert r.numel == 5

    def test_horzcat(self):
        c = ops.horzcat([arr([[1], [2]]), arr([[3], [4]])])
        assert c.shape == (2, 2)

    def test_vertcat_mismatch_raises(self):
        with pytest.raises(ShapeConformanceError):
            ops.vertcat([arr([[1, 2]]), arr([[1, 2, 3]])])


class TestSubsref:
    def test_linear_index_column_major(self):
        a = arr([[1, 2], [3, 4]])
        assert subsref(a, [scalar(2)]).scalar_real() == 3

    def test_two_subscripts(self):
        a = arr([[1, 2], [3, 4]])
        assert subsref(a, [scalar(1), scalar(2)]).scalar_real() == 2

    def test_colon_row(self):
        a = arr([[1, 2], [3, 4]])
        row = subsref(a, [scalar(2), COLON])
        assert row.shape == (1, 2)
        assert list(row.flat()) == [3, 4]

    def test_colon_linear_column(self):
        a = arr([[1, 2], [3, 4]])
        col = subsref(a, [COLON])
        assert col.shape == (4, 1)

    def test_vector_gather_keeps_orientation(self):
        v = arr([[10, 20, 30, 40]])
        picked = subsref(v, [arr([[4, 1]])])
        assert picked.shape == (1, 2)
        assert list(picked.flat()) == [40, 10]

    def test_permutation_reverse(self):
        # the paper's 4:-1:1 example
        a = arr([[1, 3], [2, 4]])  # column-major order 1,2,3,4
        rev = subsref(a, [ops.make_range(scalar(4), scalar(-1), scalar(1))])
        assert list(rev.flat()) == [4, 3, 2, 1]

    def test_submatrix(self):
        a = arr([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        sub = subsref(a, [arr([[1, 3]]), arr([[2, 3]])])
        assert sub.shape == (2, 2)
        assert sub.data[1, 0] == 8

    def test_logical_subscript(self):
        v = arr([[5, 6, 7]])
        mask = MArray.from_numpy(np.array([[1, 0, 1]]), is_logical=True)
        picked = subsref(v, [mask])
        assert list(picked.flat()) == [5, 7]

    def test_out_of_range_raises(self):
        with pytest.raises(IndexError_):
            subsref(arr([[1, 2]]), [scalar(5)])

    def test_zero_index_raises(self):
        with pytest.raises(IndexError_):
            subsref(arr([[1, 2]]), [scalar(0)])


class TestSubsasgn:
    def test_simple_element_write(self):
        a = arr([[1, 2], [3, 4]])
        b = subsasgn(a, scalar(9), [scalar(2), scalar(1)])
        assert b.data[1, 0] == 9
        assert a.data[1, 0] == 3  # value semantics: a unchanged

    def test_expansion_zero_fills(self):
        a = arr([[1]])
        b = subsasgn(a, scalar(5), [scalar(3), scalar(3)])
        assert b.shape == (3, 3)
        assert b.data[2, 2] == 5
        assert b.data[1, 1] == 0

    def test_linear_growth_on_vector(self):
        v = arr([[1, 2]])
        grown = subsasgn(v, scalar(9), [scalar(5)])
        assert grown.shape == (1, 5)
        assert grown.data[0, 4] == 9

    def test_linear_growth_on_matrix_raises(self):
        a = arr([[1, 2], [3, 4]])
        with pytest.raises(IndexError_):
            subsasgn(a, scalar(9), [scalar(10)])

    def test_cartesian_product_assignment(self):
        a = MArray.from_numpy(np.zeros((3, 3)))
        rhs = arr([[1, 2], [3, 4]])
        b = subsasgn(a, rhs, [arr([[1, 3]]), arr([[1, 3]])])
        assert b.data[0, 0] == 1
        assert b.data[2, 2] == 4
        assert b.data[1, 1] == 0

    def test_rhs_shape_mismatch_raises(self):
        a = MArray.from_numpy(np.zeros((3, 3)))
        with pytest.raises(MatlabRuntimeError):
            subsasgn(a, arr([[1, 2, 3]]), [arr([[1, 2]]), scalar(1)])

    def test_scalar_fill(self):
        a = MArray.from_numpy(np.zeros((2, 2)))
        b = subsasgn(a, scalar(7), [COLON, scalar(1)])
        assert list(b.data[:, 0]) == [7, 7]

    def test_shrinkage_unsupported(self):
        a = arr([[1, 2, 3]])
        with pytest.raises(MatlabRuntimeError, match="shrinkage"):
            subsasgn(a, MArray.empty(), [scalar(2)])

    def test_complex_rhs_promotes(self):
        a = arr([[1.0, 2.0]])
        b = subsasgn(a, MArray.from_scalar(1j), [scalar(1)])
        assert b.is_complex

    def test_colon_preserves_extent(self):
        a = MArray.from_numpy(np.zeros((2, 3)))
        b = subsasgn(a, arr([[1, 2, 3]]), [scalar(1), COLON])
        assert b.shape == (2, 3)


class TestBuiltins:
    def setup_method(self):
        self.ctx = RuntimeContext()

    def test_zeros_square(self):
        z = call_builtin(self.ctx, "zeros", [scalar(3)])[0]
        assert z.shape == (3, 3)
        assert not z.data.any()

    def test_eye_logical(self):
        e = call_builtin(self.ctx, "eye", [scalar(2)])[0]
        assert e.is_logical
        assert e.data[0, 0] == 1 and e.data[0, 1] == 0

    def test_rand_deterministic_by_seed(self):
        a = call_builtin(RuntimeContext(seed=42), "rand", [scalar(2)])[0]
        b = call_builtin(RuntimeContext(seed=42), "rand", [scalar(2)])[0]
        assert np.allclose(a.data, b.data)

    def test_size_multi_output(self):
        a = MArray.from_numpy(np.zeros((3, 4)))
        m, n = call_builtin(self.ctx, "size", [a], nargout=2)
        assert m.scalar_int() == 3 and n.scalar_int() == 4

    def test_size_vector_output(self):
        a = MArray.from_numpy(np.zeros((3, 4)))
        s = call_builtin(self.ctx, "size", [a])[0]
        assert list(s.flat()) == [3, 4]

    def test_sum_matrix_columns(self):
        a = arr([[1, 2], [3, 4]])
        s = call_builtin(self.ctx, "sum", [a])[0]
        assert list(s.flat()) == [4, 6]

    def test_sum_vector_scalar(self):
        s = call_builtin(self.ctx, "sum", [arr([[1, 2, 3]])])[0]
        assert s.scalar_real() == 6

    def test_min_two_args_elementwise(self):
        c = call_builtin(
            self.ctx, "min", [arr([[1, 5]]), arr([[3, 2]])]
        )[0]
        assert list(c.flat()) == [1, 2]

    def test_max_with_index(self):
        v, i = call_builtin(
            self.ctx, "max", [arr([[3, 9, 4]])], nargout=2
        )
        assert v.scalar_real() == 9
        assert i.scalar_int() == 2

    def test_abs_complex(self):
        c = call_builtin(self.ctx, "abs", [MArray.from_scalar(3 + 4j)])[0]
        assert c.scalar_real() == 5

    def test_sqrt_negative_goes_complex(self):
        c = call_builtin(self.ctx, "sqrt", [scalar(-4)])[0]
        assert c.is_complex

    def test_disp_output_captured(self):
        call_builtin(self.ctx, "disp", [scalar(42)])
        assert self.ctx.captured() == "42\n"

    def test_fprintf_formats(self):
        call_builtin(
            self.ctx,
            "fprintf",
            [MArray.from_string("x = %d, y = %.2f\\n"),
             scalar(3), scalar(1.5)],
        )
        assert self.ctx.captured() == "x = 3, y = 1.50\n"

    def test_error_raises(self):
        with pytest.raises(MatlabRuntimeError, match="boom"):
            call_builtin(self.ctx, "error", [MArray.from_string("boom")])

    def test_find_positions(self):
        f = call_builtin(self.ctx, "find", [arr([[0, 3, 0, 7]])])[0]
        assert list(f.flat()) == [2, 4]

    def test_sort_with_indices(self):
        v, i = call_builtin(
            self.ctx, "sort", [arr([[3, 1, 2]])], nargout=2
        )
        assert list(v.flat()) == [1, 2, 3]
        assert list(i.flat()) == [2, 3, 1]

    def test_norm_vector(self):
        n = call_builtin(self.ctx, "norm", [arr([[3, 4]])])[0]
        assert n.scalar_real() == 5

    def test_tic_toc(self):
        call_builtin(self.ctx, "tic", [])
        t = call_builtin(self.ctx, "toc", [])[0]
        assert t.scalar_real() >= 0


# -- 1×1 fast paths ≡ general paths -------------------------------------

#: subscript values: in range, out of range, and every malformed kind
SUBSCRIPT_VALUES = (
    [1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 13.0]
    + [0.0, -1.0, 1.5, -0.5, float("nan"), float("inf"), -float("inf")]
    + [1e300, 2.0**63, 2.0**63 - 1024, 2 + 3j, 1j]
)


def _subscript(value, kind):
    """A 1×1 subscript MArray of ``kind`` holding ``value``."""
    if kind == "complex-raw":  # complex buffer, zero imaginary part
        return MArray(np.array(complex(value), ndmin=2))
    if kind == "char" and not isinstance(value, complex):
        return MArray(np.array(value, ndmin=2), is_char=True)
    return MArray.from_scalar(value)


def _widened(sub):
    """``[i i]``: the same subscript as a 1×2 vector (general path)."""
    data = np.repeat(sub.data, 2, axis=1)
    return MArray(np.asfortranarray(data), sub.is_logical, sub.is_char)


def _source(shape, kind, seed):
    values = np.random.default_rng(seed).choice(
        [0.0, 1.0, -2.5, 3.0, 97.0, -0.0], size=int(np.prod(shape))
    )
    if kind == "complex":
        # every other element has a zero imaginary part
        values = values + 1j * np.array(
            [0.0 if k % 2 else v for k, v in enumerate(values)]
        )
    data = np.asfortranarray(values.reshape(shape, order="F"))
    if kind == "logical":
        data = (data != 0).astype(float)
    if kind == "complex-zero":  # complex buffer, all imaginary parts 0
        return MArray(np.asfortranarray(data.astype(complex)))
    return MArray.from_numpy(
        data, is_logical=kind == "logical", is_char=kind == "char"
    )


shapes = st.lists(st.integers(0, 4), min_size=2, max_size=4).map(tuple)
source_kinds = st.sampled_from(
    ["double", "char", "logical", "complex", "complex-zero"]
)
element_seeds = st.integers(0, 2**16)
subscripts = st.lists(
    st.tuples(
        st.sampled_from(SUBSCRIPT_VALUES),
        st.sampled_from(["double", "char", "complex-raw"]),
    ).map(lambda vk: _subscript(*vk)),
    min_size=1, max_size=5,
)


def _outcome(fn):
    """(kind, payload): an MArray's exact contents, or the error."""
    try:
        value = fn()
    except Exception as exc:  # compared, not swallowed
        return ("raise", type(exc), str(exc))
    if value is None:
        return ("fell through",)
    return ("value", value.data.dtype, value.shape, value.data.tobytes(
        order="F"), value.is_logical, value.is_char)


def _first_element(fn):
    """Element 1 of a general-path result, in the same exact form."""
    try:
        value = fn()
    except Exception as exc:
        return ("raise", type(exc), str(exc))
    first = value.flat()[:1]
    return ("value", first.dtype, first.tobytes(), value.is_logical,
            value.is_char)


def _general_subsref(a, subs):
    if len(subs) == 1:
        return indexing._subsref_linear(a, subs[0])
    return indexing._subsref_nd(a, subs)


def _general_subsasgn(a, rhs, subs):
    if len(subs) == 1:
        return indexing._subsasgn_linear(a, rhs, subs[0])
    return indexing._subsasgn_nd(a, rhs, subs)


class TestScalarFastPath:
    """Each 1×1 fast path returns (or raises) exactly what the general
    code it bypasses returns (or raises)."""

    @settings(max_examples=300)
    @given(shapes, source_kinds, element_seeds, subscripts)
    def test_subsref_matches_general(self, shape, kind, seed, subs):
        a = _source(shape, kind, seed)
        fast = _outcome(lambda: indexing._subsref_scalar(a, subs))
        assert fast[0] != "fell through"
        assert fast == _outcome(lambda: subsref(a, subs))
        assert fast == _outcome(lambda: _general_subsref(a, subs))
        widened = [_widened(s) for s in subs]
        general = _first_element(lambda: subsref(a, widened))
        if fast[0] == "raise":
            assert general == fast
        else:
            dtype, _shape, data, logical, char = fast[1:]
            assert general == ("value", dtype, data, logical, char)

    @settings(max_examples=300)
    @given(
        shapes | st.sampled_from([(0, 0), (1, 0), (0, 3), (1, 3), (4, 1)]),
        st.sampled_from(["double", "char", "logical"]),
        element_seeds,
        subscripts,
        st.sampled_from([5.0, -0.0, 0.0, float("nan"), 97.0]),
        st.sampled_from(["double", "char", "logical"]),
    )
    def test_subsasgn_matches_general(
        self, shape, kind, seed, subs, rhs_value, rhs_kind
    ):
        a = _source(shape, kind, seed)
        rhs = MArray(
            np.array(rhs_value, ndmin=2),
            is_logical=rhs_kind == "logical",
            is_char=rhs_kind == "char",
        )
        fast = _outcome(lambda: indexing._subsasgn_scalar(a, rhs, subs))
        assert fast[0] != "fell through"
        assert fast == _outcome(lambda: subsasgn(a, rhs, subs))
        assert fast == _outcome(lambda: _general_subsasgn(a, rhs, subs))
        widened = [_widened(s) for s in subs]
        assert fast == _outcome(lambda: subsasgn(a, rhs, widened))
        # value semantics: the source is never written through
        assert a.data.tobytes(order="F") == _source(
            shape, kind, seed
        ).data.tobytes(order="F")

    @pytest.mark.parametrize("value, message", [
        (0.0, "subscripts must be positive integers or logicals"),
        (-3.0, "subscripts must be positive integers or logicals"),
        (1.5, "subscripts must be positive integers or logicals"),
        (float("nan"), "subscripts must be positive integers or logicals"),
        (float("inf"), "subscripts must be positive integers or logicals"),
        (2 + 3j, "subscripts must be real"),
        (1e300, "index 1e+300 exceeds the int64 subscript range"),
        (5.0, "index 5 exceeds array numel 4"),
    ])
    def test_bad_subscripts_raise_typed_errors(self, value, message):
        a = arr([[1, 2], [3, 4]])
        sub = MArray.from_scalar(value)
        for subs in ([sub], [_widened(sub)]):
            with pytest.raises(IndexError_) as info:
                subsref(a, subs)
            assert str(info.value) == message
        if value == 5.0:
            return  # reading past the end is an error; writing grows
        for subs in ([sub], [_widened(sub)]):
            with pytest.raises(IndexError_) as info:
                subsasgn(a, scalar(5), subs)
            assert str(info.value) == message

    def test_growth_of_empty_vector_and_matrix(self):
        cases = [
            (MArray.empty(), [scalar(3)], (1, 3)),
            (arr([[1, 2]]), [scalar(4)], (1, 4)),
            (arr([[1], [2]]), [scalar(4)], (4, 1)),
            (arr([[1, 2], [3, 4]]), [scalar(3), scalar(5)], (3, 5)),
            (MArray.empty(), [scalar(2), scalar(3)], (2, 3)),
            (arr([[1, 2], [3, 4]]), [scalar(1), scalar(1), scalar(2)],
             (2, 2, 2)),
        ]
        for a, subs, shape in cases:
            fast = indexing._subsasgn_scalar(a, scalar(9), subs)
            assert fast.shape == shape
            assert _outcome(lambda: fast) == _outcome(
                lambda: _general_subsasgn(a, scalar(9), subs)
            )


#: each op with today's code path for two 1×1 operands, written out
def _elpow_reference(x, y):
    if not (np.iscomplexobj(x) or np.iscomplexobj(y)) and (
        np.any(x < 0) and np.any(y % 1 != 0)
    ):
        x = x.astype(complex)
    return np.power(x, y)


def _real(x):
    return x.real if np.iscomplexobj(x) else x


OP_REFERENCES = {
    "add": lambda x, y: x + y,
    "sub": lambda x, y: x - y,
    "elmul": lambda x, y: x * y,
    "mul": lambda x, y: x * y,
    "eldiv": lambda x, y: x / y,
    "div": lambda x, y: x / y,
    "elldiv": lambda x, y: y / x,
    "ldiv": lambda x, y: y / x,
    "elpow": _elpow_reference,
    "pow_": _elpow_reference,
    "lt": lambda x, y: _real(x) < _real(y),
    "le": lambda x, y: _real(x) <= _real(y),
    "gt": lambda x, y: _real(x) > _real(y),
    "ge": lambda x, y: _real(x) >= _real(y),
    "and_": lambda x, y: (_real(x) != 0) & (_real(y) != 0),
    "or_": lambda x, y: (_real(x) != 0) | (_real(y) != 0),
}

OPERAND_VALUES = [
    0.0, -0.0, 1.0, -1.0, 2.5, -8.0, 1 / 3, 0.5, 3.0, 97.0,
    float("nan"), float("inf"), -float("inf"), 1e308, 2 + 3j, -1j,
]


def _operand(value, kind):
    if kind == "logical":
        return MArray(np.array(float(value != 0), ndmin=2), is_logical=True)
    if kind == "char" and not isinstance(value, complex):
        return MArray(np.array(abs(value), ndmin=2), is_char=True)
    if kind == "complex-raw":
        return MArray(np.array(complex(value), ndmin=2))
    return MArray.from_scalar(value)


operands = st.tuples(
    st.sampled_from(OPERAND_VALUES),
    st.sampled_from(["double", "logical", "char", "complex-raw"]),
).map(lambda vk: _operand(*vk))


class TestScalarOps:
    @settings(max_examples=300)
    @given(st.sampled_from(sorted(OP_REFERENCES)), operands, operands)
    def test_ops_match_numpy_path(self, name, a, b):
        with np.errstate(all="ignore"):
            expected = MArray.from_numpy(
                OP_REFERENCES[name](a.data, b.data)
            )
            actual = getattr(ops, name)(a, b)
        assert actual.data.dtype == expected.data.dtype
        assert actual.shape == expected.shape
        assert actual.data.tobytes() == expected.data.tobytes()
        assert (actual.is_logical, actual.is_char, actual.is_complex) == (
            expected.is_logical, expected.is_char, expected.is_complex
        )

    def test_divide_by_zero_and_negative_base_power(self):
        with np.errstate(all="ignore"):
            assert ops.eldiv(scalar(1.0), scalar(0.0)).scalar_real() \
                == np.inf
            assert np.isnan(ops.eldiv(scalar(0.0), scalar(0.0)).scalar_real())
            assert ops.eldiv(scalar(-1.0), scalar(0.0)).scalar_real() \
                == -np.inf
        root = ops.elpow(scalar(-8.0), scalar(1 / 3))
        assert root.is_complex
        assert root.data.tobytes() == np.power(
            np.array([[-8.0 + 0j]]), 1 / 3
        ).tobytes()
        assert not ops.elpow(scalar(-8.0), scalar(2.0)).is_complex
