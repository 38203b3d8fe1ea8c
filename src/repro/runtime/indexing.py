"""R-indexing (``subsref``) and L-indexing (``subsasgn``) semantics.

Implements the paper's §2.3.2–2.3.3 description: subscripts may be
arbitrary arrays; element sets are Cartesian products of the subscript
values; out-of-range L-indexing *expands* the array, zero-filling fresh
locations.  The shrinkage form ``a(i) = []`` is unsupported, exactly as
in the paper's translator.

``COLON`` is the marker object for a ``:`` subscript.
"""

from __future__ import annotations

import math

import numpy as np

from repro.runtime.errors import IndexError_, MatlabRuntimeError
from repro.runtime.marray import MArray

COLON = ":"


#: one past the largest subscript an int64 index can hold (2**63)
_INDEX_LIMIT = float(2**63)
_NOT_REAL = "subscripts must be real"
_NOT_POSITIVE_INTEGER = "subscripts must be positive integers or logicals"

_FLOAT64 = np.dtype(np.float64)
_COMPLEX128 = np.dtype(np.complex128)
_ONE_BY_ONE = (1, 1)


def _too_large(value: float) -> IndexError_:
    return IndexError_(f"index {value:g} exceeds the int64 subscript range")


def _index_vector(sub, extent: int) -> np.ndarray:
    """A subscript as 0-based indices (no range check here)."""
    if sub is COLON:
        return np.arange(extent)
    assert isinstance(sub, MArray)
    if sub.is_logical:
        flat = sub.flat()
        return np.nonzero(flat != 0)[0]
    values = sub.flat()
    if np.iscomplexobj(values):
        if np.any(values.imag != 0):
            raise IndexError_(_NOT_REAL)
        values = values.real
    if values.size:
        with np.errstate(invalid="ignore"):  # inf % 1 is nan: rejected
            fractional = np.any(values % 1 != 0)
        if np.any(values < 1) or fractional:
            raise IndexError_(_NOT_POSITIVE_INTEGER)
        largest = values.max()
        if largest >= _INDEX_LIMIT:
            raise _too_large(largest)
    return values.astype(int) - 1


def _scalar_index(sub) -> int | None:
    """A real, non-logical 1×1 subscript as a 0-based index.

    ``None`` for any other subscript, which takes the general path.
    Validation matches :func:`_index_vector` check for check, so both
    paths raise the same error with the same message.
    """
    if sub is COLON or sub.is_logical:
        return None
    data = sub.data
    if data.shape != _ONE_BY_ONE:
        return None
    value = data.item()
    if type(value) is complex:
        if value.imag != 0:
            raise IndexError_(_NOT_REAL)
        value = value.real
    if value < 1 or value % 1 != 0:
        raise IndexError_(_NOT_POSITIVE_INTEGER)
    if value >= _INDEX_LIMIT:
        raise _too_large(value)
    return int(value) - 1


def subsref(a: MArray, subs: list) -> MArray:
    """``a(s1, …, sm)``."""
    if not subs:
        return a
    picked = _subsref_scalar(a, subs)
    if picked is not None:
        return picked
    if len(subs) == 1:
        return _subsref_linear(a, subs[0])
    return _subsref_nd(a, subs)


def _subsref_scalar(a: MArray, subs: list) -> MArray | None:
    """One element picked by 1×1 subscripts (the Fig. 1 scalar case).

    Computes the column-major offset over :func:`_padded_shape` and
    reads that element; the result equals the general path's.
    ``None`` when any subscript is not a real, non-logical 1×1 value.
    """
    data = a.data
    if data.dtype is not _FLOAT64 and data.dtype is not _COMPLEX128:
        return None
    m = len(subs)
    if m == 1:
        i = _scalar_index(subs[0])
        if i is None:
            return None
        if i >= data.size:
            raise IndexError_(
                f"index {i + 1} exceeds array numel {data.size}"
            )
        offset = i
    else:
        shape = _padded_shape(data.shape, m)
        offset, stride = 0, 1
        for k, sub in enumerate(subs):
            i = _scalar_index(sub)
            if i is None:
                return None
            if i >= shape[k]:
                raise IndexError_(
                    f"index {i + 1} exceeds extent {shape[k]} in "
                    f"dimension {k + 1}"
                )
            offset += i * stride
            stride *= shape[k]
    value = data.T.item(offset)  # C order over .T is F order over data
    if type(value) is complex and value.imag == 0:
        value = value.real
    return MArray(
        np.array(value, ndmin=max(m, 2)),
        is_logical=a.is_logical,
        is_char=a.is_char,
    )


def _subsref_linear(a: MArray, sub) -> MArray:
    flat = a.flat()
    idx = _index_vector(sub, a.numel)
    if idx.size and idx.max() >= a.numel:
        raise IndexError_(
            f"index {idx.max() + 1} exceeds array numel {a.numel}"
        )
    picked = flat[idx]
    if sub is COLON:
        result = picked.reshape(-1, 1)  # a(:) is a column vector
    elif isinstance(sub, MArray) and sub.is_logical:
        result = picked.reshape(-1, 1) if a.shape[0] > 1 else picked.reshape(1, -1)
    elif a.is_vector and not a.is_scalar:
        # vector source: result takes the source's orientation
        if a.shape[0] > 1:
            result = picked.reshape(-1, 1)
        else:
            result = picked.reshape(1, -1)
    else:
        # result has the subscript's shape
        result = picked.reshape(sub.shape, order="F")
    return MArray.from_numpy(
        result, is_logical=a.is_logical, is_char=a.is_char
    )


def _subsref_nd(a: MArray, subs: list) -> MArray:
    data = a.data
    m = len(subs)
    shape = _padded_shape(data.shape, m)
    data = data.reshape(shape, order="F")
    index_vectors = []
    for k, sub in enumerate(subs):
        iv = _index_vector(sub, shape[k])
        if iv.size and iv.max() >= shape[k]:
            raise IndexError_(
                f"index {iv.max() + 1} exceeds extent {shape[k]} in "
                f"dimension {k + 1}"
            )
        index_vectors.append(iv)
    result = data[np.ix_(*index_vectors)]
    if result.ndim < 2:
        result = np.atleast_2d(result)
    return MArray.from_numpy(
        result, is_logical=a.is_logical, is_char=a.is_char
    )


def _padded_shape(shape: tuple[int, ...], m: int) -> tuple[int, ...]:
    """Reshape rule: using m subscripts on an n-D array folds trailing
    dimensions into the m-th and pads missing ones with 1."""
    if m == len(shape):
        return shape
    if m > len(shape):
        return shape + (1,) * (m - len(shape))
    head = shape[: m - 1]
    tail = math.prod(shape[m - 1 :])
    return head + (tail,)


def subsasgn(a: MArray, rhs: MArray, subs: list) -> MArray:
    """``a(s1, …, sm) = rhs`` with zero-filled expansion."""
    if isinstance(rhs, MArray) and rhs.is_empty and not rhs.is_char:
        raise MatlabRuntimeError(
            "deletion via a(i) = [] (shrinkage) is not supported"
        )
    assigned = _subsasgn_scalar(a, rhs, subs)
    if assigned is not None:
        return assigned
    if len(subs) == 1:
        return _subsasgn_linear(a, rhs, subs[0])
    return _subsasgn_nd(a, rhs, subs)


def _subsasgn_scalar(a: MArray, rhs: MArray, subs: list) -> MArray | None:
    """One element written by 1×1 subscripts, growing as the general
    path does.  ``None`` unless both arrays are real double buffers,
    ``rhs`` has one element and every subscript is a real, non-logical
    1×1 value.
    """
    data = a.data
    if (
        not subs
        or data.dtype is not _FLOAT64
        or rhs.data.dtype is not _FLOAT64
        or rhs.data.size != 1
    ):
        return None
    value = rhs.data.item()
    flags = _result_flags(a, rhs)
    m = len(subs)
    if m == 1:
        i = _scalar_index(subs[0])
        if i is None:
            return None
        if i < data.size:
            out = data.copy(order="F")
            out.T.flat[i] = value  # C order over .T is F order over out
            return MArray(out, **flags)
        if a.is_empty:
            shape = (1, i + 1)
        elif a.is_vector:
            shape = (i + 1, 1) if data.shape[0] > 1 else (1, i + 1)
        else:
            raise IndexError_(
                "linear index out of range for a non-vector array"
            )
        flat = np.zeros(i + 1)
        flat[: data.size] = a.flat()
        flat[i] = value
        return MArray.from_numpy(flat.reshape(shape, order="F"), **flags)
    old_shape = _padded_shape(data.shape, m)
    index = []
    for sub in subs:
        i = _scalar_index(sub)
        if i is None:
            return None
        index.append(i)
    new_shape = tuple(max(e, i + 1) for e, i in zip(old_shape, index))
    if new_shape != old_shape:
        out = np.zeros(new_shape, order="F")
        if data.size:
            out[tuple(slice(0, e) for e in old_shape)] = data.reshape(
                old_shape, order="F"
            )
    else:
        out = data.reshape(old_shape, order="F").copy(order="F")
    out[tuple(index)] = value
    return MArray.from_numpy(out, **flags)


def _result_flags(a: MArray, rhs: MArray) -> dict:
    return {
        "is_logical": a.is_logical and rhs.is_logical,
        "is_char": a.is_char and rhs.is_char,
    }


def _subsasgn_linear(a: MArray, rhs: MArray, sub) -> MArray:
    idx = _index_vector(sub, a.numel)
    if idx.size == 0:
        return a
    needed = int(idx.max()) + 1
    flat = a.flat()
    shape = a.shape
    if needed > a.numel:
        if a.is_empty:
            shape = (1, needed)
        elif a.is_vector:
            shape = (
                (needed, 1) if a.shape[0] > 1 else (1, needed)
            )
        else:
            raise IndexError_(
                "linear index out of range for a non-vector array"
            )
        grown = np.zeros(needed, dtype=flat.dtype)
        grown[: flat.size] = flat
        flat = grown
    if rhs.is_scalar:
        values = np.full(idx.size, rhs.scalar() if rhs.is_complex
                         else rhs.scalar_real())
    else:
        if rhs.numel != idx.size:
            raise MatlabRuntimeError(
                "subscripted assignment dimension mismatch"
            )
        values = rhs.flat()
    if np.iscomplexobj(values) and not np.iscomplexobj(flat):
        flat = flat.astype(complex)
    flat[idx] = values
    result = flat.reshape(shape, order="F")
    return MArray.from_numpy(result, **_result_flags(a, rhs))


def _subsasgn_nd(a: MArray, rhs: MArray, subs: list) -> MArray:
    m = len(subs)
    old_shape = _padded_shape(a.shape, m)
    index_vectors = []
    new_shape = list(old_shape)
    for k, sub in enumerate(subs):
        iv = _index_vector(sub, old_shape[k])
        index_vectors.append(iv)
        if iv.size:
            new_shape[k] = max(new_shape[k], int(iv.max()) + 1)
    dtype = complex if (a.is_complex or rhs.is_complex) else float
    if tuple(new_shape) != old_shape or dtype != a.data.dtype:
        expanded = np.zeros(tuple(new_shape), dtype=dtype, order="F")
        if a.numel:
            expanded[tuple(slice(0, e) for e in old_shape)] = (
                a.data.reshape(old_shape, order="F")
            )
        data = expanded
    else:
        data = a.data.reshape(old_shape, order="F").copy(order="F")
    count = int(np.prod([iv.size for iv in index_vectors]))
    if rhs.is_scalar:
        data[np.ix_(*index_vectors)] = (
            rhs.scalar() if rhs.is_complex else rhs.scalar_real()
        )
    else:
        expected = tuple(iv.size for iv in index_vectors)
        if rhs.numel != count:
            raise MatlabRuntimeError(
                "subscripted assignment dimension mismatch "
                f"(need {expected}, rhs has {rhs.numel} elements)"
            )
        data[np.ix_(*index_vectors)] = rhs.flat().reshape(
            expected, order="F"
        )
    return MArray.from_numpy(data, **_result_flags(a, rhs))
