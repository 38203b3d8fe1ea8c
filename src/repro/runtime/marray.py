"""MATLAB array values.

An :class:`MArray` is a column-major (Fortran-order) numpy array plus a
MATLAB *class* tag (``double``/``logical``/``char``); MATLAB 6's data
model, which is all the benchmark suite needs.  Arrays are at least
2-D; scalars are 1×1.  Complex data is carried in a complex128 buffer,
real data in float64 — mirroring how the paper's C translation picks a
representation from the inferred intrinsic type.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.errors import MatlabRuntimeError

_FLOAT64 = np.dtype(np.float64)


class MArray:
    """An immutable MATLAB value: ``data`` (≥2-D, Fortran order) plus
    the ``is_logical``/``is_char`` class flags.

    Hand-written rather than a frozen dataclass, whose generated
    ``__init__`` pays an ``object.__setattr__`` per field: a benchmark
    sweep builds about a million values.  The contract is a frozen
    dataclass's: no attribute can be assigned or deleted, pickling and
    ``copy`` go through :meth:`__reduce__`, and ``==``/``hash`` compare
    and hash the field tuple (so hashing raises for the ndarray).
    """

    __slots__ = ("data", "is_logical", "is_char")

    data: np.ndarray
    is_logical: bool
    is_char: bool

    def __init__(self, data: np.ndarray, is_logical: bool = False,
                 is_char: bool = False) -> None:
        _set_data(self, data)
        _set_logical(self, is_logical)
        _set_char(self, is_char)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (MArray, (self.data, self.is_logical, self.is_char))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.data, self.is_logical, self.is_char) == (
            other.data, other.is_logical, other.is_char
        )

    def __hash__(self):
        return hash((self.data, self.is_logical, self.is_char))

    # -- constructors --------------------------------------------------

    @staticmethod
    def from_scalar(value: complex | float | int | bool) -> "MArray":
        # a 1×1 array is both C- and Fortran-contiguous as built
        if type(value) is float:
            # the bits complex(value).real would give, -0.0 and NaN too
            return MArray(np.array(value, ndmin=2))
        if isinstance(value, bool):
            return MArray(np.array(float(value), ndmin=2), True)
        value = complex(value)
        if value.imag == 0:
            return MArray(np.array(value.real, ndmin=2))
        return MArray(np.array(value, ndmin=2))

    @staticmethod
    def from_numpy(array: np.ndarray, is_logical: bool = False,
                   is_char: bool = False) -> "MArray":
        if (
            type(array) is np.ndarray
            and array.dtype is _FLOAT64
            and array.ndim == 2
            and array.flags.f_contiguous
        ):
            # already in canonical form: the general path below would
            # return this very array
            return MArray(array, is_logical, is_char)
        array = np.atleast_2d(np.asarray(array))
        if array.dtype == bool:
            array = array.astype(float)
            is_logical = True
        elif array.dtype.kind in "iu":
            array = array.astype(float)
        if np.iscomplexobj(array) and np.all(array.imag == 0):
            array = array.real.copy(order="F")
        return MArray(np.asfortranarray(array), is_logical, is_char)

    @staticmethod
    def from_string(text: str) -> "MArray":
        codes = np.array([[float(ord(c)) for c in text]])
        if not text:
            codes = np.zeros((0, 0))
        return MArray(np.asfortranarray(codes), is_char=True)

    @staticmethod
    def empty() -> "MArray":
        return MArray(np.asfortranarray(np.zeros((0, 0))))

    # -- queries ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def numel(self) -> int:
        return self.data.size

    @property
    def is_scalar(self) -> bool:
        return self.data.size == 1

    @property
    def is_empty(self) -> bool:
        return self.data.size == 0

    @property
    def is_vector(self) -> bool:
        shape = self.data.shape
        return sum(1 for d in shape if d > 1) <= 1

    @property
    def is_complex(self) -> bool:
        return self.data.dtype.kind == "c"

    def scalar(self) -> complex:
        if not self.is_scalar:
            raise MatlabRuntimeError(
                f"expected a scalar, got shape {self.shape}"
            )
        return complex(self.data.flat[0])

    def scalar_real(self) -> float:
        value = self.scalar()
        return value.real

    def scalar_int(self) -> int:
        return int(self.scalar_real())

    def is_true(self) -> bool:
        """MATLAB truthiness: nonempty and all elements nonzero."""
        data = self.data
        size = data.size
        if size == 1:
            return data.item() != 0
        if size == 0:
            return False
        return bool(np.all(data != 0))

    def flat(self) -> np.ndarray:
        """Elements in column-major order."""
        return self.data.flatten(order="F")

    def byte_size(self, logical_bytes: int = 4) -> int:
        """Payload bytes under the C translation's representation."""
        size = self.data.size
        if self.is_logical:
            return size * logical_bytes
        if self.is_char:
            return size
        if self.data.dtype.kind == "c":
            return size * 16
        return size * 8

    def as_string(self) -> str:
        return "".join(chr(int(c.real)) for c in self.flat())

    def __repr__(self) -> str:
        kind = (
            "char" if self.is_char else
            "logical" if self.is_logical else
            "complex" if self.is_complex else "double"
        )
        return f"MArray({kind}, {self.shape})"


# the slots' own setters, which MArray.__setattr__ shuts off
_set_data = MArray.data.__set__
_set_logical = MArray.is_logical.__set__
_set_char = MArray.is_char.__set__


def allocate(make, shape: tuple[int, ...], **kwargs) -> np.ndarray:
    """``make(shape, **kwargs)`` for a numpy array constructor such as
    ``np.zeros`` or a generator's ``random``.

    A shape numpy cannot allocate (``a(2^62) = 5``) raises
    ``MatlabRuntimeError("out of memory: …")`` instead of numpy's
    ``ValueError``/``MemoryError``.  No size is refused up front: the
    limit is whatever numpy and the host can hold.
    """
    try:
        return make(shape, **kwargs)
    except (ValueError, MemoryError):
        size = (
            f"{shape[0]}-element" if len(shape) == 1
            else "x".join(str(d) for d in shape)
        )
        raise MatlabRuntimeError(
            f"out of memory: cannot allocate a {size} array"
        ) from None


def as_marray(value) -> MArray:
    if isinstance(value, MArray):
        return value
    if isinstance(value, str):
        return MArray.from_string(value)
    if isinstance(value, (int, float, complex, bool)):
        return MArray.from_scalar(value)
    if isinstance(value, np.ndarray):
        return MArray.from_numpy(value)
    raise MatlabRuntimeError(f"cannot convert {type(value)} to MArray")
