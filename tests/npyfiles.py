"""Malformed ``.npy`` files for the readers of the staged matrices, which
share ``common.read_npy``: ``read_binned`` and the vectors' binary reader.
Each case is a file that takes the place of a well-formed float64 array of
shape (1, 144), and the end of the message that the reader's error gives
after the file's name."""

import io

import numpy as np
import pytest


def npy(array, **kwargs):
    f = io.BytesIO()
    np.save(f, array, **kwargs)
    return f.getvalue()


def npy_header(shape):
    """An .npy header of float64 values claiming ``shape``, followed by 64 bytes."""
    f = io.BytesIO()
    np.lib.format.write_array_header_1_0(f, {"descr": "<f8", "fortran_order": False, "shape": shape})
    return f.getvalue() + bytes(64)


def _npz():
    f = io.BytesIO()
    np.savez(f, binned=np.ones((1, 144)))
    return f.getvalue()


# The file's bytes, or None for no file, whatever its values mean.
MALFORMED_ARRAYS = [
    pytest.param(None, r"\[Errno 2\] No such file or directory", id="missing"),
    pytest.param(b"", "EOF: reading magic string", id="empty"),
    pytest.param(b"tower_id,slot_index,bytes\nt1,5,1.0\n", "the magic string is not correct", id="csv"),
    pytest.param(_npz(), "the magic string is not correct", id="npz"),
    pytest.param(npy(np.full((1, 144), None, dtype=object), allow_pickle=True),
                 ".*Python objects in dtype", id="object"),
    pytest.param(npy(np.ones((1, 144), dtype=np.float32)),
                 r"holds <f4 \(1, 144\), not <f8 \(1, 144\)$", id="float32"),
    pytest.param(npy(np.ones((1, 144), dtype=np.int64)),
                 r"holds <i8 \(1, 144\), not <f8 \(1, 144\)$", id="int64"),
    pytest.param(npy(np.ones((1, 144), dtype=">f8")),
                 r"holds >f8 \(1, 144\), not <f8 \(1, 144\)$", id="big_endian"),
    pytest.param(npy(np.ones((2, 144))), r"holds <f8 \(2, 144\), not <f8 \(1, 144\)$", id="two_rows"),
    pytest.param(npy(np.ones((1, 143))), r"holds <f8 \(1, 143\), not <f8 \(1, 144\)$", id="143_slots"),
    pytest.param(npy(np.ones(144)), r"holds <f8 \(144,\), not <f8 \(1, 144\)$", id="1d"),
    pytest.param(npy(np.ones((1, 144)))[:-8], "mmap length is greater than file size$", id="truncated"),
    pytest.param(npy(np.ones((1, 144))) + b"\n", "holds bytes after its array$", id="trailing_byte"),
]

# A header that claims more than the file holds, which the reader must reject
# without allocating the array.
HUGE_HEADERS = [
    pytest.param((2**32 - 1, 144), "mmap length is greater than file size", id="2**32-1_rows"),
    # the size overflows int64, as a Python int or in numpy's own product
    pytest.param((2**64, 1), "Python int too large to convert to C long", id="2**64_rows"),
    pytest.param((2**62, 2**62), "overflow encountered in scalar multiply", id="2**124_slots"),
]
