# lint-module: repro/perf/scratch.py
"""Fixture: shared-memory lifecycle violations."""

from __future__ import annotations

from multiprocessing import shared_memory
import numpy as np

def _leaked(nbytes: int) -> bytes:
    block = shared_memory.SharedMemory(create=True, size=nbytes)  # line 10
    return bytes(block.buf[:4])  # handle dropped: never closed/unlinked


def _use_after_close(nbytes: int) -> "object":
    block = shared_memory.SharedMemory(create=True, size=nbytes)
    block.close()
    block.unlink()
    return block.buf  # line 18: the mapping is gone


def _unlink_before_close(nbytes: int) -> None:
    block = shared_memory.SharedMemory(create=True, size=nbytes)
    block.unlink()  # line 23: segment destroyed while still mapped
    block.close()


# The two leak-on-exception shapes the analyzer found in perf/shm.py, kept
# as they were: np.ndarray(...) can raise once the segment exists, and
# nothing closes (or, for the creator, unlinks) the handle on that path.


def _export_array(array: np.ndarray) -> tuple[shared_memory.SharedMemory, tuple]:
    array = np.ascontiguousarray(array)
    block = shared_memory.SharedMemory(create=True, size=max(1, array.nbytes))
    view = np.ndarray(array.shape, dtype=array.dtype, buffer=block.buf)
    view[...] = array
    return block, (block.name, tuple(array.shape), array.dtype.str)


def _attach_array(
    name: str, shape: tuple[int, ...], dtype: str
) -> tuple[shared_memory.SharedMemory, np.ndarray]:
    try:
        block = shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13
        block = shared_memory.SharedMemory(name=name)
    view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=block.buf)
    return block, view
