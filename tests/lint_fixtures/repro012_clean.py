# lint-module: repro/perf/scratch.py
"""Fixture: disciplined shared-memory lifecycles pass."""

from __future__ import annotations

from multiprocessing import shared_memory
import numpy as np

def _close_then_unlink(nbytes: int) -> int:
    block = shared_memory.SharedMemory(create=True, size=nbytes)
    try:
        size = block.size
    finally:
        block.close()
        block.unlink()
    return size


def _escaped_to_caller(nbytes: int) -> "object":
    # Returning the handle transfers cleanup responsibility: no leak.
    return shared_memory.SharedMemory(create=True, size=nbytes)


def _context_managed(nbytes: int) -> int:
    with shared_memory.SharedMemory(create=True, size=nbytes) as block:
        return block.size


# The guarded perf/shm.py shapes: a failure after the segment exists
# releases the handle before re-raising.


def _export_array(array: np.ndarray) -> tuple[shared_memory.SharedMemory, tuple]:
    array = np.ascontiguousarray(array)
    block = shared_memory.SharedMemory(create=True, size=max(1, array.nbytes))
    try:
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=block.buf)
        view[...] = array
        spec = (block.name, tuple(array.shape), array.dtype.str)
    except Exception:
        block.close()
        block.unlink()
        raise
    return block, spec


def _attach_array(
    name: str, shape: tuple[int, ...], dtype: str
) -> tuple[shared_memory.SharedMemory, np.ndarray]:
    try:
        block = shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13
        block = shared_memory.SharedMemory(name=name)
    try:
        view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=block.buf)
    except Exception:
        block.close()  # attach side: close the mapping, never unlink
        raise
    return block, view
