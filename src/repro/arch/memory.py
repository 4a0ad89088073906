"""Functional (data-holding) flat memory with a bump allocator.

Timing lives in the cache/DRAM models; this module only stores bytes.
All vector traffic is 32-bit-element based, so the hot paths are the
``load_vec_u32`` / ``store_vec_u32`` pair.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError


class FlatMemory:
    """Byte-addressable little-endian memory backed by one numpy buffer."""

    def __init__(self, size_bytes: int):
        if size_bytes <= 0:
            raise SimulationError("memory size must be positive")
        self.size = size_bytes
        self._buf = np.zeros(size_bytes, dtype=np.uint8)
        #: the same bytes as 32-bit words (word-aligned vector fast path)
        self.words = self._buf[:size_bytes & ~3].view(np.uint32)
        # Address 0 is kept unmapped so that stray null pointers fault.
        self._alloc_ptr = 64

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def allocate(self, size: int, align: int = 64) -> int:
        """Reserve ``size`` bytes, aligned to ``align``; returns the address."""
        if size < 0 or align <= 0 or align & (align - 1):
            raise SimulationError(f"bad allocation request ({size}, {align})")
        base = (self._alloc_ptr + align - 1) & ~(align - 1)
        if base + size > self.size:
            raise SimulationError(
                f"out of simulated memory: need {size} bytes at {base:#x}, "
                f"have {self.size:#x} total")
        self._alloc_ptr = base + size
        return base

    @property
    def bytes_allocated(self) -> int:
        return self._alloc_ptr

    # ------------------------------------------------------------------
    # bounds
    # ------------------------------------------------------------------
    def _check(self, addr: int, size: int) -> None:
        if addr < 0 or addr + size > self.size:
            raise SimulationError(
                f"memory access out of range: {size} bytes at {addr:#x}")

    # ------------------------------------------------------------------
    # scalar accessors
    # ------------------------------------------------------------------
    def load_u8(self, addr: int) -> int:
        self._check(addr, 1)
        return int(self._buf[addr])

    def load_u16(self, addr: int) -> int:
        self._check(addr, 2)
        return int.from_bytes(self._buf[addr:addr + 2].tobytes(), "little")

    def load_u32(self, addr: int) -> int:
        self._check(addr, 4)
        return int.from_bytes(self._buf[addr:addr + 4].tobytes(), "little")

    def load_u64(self, addr: int) -> int:
        self._check(addr, 8)
        return int.from_bytes(self._buf[addr:addr + 8].tobytes(), "little")

    def store_u8(self, addr: int, value: int) -> None:
        self._check(addr, 1)
        self._buf[addr] = value & 0xFF

    def store_u16(self, addr: int, value: int) -> None:
        self._check(addr, 2)
        self._buf[addr:addr + 2] = np.frombuffer(
            (value & 0xFFFF).to_bytes(2, "little"), dtype=np.uint8)

    def store_u32(self, addr: int, value: int) -> None:
        self._check(addr, 4)
        self._buf[addr:addr + 4] = np.frombuffer(
            (value & 0xFFFFFFFF).to_bytes(4, "little"), dtype=np.uint8)

    def store_u64(self, addr: int, value: int) -> None:
        self._check(addr, 8)
        self._buf[addr:addr + 8] = np.frombuffer(
            (value & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little"), dtype=np.uint8)

    def load_f32(self, addr: int) -> float:
        self._check(addr, 4)
        return float(self._buf[addr:addr + 4].view(np.float32)[0])

    def store_f32(self, addr: int, value: float) -> None:
        self._check(addr, 4)
        self._buf[addr:addr + 4] = np.frombuffer(
            np.float32(value).tobytes(), dtype=np.uint8)

    # ------------------------------------------------------------------
    # vector accessors (32-bit elements, raw bit patterns)
    # ------------------------------------------------------------------
    def load_vec_u32(self, addr: int, count: int) -> np.ndarray:
        """Read ``count`` consecutive 32-bit words as raw uint32."""
        self._check(addr, 4 * count)
        return np.frombuffer(self._buf.data, dtype=np.uint32,
                             count=count, offset=addr)

    def store_vec_u32(self, addr: int, values: np.ndarray) -> None:
        self._check(addr, 4 * len(values))
        self._buf[addr:addr + 4 * len(values)] = \
            values.astype(np.uint32, copy=False).view(np.uint8)

    # ------------------------------------------------------------------
    # bulk array helpers used by kernels/workloads to stage operands
    # ------------------------------------------------------------------
    def write_array(self, addr: int, array: np.ndarray) -> None:
        """Copy a numpy array (any dtype) into memory at ``addr``."""
        raw = np.ascontiguousarray(array).view(np.uint8).ravel()
        self._check(addr, len(raw))
        self._buf[addr:addr + len(raw)] = raw

    def read_array(self, addr: int, dtype, shape) -> np.ndarray:
        """Read a contiguous array of ``dtype``/``shape`` starting at ``addr``."""
        dtype = np.dtype(dtype)
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        nbytes = count * dtype.itemsize
        self._check(addr, nbytes)
        flat = np.frombuffer(self._buf.data, dtype=dtype, count=count,
                             offset=addr)
        return flat.reshape(shape).copy()
