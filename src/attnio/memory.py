"""Exact-counting simulator of a two-level memory hierarchy.

All arithmetic happens inside a bounded cache of ``capacity`` word slots.
An unbounded slow memory holds everything else, and every word moved
between the two levels is appended to a trace, so any kernel running on
the simulator gets exact read/write counts for free.

One matrix entry is one word is one I/O unit, and every word is a 64-bit
float.  There is no eviction policy: kernels manage their slots
explicitly and the simulator only enforces capacity.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import product, repeat
from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

from .errors import (
    AddressError,
    CapacityError,
    ConfigurationError,
    ResidencyError,
    UsageError,
)

Address = Hashable

READ = "R"
WRITE = "W"

# Algorithm-level kernels need a cache of at least 4 words (block size 1).
MIN_CAPACITY = 4


@dataclass(frozen=True)
class IoStats:
    reads: int
    writes: int

    @property
    def total(self) -> int:
        return self.reads + self.writes


@dataclass(frozen=True)
class Epoch:
    """A contiguous slice [start, stop) of a trace with at most M events."""

    start: int
    stop: int

    @property
    def io_count(self) -> int:
        return self.stop - self.start


# Elementwise and fused cache primitives.  Fused ops (addmm, add_outer,
# scaled_addmm) accumulate without materializing their intermediate
# product, so they need no extra cache words.
_OPS: dict[str, Callable] = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.divide,
    "neg": np.negative,
    "exp": np.exp,
    "inv": np.reciprocal,
    "maximum": np.maximum,
    "matmul": np.matmul,
    "rowsum": lambda a: np.sum(a, axis=-1),
    "rowmax": lambda a: np.max(a, axis=-1),
    "rowscale": lambda a, w: a * w[..., None],
    "subrow": lambda a, w: a - w[..., None],
    "addmm": lambda acc, a, b: acc + a @ b,
    "add_outer": lambda acc, u, v: acc + u[:, None] * v[None, :],
    "scaled_addmm": lambda acc, w, a, b: acc + w[:, None] * (a @ b),
}


class MemoryHierarchy:
    """Bounded cache + unbounded memory with an exact I/O trace.

    Slots are handles to cache-resident arrays (a scalar is a shape-()
    array).  Occupancy is counted in words; any read, allocation, or
    compute that would push occupancy past ``capacity`` raises
    ``CapacityError`` instead of evicting.
    """

    def __init__(self, capacity: int):
        if capacity < MIN_CAPACITY:
            raise ConfigurationError(
                f"cache capacity must be >= {MIN_CAPACITY}, got {capacity}"
            )
        self.capacity = capacity
        self.memory: dict[Address, float] = {}
        self.trace: list[tuple[str, Address, float]] = []
        self.reads = 0
        self.writes = 0
        self.overflow = False
        self._slots: dict[int, np.ndarray] = {}
        self._used = 0
        self._next_handle = 0

    # -- occupancy ---------------------------------------------------------

    @property
    def words_used(self) -> int:
        return self._used

    def _claim(self, n: int) -> None:
        if self._used + n > self.capacity:
            raise CapacityError(
                f"cache full: {self._used} used + {n} requested > {self.capacity}"
            )
        self._used += n

    def _store(self, array: np.ndarray) -> int:
        handle = self._next_handle
        self._next_handle += 1
        self._slots[handle] = array
        return handle

    def _resident(self, handle: int) -> np.ndarray:
        try:
            return self._slots[handle]
        except KeyError:
            raise ResidencyError(f"slot {handle} is not cache-resident") from None

    # -- memory initialization (no I/O) -------------------------------------

    def initialize(self, address: Address, value) -> None:
        """Place a word directly in slow memory.  Models input residency."""
        self.memory[address] = float(value)

    def load(self, name: str, matrix: np.ndarray) -> None:
        """Initialize memory with a named matrix, one address per entry."""
        matrix = np.atleast_2d(np.asarray(matrix))
        rows, cols = matrix.shape
        self.memory.update(zip(product((name,), range(rows), range(cols)),
                               map(float, matrix.ravel().tolist())))

    # -- I/O -----------------------------------------------------------------

    def read_word(self, address: Address) -> int:
        """Copy one word from memory into a fresh cache slot."""
        return self.read_block([address], ())

    def read_block(self, addresses: Sequence[Address], shape: tuple = None) -> int:
        """Copy a group of words into a single slot holding an array.

        Counts one Read event per word.  ``shape`` defaults to a flat
        vector; a () shape yields a scalar slot.
        """
        addresses = list(addresses)
        memory = self.memory
        try:
            values = [memory[a] for a in addresses]
        except KeyError as exc:
            raise AddressError(f"address {exc.args[0]!r} was never initialized") from None
        arr = np.array(values, dtype=np.float64)
        if shape is not None:
            arr = arr.reshape(shape)
        self._claim(len(values))
        self.trace.extend(zip(repeat(READ), addresses, values))
        self.reads += len(values)
        return self._store(arr)

    def write_word(self, handle: int, address: Address) -> None:
        """Copy a scalar slot's word to memory.  The slot stays resident."""
        self.write_block(handle, [address])

    def write_block(self, handle: int, addresses: Sequence[Address]) -> None:
        """Copy a slot's words to memory, one Write event per word."""
        arr = self._resident(handle)
        addresses = list(addresses)
        if len(addresses) != arr.size:
            raise UsageError(
                f"slot holds {arr.size} words but {len(addresses)} addresses given"
            )
        values = arr.ravel().tolist()
        self.memory.update(zip(addresses, values))
        self.trace.extend(zip(repeat(WRITE), addresses, values))
        self.writes += len(addresses)

    def free(self, handle: int) -> None:
        """Vacate a slot.  No I/O is counted."""
        arr = self._slots.pop(handle, None)
        if arr is None:
            raise UsageError(f"slot {handle} is already empty")
        self._used -= arr.size

    # -- computation ---------------------------------------------------------

    def alloc(self, shape: tuple = (), fill=0) -> int:
        """Create a zero-filled (or constant) slot without any I/O."""
        arr = np.full(shape, float(fill), dtype=np.float64)
        self._claim(arr.size)
        return self._store(arr)

    def compute(self, op: str, *operands: int, out: int | None = None) -> int:
        """Apply a named arithmetic primitive to cache-resident operands.

        Counters and trace are untouched.  With ``out`` the result
        overwrites an existing slot of the same size (in-place
        accumulation); otherwise a fresh slot is allocated.
        """
        fn = _OPS.get(op)
        if fn is None:
            raise UsageError(f"unknown op {op!r}")
        slots = self._slots
        try:
            arrays = [slots[h] for h in operands]
        except KeyError as exc:
            raise ResidencyError(f"slot {exc.args[0]} is not cache-resident") from None
        with np.errstate(over="ignore", invalid="ignore"):
            result = np.asarray(fn(*arrays), dtype=np.float64)
        # max is NaN if any entry is, so one reduction catches NaN and +inf.
        if result.size and not (result.max() < np.inf):
            self.overflow = True
        if out is not None:
            target = self._resident(out)
            if target.size != result.size:
                raise UsageError("out slot size mismatch")
            self._slots[out] = result.reshape(target.shape)
            return out
        self._claim(result.size)
        return self._store(result)

    def value(self, handle: int) -> np.ndarray:
        """Inspect a slot's contents (testing convenience, not a memory op)."""
        return self._resident(handle).copy()

    def fetch_matrix(self, name: str, shape: tuple[int, int]) -> np.ndarray:
        """Gather a named matrix out of slow memory (no I/O accounting)."""
        memory = self.memory
        try:
            values = [memory[a] for a in product((name,), range(shape[0]), range(shape[1]))]
        except KeyError as exc:
            raise AddressError(f"address {exc.args[0]!r} was never written") from None
        return np.array(values, dtype=np.float64).reshape(shape)

    @property
    def io(self) -> IoStats:
        return IoStats(self.reads, self.writes)


def split_into_epochs(trace: Sequence, m: int) -> list[Epoch]:
    """Greedy left-to-right split of a trace into epochs of <= m I/O events.

    The empty trace yields a single empty epoch.  The split is minimal:
    T = ceil(len(trace)/m) epochs, hence len(trace) >= (T - 1) * m.
    """
    if m < 1:
        raise ConfigurationError("epoch size must be positive")
    n = len(trace)
    if n == 0:
        return [Epoch(0, 0)]
    return [Epoch(k, min(k + m, n)) for k in range(0, n, m)]


def replay_trace(trace: Iterable[tuple]) -> dict[Address, float]:
    """Apply the write events of a trace to a fresh memory image."""
    memory: dict[Address, float] = {}
    for kind, address, value in trace:
        if kind == WRITE:
            memory[address] = value
    return memory


def format_address(address: Address) -> str:
    if isinstance(address, tuple) and len(address) >= 2:
        name, *idx = address
        return f"{name}[{','.join(str(i) for i in idx)}]"
    return str(address)


def export_trace_csv(trace: Sequence[tuple], path) -> None:
    """Write the trace as CSV rows (tick, kind, address).  Deterministic."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tick", "kind", "address"])
        for tick, (kind, address, _value) in enumerate(trace):
            writer.writerow([tick, kind, format_address(address)])
