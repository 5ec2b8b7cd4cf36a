"""Exact-counting simulator of a two-level memory hierarchy.

All arithmetic happens inside a bounded cache of ``capacity`` word slots.
An unbounded slow memory holds everything else, and every word moved
between the two levels is recorded in a trace, so any kernel running on
the simulator gets exact read/write counts for free.  The trace stores
one entry per block move and is read as one (kind, address, value) row
per word.

One matrix entry is one word is one I/O unit, and every word is a 64-bit
float.  There is no eviction policy: kernels manage their slots
explicitly and the simulator only enforces capacity.

``compute`` does not silence numpy's floating-point warnings; the
kernels do that once per run.  Either way the hierarchy's ``overflow``
flag records any NaN or +inf result.  The check is deferred: results
are scanned with one reduction per max(``capacity``, 1024) words of
them, and whatever is still pending is scanned when ``overflow`` is
read, so every read is exact.  That relies on no slot array ever being
mutated after ``compute`` returns.
"""

from __future__ import annotations

import csv
import math
import operator
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import product, repeat
from typing import Callable, Hashable, Iterable

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

# Fewest pending result words that trigger an overflow scan.  A scan
# costs a concatenate and a max whatever its size, so at small
# capacities one per cache-full would run after every few results.
SCAN_FLOOR = 1024


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


# Elementwise and fused cache primitives, each with its operand count.
# Fused ops (exp_sub, mul_add, addmm, add_outer, scaled_addmm) apply
# their steps in one call and in the same order as the separate ops,
# so results are bit-identical and need no extra cache words.
_OPS: dict[str, tuple[Callable, int]] = {
    "add": (np.add, 2),
    "sub": (np.subtract, 2),
    "mul": (np.multiply, 2),
    "div": (np.divide, 2),
    "neg": (np.negative, 1),
    "exp": (np.exp, 1),
    "inv": (np.reciprocal, 1),
    "maximum": (np.maximum, 2),
    "matmul": (np.matmul, 2),
    "rowsum": (lambda a: np.sum(a, axis=-1), 1),
    "rowmax": (lambda a: np.max(a, axis=-1), 1),
    "rowscale": (lambda a, w: a * w[..., None], 2),
    "subrow": (lambda a, w: a - w[..., None], 2),
    "exp_sub": (lambda a, b: np.exp(a - b), 2),
    "mul_add": (lambda a, w, b: a * w + b, 3),
    "addmm": (lambda acc, a, b: acc + a @ b, 3),
    "add_outer": (lambda acc, u, v: acc + u[:, None] * v[None, :], 3),
    "scaled_addmm": (lambda acc, w, a, b: acc + w[:, None] * (a @ b), 4),
}


class Trace(Sequence):
    """The I/O trace, read as one (kind, address, value) row per word.

    It stores one (kind, addresses, values) entry per block move plus the
    offset at which each move starts, so recording a move costs one
    append however many words it carries.  ``MemoryHierarchy`` appends
    to these lists directly in its block moves.
    """

    def __init__(self):
        self._moves: list[tuple[str, tuple, list[float]]] = []
        self._starts: list[int] = []
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        for kind, addresses, values in self._moves:
            yield from zip(repeat(kind), addresses, values)

    def __getitem__(self, index: int) -> tuple[str, Address, float]:
        index = operator.index(index)
        if index < 0:
            index += self._len
        if not 0 <= index < self._len:
            raise IndexError("trace index out of range")
        move = bisect_right(self._starts, index) - 1
        kind, addresses, values = self._moves[move]
        offset = index - self._starts[move]
        return kind, addresses[offset], values[offset]

    def __eq__(self, other):
        if not isinstance(other, (Trace, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))


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
        self.trace = Trace()
        self.reads = 0
        self.writes = 0
        self._overflow = False
        # Results not yet scanned for NaN or +inf, and their word count.
        # Invariant: no slot array is mutated after ``compute`` returns
        # (``out=`` replaces the slot's array, reads and allocs make
        # fresh ones), so scanning a result late sees what it held.
        self._pending: list[np.ndarray] = []
        self._pending_words = 0
        self._scan_words = max(capacity, SCAN_FLOOR)
        self._slots: dict[int, np.ndarray] = {}
        self._used = 0
        self._next_handle = 0

    # -- occupancy ---------------------------------------------------------

    @property
    def words_used(self) -> int:
        return self._used

    @property
    def overflow(self) -> bool:
        """Whether any ``compute`` result so far held a NaN or +inf."""
        if self._pending:
            self._scan_pending()
        return self._overflow

    def _scan_pending(self) -> None:
        # max is NaN if any entry is, so one reduction catches NaN and +inf.
        if not (np.concatenate(self._pending, axis=None).max() < np.inf):
            self._overflow = True
        self._pending.clear()
        self._pending_words = 0

    def _claim(self, n: int) -> None:
        if self._used + n > self.capacity:
            raise CapacityError(
                f"cache full: {self._used} used + {n} requested > {self.capacity}"
            )
        self._used += n

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
        addresses = tuple(addresses)
        try:
            values = list(map(self.memory.__getitem__, addresses))
        except KeyError as exc:
            raise AddressError(f"address {exc.args[0]!r} was never initialized") from None
        arr = np.array(values, dtype=np.float64)
        if shape is not None:
            arr = arr.reshape(shape)
        n = len(values)
        self._claim(n)
        trace = self.trace
        trace._moves.append((READ, addresses, values))
        trace._starts.append(trace._len)
        trace._len += n
        self.reads += n
        handle = self._next_handle
        self._next_handle = handle + 1
        self._slots[handle] = arr
        return handle

    def write_word(self, handle: int, address: Address) -> None:
        """Copy a scalar slot's word to memory.  The slot stays resident."""
        self.write_block(handle, [address])

    def write_block(self, handle: int, addresses: Sequence[Address]) -> None:
        """Copy a slot's words to memory, one Write event per word."""
        arr = self._resident(handle)
        addresses = tuple(addresses)
        if len(addresses) != arr.size:
            raise UsageError(
                f"slot holds {arr.size} words but {len(addresses)} addresses given"
            )
        values = arr.ravel().tolist()
        self.memory.update(zip(addresses, values))
        n = len(values)
        trace = self.trace
        trace._moves.append((WRITE, addresses, values))
        trace._starts.append(trace._len)
        trace._len += n
        self.writes += n

    def free(self, handle: int) -> None:
        """Vacate a slot.  No I/O is counted."""
        arr = self._slots.pop(handle, None)
        if arr is None:
            raise UsageError(f"slot {handle} is already empty")
        self._used -= arr.size

    # -- computation ---------------------------------------------------------

    def alloc(self, shape: tuple = (), fill=0) -> int:
        """Create a zero-filled (or constant) slot without any I/O."""
        # np.zeros is the cheaper +0 fill; -0.0 == 0 keeps its sign via np.full.
        if fill == 0 and math.copysign(1.0, fill) > 0:
            arr = np.zeros(shape, dtype=np.float64)
        else:
            arr = np.full(shape, float(fill), dtype=np.float64)
        self._claim(arr.size)
        handle = self._next_handle
        self._next_handle = handle + 1
        self._slots[handle] = arr
        return handle

    def compute(self, op: str, *operands: int, out: int | None = None) -> int:
        """Apply a named arithmetic primitive to cache-resident operands.

        Counters and trace are untouched.  With ``out`` the result
        overwrites an existing slot of the same size (in-place
        accumulation); otherwise a fresh slot is allocated.  An unknown
        op or a wrong operand count raises ``UsageError`` before
        anything is computed.
        """
        try:
            fn, arity = _OPS[op]
        except KeyError:
            raise UsageError(f"unknown op {op!r}") from None
        if len(operands) != arity:
            raise UsageError(f"op {op!r} takes {arity} operands, got {len(operands)}")
        slots = self._slots
        try:
            arrays = tuple(map(slots.__getitem__, operands))
        except KeyError as exc:
            raise ResidencyError(f"slot {exc.args[0]} is not cache-resident") from None
        # Slots hold float64 arrays, so every op yields float64; only a
        # numpy scalar (any op with a shape-() result) needs wrapping.
        result = fn(*arrays)
        if type(result) is not np.ndarray:
            result = np.asarray(result, dtype=np.float64)
        size = result.size
        if size:
            self._pending.append(result)
            self._pending_words += size
            if self._pending_words >= self._scan_words:
                self._scan_pending()
        if out is not None:
            try:
                target = slots[out]
            except KeyError:
                raise ResidencyError(f"slot {out} is not cache-resident") from None
            if target.size != size:
                raise UsageError("out slot size mismatch")
            shape = target.shape
            slots[out] = result if result.shape == shape else result.reshape(shape)
            return out
        self._claim(size)
        handle = self._next_handle
        self._next_handle = handle + 1
        slots[handle] = result
        return handle

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
