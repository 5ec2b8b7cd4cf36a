"""Exact-counting simulator of a two-level memory hierarchy.

All arithmetic happens inside a bounded cache of ``capacity`` word slots.
An unbounded slow memory holds everything else, and every word moved
between the two levels is counted, so any kernel running on the
simulator gets exact read/write counts for free.

Slow memory is one C-ordered float64 array per name: ``load`` places an
input array there, ``reserve`` declares an output array, and both are
free.  A ``Block`` names a row-major rectangle of one array; it is the
address form of ``read_block`` and ``write_block``, and each block moves
with one slice.  ``Block.grid`` builds the table of blocks over a product
of axis partitions, checking each range once, not once per block; the
kernels build every block they move with it.  The hierarchy keeps only
counters, no record of its moves: a ``TracingHierarchy`` keeps one
(kind, block, value bytes) record per move, and iterating its ``trace``
yields one (kind, address, value) row per word, with addresses (name, i,
j, ...).

One matrix entry is one word is one I/O unit, and every word is a 64-bit
float.  There is no eviction policy: kernels manage their slots
explicitly and the simulator only enforces capacity.

The I/O clock is the read and write counters, one tick per word moved.
``split_into_epochs`` cuts a tick count into epochs of at most M ticks,
the lower-bound simulation argument's, as the ``range`` of epoch starts.

``compute`` does not silence numpy's floating-point warnings; the
kernels do that once per run.  Either way the hierarchy's ``overflow``
flag records any NaN or +inf result stored in a slot; a result refused
by the capacity or ``out`` check is never seen.  The check is deferred:
once per 256 stored non-empty results their buffers are joined and
scanned with one reduction, and whatever is pending is scanned when
``overflow`` is read, so every read is exact.  That relies on no slot
array being mutated after ``compute`` returns (``out=`` replaces the
slot's array) and on every slot array being C-contiguous, which reads,
allocs and the ops on C-contiguous operands all give.

A block's address is checked on its first move only: each hierarchy
keeps, per ``Block`` object, the slow-memory view that move checked, and
later moves of that object reuse it.  That relies on two invariants: a
``Block`` is never mutated, and slow-memory arrays change only through
``load`` and ``reserve``, which empty the map.  Whether the words were
written is checked on every read: at once for a ``Block`` object written
before, word by word for any other.  ``fetch_matrix(name)`` moves
nothing: it copies the whole array after that check and keeps no view.

Each primitive has one checked path, which both backends run:
``_claim`` is the only capacity check, ``_resident`` the only residency
error, and ``_refuse`` raises for every failed ``compute`` call.

``CountHierarchy`` is the same hierarchy without values: its arrays are
zero-byte (dtype ``V0``) ones of the float64 shapes, shared through two
process-wide caches, one per shape and one per (op name, operand
shapes).  It overrides only ``compute`` and two value hooks, so a count
run counts, claims and raises exactly as here, and a wrapper put on the
other methods (the bench tracer's) sees its calls too.
Counts do not depend on values, so a kernel counts the same on both;
``experiments.run_sweep`` runs a point on it, with no values drawn,
whenever the point's values provably stay finite.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass
from itertools import compress, product, repeat
from typing import Callable, NoReturn

import numpy as np

from .errors import (
    AddressError,
    CapacityError,
    ConfigurationError,
    ResidencyError,
    UsageError,
    check_integer,
)

READ = "R"
WRITE = "W"

# Algorithm-level kernels need a cache of at least 4 words (block size 1).
MIN_CAPACITY = 4

# Stored non-empty results per overflow scan.  A scan costs a byte join
# and a max whatever its size, so counting results rather than their
# words keeps ``compute`` to one append and one compare.
# Until their scan, up to this many results stay alive even once their
# slots are freed or replaced: at most SCAN_RESULTS * capacity words.
SCAN_RESULTS = 256


@dataclass(frozen=True)
class IoStats:
    reads: int
    writes: int

    @property
    def total(self) -> int:
        return self.reads + self.writes


# The cache primitives the kernels call, each with its operand count.
# Fused ops (exp_sub, mul_add, addmm, add_outer, scaled_addmm,
# add_rowsum) apply their steps in one call and in the same order as
# the separate ops, so results are bit-identical and need no extra
# cache words; the row sum exists only fused, as ``add_rowsum``.
# ``overflow`` sees only the fused result: an intermediate +inf that a
# negative scale in scaled_addmm turns into -inf goes unflagged (the
# kernels' scale is a reciprocal row sum, never negative).
#
# The matrix products (matmul, addmm, scaled_addmm) take 1-D and 2-D
# operands only, and go through ``ndarray.dot``: on those it gives the
# bits of ``np.matmul`` at less per-call cost.  ``dot`` would scale by a
# 0-d operand and contract a 3-D one where ``matmul`` refuses or
# batches, so ``_dot`` refuses both.  A contraction of length 1 stays
# with ``matmul``: there ``dot`` multiplies without the sum's +0.0 start
# (-0.0 stays -0.0) and a zero scalar operand zeroes inf and NaN.


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.ndim not in (1, 2) or b.ndim not in (1, 2):
        raise ValueError("matrix products take 1-D or 2-D operands")
    return np.matmul(a, b) if a.shape[-1] == 1 else a.dot(b)


_OPS: dict[str, tuple[Callable, int]] = {
    "exp": (np.exp, 1),
    "inv": (np.reciprocal, 1),
    "maximum": (np.maximum, 2),
    "matmul": (_dot, 2),
    "rowscale": (lambda a, w: a * w[..., None], 2),
    "exp_sub": (lambda a, b: np.exp(a - b), 2),
    "mul_add": (lambda a, w, b: a * w + b, 3),
    "addmm": (lambda acc, a, b: acc + _dot(a, b), 3),
    "add_outer": (lambda acc, u, v: acc + u[:, None] * v, 3),
    "scaled_addmm": (lambda acc, w, a, b: acc + w[:, None] * _dot(a, b), 4),
    "add_rowsum": (lambda acc, a: acc + np.add.reduce(a, axis=-1), 2),
}


def _axes(ranges) -> tuple[tuple, tuple]:
    """The slices and the lengths of block ranges; the one check of a
    block's ranges, which ``Block(...)`` and ``Block.grid`` share."""
    index, shape = [], []
    for r in ranges:
        if type(r) is not range or r.step != 1 or not 0 <= r.start <= r.stop:
            raise AddressError(f"block axes must be ranges of step 1 from 0 up, got {r!r}")
        index.append(slice(r.start, r.stop))
        shape.append(r.stop - r.start)
    return tuple(index), tuple(shape)


class Block:
    """A row-major rectangle of the array ``name``: one ``range`` per
    axis, none for a shape-() array.

    Iterating it yields the block's word addresses (name, i, j, ...) in
    row-major order, built only then; ``len`` is its word count.  Each
    range must have step 1 and 0 <= start <= stop; anything else raises
    ``AddressError``.  Whether the block lies inside its array is
    checked when it moves.  ``Block.grid`` builds a kernel's whole table
    of blocks of one array, checking each range once.
    """

    __slots__ = ("name", "ranges", "shape", "size", "index")

    def __init__(self, name: str, *ranges: range):
        index, shape = _axes(ranges)
        self.name = name
        self.ranges = ranges
        self.shape = shape
        self.size = math.prod(shape)
        # A shape-() array is indexed by ``...``, which keeps a 0-d view
        # where ``()`` would give a numpy scalar.
        self.index = index or ...

    @classmethod
    def grid(cls, name: str, *partitions) -> list | Block:
        """The table of blocks of ``name`` over the product of the axis
        ``partitions``: ``table[i][j]...`` equals ``Block(name, p0[i],
        p1[j], ...)`` field by field, nested one list per partition (the
        block itself for none).  Each range is checked once, by the check
        ``Block(...)`` runs, however many blocks share it."""
        # Per axis: its ranges, and their slices and lengths.
        ranges, slices, lengths = [], [], []
        for part in partitions:
            part = list(part)
            part_slices, part_lengths = _axes(part)
            ranges.append(part)
            slices.append(part_slices)
            lengths.append(part_lengths)
        new = cls.__new__
        blocks = []
        for block_ranges, index, shape in zip(product(*ranges), product(*slices),
                                              product(*lengths)):
            block = new(cls)
            block.name = name
            block.ranges = block_ranges
            block.shape = shape
            block.size = math.prod(shape)
            block.index = index or ...
            blocks.append(block)
        # Nest the row-major list, innermost axis first.
        counts = list(map(len, ranges))
        for k in range(len(counts) - 1, 0, -1):
            n = counts[k]
            blocks = [blocks[g * n:(g + 1) * n] for g in range(math.prod(counts[:k]))]
        return blocks if partitions else blocks[0]

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        return product((self.name,), *self.ranges)

    def __repr__(self) -> str:
        return f"Block({', '.join(map(repr, (self.name, *self.ranges)))})"


class MemoryHierarchy:
    """Bounded cache + unbounded memory with exact I/O counters.

    Slots are handles to cache-resident arrays (a scalar is a shape-()
    array).  Occupancy is counted in words; any read, allocation, or
    compute that would push occupancy past ``capacity`` raises
    ``CapacityError`` instead of evicting.  A ``capacity`` that is not an
    integer, or is below ``MIN_CAPACITY``, raises ``ConfigurationError``.
    """

    def __init__(self, capacity: int):
        check_integer("cache capacity", capacity)
        if capacity < MIN_CAPACITY:
            raise ConfigurationError(
                f"cache capacity must be >= {MIN_CAPACITY}, got {capacity}"
            )
        self.capacity = capacity
        # Slow memory: one C-ordered float64 array per name.
        self.memory: dict[str, np.ndarray] = {}
        # Reserved arrays not yet known to be fully written, each with the
        # set of ``Block`` objects written to it: a read-back is one lookup.
        self._written: dict[str, set[Block]] = {}
        # Per ``Block`` object, the slow-memory view its first move
        # checked; ``load`` and ``reserve`` empty it.  Only moves enter
        # it: ``fetch_matrix`` checks its array each call.
        self._views: dict[Block, np.ndarray] = {}
        self.reads = 0
        self.writes = 0
        self._overflow = False
        # Results not yet scanned for NaN or +inf (see ``overflow``).
        self._pending: list[np.ndarray] = []
        self._slots: dict[int, np.ndarray] = {}
        self._used = 0
        self._peak = 0
        self._next_handle = 0

    # -- occupancy ---------------------------------------------------------

    @property
    def words_used(self) -> int:
        return self._used

    @property
    def peak_words(self) -> int:
        """The highest ``words_used`` so far."""
        return self._peak

    @property
    def overflow(self) -> bool:
        """Whether any stored ``compute`` result so far held a NaN or +inf."""
        if self._pending:
            self._scan_pending()
        return self._overflow

    def _scan_pending(self) -> None:
        # max is NaN if any entry is, so one reduction catches NaN and +inf.
        if not (np.frombuffer(b"".join(self._pending)).max() < np.inf):
            self._overflow = True
        self._pending.clear()

    def _claim(self, n: int) -> None:
        used = self._used + n
        if used > self.capacity:
            raise CapacityError(
                f"cache full: {self._used} used + {n} requested > {self.capacity}"
            )
        self._used = used
        if used > self._peak:
            self._peak = used

    def _resident(self, handle: int) -> np.ndarray:
        try:
            return self._slots[handle]
        except KeyError:
            raise ResidencyError(f"slot {handle} is not cache-resident") from None

    # -- values --------------------------------------------------------------

    @staticmethod
    def _copy(array) -> np.ndarray:
        """The slow-memory array ``load`` keeps for ``array``."""
        return np.array(array, dtype=np.float64, order="C")

    @staticmethod
    def _filled(shape, fill=0) -> np.ndarray:
        """The array of ``shape`` and ``fill`` ``reserve`` and ``alloc`` make."""
        # np.zeros is the cheaper +0 fill; -0.0 == 0 keeps its sign via np.full.
        if fill == 0 and math.copysign(1.0, fill) > 0:
            return np.zeros(shape, dtype=np.float64)
        return np.full(shape, float(fill), dtype=np.float64)

    # -- slow memory (no I/O) -----------------------------------------------

    def load(self, name: str, array) -> None:
        """Place a C-order float64 copy of ``array``, in its own shape, in
        slow memory under ``name``.  Models input residency."""
        self.memory[name] = self._copy(array)
        self._written.pop(name, None)
        self._views.clear()

    def reserve(self, name: str, shape: tuple) -> None:
        """Declare an output array of ``shape`` under ``name``.  Its words
        can be written, and read once written."""
        self.memory[name] = self._filled(shape)
        self._written[name] = set()
        self._views.clear()

    def _view(self, block: Block) -> np.ndarray:
        """The slice of slow memory ``block`` covers, or ``AddressError``
        if its name is unknown or it leaves its array.  A zero-byte view
        is the shared zero-byte array of its shape.  ``read_block`` and
        ``write_block`` keep the view in ``_views``, so this runs once
        per block object they move."""
        try:
            view = self.memory[block.name][block.index]
        except (KeyError, IndexError):
            view = None
        if view is None or view.shape != block.shape:
            array = self.memory.get(block.name)
            shape = None if array is None else array.shape
            bad = next((a for a in block if shape is None or len(a) != len(shape) + 1
                        or not all(map(operator.lt, a[1:], shape))), block)
            raise AddressError(f"address {bad!r} lies in no loaded or reserved array")
        if not view.itemsize:
            # Any zero-byte array of the block's shape serves: keep the
            # shared one, not a view object per block.
            view = _zero_bytes(block.shape)
        return view

    def _check_written(self, block: Block, written: set) -> None:
        """Exact per-word check that a reserved array's words in ``block``
        were all written; forgets the array's blocks once all are."""
        mask = np.zeros(self.memory[block.name].shape, dtype=bool)
        for done in written:
            mask[done.index] = True
        if mask.all():
            del self._written[block.name]
            return
        covered = mask[block.index].ravel()
        if not covered.all():
            bad = next(compress(block, ~covered))
            raise AddressError(f"address {bad!r} was never written")

    # -- I/O -----------------------------------------------------------------

    def read_block(self, block: Block, shape: tuple = None) -> int:
        """Copy a block's words into a single slot holding an array.

        Counts one Read event per word.  ``shape`` defaults to a flat
        vector; a () shape yields a scalar slot, and an ndarray shape
        reads as its ``tolist()``.  A block object moved before skips
        its address check (see ``_views``); the written check always
        runs.  A zero-byte block (only a ``CountHierarchy`` has one)
        passes the same checks and is not copied: its slot is the shared
        zero-byte array of the block's shape, or numpy's reshape of it.
        """
        # Kernels pass a tuple: one test, before the other cases.
        if shape.__class__ is not tuple:
            if shape is None:
                shape = -1
            elif isinstance(shape, np.ndarray):
                # An ndarray would compare elementwise with the block's shape.
                shape = shape.tolist()
        view = self._views.get(block)
        if view is None:
            view = self._views[block] = self._view(block)
        written = self._written.get(block.name)
        if written is not None and block not in written:
            self._check_written(block, written)
        # A C-order copy; zero-byte arrays are never written, so slots
        # share them.  A reshape to any other shape fails before the claim.
        arr = view.copy() if view.itemsize else view
        if shape != block.shape:
            arr = arr.reshape(shape)
        self._claim(block.size)
        self.reads += block.size
        handle = self._next_handle
        self._next_handle = handle + 1
        self._slots[handle] = arr
        return handle

    def write_block(self, handle: int, block: Block) -> None:
        """Copy a slot's words to memory, one Write event per word.  A
        zero-byte slot stores nothing."""
        arr = self._resident(handle)
        if block.size != arr.size:
            raise UsageError(f"slot holds {arr.size} words but {block.size} addresses given")
        view = self._views.get(block)
        if view is None:
            view = self._views[block] = self._view(block)
        if arr.itemsize:
            view[...] = arr.reshape(block.shape)
        self.writes += arr.size
        written = self._written.get(block.name)
        if written is not None:
            written.add(block)

    def free(self, *handles: int) -> None:
        """Vacate slots, in order.  No I/O is counted.  A handle that is
        not resident raises ``ResidencyError``; those before it stay
        vacated."""
        slots = self._slots
        for handle in handles:
            arr = slots.pop(handle, None)
            if arr is None:
                self._resident(handle)  # raises ResidencyError
            self._used -= arr.size

    # -- computation ---------------------------------------------------------

    def alloc(self, shape: tuple = (), fill=0) -> int:
        """Create a zero-filled (or constant) slot without any I/O."""
        arr = self._filled(shape, fill)
        self._claim(arr.size)
        handle = self._next_handle
        self._next_handle = handle + 1
        self._slots[handle] = arr
        return handle

    def compute(self, op: str, *operands: int, out: int | None = None) -> int:
        """Apply a named arithmetic primitive to cache-resident operands.

        No I/O is counted.  With ``out`` the result overwrites an
        existing slot of the same size (in-place accumulation);
        otherwise a fresh slot is allocated.  An unknown op or a wrong
        operand count raises ``UsageError`` before anything is computed,
        and so do operands whose shapes the op cannot combine (numpy's
        ``ValueError`` is its cause); nothing is stored or claimed.  The
        call runs unchecked; only a failure goes to ``_refuse``.
        """
        slots = self._slots
        # Operands by arity: unpacking the handles straight into the
        # call is cheaper than a generic map over them.  No op takes
        # other than 1-4 operands, and a wrong count fails its unpack.
        try:
            fn, arity = _OPS[op]
            if arity == 2:
                a, b = operands
                result = fn(slots[a], slots[b])
            elif arity == 3:
                a, b, c = operands
                result = fn(slots[a], slots[b], slots[c])
            elif arity == 1:
                (a,) = operands
                result = fn(slots[a])
            else:
                a, b, c, e = operands
                result = fn(slots[a], slots[b], slots[c], slots[e])
        except (KeyError, ValueError) as exc:
            self._refuse(op, operands, exc)
        # Slots hold float64 arrays, so every op yields float64; only a
        # numpy scalar (any op with a shape-() result) needs wrapping.
        if type(result) is not np.ndarray:
            result = np.asarray(result, dtype=np.float64)
        if out is None:
            self._claim(result.size)
            out = self._next_handle
            self._next_handle = out + 1
        else:
            try:
                target = slots[out]
            except KeyError:
                target = self._resident(out)  # raises ResidencyError
            if result.shape != target.shape:
                if result.size != target.size:
                    self._refuse(op, operands)
                result = result.reshape(target.shape)
        slots[out] = result
        if result.size:
            pending = self._pending
            pending.append(result)
            if len(pending) >= SCAN_RESULTS:
                self._scan_pending()
        return out

    def _refuse(self, op: str, operands: tuple, exc: Exception | None = None) -> NoReturn:
        """Raise what a failed ``compute`` call raises, in its order: an
        unknown op or a wrong operand count (``UsageError``), a
        non-resident operand (``ResidencyError``), then ``exc``, a
        ``ValueError`` as operands the op cannot combine (``UsageError``)
        and any other as it is.  With no ``exc`` the call failed at its
        ``out`` slot's size (``UsageError``)."""
        if op not in _OPS:
            raise UsageError(f"unknown op {op!r}") from None
        arity = _OPS[op][1]
        if len(operands) != arity:
            raise UsageError(f"op {op!r} takes {arity} operands, got {len(operands)}") from None
        for x in operands:
            self._resident(x)
        if isinstance(exc, ValueError):
            shapes = ", ".join(str(self._slots[x].shape) for x in operands)
            raise UsageError(f"op {op!r} cannot combine operands of shapes {shapes}") from exc
        if exc is not None:
            raise exc
        raise UsageError("out slot size mismatch")

    def fetch_matrix(self, name: str) -> np.ndarray:
        """Copy the whole array ``name``, every word written, out of slow
        memory (no I/O accounting); a zero-byte array gives zeros."""
        # An unknown name gets the shape-() block, which ``_view`` refuses.
        block = Block(name, *map(range, np.shape(self.memory.get(name))))
        view = self._view(block)
        if name in self._written:
            self._check_written(block, self._written[name])
        return view.copy() if view.itemsize else np.zeros(view.shape)

    @property
    def io(self) -> IoStats:
        return IoStats(self.reads, self.writes)


class TracingHierarchy(MemoryHierarchy):
    """A ``MemoryHierarchy`` that records its I/O trace.

    Each block move that succeeds appends one (kind, block, value bytes)
    record to ``moves``, after the base move, so a move that raises
    records nothing.  Counts, checks and errors are the base's.  Kernels
    and sweeps read the counters alone and run on a plain hierarchy;
    ``attnio attn run --trace`` builds this one for ``export_trace_csv``.
    """

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self.moves: list[tuple[str, Block, bytes]] = []

    def read_block(self, block: Block, shape: tuple = None) -> int:
        handle = super().read_block(block, shape)
        self.moves.append((READ, block, self._slots[handle].tobytes()))
        return handle

    def write_block(self, handle: int, block: Block) -> None:
        super().write_block(handle, block)
        self.moves.append((WRITE, block, self._slots[handle].tobytes()))

    @property
    def trace(self):
        """One (kind, address, value) row per word, in move order, each
        built as it is iterated; there is no random access and no
        length, as the counters give the row count."""
        for kind, block, raw in self.moves:
            yield from zip(repeat(kind), block, np.frombuffer(raw).tolist())


# The count backend's two caches of shared zero-byte arrays (see
# ``CountHierarchy``), kept for the life of the process.
#
# Per shape: the zero-byte array of that shape.  Keys match by equality,
# so a float shape equal to a kept one of ints, (4.0,) for (4,), finds
# its entry where numpy refuses it: a hit counts only if the caller's
# shape holds ints, and any other shape asks numpy.
_ZERO_BYTES: dict[tuple, np.ndarray] = {}


def _zero_bytes(shape) -> np.ndarray:
    """The shared zero-byte array of ``shape``, or what ``np.zeros``
    raises on it."""
    try:
        arr = _ZERO_BYTES[shape]
        for x in shape:
            if x.__class__ is not int:
                raise KeyError(shape)
        return arr
    except (KeyError, TypeError):
        pass
    arr = np.empty(shape, "V0")
    if type(shape) is tuple:
        _ZERO_BYTES[shape] = arr
    return arr


# Per (op name, *operand shapes): the zero-byte array of the op's result
# shape, for calls that succeeded.
_COUNT_RESULTS: dict[tuple, np.ndarray] = {}


class CountHierarchy(MemoryHierarchy):
    """A hierarchy of shapes, occupancy and counters, with no values.

    Slow memory and slots are zero-byte arrays (dtype ``V0``) of the
    shapes the float64 ones would have.  It overrides only ``compute``
    and the value hooks ``_copy`` (behind ``load``) and ``_filled``
    (behind ``reserve`` and ``alloc``), which refuse the arrays and
    fills the numeric ones refuse.  The other methods are
    ``MemoryHierarchy``'s own: every count, the peak and each error are
    its, and on zero-byte arrays they skip the value work, so reads copy
    nothing, writes store nothing and ``fetch_matrix`` gives zeros.
    ``overflow`` stays False, and like a ``MemoryHierarchy`` it has no
    ``trace``.

    Zero-byte arrays hold nothing to write, so they are shared, from two
    process-wide caches: one array per shape (``_ZERO_BYTES``) for slow
    memory, ``alloc`` and each read into its block's shape (any other
    read shape gets numpy's reshape of it), and one per (op name,
    operand shapes) for ``compute`` (``_COUNT_RESULTS``), found by
    running the op once on zeros.  A ``compute`` hit is one lookup and
    the claim: the same call passed every check before, and the checks
    that depend on this hierarchy (residency, capacity, the ``out``
    slot) still run.
    """

    @staticmethod
    def _copy(array) -> np.ndarray:
        # ``array``'s shape, not its values; a float64 ndarray is not copied.
        return _zero_bytes(np.asarray(array, dtype=np.float64).shape)

    @staticmethod
    def _filled(shape, fill=0) -> np.ndarray:
        float(fill)  # refuses the fills MemoryHierarchy refuses
        return _zero_bytes(shape)

    def compute(self, op: str, *operands: int, out: int | None = None) -> int:
        """``MemoryHierarchy.compute``'s checks and claim, with the
        result's shape in place of its values.

        A call whose (op name, *operand shapes) has succeeded
        before is one lookup in ``_COUNT_RESULTS``, which proves the op
        known, the operand count right, the operands resident and their
        shapes combinable; a miss runs ``_uncached_result``."""
        slots = self._slots
        # The key, built by operand count.  No op takes other than 1-4
        # operands, so the last unpack's ValueError is a miss too.
        try:
            if len(operands) == 2:
                a, b = operands
                result = _COUNT_RESULTS[op, slots[a].shape, slots[b].shape]
            elif len(operands) == 3:
                a, b, c = operands
                result = _COUNT_RESULTS[op, slots[a].shape, slots[b].shape,
                                        slots[c].shape]
            elif len(operands) == 1:
                result = _COUNT_RESULTS[op, slots[operands[0]].shape]
            else:
                a, b, c, e = operands
                result = _COUNT_RESULTS[op, slots[a].shape, slots[b].shape,
                                        slots[c].shape, slots[e].shape]
        except (KeyError, TypeError, ValueError):
            result = self._uncached_result(op, operands)
        if out is None:
            self._claim(result.size)
            out = self._next_handle
            self._next_handle = out + 1
            # Value-free slots are never written, so results share one array.
            slots[out] = result
        else:
            try:
                target = slots[out]
            except KeyError:
                target = self._resident(out)  # raises ResidencyError
            if result.size != target.size:
                self._refuse(op, operands)
        return out

    def _uncached_result(self, op: str, operands: tuple) -> np.ndarray:
        """The shared result array of a call ``_COUNT_RESULTS`` misses,
        whose shape comes from running the op once on zeros, kept there;
        a call that fails goes to ``_refuse``."""
        try:
            fn, arity = _OPS[op]
            shapes = [self._slots[x].shape for x in operands]
            if len(shapes) == arity:
                with np.errstate(all="ignore"):
                    shape = np.shape(fn(*map(np.zeros, shapes)))
                result = _COUNT_RESULTS[(op, *shapes)] = _zero_bytes(shape)
                return result
        except (KeyError, ValueError) as exc:
            self._refuse(op, operands, exc)
        self._refuse(op, operands)  # a wrong operand count


def split_into_epochs(ticks: int, m: int) -> range:
    """Greedy left-to-right split of ticks 0 .. ticks-1 (one per moved
    word) into epochs of at most m ticks, as the range of their first
    ticks: epoch k holds ticks epochs[k] .. min(epochs[k] + m, ticks) - 1.

    Zero ticks yield a single empty epoch.  The split is minimal:
    T = ceil(ticks/m) epochs, hence ticks >= (T - 1) * m.
    """
    if m < 1:
        raise ConfigurationError("epoch size must be positive")
    return range(0, max(ticks, 1), m)


def format_address(address: tuple) -> str:
    """``name[i,j,...]`` for a block's word address (name, i, j, ...),
    ``name`` for the address (name,) of a shape-() array."""
    name, *idx = address
    return f"{name}[{','.join(map(str, idx))}]" if idx else str(name)


def export_trace_csv(h: TracingHierarchy, path) -> None:
    """Write the trace of ``h`` as CSV rows (tick, kind, address), each
    address as ``format_address`` writes it.  Kernels move the same
    ``Block`` objects again and again, so each object's addresses are
    formatted once.  Deterministic."""
    labels = {}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tick", "kind", "address"])
        tick = 0
        for kind, block, _ in h.moves:
            if block not in labels:
                labels[block] = list(map(format_address, block))
            writer.writerows(zip(range(tick, tick + block.size), repeat(kind), labels[block]))
            tick += block.size
