"""Memory-hierarchy simulator: counting, capacity, overflow, epochs."""

import ast
import csv
import sys
import tracemalloc
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from attnio import errors, experiments, kernels, memory
from attnio.matrices import random_instance
from attnio.memory import (
    _OPS,
    SCAN_RESULTS,
    Block,
    CountHierarchy,
    MemoryHierarchy,
    TracingHierarchy,
    export_trace_csv,
    format_address,
    split_into_epochs,
)

# Elementwise ops no kernel calls, for tests that need them as separate
# steps of a fused op or as scratch ops; the ``elementwise_ops`` fixture
# adds them to the op table for one test.
ELEMENTWISE_OPS = {
    "add": (np.add, 2),
    "sub": (np.subtract, 2),
    "mul": (np.multiply, 2),
    "neg": (np.negative, 1),
}


def add_ops(monkeypatch, ops: dict) -> None:
    """Add ``ops`` to the op table until ``monkeypatch`` undoes it, with
    an empty count-result cache meanwhile, so that no count result of
    those ops outlives them; every test that adds an op goes through
    here."""
    assert not set(ops) & set(_OPS)
    monkeypatch.setattr(memory, "_COUNT_RESULTS", {})
    for name, entry in ops.items():
        monkeypatch.setitem(_OPS, name, entry)


@pytest.fixture
def elementwise_ops(monkeypatch):
    add_ops(monkeypatch, ELEMENTWISE_OPS)


def test_a_count_result_of_an_added_op_dies_with_it():
    with pytest.MonkeyPatch.context() as patch:
        add_ops(patch, {"neg": ELEMENTWISE_OPS["neg"]})
        h = CountHierarchy(8)
        assert h._slots[h.compute("neg", h.alloc((2,)))].shape == (2,)
        assert ("neg", (2,)) in memory._COUNT_RESULTS
    assert "neg" not in _OPS
    for cls in (MemoryHierarchy, CountHierarchy):
        h = cls(8)
        with pytest.raises(errors.UsageError, match="unknown op 'neg'"):
            h.compute("neg", h.alloc((2,)))


def test_read_write_counting():
    h = TracingHierarchy(8)
    h.load("x", [3.0])
    h.reserve("y", (1,))
    s = h.read_block(Block("x", range(1)), ())
    assert h.reads == 1 and h.writes == 0
    h.write_block(s, Block("y", range(1)))
    assert h.writes == 1
    assert h.io.total == 2
    assert [e[0] for e in h.trace] == ["R", "W"]


def test_load_and_block_io():
    h = MemoryHierarchy(16)
    h.load("A", np.arange(6.0).reshape(2, 3))
    assert h.reads == 0  # initialization is free
    s = h.read_block(Block("A", range(2), range(3)), (2, 3))
    assert h.reads == 6
    assert np.array_equal(h._slots[s], np.arange(6.0).reshape(2, 3))


def test_capacity_enforced_no_eviction():
    h = MemoryHierarchy(4)
    h.load("A", np.zeros((1, 4)))
    h.read_block(Block("A", range(1), range(4)), (4,))
    with pytest.raises(errors.CapacityError):
        h.read_block(Block("A", range(1), range(1)), ())


def test_free_releases_capacity():
    h = MemoryHierarchy(4)
    h.load("A", np.zeros((1, 4)))
    s = h.read_block(Block("A", range(1), range(4)), (4,))
    h.free(s)
    assert h.words_used == 0
    h.read_block(Block("A", range(1), range(1)), ())  # fits again
    with pytest.raises(errors.UsageError):
        h.free(s)


def test_free_takes_any_number_of_handles():
    h = MemoryHierarchy(16)
    a, b, c, d = (h.alloc((k,)) for k in (1, 2, 3, 4))
    h.free()
    assert h.words_used == 10
    h.free(c, a)
    assert h.words_used == 6 and set(h._slots) == {b, d}
    # handles go in order: b is freed before the non-resident a is met
    with pytest.raises(errors.ResidencyError, match=f"^slot {a} is not cache-resident$"):
        h.free(b, a, d)
    assert h.words_used == 4 and set(h._slots) == {d}
    with pytest.raises(errors.ResidencyError, match=f"^slot {d} is not cache-resident$"):
        h.free(d, d)
    assert h.words_used == 0 and not h._slots


@pytest.mark.usefixtures("elementwise_ops")
def test_peak_words_is_the_highest_occupancy():
    h = MemoryHierarchy(8)
    assert h.peak_words == 0
    a = h.alloc((3,))
    b = h.compute("neg", a)
    h.free(a)
    assert (h.words_used, h.peak_words) == (3, 6)
    h.load("x", np.ones(6))
    with pytest.raises(errors.CapacityError):
        h.read_block(Block("x", range(6)))
    assert h.peak_words == 6  # a refused claim is no peak
    h.free(b)
    h.read_block(Block("x", range(6)))
    assert (h.words_used, h.peak_words) == (6, 6)
    h.alloc((2,))
    assert h.peak_words == h.capacity == 8


SLOT_FAULTS = {
    "free": lambda h, live, gone: h.free(gone),
    "write_block": lambda h, live, gone: h.write_block(gone, Block("C", range(2))),
    "compute_operand": lambda h, live, gone: h.compute("neg", gone),
    "compute_out": lambda h, live, gone: h.compute("neg", live, out=gone),
}


@pytest.mark.usefixtures("elementwise_ops")
@pytest.mark.parametrize("fault", SLOT_FAULTS)
def test_slot_fault_raises_residency_error_and_changes_nothing(fault):
    assert issubclass(errors.ResidencyError, errors.UsageError)
    h = TracingHierarchy(8)
    h.load("A", np.ones((1, 2)))
    h.reserve("B", (2,))
    live = h.read_block(Block("A", range(1), range(2)), (2,))
    h.write_block(live, Block("B", range(2)))
    gone = h.alloc((2,))
    h.free(gone)

    def memory():
        return {name: array.tolist() for name, array in h.memory.items()}

    before = (h.reads, h.writes, list(h.trace), h.words_used, memory())
    with pytest.raises(errors.ResidencyError, match=f"slot {gone} is not cache-resident"):
        SLOT_FAULTS[fault](h, live, gone)
    assert (h.reads, h.writes, list(h.trace), h.words_used, memory()) == before


def test_uninitialized_address_rejected():
    h = MemoryHierarchy(4)
    with pytest.raises(errors.AddressError):
        h.read_block(Block("nope", range(1)), ())


def test_compute_no_io_and_fused_ops():
    h = MemoryHierarchy(32)
    h.load("A", np.ones((2, 2)))
    a = h.read_block(Block("A", range(2), range(2)), (2, 2))
    acc = h.alloc((2, 2))
    h.compute("addmm", acc, a, a, out=acc)
    assert h.io.total == 4  # computes are free
    assert np.allclose(h._slots[acc], 2 * np.ones((2, 2)))


def test_minimum_capacity():
    with pytest.raises(errors.ConfigurationError):
        MemoryHierarchy(3)


@pytest.mark.parametrize("cls", [MemoryHierarchy, CountHierarchy])
def test_capacity_must_be_an_integer(cls):
    # a capacity of 10.5 once held 10 words, and 64.0 failed in the kernels
    for capacity in (64.0, 10.5, True, np.float64(64)):
        with pytest.raises(errors.ConfigurationError,
                           match=r"^cache capacity must be an integer, got "):
            cls(capacity)
    assert cls(np.int64(64)).capacity == 64


def test_overflow_flag():
    h = MemoryHierarchy(8)
    h.load("x", 1e308)
    s = h.read_block(Block("x"), ())
    assert not h.overflow
    with pytest.warns(RuntimeWarning, match="overflow"):
        h.compute("exp", s)
    assert h.overflow


@pytest.mark.usefixtures("elementwise_ops")
def test_overflow_flag_marks_nan_and_pos_inf_only():
    def overflowed(start, *ops):
        h = MemoryHierarchy(8)
        s = h.alloc((2,), fill=start)
        for op in ops:
            s = h.compute(op, s, s) if op in ("sub", "maximum") else h.compute(op, s)
        return h.overflow

    with pytest.warns(RuntimeWarning, match="overflow"):
        assert overflowed(1e308, "exp")  # +inf
    with pytest.warns(RuntimeWarning, match="invalid value"):
        assert overflowed(np.inf, "sub")  # inf - inf = NaN
    assert not overflowed(-np.inf, "maximum", "exp")  # only -inf, then 0
    assert not overflowed(1e308, "maximum")  # large but finite
    assert not overflowed(1e308, "neg", "exp")  # -1e308, then 0


@pytest.mark.usefixtures("elementwise_ops")
def test_overflow_seen_after_result_is_replaced():
    h = MemoryHierarchy(64)
    s = h.alloc((2,), fill=1e308)
    t = h.alloc((2,))
    with pytest.warns(RuntimeWarning):
        h.compute("exp", s, out=t)
    h.compute("neg", s, out=t)  # the +inf result is gone before the read
    assert h.overflow


def test_overflow_seen_far_below_capacity():
    h = MemoryHierarchy(1024)
    s = h.alloc((), fill=1e308)
    with pytest.warns(RuntimeWarning):
        h.compute("exp", s)
    assert h.words_used == 2 and h.overflow


@pytest.mark.usefixtures("elementwise_ops")
def test_overflow_stays_set():
    h = MemoryHierarchy(8)
    s = h.alloc((2,), fill=1e308)
    with pytest.warns(RuntimeWarning):
        h.free(h.compute("exp", s))
    for _ in range(5):
        for _ in range(4):  # one cache-full of finite results
            h.free(h.compute("neg", s))
        assert h.overflow


@pytest.mark.usefixtures("elementwise_ops")
@pytest.mark.parametrize("m", [4, 16])
@pytest.mark.parametrize("further_words", [2, 2 * SCAN_RESULTS])
def test_overflow_replaced_by_out_stays_flagged(m, further_words):
    # the +inf result is gone from every slot before the read; after
    # SCAN_RESULTS further 2-word results a scan falls in between
    h = MemoryHierarchy(m)
    s = h.alloc((2,), fill=1e308)
    t = h.alloc((2,))
    with pytest.warns(RuntimeWarning):
        h.compute("exp", s, out=t)
    for _ in range(further_words // 2):
        h.compute("neg", s, out=t)
    assert h.overflow


@pytest.mark.parametrize("m, use_out, error", [
    (8, True, errors.UsageError),  # the out slot holds 3 words, the result 2
    (4, False, errors.CapacityError),  # no room left for a fresh 2-word slot
], ids=["out_size_mismatch", "cache_full"])
def test_refused_compute_leaves_overflow_unset(m, use_out, error):
    # exp(1e308) is +inf, but no slot ever holds it
    h = TracingHierarchy(m)
    h.load("x", np.full((1, 2), 1e308))
    s = h.read_block(Block("x", range(1), range(2)), (2,))
    t = h.alloc((3,) if use_out else (2,))
    before = (h.reads, h.writes, list(h.trace), h.words_used)
    with pytest.raises(error), pytest.warns(RuntimeWarning, match="overflow"):
        h.compute("exp", s, out=t if use_out else None)
    assert (h.reads, h.writes, list(h.trace), h.words_used) == before
    assert not h.overflow


def test_alloc_zero_fill_keeps_its_sign():
    h = MemoryHierarchy(8)
    for shape in ((), (3,)):
        plus, minus = h._slots[h.alloc(shape)], h._slots[h.alloc(shape, fill=-0.0)]
        assert plus.dtype == minus.dtype == np.float64
        assert plus.shape == minus.shape == shape
        assert not np.signbit(plus).any() and np.signbit(minus).all()
        assert (plus == 0).all() and (minus == 0).all()


# Operand shapes per op that it can combine; reductions and ufuncs of a
# 1-D or shape-() slot give numpy scalars.
OP_OPERAND_SHAPES = {
    "exp": [((3,),), ((),)], "inv": [((2, 3),), ((),)],
    "maximum": [((3,), (3,)), ((), ())], "matmul": [((2, 3), (3,)), ((3,), (3,))],
    "add_rowsum": [((2,), (2, 3)), ((), (3,))], "rowscale": [((2, 3), (2,))],
    "exp_sub": [((3,), (3,)), ((), ())], "mul_add": [((2,), (2,), (2,))],
    "addmm": [((2, 2), (2, 3), (3, 2))], "add_outer": [((2, 3), (2,), (3,))],
    "scaled_addmm": [((2, 2), (2,), (2, 3), (3, 2))],
}


def test_every_op_leaves_a_float64_array_slot():
    # numpy scalar results must land as shape-() arrays
    assert set(OP_OPERAND_SHAPES) == set(_OPS)
    for op, shape_lists in OP_OPERAND_SHAPES.items():
        fn = _OPS[op][0]
        for shapes in shape_lists:
            h = MemoryHierarchy(64)
            slots = [h.alloc(shape, fill=0.5 + k) for k, shape in enumerate(shapes)]
            expected = np.asarray(fn(*(h._slots[x] for x in slots)))
            fresh = h.compute(op, *slots)
            target = h.alloc(expected.shape)
            assert h.compute(op, *slots, out=target) == target
            # an out slot of another shape but the same size takes a reshape
            flat = (expected.size,)
            reshaped = flat if expected.shape != flat else (1, expected.size)
            other = h.alloc(reshaped)
            assert h.compute(op, *slots, out=other) == other
            for handle, shape in ((fresh, expected.shape), (target, expected.shape),
                                  (other, reshaped)):
                got = h._slots[handle]
                assert type(got) is np.ndarray and got.dtype == np.float64, (op, shapes)
                assert got.shape == shape
                # the overflow scan joins slot buffers, which needs C order
                assert got.flags.c_contiguous, (op, shapes)
                assert got.tobytes() == expected.tobytes()


def test_read_block_slots_of_sub_blocks_are_c_contiguous():
    # a 2-D sub-block is a strided view of its array until read_block copies it
    h = MemoryHierarchy(64)
    h.load("A", np.arange(35.0).reshape(5, 7))
    block = Block("A", range(1, 4), range(2, 6))
    assert not h.memory["A"][block.index].flags.c_contiguous
    for shape in (None, (3, 4), (4, 3), (12,), (2, 6)):
        got = h._slots[h.read_block(block, shape)]
        assert got.flags.c_contiguous, shape
        assert got.ravel().tolist() == h.memory["A"][1:4, 2:6].ravel().tolist()


# Each fused op: its operands' shapes, and the separate ops it fuses in
# order.  An operand "x:col" or "x:row" is operand x as an (n, 1) or a
# (1, n) slot, so plain broadcasting ops can stand in for x[:, None] and
# x[None, :]; "t" is the previous step's result.
FUSED_STEPS = {
    "exp_sub": ({"a": (2, 3), "b": (2, 3)}, [("sub", "a", "b"), ("exp", "t")]),
    "mul_add": ({"a": (3,), "w": (3,), "b": (3,)}, [("mul", "a", "w"), ("add", "t", "b")]),
    "addmm": ({"acc": (2, 2), "a": (2, 9), "b": (9, 2)},
              [("matmul", "a", "b"), ("add", "acc", "t")]),
    "add_outer": ({"acc": (2, 3), "u": (2,), "v": (3,)},
                  [("mul", "u:col", "v:row"), ("add", "acc", "t")]),
    "scaled_addmm": ({"acc": (2, 2), "w": (2,), "a": (2, 9), "b": (9, 2)},
                     [("matmul", "a", "b"), ("mul", "w:col", "t"), ("add", "acc", "t")]),
    "add_rowsum": ({"acc": (3,), "a": (3, 17)}, [("rowsum", "a"), ("add", "acc", "t")]),
}
# The row reduction that add_rowsum fuses, as the separate op it was.
ROW_OPS = {"rowsum": (lambda a: np.sum(a, axis=-1), 1)}
SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308]


def _slots_of(h, arrays):
    """One slot per named array, read from slow memory in its shape."""
    slots = {}
    for name, array in arrays.items():
        h.load(name, array)
        slots[name] = h.read_block(Block(name, *map(range, array.shape)), array.shape)
    return slots


def _run_fused(op, inputs):
    h = MemoryHierarchy(256)
    slots = _slots_of(h, inputs)
    return h._slots[h.compute(op, *(slots[name] for name in inputs))], h.overflow


def _run_steps(steps, inputs):
    h = MemoryHierarchy(256)
    arrays = dict(inputs)
    for name, array in inputs.items():
        arrays[name + ":col"] = array.reshape(-1, 1)
        arrays[name + ":row"] = array.reshape(1, -1)
    slots = _slots_of(h, arrays)
    for op, *operands in steps:
        slots["t"] = h.compute(op, *(slots[name] for name in operands))
    return h._slots[slots["t"]], h.overflow


@pytest.mark.usefixtures("elementwise_ops")
def test_fused_ops_match_their_separate_steps(monkeypatch):
    assert set(FUSED_STEPS) <= set(_OPS)
    add_ops(monkeypatch, ROW_OPS)
    rng = np.random.default_rng(19)
    with np.errstate(all="ignore"):
        for op, (shapes, steps) in FUSED_STEPS.items():
            for trial in range(60):
                # a third of the trials are all finite, so that rounding
                # and summation order show in the result bytes
                rate = (0.0, 0.05, 0.4)[trial % 3]
                inputs = {}
                for name, shape in shapes.items():
                    values = rng.uniform(-3, 3, shape)
                    special = rng.random(shape) < rate
                    values[special] = rng.choice(SPECIALS, special.sum())
                    inputs[name] = values
                fused, fused_flag = _run_fused(op, inputs)
                separate, separate_flag = _run_steps(steps, inputs)
                assert fused.tobytes() == separate.tobytes(), (op, trial)
                # overflow sees only stored results: a negative scale turns an
                # unstored +inf into -inf, so scaled_addmm's flags agree for
                # the kernels' scales alone, which are never negative
                if op != "scaled_addmm" or not (inputs["w"] < 0).any():
                    assert fused_flag == separate_flag, (op, trial)
        hidden = {"acc": np.zeros((1, 1)), "w": np.array([-1.0]),
                  "a": np.array([[1e308, 1e308]]), "b": np.array([[10.0], [10.0]])}
        fused, fused_flag = _run_fused("scaled_addmm", hidden)
        separate, separate_flag = _run_steps(FUSED_STEPS["scaled_addmm"][1], hidden)
    assert fused.tolist() == separate.tolist() == [[-np.inf]]
    assert separate_flag and not fused_flag


# The op table and overflow scan as they were before the matrix products
# went through ndarray.dot and the scan through a byte join: the cheaper
# entry points must give these bits.
REFERENCE_OPS = {
    "exp": (np.exp, 1),
    "inv": (np.reciprocal, 1),
    "maximum": (np.maximum, 2),
    "matmul": (np.matmul, 2),
    "rowscale": (lambda a, w: a * w[..., None], 2),
    "exp_sub": (lambda a, b: np.exp(a - b), 2),
    "mul_add": (lambda a, w, b: a * w + b, 3),
    "addmm": (lambda acc, a, b: acc + a @ b, 3),
    "add_outer": (lambda acc, u, v: acc + u[:, None] * v[None, :], 3),
    "scaled_addmm": (lambda acc, w, a, b: acc + w[:, None] * (a @ b), 4),
    "add_rowsum": (lambda acc, a: acc + np.add.reduce(a, axis=-1), 2),
}


def reference_overflow(pending):
    return not (np.concatenate(pending, axis=None).max() < np.inf)


# Operand shapes of each op for dimensions m, k, n: every 1-D and 2-D
# form the op accepts.  Only the matrix products read n.
MATRIX_OPS = {"matmul", "addmm", "scaled_addmm"}
OP_SHAPES = {
    **dict.fromkeys(["maximum", "exp_sub"], lambda m, k, n: [((m, k), (m, k)), ((k,), (k,))]),
    **dict.fromkeys(["exp", "inv"], lambda m, k, n: [((m, k),), ((k,),)]),
    "rowscale": lambda m, k, n: [((m, k), (m,))],
    "mul_add": lambda m, k, n: [((m, k),) * 3, ((k,),) * 3],
    "matmul": lambda m, k, n: [((m, k), (k, n)), ((m, k), (k,)), ((k,), (k, n)),
                               ((k,), (k,))],
    "addmm": lambda m, k, n: [((m, n), (m, k), (k, n)), ((m,), (m, k), (k,))],
    "add_outer": lambda m, k, n: [((m, k), (m,), (k,))],
    "scaled_addmm": lambda m, k, n: [((m, n), (m,), (m, k), (k, n))],
    "add_rowsum": lambda m, k, n: [((m,), (m, k)), ((), (k,))],
}
SUBNORMALS = [5e-324, -5e-324, 2.5e-310, -1e-315]


def _same_bits(op, operands):
    got = np.asarray(_OPS[op][0](*operands))
    want = np.asarray(REFERENCE_OPS[op][0](*operands))
    return (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def test_ops_give_the_reference_bits():
    assert set(REFERENCE_OPS) == set(_OPS) == set(OP_SHAPES)
    assert all(_OPS[op][1] == arity for op, (_, arity) in REFERENCE_OPS.items())
    rng = np.random.default_rng(22)
    dims = range(1, 18)
    with np.errstate(all="ignore"):
        for op, shapes_of in OP_SHAPES.items():
            ns = dims if op in MATRIX_OPS else (1,)
            for m, k, n in product(dims, dims, ns):
                for shapes in shapes_of(m, k, n):
                    for magnitude in (1.0, 1e3, 1e200):
                        operands = [rng.uniform(-magnitude, magnitude, s) for s in shapes]
                        assert _same_bits(op, operands), (op, shapes, magnitude)
            # non-finite, extreme and subnormal entries at two densities
            for trial in range(300):
                # a third of them at dims 1 and 2, where length-1 contractions fall
                shapes = shapes_of(*rng.integers(1, 18 if trial % 3 else 3, 3))
                shapes = shapes[trial % len(shapes)]
                rate = (0.05, 0.4)[trial % 2]
                operands = []
                for s in shapes:
                    values = rng.uniform(-3, 3, s)
                    special = rng.random(s) < rate
                    values[special] = rng.choice(SPECIALS + SUBNORMALS, special.sum())
                    operands.append(values)
                assert _same_bits(op, operands), (op, shapes, trial)


def test_overflow_scan_matches_the_reference_scan():
    rng = np.random.default_rng(23)
    flagged = 0
    for trial in range(1200):
        pending = []
        for _ in range(rng.integers(1, 40)):
            shape = tuple(rng.integers(1, 18, rng.integers(0, 3)))
            pending.append(rng.uniform(-1, 1, shape) * 1e308)
        # a quarter of the lists stay finite; the others get up to three
        # NaN, +inf or -inf entries
        count = rng.integers(0, 4) if trial % 4 else 0
        for special in rng.choice([np.nan, np.inf, -np.inf], count):
            values = pending[rng.integers(len(pending))].reshape(-1)
            values[rng.integers(values.size)] = special
        h = MemoryHierarchy(4)
        h._pending.extend(pending)
        expected = reference_overflow(pending)
        assert h.overflow == expected, trial
        flagged += expected
    assert 300 < flagged < 1000


def test_shape_mismatch_is_a_usage_error():
    # one pair of operand shapes per op that the op cannot combine; unary
    # ops take any shape
    cases = {
        **dict.fromkeys(["maximum", "exp_sub"], [(2,), (3,)]),
        "matmul": [(2, 3), (2, 3)], "rowscale": [(2, 3), (3,)],
        "mul_add": [(2,), (2,), (3,)], "addmm": [(2, 2), (2, 3), (2, 2)],
        "add_outer": [(2, 3), (3,), (3,)], "scaled_addmm": [(2, 2), (3,), (2, 2), (2, 2)],
        "add_rowsum": [(3,), (2, 4)],
    }
    # dot would scale by a 0-d operand and contract a 3-D one
    refused = [("matmul", [(), (2,)]), ("matmul", [(2, 2), ()]),
               ("matmul", [(2, 2, 2), (2, 2)]), ("matmul", [(2,), (2, 2, 2)]),
               ("addmm", [(2, 2), (), (2, 2)]), ("addmm", [(2, 2, 2), (2, 2, 2), (2, 2)]),
               ("scaled_addmm", [(2, 2), (2,), (2, 2), ()]),
               ("scaled_addmm", [(2, 2, 2), (2,), (2, 2, 2), (2, 2)])]
    assert set(cases) == {op for op, (_, arity) in _OPS.items() if arity > 1}
    for op, shapes in [*cases.items(), *refused]:
        h = MemoryHierarchy(64)
        slots = [h.alloc(shape, fill=1.0) for shape in shapes]
        before = (h.words_used, h._next_handle, [(x, id(a)) for x, a in h._slots.items()])
        for out in (None, slots[0]):
            with pytest.raises(errors.UsageError) as info:
                h.compute(op, *slots, out=out)
            assert str(info.value) == (f"op {op!r} cannot combine operands of shapes "
                                       + ", ".join(map(str, shapes))), (op, shapes)
            assert isinstance(info.value.__cause__, ValueError)
            assert (h.words_used, h._next_handle,
                    [(x, id(a)) for x, a in h._slots.items()]) == before
            assert not h.overflow


@pytest.mark.usefixtures("elementwise_ops")
def test_compute_checks_operand_count():
    h = MemoryHierarchy(8)
    a = h.alloc((2,), fill=1.0)
    b = h.alloc((2,), fill=2.0)
    for op, operands in (("exp", (a, b)), ("add", (a,)), ("mul_add", (a, b)),
                         ("matmul", (a, b, a))):
        with pytest.raises(errors.UsageError, match="operands"):
            h.compute(op, *operands)
    assert h.words_used == 4 and not h.overflow
    assert h._slots[a].tolist() == [1.0, 1.0] and h._slots[b].tolist() == [2.0, 2.0]


def test_compute_keeps_an_ops_own_key_error(monkeypatch):
    # only a lookup of a non-resident operand is a ResidencyError
    add_ops(monkeypatch, {"lookup": (lambda a: {}["k"], 1)})
    h = MemoryHierarchy(8)
    with pytest.raises(KeyError) as info:
        h.compute("lookup", h.alloc((2,)))
    assert info.type is KeyError and info.value.args == ("k",)
    with pytest.raises(errors.ResidencyError, match="slot 7 is not cache-resident"):
        h.compute("lookup", 7)


def test_compute_on_empty_slot():
    h = MemoryHierarchy(4)
    s = h.alloc((0,))
    assert h._slots[h.compute("exp", s)].shape == (0,)
    assert not h.overflow


def test_read_block_missing_address_leaves_no_trace():
    h = TracingHierarchy(8)
    h.load("A", np.ones((1, 3)))
    h.read_block(Block("A", range(1), range(1)), ())
    before = (list(h.trace), h.reads, h.words_used)
    with pytest.raises(errors.AddressError, match=r"\('A', 0, 3\)"):
        h.read_block(Block("A", range(1), range(1, 4)), (3,))
    assert (list(h.trace), h.reads, h.words_used) == before


def test_read_block_bad_shape_leaves_no_claim():
    h = TracingHierarchy(8)
    h.load("A", np.ones((1, 3)))
    with pytest.raises(ValueError):
        h.read_block(Block("A", range(1), range(3)), (2, 2))
    assert (h.words_used, h.reads, list(h.trace)) == (0, 0, [])


def test_alloc_negative_shape_claims_nothing():
    h = MemoryHierarchy(4)
    with pytest.raises(ValueError):
        h.alloc((-1,))
    assert h.words_used == 0
    with pytest.raises(errors.CapacityError):
        h.alloc((5,))


def test_trace_stored_per_move_reads_per_word():
    h = TracingHierarchy(16)
    h.load("A", np.arange(6.0).reshape(2, 3))
    h.load("z", np.float32(1.5))
    h.load("i", 2)
    h.reserve("B", (6,))
    h.reserve("y", ())
    a = h.read_block(Block("A", range(2), range(3)), (2, 3))
    h.write_block(a, Block("B", range(6)))
    s = h.read_block(Block("A", range(1, 2), range(2, 3)), ())
    h.write_block(s, Block("y"))
    for block in (Block("B", range(4, 5)), Block("z"), Block("i")):
        h.read_block(block, ())
    expected = ([("R", ("A", i, j), 3.0 * i + j) for i in range(2) for j in range(3)]
                + [("W", ("B", k), float(k)) for k in range(6)]
                + [("R", ("A", 1, 2), 5.0), ("W", ("y",), 5.0)]
                + [("R", ("B", 4), 4.0), ("R", ("z",), 1.5), ("R", ("i",), 2.0)])
    assert h.reads + h.writes == len(expected) == 17
    assert list(h.trace) == expected
    assert all(type(v) is float for _, _, v in h.trace)
    assert not list(TracingHierarchy(4).trace)


def test_failed_block_moves_add_no_move():
    h = TracingHierarchy(8)
    h.load("A", np.ones((1, 3)))
    h.reserve("B", (2,))
    s = h.read_block(Block("A", range(1), range(2)), (2,))
    before = list(h.trace)
    with pytest.raises(errors.AddressError):
        h.read_block(Block("A", range(1), range(2, 4)), (2,))
    with pytest.raises(ValueError):
        h.read_block(Block("A", range(1), range(3)), (2, 2))
    with pytest.raises(errors.UsageError):
        h.write_block(s, Block("B", range(1)))
    assert list(h.trace) == before
    assert (h.reads, h.writes, h.words_used) == (2, 0, 2)
    h.write_block(s, Block("B", range(2)))
    assert list(h.trace) == before + [("W", ("B", 0), 1.0), ("W", ("B", 1), 1.0)]


def test_split_into_epochs():
    def expand(ticks, m):
        return [range(s, min(s + m, ticks)) for s in split_into_epochs(ticks, m)]
    epochs = expand(10, 4)
    assert epochs == [range(0, 4), range(4, 8), range(8, 10)]
    assert sum(len(e) for e in epochs) == 10
    assert expand(0, 4) == [range(0, 0)]
    # minimality: T epochs means at least (T - 1) * m events
    assert 10 >= (len(epochs) - 1) * 4


def test_epochs_take_constant_memory():
    # the split is set by the tick count and M, so 104,360 epochs take O(1)
    res = kernels.square_tiling_attention(CountHierarchy(4), experiments._shape_instance(80, 16))
    assert len(res.epochs) == 104360
    assert sys.getsizeof(res.epochs) < 100
    tracemalloc.start()
    try:
        epochs = split_into_epochs(10 ** 6, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(epochs) == 250000
    assert peak < 1024


def test_replay_trace_rebuilds_memory():
    h = TracingHierarchy(8)
    h.load("x", 2.0)
    h.reserve("y", ())
    s = h.read_block(Block("x"), ())
    h.write_block(s, Block("y"))
    assert {a: v for kind, a, v in h.trace if kind == "W"} == {("y",): 2.0}


def test_trace_csv(tmp_path):
    h = TracingHierarchy(8)
    h.load("x", np.full((2, 3), 5.0))
    h.reserve("y", (1,))
    s = h.read_block(Block("x", range(1, 2), range(2, 3)), ())
    h.write_block(s, Block("y", range(1)))
    path = tmp_path / "trace.csv"
    export_trace_csv(h, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "tick,kind,address"
    assert lines[1] == '0,R,"x[1,2]"'  # commas in the address get quoted
    assert lines[2] == "1,W,y[0]"


def test_trace_csv_rows_are_format_address_of_each_word(tmp_path):
    h = TracingHierarchy(64)
    h.load("s", 1.0)
    h.load("x", np.arange(24.0).reshape(2, 3, 4))
    h.load("v", np.arange(5.0))
    cube, row = Block("x", range(2), range(1, 3), range(4)), Block("v", range(1, 4))
    for block in (Block("s"), cube, row, cube, Block("x", range(1, 1), range(3), range(4))):
        h.read_block(block)
    path = tmp_path / "trace.csv"
    export_trace_csv(h, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 1 + 16 + 3 + 16
    assert rows == [[str(tick), kind, format_address(address)]
                    for tick, (kind, address, _) in enumerate(h.trace)]
    assert rows[0] == ["0", "R", "s"]


def test_format_address():
    assert format_address(("Q", 3, 4)) == "Q[3,4]"
    assert format_address(("v", 7)) == "v[7]"
    assert format_address(("x",)) == "x"


def test_block_is_the_sequence_of_its_addresses():
    block = Block("Q", range(1, 3), range(2, 5))
    expected = [("Q", i, j) for i in range(1, 3) for j in range(2, 5)]
    assert list(block) == expected and len(block) == block.size == 6
    assert block.shape == (2, 3)
    assert ("Q", 2, 4) in block and ("Q", 0, 2) not in block
    assert list(Block("dvec", range(3))) == [("dvec", 0), ("dvec", 1), ("dvec", 2)]
    assert list(Block("z")) == [("z",)] and Block("z").shape == ()
    assert len(Block("A", range(2), range(0))) == 0
    assert repr(Block("A", range(2), range(1, 3))) == "Block('A', range(0, 2), range(1, 3))"
    for bad in (range(0, 4, 2), range(-1, 2), range(3, 1), (0, 1), 3):
        with pytest.raises(errors.AddressError):
            Block("A", bad)


def block_table(name, partitions, ranges=()):
    """``Block.grid``'s table built one ``Block(...)`` at a time."""
    if not partitions:
        return Block(name, *ranges)
    return [block_table(name, partitions[1:], (*ranges, r)) for r in partitions[0]]


def block_fields(table):
    """A table of blocks with each block as its fields, repr and words."""
    if isinstance(table, list):
        return [block_fields(entry) for entry in table]
    return (table.name, table.ranges, table.shape, table.size, table.index, repr(table),
            len(table), list(table))


@pytest.mark.parametrize("partitions", [
    [],
    [[range(0, 4), range(4, 8)]],
    [[range(0, 3), range(3, 6), range(6, 7)]],
    [[range(0, 2), range(2, 4)], [range(0, 3), range(3, 6)]],
    [[range(0, 3), range(3, 5)], [range(0, 4), range(4, 6)], [range(2, 3)]],
    [[range(0, 3), range(3, 5)], [range(0, 4), range(4, 6), range(6, 7)]],
    [[range(0, 2), range(2, 3)], []],
], ids=["no-axis", "exact-1", "clipped-1", "exact-2", "clipped-3", "clipped-2", "empty-axis"])
def test_grid_blocks_equal_blocks_built_one_at_a_time(partitions):
    table = Block.grid("A", *partitions)
    assert block_fields(table) == block_fields(block_table("A", partitions))
    # partitions may be any iterables of ranges
    assert block_fields(Block.grid("A", *map(iter, partitions))) == block_fields(table)


@pytest.mark.parametrize("bad", [range(0, 4, 2), range(-1, 2), range(3, 1), (0, 1), 3])
def test_grid_refuses_a_malformed_range_as_block_does(bad):
    with pytest.raises(errors.AddressError) as expected:
        Block("A", bad)
    good = [range(0, 2), range(2, 4)]
    for partitions in ([[bad]], [[*good, bad]], [good, [bad, *good]], [[*good, bad], good]):
        with pytest.raises(errors.AddressError) as info:
            Block.grid("A", *partitions)
        assert str(info.value) == str(expected.value)


def test_load_keeps_a_c_order_copy_in_the_arrays_own_shape():
    h = MemoryHierarchy(16)
    k = np.arange(6.0).reshape(2, 3)
    h.load("KT", k.T)
    h.load("v", [1, 2])
    h.load("s", np.float32(1.5))
    assert h.memory["KT"].flags.c_contiguous and h.memory["KT"].shape == (3, 2)
    assert h.memory["v"].shape == (2,) and h.memory["s"].shape == ()
    assert all(a.dtype == np.float64 for a in h.memory.values())
    k[0, 0] = 99.0  # a copy: the caller's array may change afterwards
    s = h.read_block(Block("KT", range(3), range(1)), (3,))
    assert h._slots[s].tolist() == [0.0, 1.0, 2.0] and h._slots[s].flags.c_contiguous
    assert h.reads == 3


def test_reserved_words_are_readable_only_once_written():
    h = TracingHierarchy(16)
    h.load("A", np.arange(4.0).reshape(2, 2))
    h.reserve("O", (2, 2))
    assert h.reads == h.writes == 0 and not list(h.trace)
    top = h.read_block(Block("A", range(1), range(2)), (1, 2))
    h.write_block(top, Block("O", range(1), range(2)))
    before = (list(h.trace), h.reads, h.writes, h.words_used)
    for block in (Block("O", range(2), range(2)), Block("O", range(1, 2), range(1))):
        with pytest.raises(errors.AddressError, match=r"\('O', 1, 0\) was never written"):
            h.read_block(block, block.shape)
    with pytest.raises(errors.AddressError, match=r"\('O', 1, 0\) was never written"):
        h.fetch_matrix("O")
    assert (list(h.trace), h.reads, h.writes, h.words_used) == before
    # a block read back as written, or any block inside written ones, reads
    assert h._slots[h.read_block(Block("O", range(1), range(2)), (2,))].tolist() == [0.0, 1.0]
    assert h._slots[h.read_block(Block("O", range(1), range(1, 2)), ())] == 1.0
    h.write_block(h.read_block(Block("A", range(1, 2), range(2)), (2,)),
                  Block("O", range(1, 2), range(2)))
    assert np.array_equal(h.fetch_matrix("O"), np.arange(4.0).reshape(2, 2))
    assert h.reads == 7 and h.writes == 4


def test_reading_back_a_written_block_skips_the_word_check(monkeypatch):
    h = MemoryHierarchy(16)
    h.load("A", np.arange(4.0).reshape(2, 2))
    h.reserve("O", (2, 2))
    rows = [Block("O", range(i, i + 1), range(2)) for i in range(2)]
    for i, block in enumerate(rows):
        h.write_block(h.read_block(Block("A", range(i, i + 1), range(2)), (2,)), block)
    checked, check = [], h._check_written
    monkeypatch.setattr(h, "_check_written",
                        lambda block, written: checked.append(block) or check(block, written))
    for block in rows:
        h.read_block(block, (2,))
    assert checked == []
    # a new Block equal to a written one is another object: it reads
    # through the per-word check
    again = Block("O", range(1, 2), range(2))
    assert h._slots[h.read_block(again, (2,))].tolist() == [2.0, 3.0]
    assert checked == [again]


def test_written_blocks_are_the_runs_own_block_objects():
    # each backend keeps the very Block objects a tiling run wrote, not
    # their ranges, for every reserved array not yet known to be fully written
    inst = experiments._shape_instance(10, 6)
    for cls in (MemoryHierarchy, CountHierarchy):
        h = cls(64)
        writes, write_block = [], h.write_block
        h.write_block = lambda handle, block: writes.append(block) or write_block(handle, block)
        kernels.square_tiling_attention(h, inst)
        assert h._written, cls
        for name, written in h._written.items():
            assert written == {block for block in writes if block.name == name}, (cls, name)
            assert all(type(block) is Block for block in written)


def test_fetch_matrix_copies_the_whole_written_array():
    for cls in (MemoryHierarchy, CountHierarchy):
        h = cls(16)
        h.load("A", np.arange(6.0).reshape(2, 3))
        h.reserve("O", (2, 3))
        top = h.read_block(Block("A", range(1), range(3)), (3,))
        h.write_block(top, Block("O", range(1), range(3)))
        with pytest.raises(errors.AddressError, match=r"\('O', 1, 0\) was never written"):
            h.fetch_matrix("O")
        with pytest.raises(errors.AddressError,
                           match=r"\('X',\) lies in no loaded or reserved array"):
            h.fetch_matrix("X")
        h.write_block(top, Block("O", range(1, 2), range(3)))
        before = (h.reads, h.writes, h.words_used)
        out = h.fetch_matrix("O")
        assert (h.reads, h.writes, h.words_used) == before  # no I/O
        if cls is CountHierarchy:
            assert out.tolist() == np.zeros((2, 3)).tolist()
            continue
        assert out.tolist() == [[0.0, 1.0, 2.0], [0.0, 1.0, 2.0]]
        assert np.array_equal(h.fetch_matrix("A"), h.memory["A"])
        out[...] = 9.0  # a copy: slow memory keeps its words
        assert h.fetch_matrix("O").tolist() == [[0.0, 1.0, 2.0], [0.0, 1.0, 2.0]]


def test_moves_outside_loaded_or_reserved_arrays_change_nothing():
    h = TracingHierarchy(16)
    h.load("A", np.ones((2, 3)))
    h.reserve("O", (2,))
    s = h.read_block(Block("A", range(1), range(2)), (2,))
    before = (list(h.trace), h.reads, h.writes, h.words_used, h.memory["O"].tolist())
    for block in (Block("nope", range(2)), Block("A", range(2, 3), range(2)),
                  Block("A", range(1), range(2, 4)), Block("A", range(2)),
                  Block("A", range(1), range(1), range(2))):
        with pytest.raises(errors.AddressError):
            h.read_block(block)
    for block in (Block("B", range(2)), Block("O", range(1, 3)), Block("O", range(1), range(2))):
        with pytest.raises(errors.AddressError):
            h.write_block(s, block)
    assert (list(h.trace), h.reads, h.writes, h.words_used, h.memory["O"].tolist()) == before


# -- the count backend -----------------------------------------------------------

# Each call fails on the hierarchy ``count_fault_setup`` builds: a
# 12-word cache holding a (2, 3) slot ``a``, a (3,) slot ``v`` and a freed
# handle ``gone``, with A loaded as (2, 3) and O reserved as (2, 2).  The
# blocks are shared objects, so with ``count_fault_warm_up`` run first a
# call finds them in the hierarchy's view map.
A_ALL = Block("A", range(2), range(3))
A_ROW = Block("A", range(1), range(3))
O_ROW = Block("O", range(1), range(2))

COUNT_FAULTS = {
    "unknown_op": lambda h, a, v, gone: h.compute("nope", a),
    "wrong_arity": lambda h, a, v, gone: h.compute("exp", a, v),
    "unmatched_shapes": lambda h, a, v, gone: h.compute("matmul", a, a),
    "unmatched_shapes_out": lambda h, a, v, gone: h.compute("add_rowsum", v, a, out=v),
    "operand_not_resident": lambda h, a, v, gone: h.compute("maximum", a, gone),
    "out_not_resident": lambda h, a, v, gone: h.compute("exp", a, out=gone),
    "out_size_mismatch": lambda h, a, v, gone: h.compute("exp", a, out=v),
    "compute_capacity": lambda h, a, v, gone: h.compute("exp", a),
    "read_capacity": lambda h, a, v, gone: h.read_block(A_ALL),
    "alloc_capacity": lambda h, a, v, gone: h.alloc((4,)),
    "block_outside_read": lambda h, a, v, gone: h.read_block(Block("A", range(3), range(1))),
    "block_outside_write": lambda h, a, v, gone: h.write_block(v, Block("O", range(3))),
    "unknown_array": lambda h, a, v, gone: h.read_block(Block("B", range(1))),
    "unwritten_read": lambda h, a, v, gone: h.read_block(O_ROW),
    "unwritten_fetch": lambda h, a, v, gone: h.fetch_matrix("O"),
    "bad_read_shape": lambda h, a, v, gone: h.read_block(A_ROW, (2, 2)),
    "bad_ndarray_read_shape": lambda h, a, v, gone: h.read_block(A_ROW, np.array([2, 2])),
    # setup has read A_ROW into (3,) and allocated (2,): a float equal to
    # those ints must not find their shared arrays
    "float_read_shape": lambda h, a, v, gone: h.read_block(A_ROW, (3.0,)),
    "float_alloc_shape": lambda h, a, v, gone: h.alloc((2.0,)),
    "write_size_mismatch": lambda h, a, v, gone: h.write_block(v, Block("O", range(2))),
    "free_not_resident": lambda h, a, v, gone: h.free(gone),
    "negative_alloc": lambda h, a, v, gone: h.alloc((-1,)),
    "alloc_string_fill": lambda h, a, v, gone: h.alloc((2,), fill="x"),
    "alloc_none_fill": lambda h, a, v, gone: h.alloc((2,), fill=None),
    "alloc_list_fill": lambda h, a, v, gone: h.alloc((2,), fill=[1.0]),
    "load_string": lambda h, a, v, gone: h.load("A", "abc"),
    "load_ragged": lambda h, a, v, gone: h.load("A", [[1.0], [1.0, 2.0]]),
}


def count_fault_setup(h, warm_up=None):
    h.load("A", np.ones((2, 3)))
    h.reserve("O", (2, 2))
    if warm_up:
        warm_up(h)
    h.free(h.read_block(A_ROW, (3,)))
    a = h.read_block(A_ALL, (2, 3))
    v = h.alloc((3,))
    gone = h.alloc((2,))
    h.free(gone)
    return a, v, gone


def count_fault_warm_up(h):
    """On the empty cache, the calls of ``COUNT_FAULTS`` made where they
    can succeed: the same blocks, shapes and ops, each result freed."""
    for shape in ((3,), (1, 3), None, [3]):
        h.free(h.read_block(A_ROW, shape))
    h.free(h.read_block(A_ALL))
    a = h.read_block(A_ALL, (2, 3))
    for op, operands in (("exp", (a,)), ("maximum", (a, a))):
        h.free(h.compute(op, *operands))
    h.compute("exp", a, out=a)
    v = h.alloc((3,))
    h.free(h.compute("matmul", a, v))
    acc = h.alloc((2,), fill=1.0)
    h.compute("add_rowsum", acc, a, out=acc)
    h.write_block(acc, Block("O", range(1, 2), range(2)))
    h.free(a, v, acc)
    h.free(h.alloc((4,)), h.alloc((2,)))


def assert_count_fault_parity(fault, warm_up):
    raised = []
    for cls in (MemoryHierarchy, CountHierarchy):
        h = cls(12)
        handles = count_fault_setup(h, warm_up)

        def state():
            return (h.reads, h.writes, h.words_used, h.peak_words, h._next_handle,
                    {x: arr.shape for x, arr in h._slots.items()},
                    {name: arr.shape for name, arr in h.memory.items()})

        before = state()
        with pytest.raises(Exception) as info:
            COUNT_FAULTS[fault](h, *handles)
        assert state() == before, (fault, cls)
        raised.append((info.type, str(info.value)))
    assert raised[0] == raised[1]


@pytest.mark.parametrize("fault", COUNT_FAULTS)
def test_count_hierarchy_raises_what_memory_hierarchy_raises(fault):
    assert_count_fault_parity(fault, None)


@pytest.mark.parametrize("fault", COUNT_FAULTS)
def test_count_hierarchy_raises_the_same_with_warm_caches(fault):
    # every cache the call could hit is filled on this hierarchy first
    assert_count_fault_parity(fault, count_fault_warm_up)


def _reload_smaller(h):
    h.load("A", np.ones((2, 3)))
    h.free(h.read_block(A_ALL))
    h.load("A", np.ones((1, 3)))
    h.read_block(A_ALL)


def _reserve_again(h):
    h.reserve("O", (2, 2))
    h.write_block(h.alloc((2,), fill=1.0), O_ROW)
    h.free(h.read_block(O_ROW))
    h.reserve("O", (2, 2))
    h.read_block(O_ROW)


def _unwritten_twice(h):
    # the first read passes the address check and fails the written one
    h.reserve("O", (2, 2))
    with pytest.raises(errors.AddressError, match="never written"):
        h.read_block(O_ROW)
    h.read_block(O_ROW)


def _free_an_operand(h):
    a, b = h.alloc((2,)), h.alloc((2,))
    h.free(h.compute("maximum", a, b))
    h.free(b)
    h.compute("maximum", a, b)


@pytest.mark.parametrize("steps, error, message", [
    (_reload_smaller, errors.AddressError, "lies in no loaded"),
    (_reserve_again, errors.AddressError, "never written"),
    (_unwritten_twice, errors.AddressError, "never written"),
    (_free_an_operand, errors.ResidencyError, "not cache-resident"),
], ids=["block_after_smaller_load", "written_block_after_reserve", "unwritten_block_again",
        "compute_after_free"])
def test_a_stale_cache_entry_raises_as_on_memory_hierarchy(steps, error, message):
    raised = []
    for cls in (MemoryHierarchy, CountHierarchy):
        with pytest.raises(error, match=message) as info:
            steps(cls(16))
        raised.append(str(info.value))
    assert raised[0] == raised[1]


@pytest.mark.parametrize("kernel, n, d, m", [
    (kernels.streaming_attention, 24, 4, 64),
    (kernels.square_tiling_attention, 24, 4, 16),
    (kernels.square_tiling_attention, 10, 6, 64),  # clipped edge blocks
], ids=["streaming", "tiling", "tiling_clipped"])
def test_a_second_count_run_is_all_cache_hits(kernel, n, d, m, monkeypatch):
    # every zero-byte array and compute result of a run at one (N, d, M)
    # is shared with the next run there, which takes each from a cache
    inst = experiments._shape_instance(n, d)
    first = kernel(CountHierarchy(m), inst)
    caches = (memory._ZERO_BYTES, memory._COUNT_RESULTS)
    sizes = list(map(len, caches))
    made, empty = [], np.empty
    monkeypatch.setattr(np, "empty", lambda *args, **kwargs: made.append(args)
                        or empty(*args, **kwargs))
    # the miss paths: load and reserve look their arrays up through
    # _zero_bytes, so it counts only a shape it does not hold
    monkeypatch.setattr(CountHierarchy, "_uncached_result", lambda *args: made.append(args))
    zero_bytes = memory._zero_bytes

    def held_zero_bytes(shape):
        if shape not in memory._ZERO_BYTES:
            made.append(shape)
        return zero_bytes(shape)

    monkeypatch.setattr(memory, "_zero_bytes", held_zero_bytes)
    h = CountHierarchy(m)
    second = kernel(h, inst)
    assert made == []
    assert list(map(len, caches)) == sizes
    # the view map holds no view object per block, only shared arrays
    assert h._views and all(view is memory._ZERO_BYTES[block.shape]
                            for block, view in h._views.items())
    assert (second.io, second.epochs, second.entry_completions) == (
        first.io, first.epochs, first.entry_completions)


def tracer_memory_methods() -> set:
    """The hierarchy methods bench/tracer.py wraps: the keys of its
    ``MEMORY_METHODS``, read from the source, as bench is no package."""
    tree = ast.parse((Path(__file__).resolve().parents[1] / "bench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [
                "MEMORY_METHODS"]:
            return set(ast.literal_eval(node.value))
    raise AssertionError("bench/tracer.py defines no MEMORY_METHODS")


def test_count_hierarchy_shares_the_block_moves_and_keeps_no_trace():
    # bench/tracer.py wraps MemoryHierarchy's methods; count runs go
    # through these same functions, so its word sums and timings cover
    # them.  compute is the one wrapped method a count run does not
    # share, so the tracer sees no count compute call; any other
    # override would hide its calls too.
    wrapped = tracer_memory_methods()
    assert {"read_block", "write_block", "compute"} <= wrapped
    assert {method for method in wrapped if method in vars(CountHierarchy)} == {"compute"}
    assert {name for name in vars(CountHierarchy) if not name.startswith("__")} == {
        "_copy", "_filled", "compute", "_uncached_result"}
    h = CountHierarchy(8)
    h.load("A", np.ones((2, 2)))
    h.reserve("O", (2, 2))
    s = h.read_block(Block("A", range(2), range(2)), (2, 2))
    h.write_block(s, Block("O", range(2), range(2)))
    assert (h.reads, h.writes, h.peak_words) == (4, 4, 4)
    assert h.fetch_matrix("O").tolist() == [[0.0, 0.0], [0.0, 0.0]]
    assert not h.overflow
    # only a TracingHierarchy records moves
    for plain in (h, MemoryHierarchy(8)):
        assert not hasattr(plain, "trace") and not hasattr(plain, "moves")


def test_the_bench_tracer_sees_each_move_of_a_traced_run_once(monkeypatch):
    # bench/tracer.py wraps read_block and write_block on MemoryHierarchy;
    # TracingHierarchy's overrides call those, so each traced move passes
    # through the wrappers once, with the words the counters count
    assert {method for method in tracer_memory_methods()
            if method in vars(TracingHierarchy)} == {"read_block", "write_block"}
    seen = []

    def counted(method, kind, block_arg):
        original = getattr(MemoryHierarchy, method)

        def wrapper(self, *args):
            result = original(self, *args)
            seen.append((kind, args[block_arg]))
            return result

        monkeypatch.setattr(MemoryHierarchy, method, wrapper)

    counted("read_block", "R", 0)
    counted("write_block", "W", 1)
    h = TracingHierarchy(16)
    kernels.square_tiling_attention(h, random_instance(6, 2, 0), write_qkt=True)
    assert seen == [(kind, block) for kind, block, _ in h.moves]
    assert sum(block.size for kind, block in seen if kind == "R") == h.reads > 0
    assert sum(block.size for kind, block in seen if kind == "W") == h.writes > 0


@pytest.mark.parametrize("kernel, n, d, m, bound_mb", [
    (kernels.square_tiling_attention, 64, 2, 4, 4.0),  # B = 1
    (kernels.streaming_attention, 256, 8, 512, 1.5),
], ids=["tiling", "streaming"])
def test_a_plain_run_keeps_no_record_of_its_moves(kernel, n, d, m, bound_mb):
    # a per-move record grows with the I/O: with one, these runs peak at
    # about 6.5 and 2.1 MiB; without one, at 2.5 and 0.9 MiB
    inst = random_instance(n, d, 0)
    tracemalloc.start()
    try:
        kernel(MemoryHierarchy(m), inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 2 ** 20


def test_count_reads_share_one_zero_byte_slot_per_shape_pair():
    h = CountHierarchy(64)
    h.load("A", np.ones((4, 4)))
    first, second = (h.read_block(Block("A", range(i, i + 2), range(2)), (2, 2))
                     for i in (0, 2))
    flat = h.read_block(Block("A", range(2), range(2, 4)))
    row = h.read_block(Block("A", range(1), range(4)), (4,))
    assert h._slots[first] is h._slots[second]
    assert (h._slots[flat].shape, h._slots[row].shape) == ((4,), (4,))
    assert h._slots[flat] is not h._slots[row]  # (2, 2) and (1, 4) blocks
    assert all(arr.nbytes == 0 for arr in h._slots.values())
    assert (h.reads, h.words_used) == (16, 16)
    # a list shape reshapes as on a MemoryHierarchy, and is not kept
    listed = h.read_block(Block("A", range(2, 4), range(2, 4)), [4])
    assert h._slots[listed].shape == (4,)
    h.free(listed)
    # freeing one sharer leaves the other resident; a bad shape still raises
    h.free(first)
    assert h.words_used == 12 and second in h._slots
    with pytest.raises(ValueError, match="cannot reshape"):
        h.read_block(Block("A", range(2), range(2)), (3,))
    assert (h.reads, h.words_used) == (20, 12)


class ShapeTuple(tuple):
    """A tuple subclass: ``read_block`` takes it as any other sequence."""


@pytest.mark.parametrize("shape", [np.array([4]), np.array([2, 2]), np.array([1, 4]),
                                   np.array(4), np.array([4.0]), [1, 4], ShapeTuple((2, 2))],
                         ids=["flat", "square", "row", "0-d", "float", "list",
                              "tuple-subclass"])
def test_ndarray_read_shape_reads_as_on_both_backends(shape):
    # an ndarray compares elementwise with the block's shape tuple; it is
    # read as its list, on either backend, and so is any other sequence
    outcomes = set()
    for cls in (MemoryHierarchy, CountHierarchy):
        for given in (shape, np.asarray(shape).tolist()):
            h = cls(16)
            h.load("A", np.arange(4.0).reshape(2, 2))
            try:
                s = h.read_block(Block("A", range(2), range(2)), given)
                outcomes.add((h._slots[s].shape, h.reads, h.words_used))
            except TypeError as exc:  # a float shape
                outcomes.add((str(exc), h.reads, h.words_used))
    assert len(outcomes) == 1
    if np.asarray(shape).dtype.kind == "i":
        assert outcomes == {(tuple(np.atleast_1d(shape)), 4, 4)}


def test_numeric_read_never_aliases_slow_memory():
    h = MemoryHierarchy(16)
    h.load("A", np.arange(4.0).reshape(2, 2))
    h.reserve("O", (2, 2))
    for shape in ((2, 2), None, (4,)):
        s = h.read_block(Block("A", range(2), range(2)), shape)
        t = h.alloc(h._slots[s].shape, fill=-1.0)
        h.write_block(t, Block("A", range(2), range(2)))
        assert h._slots[s].ravel().tolist() == [0.0, 1.0, 2.0, 3.0], shape
        h.write_block(s, Block("A", range(2), range(2)))
        h.free(s, t)
    o = h.read_block(Block("A", range(2), range(2)), (2, 2))
    h.write_block(o, Block("O", range(2), range(2)))
    h.memory["O"][...] = 7.0
    assert h._slots[o].tolist() == [[0.0, 1.0], [2.0, 3.0]]


def test_count_compute_gives_each_ops_result_shape():
    assert set(OP_OPERAND_SHAPES) == set(_OPS)
    for op, shape_lists in OP_OPERAND_SHAPES.items():
        for shapes in shape_lists:
            numeric, count = MemoryHierarchy(64), CountHierarchy(64)
            for h in (numeric, count):
                slots = [h.alloc(shape, fill=1.0) for shape in shapes]
                fresh = h.compute(op, *slots)
                h.compute(op, *slots, out=h.alloc(h._slots[fresh].shape))
            assert ([a.shape for a in numeric._slots.values()]
                    == [a.shape for a in count._slots.values()]), (op, shapes)
            assert numeric.words_used == count.words_used
            assert all(a.nbytes == 0 for a in count._slots.values())


class _CountedOps(dict):
    """An op table that counts its entry reads."""

    reads = 0

    def __getitem__(self, op):
        self.reads += 1
        return super().__getitem__(op)


@pytest.mark.parametrize("kernel", [kernels.streaming_attention,
                                    kernels.square_tiling_attention])
def test_a_count_compute_hit_reads_no_op_entry(kernel, monkeypatch):
    # a warm count run finds every result by op name and operand shapes
    inst = experiments._shape_instance(10, 4)
    kernel(CountHierarchy(64), inst)
    ops = _CountedOps(_OPS)
    monkeypatch.setattr(memory, "_OPS", ops)
    kernel(CountHierarchy(64), inst)
    assert ops.reads == 0
    assert all(type(key[0]) is str for key in memory._COUNT_RESULTS)
