"""Memory-hierarchy simulator: counting, capacity, overflow, epochs."""

import numpy as np
import pytest

from attnio import errors
from attnio.memory import (
    _OPS,
    SCAN_FLOOR,
    Epoch,
    MemoryHierarchy,
    export_trace_csv,
    format_address,
    replay_trace,
    split_into_epochs,
)


def test_read_write_counting():
    h = MemoryHierarchy(8)
    h.initialize(("x", 0), 3.0)
    s = h.read_word(("x", 0))
    assert h.reads == 1 and h.writes == 0
    h.write_word(s, ("y", 0))
    assert h.writes == 1
    assert h.io.total == 2
    assert [e[0] for e in h.trace] == ["R", "W"]


def test_load_and_block_io():
    h = MemoryHierarchy(16)
    h.load("A", np.arange(6.0).reshape(2, 3))
    assert h.reads == 0  # initialization is free
    s = h.read_block([("A", i, j) for i in range(2) for j in range(3)], (2, 3))
    assert h.reads == 6
    assert np.array_equal(h.value(s), np.arange(6.0).reshape(2, 3))


def test_capacity_enforced_no_eviction():
    h = MemoryHierarchy(4)
    h.load("A", np.zeros((1, 4)))
    h.read_block([("A", 0, j) for j in range(4)], (4,))
    with pytest.raises(errors.CapacityError):
        h.read_word(("A", 0, 0))


def test_free_releases_capacity():
    h = MemoryHierarchy(4)
    h.load("A", np.zeros((1, 4)))
    s = h.read_block([("A", 0, j) for j in range(4)], (4,))
    h.free(s)
    assert h.words_used == 0
    h.read_word(("A", 0, 0))  # fits again
    with pytest.raises(errors.UsageError):
        h.free(s)


def test_uninitialized_address_rejected():
    h = MemoryHierarchy(4)
    with pytest.raises(errors.AddressError):
        h.read_word(("nope", 0))


def test_compute_no_io_and_fused_ops():
    h = MemoryHierarchy(32)
    h.load("A", np.ones((2, 2)))
    a = h.read_block([("A", i, j) for i in range(2) for j in range(2)], (2, 2))
    acc = h.alloc((2, 2))
    h.compute("addmm", acc, a, a, out=acc)
    assert h.io.total == 4  # computes are free
    assert np.allclose(h.value(acc), 2 * np.ones((2, 2)))


def test_minimum_capacity():
    with pytest.raises(errors.ConfigurationError):
        MemoryHierarchy(3)


def test_overflow_flag():
    h = MemoryHierarchy(8)
    h.initialize(("x",), 1e308)
    s = h.read_word(("x",))
    assert not h.overflow
    with pytest.warns(RuntimeWarning, match="overflow"):
        h.compute("exp", s)
    assert h.overflow


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


def test_overflow_stays_set():
    h = MemoryHierarchy(8)
    s = h.alloc((2,), fill=1e308)
    with pytest.warns(RuntimeWarning):
        h.free(h.compute("exp", s))
    for _ in range(5):
        for _ in range(4):  # one cache-full of finite results
            h.free(h.compute("neg", s))
        assert h.overflow


@pytest.mark.parametrize("m", [4, 16])
@pytest.mark.parametrize("further_words", [2, SCAN_FLOOR + 2])
def test_overflow_replaced_by_out_stays_flagged(m, further_words):
    # the +inf result is gone from every slot long before a scan is due
    h = MemoryHierarchy(m)
    s = h.alloc((2,), fill=1e308)
    t = h.alloc((2,))
    with pytest.warns(RuntimeWarning):
        h.compute("exp", s, out=t)
    for _ in range(further_words // 2):
        h.compute("neg", s, out=t)
    assert h.overflow


def test_alloc_zero_fill_keeps_its_sign():
    h = MemoryHierarchy(8)
    for shape in ((), (3,)):
        plus, minus = h.value(h.alloc(shape)), h.value(h.alloc(shape, fill=-0.0))
        assert plus.dtype == minus.dtype == np.float64
        assert plus.shape == minus.shape == shape
        assert not np.signbit(plus).any() and np.signbit(minus).all()
        assert (plus == 0).all() and (minus == 0).all()


def test_every_op_leaves_a_float64_array_slot():
    # operand shapes per op; reductions and ufuncs of a 1-D or shape-()
    # slot give numpy scalars, which must land as shape-() arrays
    cases = {
        "add": [((3,), (3,)), ((), ())], "sub": [((3,), (3,))],
        "mul": [((3,), (3,))], "div": [((3,), (3,)), ((), ())],
        "neg": [((3,),), ((),)], "exp": [((3,),), ((),)], "inv": [((2, 3),), ((),)],
        "maximum": [((3,), (3,)), ((), ())], "matmul": [((2, 3), (3,)), ((3,), (3,))],
        "rowsum": [((2, 3),), ((3,),)], "rowmax": [((2, 3),), ((3,),)],
        "rowscale": [((2, 3), (2,))], "subrow": [((2, 3), (2,))],
        "exp_sub": [((3,), (3,)), ((), ())], "mul_add": [((2,), (2,), (2,))],
        "addmm": [((2, 2), (2, 3), (3, 2))], "add_outer": [((2, 3), (2,), (3,))],
        "scaled_addmm": [((2, 2), (2,), (2, 3), (3, 2))],
    }
    assert set(cases) == set(_OPS)
    for op, shape_lists in cases.items():
        fn = _OPS[op][0]
        for shapes in shape_lists:
            h = MemoryHierarchy(64)
            slots = [h.alloc(shape, fill=0.5 + k) for k, shape in enumerate(shapes)]
            expected = np.asarray(fn(*map(h.value, slots)))
            fresh = h.compute(op, *slots)
            target = h.alloc(expected.shape)
            assert h.compute(op, *slots, out=target) == target
            for handle in (fresh, target):
                got = h._slots[handle]
                assert type(got) is np.ndarray and got.dtype == np.float64, (op, shapes)
                assert got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()


def test_compute_checks_operand_count():
    h = MemoryHierarchy(8)
    a = h.alloc((2,), fill=1.0)
    b = h.alloc((2,), fill=2.0)
    for op, operands in (("exp", (a, b)), ("add", (a,)), ("mul_add", (a, b)),
                         ("matmul", (a, b, a))):
        with pytest.raises(errors.UsageError, match="operands"):
            h.compute(op, *operands)
    assert h.words_used == 4 and not h.overflow
    assert h.value(a).tolist() == [1.0, 1.0] and h.value(b).tolist() == [2.0, 2.0]


def test_compute_on_empty_slot():
    h = MemoryHierarchy(4)
    s = h.alloc((0,))
    assert h.value(h.compute("exp", s)).shape == (0,)
    assert not h.overflow


def test_read_block_missing_address_leaves_no_trace():
    h = MemoryHierarchy(8)
    h.load("A", np.ones((1, 3)))
    h.read_word(("A", 0, 0))
    before = (list(h.trace), h.reads, h.words_used)
    with pytest.raises(errors.AddressError, match=r"\('A', 0, 3\)"):
        h.read_block([("A", 0, 1), ("A", 0, 3), ("A", 0, 2)], (3,))
    assert (h.trace, h.reads, h.words_used) == before


def test_read_block_bad_shape_leaves_no_claim():
    h = MemoryHierarchy(8)
    h.load("A", np.ones((1, 3)))
    with pytest.raises(ValueError):
        h.read_block([("A", 0, 0), ("A", 0, 1), ("A", 0, 2)], (2, 2))
    assert (h.words_used, h.reads, len(h.trace)) == (0, 0, 0)


def test_alloc_negative_shape_claims_nothing():
    h = MemoryHierarchy(4)
    with pytest.raises(ValueError):
        h.alloc((-1,))
    assert h.words_used == 0
    with pytest.raises(errors.CapacityError):
        h.alloc((5,))


def test_trace_stored_per_move_reads_per_word():
    h = MemoryHierarchy(16)
    h.load("A", np.arange(6.0).reshape(2, 3))
    h.initialize(("z",), np.float32(1.5))
    h.initialize(("i",), 2)
    a = h.read_block([("A", i, j) for i in range(2) for j in range(3)], (2, 3))
    h.write_block(a, [("B", k) for k in range(6)])
    s = h.read_word(("A", 1, 2))
    h.write_word(s, ("y",))
    h.read_block((("B", 4), ("z",), ("i",)), (3,))
    expected = ([("R", ("A", i, j), 3.0 * i + j) for i in range(2) for j in range(3)]
                + [("W", ("B", k), float(k)) for k in range(6)]
                + [("R", ("A", 1, 2), 5.0), ("W", ("y",), 5.0)]
                + [("R", ("B", 4), 4.0), ("R", ("z",), 1.5), ("R", ("i",), 2.0)])
    assert len(h.trace) == len(expected) == 17
    assert list(h.trace) == expected
    assert h.trace == expected and expected == h.trace
    assert h.trace != expected[:-1] and h.trace != expected[:-1] + [("R", ("i",), 3.0)]
    assert [h.trace[t] for t in range(17)] == expected
    assert [h.trace[t] for t in range(-17, 0)] == expected
    for t in (17, -18):
        with pytest.raises(IndexError):
            h.trace[t]
    assert all(type(v) is float for _, _, v in h.trace)
    assert h.trace and not MemoryHierarchy(4).trace


def test_failed_block_moves_add_no_move():
    h = MemoryHierarchy(8)
    h.load("A", np.ones((1, 3)))
    s = h.read_block([("A", 0, 0), ("A", 0, 1)], (2,))
    before = list(h.trace)
    with pytest.raises(errors.AddressError):
        h.read_block([("A", 0, 2), ("nope",)], (2,))
    with pytest.raises(ValueError):
        h.read_block([("A", 0, 2)] * 3, (2, 2))
    with pytest.raises(errors.UsageError):
        h.write_block(s, [("B", 0)])
    assert h.trace == before
    assert (h.reads, h.writes, h.words_used) == (2, 0, 2)
    h.write_block(s, [("B", 0), ("B", 1)])
    assert list(h.trace) == before + [("W", ("B", 0), 1.0), ("W", ("B", 1), 1.0)]
    assert h.trace[2] == ("W", ("B", 0), 1.0)


def test_split_into_epochs():
    trace = [("R", i, 0.0) for i in range(10)]
    epochs = split_into_epochs(trace, 4)
    assert epochs == [Epoch(0, 4), Epoch(4, 8), Epoch(8, 10)]
    assert sum(e.io_count for e in epochs) == 10
    assert split_into_epochs([], 4) == [Epoch(0, 0)]
    # minimality: T epochs means at least (T - 1) * m events
    assert len(trace) >= (len(epochs) - 1) * 4


def test_replay_trace_rebuilds_memory():
    h = MemoryHierarchy(8)
    h.initialize(("x",), 2.0)
    s = h.read_word(("x",))
    h.write_word(s, ("y",))
    assert replay_trace(h.trace) == {("y",): 2.0}


def test_trace_csv(tmp_path):
    h = MemoryHierarchy(8)
    h.initialize(("x", 1, 2), 5.0)
    s = h.read_word(("x", 1, 2))
    h.write_word(s, ("y", 0))
    path = tmp_path / "trace.csv"
    export_trace_csv(h.trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "tick,kind,address"
    assert lines[1] == '0,R,"x[1,2]"'  # commas in the address get quoted
    assert lines[2] == "1,W,y[0]"


def test_format_address():
    assert format_address(("Q", 3, 4)) == "Q[3,4]"
    assert format_address("plain") == "plain"
