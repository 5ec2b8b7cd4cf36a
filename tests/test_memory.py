"""Memory-hierarchy simulator: counting, capacity, overflow, epochs."""

import numpy as np
import pytest

from attnio import errors
from attnio.memory import (
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
    h.compute("exp", s)
    assert h.overflow


def test_overflow_flag_marks_nan_and_pos_inf_only():
    def overflowed(start, *ops):
        h = MemoryHierarchy(8)
        s = h.alloc((2,), fill=start)
        for op in ops:
            s = h.compute(op, s, s) if op in ("sub", "maximum") else h.compute(op, s)
        return h.overflow

    assert overflowed(1e308, "exp")  # +inf
    assert overflowed(np.inf, "sub")  # inf - inf = NaN
    assert not overflowed(-np.inf, "maximum", "exp")  # only -inf, then 0
    assert not overflowed(1e308, "maximum")  # large but finite
    assert not overflowed(1e308, "neg", "exp")  # -1e308, then 0


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
