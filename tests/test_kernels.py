"""Attention kernels: oracle equivalence, exact I/O counts, regimes."""

import math
import warnings
from itertools import product

import numpy as np
import pytest

from attnio import errors
from attnio.kernels import (
    dispatch_attention,
    matmul_via_attention,
    reference_attention,
    square_tiling_attention,
    streaming_attention,
    streaming_block_rows,
    streaming_fits,
)
from attnio.matrices import AttentionInstance, random_instance
from attnio.memory import MemoryHierarchy, replay_trace


def rel_error(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def test_reference_single_entry():
    inst = AttentionInstance([[2.0]], [[3.0]], [[7.0]])
    assert np.allclose(reference_attention(inst), [[7.0]])


def test_reference_identical_rows():
    inst = AttentionInstance([[1.0, 2.0], [1.0, 2.0]],
                             [[0.5, 0.1], [0.2, 0.3]],
                             [[1.0, 0.0], [0.0, 1.0]])
    out = reference_attention(inst)
    assert np.allclose(out[0], out[1])


def test_reference_zero_scores():
    inst = AttentionInstance([[0.0], [0.0]], [[0.0], [0.0]], [[1.0], [3.0]])
    assert np.allclose(reference_attention(inst), [[2.0], [2.0]])


def test_reference_shift_invariance():
    rng = np.random.default_rng(11)
    q, k, v = rng.uniform(-1, 1, (3, 5, 3))
    base = reference_attention(AttentionInstance(q, k, v))
    # adding a constant to a row of QK^T = adding it to every score of
    # that Q row; realized by appending a shared component to Q and K
    q2 = np.hstack([q, np.ones((5, 1))])
    shift = np.full((5, 1), 0.7)
    k2 = np.hstack([k, shift])
    shifted = reference_attention(AttentionInstance(q2, k2, np.hstack([v, v[:, :1]])))
    assert np.allclose(shifted[:, :3], base)


def test_tiling_block_side():
    # B = floor(sqrt(M/4)): M=100 -> 5
    assert math.isqrt(100 // 4) == 5


def test_tiling_matches_reference():
    inst = random_instance(8, 3, 21)
    h = MemoryHierarchy(16)
    res = square_tiling_attention(h, inst)
    assert rel_error(res.output, reference_attention(inst)) < 1e-9
    assert res.io.reads == h.reads and res.io.writes == h.writes


def test_tiling_hand_simulated_io():
    # N=4, d=2, M=4 (B=1): frozen from a hand simulation of the
    # two-phase pseudocode at block size 1.
    inst = random_instance(4, 2, 0)
    h = MemoryHierarchy(4)
    res = square_tiling_attention(h, inst)
    assert (res.io.reads, res.io.writes) == (132, 28)
    assert rel_error(res.output, reference_attention(inst)) < 1e-9


def test_tiling_single_entry():
    inst = AttentionInstance([[1.0]], [[1.0]], [[4.5]])
    res = square_tiling_attention(MemoryHierarchy(4), inst)
    assert np.allclose(res.output, [[4.5]])


def test_tiling_stabilized_handles_large_inputs():
    inst = random_instance(6, 2, 3, magnitude=30.0)
    res = square_tiling_attention(MemoryHierarchy(16), inst, stabilize=True)
    assert not res.overflow
    assert rel_error(res.output, reference_attention(inst)) < 1e-9


def test_tiling_stabilized_exact_counts():
    # N=8, d=2, M=16 (B=2, 16 score blocks of 4 entries): completions are
    # logged in the pre-pass, and write_qkt adds N^2 = 64 writes there.
    inst = random_instance(8, 2, 0)
    res = square_tiling_attention(MemoryHierarchy(16), inst, stabilize=True)
    assert (res.io.reads, res.io.writes) == (400, 96)
    assert res.entry_completions == [(t, 4) for t in (
        8, 16, 24, 32, 42, 50, 58, 66, 76, 84, 92, 100, 110, 118, 126, 134)]
    res = square_tiling_attention(MemoryHierarchy(16), inst, stabilize=True,
                                  write_qkt=True)
    assert (res.io.reads, res.io.writes) == (400, 160)
    assert res.entry_completions == [(t, 4) for t in (
        8, 20, 32, 44, 58, 70, 82, 94, 108, 120, 132, 144, 158, 170, 182, 194)]


def test_streaming_matches_reference():
    inst = random_instance(8, 2, 5)
    res = streaming_attention(MemoryHierarchy(64), inst)
    assert rel_error(res.output, reference_attention(inst)) < 1e-9


def test_streaming_regime_error():
    inst = random_instance(8, 4, 5)
    with pytest.raises(errors.RegimeError):
        streaming_attention(MemoryHierarchy(16), inst)


def test_streaming_single_entry():
    inst = AttentionInstance([[1.0]], [[1.0]], [[4.5]])
    res = streaming_attention(MemoryHierarchy(16), inst)
    assert np.allclose(res.output, [[4.5]])


def test_streaming_block_rows_budget():
    for m in (16, 32, 64, 128, 256):
        for d in (1, 2, 4, 8):
            r = streaming_block_rows(m, 64, d)
            assert r >= 1
            if r > 1:
                assert 2 * r * d + max(5 * r, 3 * r + d) <= m


class PeakHierarchy(MemoryHierarchy):
    """Records the highest cache occupancy a run reaches."""

    peak = 0

    def _claim(self, n):
        super()._claim(n)
        self.peak = max(self.peak, self.words_used)


def test_streaming_peak_matches_cache_model():
    # two R x d blocks plus the larger of five length-R vectors and
    # three vectors with one streamed K or V row, as budgeted
    for n, d, m in product((5, 16, 33), (1, 2, 4, 8), (16, 64, 100, 256, 512)):
        if streaming_fits(m, d):
            h = PeakHierarchy(m)
            streaming_attention(h, random_instance(n, d, n + d))
            r = streaming_block_rows(m, n, d)
            assert h.peak == 2 * r * d + max(5 * r, 3 * r + d), (n, d, m)


def test_tiling_peak_matches_cache_model():
    # the score block, its Q and KT blocks, and the row-sum vector (plus
    # the row-max vector when stabilized), each clipped to N and d
    for n, d, m, stabilize in product((1, 3, 5, 17), (1, 2, 4, 8, 16),
                                      (4, 8, 16, 32, 64, 128, 256, 1024), (False, True)):
        b = math.isqrt(m // 4)
        if stabilize and 3 * b * b + 2 * b > m:
            continue
        h = PeakHierarchy(m)
        square_tiling_attention(h, random_instance(n, d, n + d), stabilize=stabilize)
        bn, bd = min(b, n), min(b, d)
        assert h.peak == (1 + stabilize) * bn + bn * bn + 2 * bn * bd, (n, d, m, stabilize)


def test_streaming_io_halves_with_cache():
    inst = random_instance(32, 4, 9)
    io1 = streaming_attention(MemoryHierarchy(64), inst).io.total
    io2 = streaming_attention(MemoryHierarchy(128), inst).io.total
    assert 1.6 <= io1 / io2 <= 2.4


def test_monotonicity_in_cache_size():
    inst = random_instance(16, 4, 13)
    tiling = [square_tiling_attention(MemoryHierarchy(m), inst).io.total
              for m in (4, 16, 36, 64)]
    assert tiling == sorted(tiling, reverse=True)
    streaming = [streaming_attention(MemoryHierarchy(m), inst).io.total
                 for m in (32, 64, 128)]
    assert streaming == sorted(streaming, reverse=True)


def test_dispatch_regimes():
    inst4 = random_instance(8, 4, 1)
    assert dispatch_attention(MemoryHierarchy(64), inst4).algorithm == "streaming"
    inst8 = random_instance(8, 8, 1)
    assert dispatch_attention(MemoryHierarchy(16), inst8).algorithm == "tiling"


def test_matmul_via_attention_tiny():
    h = MemoryHierarchy(4)
    out = matmul_via_attention(h, [[1.0], [2.0]], [[3.0], [4.0]])
    assert np.allclose(out, [[3.0, 4.0], [6.0, 8.0]])


def test_matmul_via_attention_random():
    rng = np.random.default_rng(2)
    for _ in range(20):
        q = rng.uniform(-1, 1, (5, 3))
        k = rng.uniform(-1, 1, (5, 3))
        out = matmul_via_attention(MemoryHierarchy(16), q, k)
        assert np.allclose(out, q @ k.T)


def test_matmul_extra_io_at_most_n_squared():
    inst = random_instance(6, 3, 17)
    plain = square_tiling_attention(MemoryHierarchy(16), inst).io.total
    h = MemoryHierarchy(16)
    square_tiling_attention(h, inst, write_qkt=True)
    assert h.io.total - plain <= 6 * 6


def test_trace_replays_to_memory_and_output():
    """The trace's write values rebuild every written word, and the
    output the kernel returns is the O it wrote."""
    inst = random_instance(12, 4, 5)
    runs = [(MemoryHierarchy(16), lambda h: square_tiling_attention(h, inst, write_qkt=True)),
            (MemoryHierarchy(64), lambda h: streaming_attention(h, inst))]
    for h, kernel in runs:
        result = kernel(h)
        assert all(type(v) is float for _, _, v in h.trace)
        written = {a for kind, a, _ in h.trace if kind == "W"}
        assert replay_trace(h.trace) == {a: h.memory[a] for a in written}
        assert np.array_equal(h.fetch_matrix("O", (inst.N, inst.d)), result.output)


def test_kernels_reject_used_hierarchy():
    # a second run on one hierarchy would silently add its I/O to the first
    inst = random_instance(8, 4, 1)
    for kernel in (square_tiling_attention, streaming_attention, dispatch_attention):
        h = MemoryHierarchy(64)
        first = kernel(h, inst).io.total
        with pytest.raises(errors.ConfigurationError):
            kernel(h, inst)
        assert h.io.total == first
    with pytest.raises(errors.ConfigurationError):
        matmul_via_attention(h, inst.Q, inst.K)
    preloaded = MemoryHierarchy(64)
    preloaded.initialize(("x",), 1.0)
    with pytest.raises(errors.ConfigurationError):
        streaming_attention(preloaded, inst)
    holding = MemoryHierarchy(64)
    holding.alloc((2,))
    with pytest.raises(errors.ConfigurationError):
        square_tiling_attention(holding, inst)


def test_kernels_silence_overflow_once_per_run():
    # exp of raw scores near 30^2 * 4 overflows the unstabilized tiling
    # kernel; streaming's scores themselves overflow at 1e200
    runs = [(square_tiling_attention, 16, 30.0), (streaming_attention, 64, 1e200)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kernel, m, magnitude in runs:
            assert kernel(MemoryHierarchy(m), random_instance(16, 4, 2, magnitude)).overflow
        assert not streaming_attention(MemoryHierarchy(64),
                                       random_instance(16, 4, 2, 30.0)).overflow


def test_kernels_silence_divide_by_zero_of_underflowed_row():
    # every exp of the one score row underflows, so inv of its zero row
    # sum divides by zero; the run reports it through overflow alone
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = square_tiling_attention(MemoryHierarchy(16),
                                         random_instance(1, 1, 126, 30.0))
    assert result.overflow


def test_kernels_restore_numpy_error_state():
    inst = random_instance(8, 4, 1, magnitude=30.0)
    used = MemoryHierarchy(64)
    used.alloc((1,))
    failing = [
        (errors.RegimeError, lambda: streaming_attention(MemoryHierarchy(16), inst)),
        (errors.RegimeError,
         lambda: square_tiling_attention(MemoryHierarchy(4), inst, stabilize=True)),
        (errors.ConfigurationError, lambda: square_tiling_attention(used, inst)),
    ]
    with np.errstate(over="raise", invalid="print", divide="warn", under="ignore"):
        before = np.geterr()
        assert square_tiling_attention(MemoryHierarchy(16), inst).overflow
        assert np.geterr() == before
        for error, run in failing:
            with pytest.raises(error):
                run()
            assert np.geterr() == before


def test_kernels_never_overflow_cache():
    # no CapacityError on a stress grid; the simulator enforces M
    for n, d, m in [(8, 2, 4), (8, 2, 64), (7, 3, 9), (16, 4, 36), (5, 5, 4)]:
        inst = random_instance(n, d, n * d)
        square_tiling_attention(MemoryHierarchy(m), inst)
        if m >= 8 * d:
            streaming_attention(MemoryHierarchy(m), inst)
