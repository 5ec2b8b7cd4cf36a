"""Attention kernels: oracle equivalence, exact I/O counts, regimes."""

import hashlib
import math
import sys
import warnings
from itertools import product

import numpy as np
import pytest

from attnio import errors, experiments
from attnio.cli import main
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
from attnio.memory import (
    _OPS,
    Block,
    CountHierarchy,
    MemoryHierarchy,
    TracingHierarchy,
    export_trace_csv,
)


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


class _PeakTracking:
    """Records the highest cache occupancy a run reaches, seen at each
    capacity claim."""

    peak = 0

    def _claim(self, n):
        super()._claim(n)
        self.peak = max(self.peak, self.words_used)


PEAK_HIERARCHIES = {cls: type(f"Peak{cls.__name__}", (_PeakTracking, cls), {})
                    for cls in (MemoryHierarchy, CountHierarchy)}
BACKENDS = pytest.mark.parametrize("backend", list(PEAK_HIERARCHIES),
                                   ids=lambda cls: cls.__name__)


def backend_instance(backend, n, d):
    """Random values for a MemoryHierarchy, shapes alone for a
    CountHierarchy, as a sweep runs them."""
    if backend is CountHierarchy:
        return experiments._shape_instance(n, d)
    return random_instance(n, d, n + d)


def peak_run(kernel, backend, n, d, m):
    """A peak-tracking hierarchy of ``backend`` after ``kernel`` ran on it."""
    h = PEAK_HIERARCHIES[backend](m)
    kernel(h, backend_instance(backend, n, d))
    return h


STREAMING_GRID = [(n, d, m) for n, d, m in product((5, 16, 33), (1, 2, 4, 8),
                                                   (16, 64, 100, 256, 512))
                  if streaming_fits(m, d)]
TILING_GRID = list(product((1, 3, 5, 17), (1, 2, 4, 8, 16), (4, 8, 16, 32, 64, 128, 256, 1024)))


@BACKENDS
def test_streaming_peak_matches_cache_model(backend):
    # two R x d blocks plus the larger of five length-R vectors and
    # three vectors with one streamed K or V row, as budgeted
    for n, d, m in STREAMING_GRID:
        h = peak_run(streaming_attention, backend, n, d, m)
        r = streaming_block_rows(m, n, d)
        assert h.peak == 2 * r * d + max(5 * r, 3 * r + d), (n, d, m)


@BACKENDS
def test_tiling_peak_matches_cache_model(backend):
    # the score block, its Q and KT blocks, and the row-sum vector, each
    # clipped to N and d
    for n, d, m in TILING_GRID:
        b = math.isqrt(m // 4)
        h = peak_run(square_tiling_attention, backend, n, d, m)
        bn, bd = min(b, n), min(b, d)
        assert h.peak == bn + bn * bn + 2 * bn * bd, (n, d, m)


@BACKENDS
def test_peak_words_matches_peak_hierarchy(backend):
    # the hierarchy's own peak over the grids of the two peak tests above;
    # every kernel also frees all it holds
    runs = [(streaming_attention, point) for point in STREAMING_GRID]
    runs += [(square_tiling_attention, point) for point in TILING_GRID]
    for kernel, (n, d, m) in runs:
        h = peak_run(kernel, backend, n, d, m)
        assert h.peak_words == h.peak <= h.capacity and h.words_used == 0, (n, d, m)


@BACKENDS
@pytest.mark.parametrize("kernel, n, d, m", [
    (streaming_attention, 24, 4, 64),
    (square_tiling_attention, 24, 4, 16),
    (square_tiling_attention, 10, 6, 64),  # clipped edge blocks
    (lambda h, inst: matmul_via_attention(h, inst.Q, inst.K), 12, 4, 16),
    (streaming_attention, 8, 2, 256),  # one row block spans all of O
    (square_tiling_attention, 4, 2, 64),  # one block spans all of O
], ids=["streaming", "tiling", "tiling_clipped", "matmul", "streaming_whole",
        "tiling_whole"])
def test_each_moved_block_is_built_once_per_run(backend, kernel, n, d, m):
    # a block moved twice, such as tiling's row sums, is one object, so
    # its address is checked once and the view map holds one entry per
    # block; fetch_matrix's block, which can span the same words as a
    # moved one, is no move and adds none
    h = backend(m)
    kernel(h, backend_instance(backend, n, d))
    keys = [(block.name, block.ranges) for block in h._views]
    assert len(keys) == len(set(keys)) > 1


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
    runs = [(TracingHierarchy(16), lambda h: square_tiling_attention(h, inst, write_qkt=True)),
            (TracingHierarchy(64), lambda h: streaming_attention(h, inst))]
    for h, kernel in runs:
        result = kernel(h)
        assert all(type(v) is float for _, _, v in h.trace)
        replayed = {a: v for kind, a, v in h.trace if kind == "W"}
        assert replayed == {a: h.memory[a[0]][a[1:]].item() for a in replayed}
        assert np.array_equal(h.fetch_matrix("O"), result.output)


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
    preloaded.load("x", 1.0)
    with pytest.raises(errors.ConfigurationError):
        streaming_attention(preloaded, inst)
    holding = MemoryHierarchy(64)
    holding.alloc((2,))
    with pytest.raises(errors.ConfigurationError):
        square_tiling_attention(holding, inst)


def test_kernels_run_on_counters_alone(monkeypatch):
    """Kernels and sweeps read the I/O counters alone, which a plain
    hierarchy keeps without any record of its moves; recording the moves
    changes no count, epoch, completion, flag or output byte."""
    assert not hasattr(MemoryHierarchy(16), "trace")
    inst = random_instance(12, 4, 3)
    runs = [
        (16, lambda h: square_tiling_attention(h, inst)),
        (16, lambda h: square_tiling_attention(h, inst, write_qkt=True)),
        (64, lambda h: streaming_attention(h, inst)),
        (16, lambda h: dispatch_attention(h, inst)),
        (64, lambda h: dispatch_attention(h, inst)),
        (16, lambda h: matmul_via_attention(h, inst.Q, inst.K)),
    ]
    for m, run in runs:
        plain, traced = MemoryHierarchy(m), TracingHierarchy(m)
        expected, got = run(plain), run(traced)
        assert traced.io == plain.io and traced.moves
        if isinstance(got, np.ndarray):
            assert got.tobytes() == expected.tobytes()
            continue
        assert (got.io, got.epochs, got.entry_completions, got.overflow) == (
            expected.io, expected.epochs, expected.entry_completions, expected.overflow)
        assert got.output.tobytes() == expected.output.tobytes()
    # at magnitude 30 no point provably stays finite, so each runs numerically
    config = experiments.SweepConfig((4, 8), (2, 4), (16, 64), ("tiling", "streaming", "dispatch"),
                                     magnitude=30.0)
    expected = experiments.run_sweep(config)
    built = []
    monkeypatch.setattr(experiments, "MemoryHierarchy",
                        lambda m: built.append(TracingHierarchy(m)) or built[-1])
    assert experiments.run_sweep(config) == expected
    assert any(h.moves for h in built)  # regime errors build one and move nothing


def test_non_finite_output_is_overflow():
    # exp of a score near 709 is finite, but its product with V overflows
    # to -inf inside the fused phase-2 step; the cache flag leaves -inf out
    h = MemoryHierarchy(16)
    result = square_tiling_attention(h, random_instance(4, 1, 216, 30.0))
    assert not np.isfinite(result.output).all() and not h.overflow
    assert result.overflow


def test_kernels_silence_overflow_once_per_run():
    # exp of raw scores near 30^2 * 4 overflows the tiling kernel;
    # streaming's scores themselves overflow at 1e200
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


def test_random_instance_rejects_what_numpy_cannot_draw():
    for seed in (-1, 2.5, "x"):
        with pytest.raises(errors.ConfigurationError, match="seed"):
            random_instance(4, 2, seed)
    for magnitude in (math.nan, math.inf, 1e308, -1.0, "1"):
        with pytest.raises(errors.ConfigurationError, match="magnitude"):
            random_instance(4, 2, 0, magnitude)
    assert np.abs(random_instance(4, 2, 0, 1e200).Q).max() <= 1e200


def test_random_instance_refuses_a_non_integer_size():
    for n, d, name in ((2.0, 3, "N"), (True, 3, "N"), (2, 3.0, "d"), (2, False, "d")):
        with pytest.raises(errors.ConfigurationError, match=rf"^{name} must be an integer, got "):
            random_instance(n, d, 0)
    assert random_instance(np.int64(2), np.int32(3), 0).Q.shape == (2, 3)


@pytest.mark.parametrize("backend", [MemoryHierarchy, CountHierarchy])
def test_kernels_build_their_blocks_by_grid(monkeypatch, backend):
    # Block(...) checks its ranges again for every block; the kernels
    # build their block tables with Block.grid, so only fetch_matrix's
    # block, one per fetched output, runs Block.__init__
    callers = []
    init = Block.__init__

    def recorded(self, *args):
        callers.append(sys._getframe(1).f_code.co_name)
        init(self, *args)

    monkeypatch.setattr(Block, "__init__", recorded)
    inst = random_instance(9, 4, 0)  # clipped row blocks in both kernels
    square_tiling_attention(backend(64), inst, write_qkt=True)
    streaming_attention(backend(64), inst)
    matmul_via_attention(backend(64), inst.Q, inst.K)
    assert callers == ["fetch_matrix"] * 4


# sha256 of export_trace_csv bytes, recorded before slow memory became
# one array per name.  (3, 8, 16) and (5, 2, 16) clip their last blocks.
TRACE_DIGESTS = {
    ("tiling", 12, 4, 64): "5dfc3213e61ec80a51d7df6803a8e619e56035204b06c06441089bc1c048e458",
    ("write_qkt", 12, 4, 64): "bfbcf8b73ef01e81bd82a5e6758e7aae15500afef88bf3cafb0f2893d3b34b88",
    ("streaming", 12, 4, 64): "84f248547da16189bb9ecc0eb949f71fd451a999d2cd663d867e78ffdeff7f5e",
    ("matmul", 12, 4, 64): "bfbcf8b73ef01e81bd82a5e6758e7aae15500afef88bf3cafb0f2893d3b34b88",
    ("tiling", 3, 8, 16): "bb0b0b053421949bd9f47c3862b22d19129b8332a0c9202cb907692c0b535616",
    ("write_qkt", 3, 8, 16): "d8d49c03bfe215ce88e29d08989e87b8dfad23a2772b9125b2bf7257b2fa3b01",
    ("matmul", 3, 8, 16): "d8d49c03bfe215ce88e29d08989e87b8dfad23a2772b9125b2bf7257b2fa3b01",
    ("tiling", 5, 2, 16): "b021a06aa02c1b6102f32020d1f722834fcdfa86ab8ea1cc5747d55929af2d21",
    ("write_qkt", 5, 2, 16): "da3f74dac82dd593ab7f79cd97d3fd951b26a6e7397bfc74cdcf680b4580a12e",
    ("streaming", 5, 2, 16): "b32a6276863779bb7b719abb5da6e2d88e0c7c0c45b916ee5935196cde5c1544",
    ("matmul", 5, 2, 16): "da3f74dac82dd593ab7f79cd97d3fd951b26a6e7397bfc74cdcf680b4580a12e",
}
TRACE_RUNS = {
    "tiling": lambda h, inst: square_tiling_attention(h, inst),
    "write_qkt": lambda h, inst: square_tiling_attention(h, inst, write_qkt=True),
    "streaming": lambda h, inst: streaming_attention(h, inst),
    "matmul": lambda h, inst: matmul_via_attention(h, inst.Q, inst.K),
}


@pytest.mark.parametrize("mode, n, d, m", list(TRACE_DIGESTS))
def test_trace_csv_bytes_pinned(tmp_path, mode, n, d, m):
    h = TracingHierarchy(m)
    TRACE_RUNS[mode](h, random_instance(n, d, 0))
    path = tmp_path / "trace.csv"
    export_trace_csv(h, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TRACE_DIGESTS[mode, n, d, m]


# (N, d, M) points of the value golden: B = 1 to 11, clipped last blocks,
# streaming regime errors (M < 8d), and dispatch on both sides of
# M = d^2.
VALUE_POINTS = [
    (1, 1, 4), (4, 2, 4), (5, 5, 4), (6, 1, 8), (7, 3, 9), (3, 8, 16), (5, 2, 16),
    (8, 2, 16), (16, 2, 32), (6, 3, 36), (16, 4, 36), (11, 6, 48), (9, 4, 64),
    (12, 4, 64), (12, 8, 64), (10, 2, 100), (17, 3, 128), (13, 4, 200), (8, 8, 256),
    (20, 4, 512),
]
VALUE_RUNS = {**TRACE_RUNS, "dispatch": lambda h, inst: dispatch_attention(h, inst)}


def value_digest(mode, magnitude):
    """sha256 over each point's moves (kind, block, value bytes), output
    bytes, counts, epochs, completions and overflow; a regime error
    counts as its name."""
    digest = hashlib.sha256()
    for seed, (n, d, m) in enumerate(VALUE_POINTS):
        h = TracingHierarchy(m)
        try:
            result = VALUE_RUNS[mode](h, random_instance(n, d, seed, magnitude))
        except errors.RegimeError:
            digest.update(b"regime_error")
            continue
        for kind, block, raw in h.moves:
            digest.update(f"{kind}{block!r}".encode())
            digest.update(raw)
        if isinstance(result, np.ndarray):  # matmul returns Q K^T alone
            output, record = result, (h.io, h.overflow)
        else:
            # the digests were recorded over the epochs as a list of tick ranges
            epochs = [range(s, min(s + m, result.io.total)) for s in result.epochs]
            output, record = result.output, (result.io, epochs,
                                             result.entry_completions, result.overflow)
        digest.update(output.tobytes())
        digest.update(repr(record).encode())
    return digest.hexdigest()


# Recorded before the fused row reductions and the leaner compute, read
# and free; magnitude 40 overflows the tiling runs.
VALUE_DIGESTS = {
    ("tiling", 1.0): "42f7c9e837b6a58c039849486bbb241f57e08b198b8ccdbd87cf7a1616fb2a70",
    ("tiling", 40.0): "c718092f6e1d508e697dd5836adfa7489f236b4e5e6d7d827b3fee897e38d9ba",
    ("write_qkt", 1.0): "66c46058857f297239d3f16168a3f2d6408c2404272685da978babac32d93a18",
    ("write_qkt", 40.0): "ed44c66b6991c31d493d2fdaf81dd6deb550fe12181b764b0c4dd873e5998a94",
    ("streaming", 1.0): "97ff2b550c111f3bf6148da78e945c9cce04ed472b72f37c61fec06ed03f7561",
    ("streaming", 40.0): "b8aaea639e2cbcb24ffaad68aab64d0820eaff62ff105592f13f754de23a81da",
    ("matmul", 1.0): "acfcfe3d6a78e8575e9f11d71d9939a06efc3da6d569615b0665fe760c8e35c6",
    ("matmul", 40.0): "054c0dd2449bf38a1b7d7a0195dbbd3e7da5feaa353c524a07f3f530839a0a1e",
    ("dispatch", 1.0): "383250da625c09bb0841384fcc2acacbc0113a8d7474c472f56d42d61819f1da",
    ("dispatch", 40.0): "7a0c4dd4fc93f486305e185da50832b4bc616e62a12bf2f8efd4c14648006f4a",
}


@pytest.mark.parametrize("mode, magnitude", list(VALUE_DIGESTS))
def test_kernel_values_pinned(mode, magnitude):
    assert value_digest(mode, magnitude) == VALUE_DIGESTS[mode, magnitude]


class _OpLoggingHierarchy(MemoryHierarchy):
    """Logs every compute (op, operand shapes, fresh or out=), alloc and
    free in call order."""

    def __init__(self, capacity):
        super().__init__(capacity)
        self.log = []

    def compute(self, op, *operands, out=None):
        shapes = [self._slots[x].shape for x in operands]
        self.log.append(("compute", op, shapes, "fresh" if out is None else "out"))
        return super().compute(op, *operands, out=out)

    def alloc(self, shape=(), fill=0):
        self.log.append(("alloc", shape, fill))
        return super().alloc(shape, fill)

    def free(self, *handles):
        self.log.append(("free", [self._slots[x].shape for x in handles]))
        super().free(*handles)


# sha256 of each mode's compute/alloc/free log over VALUE_POINTS, recorded
# while the matrix ops still went through np.matmul.  The value digests
# pin what each step stores but not how it is split into ops, so a fusion
# or reordering that keeps the output bits yet changes what ``overflow``
# scans shows only here.
OP_SEQUENCE_DIGESTS = {
    "tiling": "0587690d62a1c3a03a3f7d139ea2015ad8e9decf9a8f4d96f85de1c2156f3ea0",
    "write_qkt": "0587690d62a1c3a03a3f7d139ea2015ad8e9decf9a8f4d96f85de1c2156f3ea0",
    "streaming": "507fb6faffeffd740d71e4ffa61bbb8302a9f3e16533720c03bb1543487fa972",
    "matmul": "0587690d62a1c3a03a3f7d139ea2015ad8e9decf9a8f4d96f85de1c2156f3ea0",
    "dispatch": "b5beb587a15a2e6a82c847c3935adf702ae1611ede1a5c58f49845f6d1857fa2",
}


def _op_logs(mode):
    """The mode's compute/alloc/free log at each of VALUE_POINTS, None
    where it raises a regime error."""
    for seed, (n, d, m) in enumerate(VALUE_POINTS):
        h = _OpLoggingHierarchy(m)
        try:
            VALUE_RUNS[mode](h, random_instance(n, d, seed))
        except errors.RegimeError:
            yield None
            continue
        yield h.log


@pytest.mark.parametrize("mode", list(OP_SEQUENCE_DIGESTS))
def test_kernel_op_sequences_pinned(mode):
    assert set(OP_SEQUENCE_DIGESTS) == set(VALUE_RUNS)
    digest = hashlib.sha256()
    for log in _op_logs(mode):
        digest.update(b"regime_error" if log is None else repr(log).encode())
    assert digest.hexdigest() == OP_SEQUENCE_DIGESTS[mode]


def test_every_op_is_called_by_a_kernel():
    # the op table holds the kernels' ops and no others; a test that
    # needs another op injects it
    called = {entry[1] for mode in VALUE_RUNS for log in _op_logs(mode) if log
              for entry in log if entry[0] == "compute"}
    assert called == set(_OPS)


def test_cli_trace_file_bytes_pinned(tmp_path, capsys):
    path = tmp_path / "trace.csv"
    assert main(["attn", "run", "--N", "6", "--d", "2", "--M", "16", "--trace", str(path)]) == 0
    assert "algorithm=streaming" in capsys.readouterr().out
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "deadfcd8325733fc4e2bda4afce53f2820ef9809153ed7eb67c048e19e8423dd")


class _SlotCheckingHierarchy(MemoryHierarchy):
    """Records the memory layout of every slot ``read_block`` fills."""

    def __init__(self, capacity):
        super().__init__(capacity)
        self.layouts = []

    def read_block(self, block, shape=None):
        handle = super().read_block(block, shape)
        self.layouts.append((block.name, self._slots[handle].flags.c_contiguous))
        return handle


@pytest.mark.parametrize("n, d, m", [(3, 8, 16), (5, 2, 16), (12, 4, 64)])
def test_read_block_fills_c_contiguous_slots(n, d, m):
    # K^T is an F-ordered view of K; a slot sliced from it without a
    # C-order copy feeds matmul a different layout and can move output bits
    h = _SlotCheckingHierarchy(m)
    square_tiling_attention(h, random_instance(n, d, 0))
    assert h.memory["KT"].flags.c_contiguous
    assert {name for name, _ in h.layouts} == {"Q", "KT", "V", "A", "dvec"}
    assert all(c_order for _, c_order in h.layouts)
