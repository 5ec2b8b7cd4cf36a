"""Closed-form read and write counts of both kernels, as an oracle
independent of the simulator.

Every kernel count depends on N, d and M alone.  Tiling has block side
b = floor(sqrt(M/4)), R = ceil(N/b) row blocks and C = ceil(d/b)
column blocks; w is 1 when ``write_qkt`` is set:

    reads  = 2RNd + N + C N^2 + RNd
    writes = N^2 + N + Nd + w N^2

Phase 1 reads all of Q and K^T once per row block (2RNd), dvec is read
back once (N), and Phase 2 reads A once per column block (C N^2) and V
once per row block (RNd).  Streaming with R resident rows reads Q once and
K and V once per row block, and writes O once:

    reads  = Nd + 2Nd ceil(N/R)
    writes = Nd

Either way a run has max(1, ceil((reads + writes) / M)) epochs.
"""

import math
from itertools import product

import pytest

from attnio import experiments as E
from attnio.kernels import (
    square_tiling_attention,
    streaming_attention,
    streaming_block_rows,
    streaming_fits,
)
from attnio.matrices import random_instance
from attnio.memory import MIN_CAPACITY, CountHierarchy, MemoryHierarchy


def tiling_counts(n, d, m, write_qkt=False):
    b = math.isqrt(m // 4)
    r, c = -(-n // b), -(-d // b)
    reads = 2 * r * n * d + n + c * n * n + r * n * d
    writes = n * n + n + n * d + int(write_qkt) * n * n
    return reads, writes


def streaming_counts(n, d, m):
    r = streaming_block_rows(m, n, d)
    return n * d + 2 * n * d * -(-n // r), n * d


MODES = {
    "tiling": (lambda h, inst: square_tiling_attention(h, inst),
               lambda n, d, m: tiling_counts(n, d, m)),
    "write_qkt": (lambda h, inst: square_tiling_attention(h, inst, write_qkt=True),
                  lambda n, d, m: tiling_counts(n, d, m, write_qkt=True)),
    "streaming": (lambda h, inst: streaming_attention(h, inst), streaming_counts),
}
NS = (1, 3, 5, 16, 24, 33)
DS = (1, 2, 3, 4, 8)
MS = (4, 16, 20, 36, 64, 100, 256)


def grid_points():
    for n, d in product(NS, DS):
        for m in sorted(set(MS) | {8 * d, d * d}):
            if m >= MIN_CAPACITY:
                yield n, d, m


@pytest.mark.parametrize("mode", MODES)
def test_kernel_counts_match_the_closed_form(mode):
    run, formula = MODES[mode]
    checked = 0
    for n, d, m in grid_points():
        if mode == "streaming" and not streaming_fits(m, d):
            continue
        h = MemoryHierarchy(m)
        res = run(h, random_instance(n, d, n * d + m))
        reads, writes = formula(n, d, m)
        assert (h.reads, h.writes) == (reads, writes), (mode, n, d, m)
        assert len(res.epochs) == max(1, math.ceil((reads + writes) / m)), (mode, n, d, m)
        checked += 1
    assert checked >= 150


def test_count_backend_matches_the_closed_form_past_the_numeric_grid():
    # points the numeric backend takes seconds over; counts need no values
    for mode, n, d, m in [("streaming", 512, 8, 512), ("tiling", 256, 16, 64)]:
        run, formula = MODES[mode]
        h = CountHierarchy(m)
        run(h, random_instance(n, d, n * d + m))
        assert (h.reads, h.writes) == formula(n, d, m), (mode, n, d, m)
        assert h.words_used == 0


# Paper scale: the bound checks on the closed form, far past what the
# simulator can run.  SLOPE_GRIDS holds the d and M grid of acceptance
# criteria 2 (tiling) and 3 (streaming).
PAPER_NS = (2 ** 10, 2 ** 12, 2 ** 14, 2 ** 16)
PAPER_DS = (4, 16, 64)
PAPER_MS = tuple(2 ** k for k in range(2, 15))  # 4 .. 16384
SLOPE_GRIDS = {"tiling": (16, (16, 36, 64, 144, 256)),
               "streaming": (4, (32, 64, 128, 256, 512))}


def test_bounds_and_slopes_hold_at_paper_scale_on_the_closed_form():
    # the formula stands in for the kernels only where it matches them
    for mode, n, d, m in [("tiling", 16, 4, 16), ("tiling", 33, 8, 36),
                          ("streaming", 24, 4, 32), ("streaming", 33, 8, 256)]:
        run, formula = MODES[mode]
        h = MemoryHierarchy(m)
        run(h, random_instance(n, d, n * d + m))
        assert (h.reads, h.writes) == formula(n, d, m), (mode, n, d, m)

    cfg = E.load_bound_config()
    for n, d in product(PAPER_NS, PAPER_DS):
        for m in sorted(set(PAPER_MS) | {8 * d, d * d}):
            lower = cfg["lower_constant"] * min(E.regime_terms(n, d, m))
            for algorithm in ("tiling", "streaming"):
                if algorithm == "streaming" and not streaming_fits(m, d):
                    continue
                io = sum(MODES[algorithm][1](n, d, m))
                upper = cfg["upper_constant"] * E.upper_bound_formula(algorithm, n, d, m)
                assert lower <= io <= upper, (algorithm, n, d, m)
    for n in PAPER_NS:
        for algorithm, (d, m_grid) in SLOPE_GRIDS.items():
            records = [E.SweepRecord(algorithm, n, d, m, "ok", *MODES[algorithm][1](n, d, m), 1, 0)
                       for m in m_grid]
            slope, _ = E.fit_scaling_exponent(records)
            lo, hi = cfg[f"{algorithm}_slope_window"]
            assert lo <= slope <= hi, (algorithm, n, slope)
