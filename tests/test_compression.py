"""Entry-compression oracle, protocols, and epoch-progress accounting."""

import bisect
import random
from itertools import product

import numpy as np
import pytest

from attnio import compression as C
from attnio import errors
from attnio.fields import FieldMatrix, vandermonde_matrix
from attnio.kernels import square_tiling_attention, streaming_attention, streaming_fits
from attnio.matrices import random_instance
from attnio.memory import CountHierarchy, MemoryHierarchy, split_into_epochs


# -- IndexSet -------------------------------------------------------------------

def test_index_set_derived_sets():
    idx = C.IndexSet([(0, 0), (0, 2), (1, 2)])
    assert idx.rows == {0, 1}
    assert idx.cols == {0, 2}


# -- counting oracle -------------------------------------------------------------

def test_count_single_column_all_ones():
    k = FieldMatrix([[1], [1]], 3)
    idx = C.IndexSet([(0, 0), (1, 0)])
    assert C.distinct_output_count(k, idx, 3, 2, 1) == 9


def test_count_vandermonde_one_per_row():
    v = vandermonde_matrix(3, 2, 3)
    idx = C.IndexSet([(0, 0), (1, 1), (2, 2)])
    assert C.distinct_output_count(v, idx, 3, 3, 2) >= 27


def test_count_empty_index_set():
    k = FieldMatrix([[1], [1]], 3)
    assert C.distinct_output_count(k, C.IndexSet([]), 3, 2, 1) == 1


def test_count_vandermonde_row_set_inequality():
    # distinct outputs >= q^(sum_i min(|R_i|, d))
    v = vandermonde_matrix(3, 2, 3)
    idx = C.IndexSet([(0, 0), (0, 1), (0, 2), (1, 0)])
    count = C.distinct_output_count(v, idx, 3, 3, 2)
    row_sets = [{c for r, c in idx.pairs if r == row} for row in idx.rows]
    exponent = sum(min(len(cs), 2) for cs in row_sets)
    assert count >= 3 ** exponent


def test_count_binary_row_inequality():
    # below the independence parameter, each requested entry is free
    from attnio.fields import binary_independence_matrix
    k = binary_independence_matrix(7, 3)
    idx = C.IndexSet([(0, 0)])
    count = C.distinct_output_count(k, idx, 2, 7, 3)
    row_sets = [{c for r, c in idx.pairs if r == row} for row in idx.rows]
    assert count >= 2 ** sum(len(cs) for cs in row_sets)


def test_count_rejects_pairs_outside_range():
    k = FieldMatrix([[1], [1]], 3)
    for pair in [(0, -1), (5, 0), (2, 0), (0, 2), (-1, 1)]:
        with pytest.raises(errors.ConfigurationError, match="outside"):
            C.distinct_output_count(k, C.IndexSet([(0, 0), pair]), 3, 2, 1)


def test_count_equals_q_to_the_rank_of_the_output_map():
    # Q -> ((Q K^T)[r, c]) is linear in the free rows of Q, so its image
    # has q^rank elements; the rank comes from FieldMatrix.rank.
    rng = np.random.default_rng(2024)
    for q, n, d, free in [(2, 5, 3, 3), (3, 4, 2, 3), (5, 3, 2, 2)] * 8:
        k = FieldMatrix(rng.integers(0, q, (n, d)), q)
        rows = sorted(int(r) for r in rng.choice(n, size=free, replace=False))
        pairs = {(r, int(c)) for r in rows for c in rng.choice(n, size=2)}
        idx = C.IndexSet(pairs)
        coeffs = np.zeros((len(idx), len(rows) * d), dtype=np.int64)
        for e, (r, c) in enumerate(idx.sorted_pairs()):
            t = rows.index(r)
            coeffs[e, t * d:(t + 1) * d] = k.data[c]
        rank = FieldMatrix(coeffs, q).rank()
        assert C.distinct_output_count(k, idx, q, n, d) == q ** rank


def test_count_cap_refusal():
    k = FieldMatrix(np.ones((10, 3), dtype=int), 5)
    idx = C.IndexSet([(i, 0) for i in range(10)])
    with pytest.raises(errors.EnumerationCapError) as exc:
        C.distinct_output_count(k, idx, 5, 10, 3, cap=1000)
    assert exc.value.required == 5 ** 30


def test_count_cap_refusal_of_a_huge_count_is_short():
    # q^(400 * 20) has more digits than str() of an int may print
    q = 2 ** 61 - 1
    k = vandermonde_matrix(400, 20, q)
    idx = C.IndexSet([(i, 0) for i in range(400)])
    with pytest.raises(errors.EnumerationCapError) as exc:
        C.distinct_output_count(k, idx, q, 400, 20)
    assert exc.value.required == q ** 8000
    assert exc.value.cap == C.ENUMERATION_CAP
    assert len(str(exc.value)) < 200 and "assignments" in str(exc.value)


# -- message-length bounds --------------------------------------------------------

def test_cc_lower_bound_symbols():
    assert C.cc_lower_bound_symbols(9, 3) == 2
    assert C.cc_lower_bound_symbols(1, 3) == 0
    assert C.cc_lower_bound_symbols(27, 3) == 3
    assert C.cc_lower_bound_symbols(28, 3) == 4
    with pytest.raises(errors.ConfigurationError):
        C.cc_lower_bound_symbols(0, 3)


@pytest.mark.parametrize("q", [1, 0, -2])
def test_cc_lower_bound_symbols_refuses_alphabet_below_two(q):
    # reach *= q never grows for q < 2, so the loop would never end
    with pytest.raises(errors.ConfigurationError, match="q must be >= 2"):
        C.cc_lower_bound_symbols(5, q)


def test_protocol_single_entry():
    k = FieldMatrix([[1], [1]], 3)
    result = C.direct_compression_protocol(k, k, C.IndexSet([(0, 0)]))
    assert result.strategy == "entries" and result.length == 1


def test_protocol_tie_goes_to_rows():
    q_mat = FieldMatrix(np.arange(8).reshape(4, 2), 17)
    k_mat = FieldMatrix(np.arange(8).reshape(4, 2) + 1, 17)
    idx = C.IndexSet([(r, c) for r in range(4) for c in range(4)])
    result = C.direct_compression_protocol(q_mat, k_mat, idx)
    assert result.strategy == "rows" and result.length == 16


def test_protocol_decoder_correct_on_random_instances():
    rng = np.random.default_rng(42)
    q, n, d = 5, 4, 2
    for _ in range(50):
        q_mat = FieldMatrix(rng.integers(0, q, (n, d)), q)
        k_mat = FieldMatrix(rng.integers(0, q, (n, d)), q)
        pairs = [(int(a), int(b)) for a in range(n) for b in range(n)]
        chosen = rng.choice(len(pairs), size=rng.integers(1, 6), replace=False)
        idx = C.IndexSet([pairs[i] for i in chosen])
        result = C.direct_compression_protocol(q_mat, k_mat, idx)
        product = (q_mat.data @ k_mat.data.T) % q
        for (r, c), value in result.decoded.items():
            assert value == product[r, c]


def test_lower_bound_never_exceeds_protocol():
    rng = np.random.default_rng(7)
    q, n, d = 3, 3, 2
    for _ in range(20):
        k_mat = FieldMatrix(rng.integers(0, q, (n, d)), q)
        q_mat = FieldMatrix(rng.integers(0, q, (n, d)), q)
        pairs = [(int(a), int(b)) for a in range(n) for b in range(n)]
        chosen = rng.choice(len(pairs), size=4, replace=False)
        idx = C.IndexSet([pairs[i] for i in chosen])
        count = C.distinct_output_count(k_mat, idx, q, n, d)
        protocol = C.direct_compression_protocol(q_mat, k_mat, idx)
        assert C.cc_lower_bound_symbols(count, q) <= protocol.length


# -- epoch progress ----------------------------------------------------------------

def test_epoch_progress_bound_values():
    assert C.epoch_progress_bound(25, 5) == 25           # M = d^2 crossover
    assert C.epoch_progress_bound(100, 5) == 400
    for m, d in ((0, 5), (100, 0)):
        with pytest.raises(errors.ConfigurationError, match="M and d must be >= 1"):
            C.epoch_progress_bound(m, d)


def test_max_entries_per_epoch_bucketing():
    epochs = split_into_epochs(8, 4)  # [0, 4) and [4, 8)
    completions = [(2, 3), (4, 1), (7, 2)]  # tick 4 = last event index 3
    assert C.max_entries_per_epoch(completions, epochs) == 4


def test_max_entries_per_epoch_bucketing_edges():
    epochs = split_into_epochs(8, 4)  # [0, 4) and [4, 8)
    # tick 0 and tick 4 (event 3, epoch 0's last) land in epoch 0
    assert C.max_entries_per_epoch([(0, 1), (4, 2)], epochs) == 3
    # tick 5 is event 4, the first of epoch 1
    assert C.max_entries_per_epoch([(4, 2), (5, 4)], epochs) == 4
    # tick 8 is the trace's last event; a later tick clamps to the last epoch
    assert C.max_entries_per_epoch([(5, 4), (8, 8), (9, 16)], epochs) == 28
    assert C.max_entries_per_epoch([(0, 1), (9, 16)], epochs) == 16


def listed_bmax(entry_completions, ticks, m):
    """(B_max, epoch count) by the explicit bucketing: one [start, stop)
    range per epoch, and a bisect of t - 1 into the epochs' stops."""
    epochs = [range(k, min(k + m, ticks)) for k in range(0, ticks, m)] or [range(0, 0)]
    totals = [0] * len(epochs)
    stops = [e.stop for e in epochs]
    for tick, count in entry_completions:
        totals[min(bisect.bisect_right(stops, max(tick - 1, 0)), len(stops) - 1)] += count
    return max(totals), len(epochs)


def test_bucketing_matches_the_explicit_epoch_list_on_kernel_runs():
    runs = 0
    for (kernel, hierarchy), n, d, m in product(
            product((square_tiling_attention, streaming_attention),
                    (MemoryHierarchy, CountHierarchy)),
            (1, 5, 16), (1, 2, 4), (4, 16, 36, 64)):
        if kernel is streaming_attention and not streaming_fits(m, d):
            continue
        res = kernel(hierarchy(m), random_instance(n, d, n + d + m))
        assert (C.max_entries_per_epoch(res.entry_completions, res.epochs),
                len(res.epochs)) == listed_bmax(res.entry_completions, res.io.total, m)
        runs += 1
    assert runs == 120


def test_bucketing_matches_the_explicit_epoch_list_on_random_completions():
    completions = [(0, 1), (1, 2), (5, 4)]
    assert (C.max_entries_per_epoch(completions, split_into_epochs(0, 3)), 1) == \
        listed_bmax(completions, 0, 3) == (7, 1)
    rng = random.Random(5)
    for _ in range(500):
        ticks, m = rng.randrange(40), rng.randrange(1, 10)
        edges = [0, 1, ticks, ticks + 1, ticks + m] + list(range(0, ticks + 2 * m, m))
        completions = [(rng.choice(edges) if rng.random() < 0.5 else rng.randrange(ticks + 2 * m),
                        rng.randrange(1, 5)) for _ in range(rng.randrange(1, 12))]
        epochs = split_into_epochs(ticks, m)
        assert (C.max_entries_per_epoch(completions, epochs),
                len(epochs)) == listed_bmax(completions, ticks, m)


def test_kernel_epoch_consistency():
    # entries first-computed per epoch <= 4 * bound(2M, d) on real runs
    inst = random_instance(16, 4, 7)
    for kernel, m in [(square_tiling_attention, 16),
                      (square_tiling_attention, 64),
                      (streaming_attention, 64),
                      (streaming_attention, 128)]:
        result = kernel(MemoryHierarchy(m), inst)
        bmax = C.max_entries_per_epoch(result.entry_completions, result.epochs)
        assert bmax <= 4 * C.epoch_progress_bound(2 * m, 4)
        total = sum(count for _, count in result.entry_completions)
        assert total == 16 * 16  # every entry completed exactly once
