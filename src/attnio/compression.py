"""Matrix-entry compression: counting oracle, protocols, and epoch bounds.

The one-way game: an encoder sees (Q, K) over F_q and sends a message;
a decoder must reproduce the Q K^T entries at a fixed index set I.  Any
protocol needs at least ceil(log_q(#distinct output tuples)) symbols,
so exhaustively counting the distinct outputs at tiny sizes gives exact
lower bounds to compare against explicit protocols.

``epoch_progress_bound`` is the closed-form cap on how many Q K^T
entries any single epoch of a cache-size-M execution can complete, in
its large-field form max(ceil(M^2/d^2), M) (the paper's binary variant
is not modelled), which ``max_entries_per_epoch`` measures on
instrumented kernel runs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import ConfigurationError, check_enumeration
from .fields import FieldMatrix

ENUMERATION_CAP = 10 ** 7


@dataclass(frozen=True)
class IndexSet:
    """A set of (row, col) positions in [0, N) x [0, N) (0-based)."""

    pairs: frozenset

    def __init__(self, pairs):
        object.__setattr__(self, "pairs", frozenset((int(r), int(c)) for r, c in pairs))

    def __len__(self):
        return len(self.pairs)

    @property
    def rows(self) -> frozenset:
        """R_I: the distinct row indices."""
        return frozenset(r for r, _ in self.pairs)

    @property
    def cols(self) -> frozenset:
        """C_I: the distinct column indices."""
        return frozenset(c for _, c in self.pairs)

    def sorted_pairs(self) -> list[tuple[int, int]]:
        return sorted(self.pairs)


def distinct_output_count(k: FieldMatrix, index_set: IndexSet, q: int,
                          n: int, d: int, cap: int = ENUMERATION_CAP) -> int:
    """Exact number of distinct ((Q K^T)[i,j])_{(i,j) in I} tuples.

    Q ranges over all N x d matrices over F_q.  Only the index set's
    rows R_I reach an output, so just those rows are enumerated; the
    count is the same as over every row.  ``cap`` bounds the assignments
    enumerated, q^(|R_I| * d).
    """
    if k.q != q:
        raise ConfigurationError(f"K is over F_{k.q}, expected F_{q}")
    if k.rows != n or k.cols != d:
        raise ConfigurationError(f"K must be {n} x {d}, got {k.rows} x {k.cols}")
    pairs = index_set.sorted_pairs()
    outside = [p for p in pairs if not (0 <= min(p) and max(p) < n)]
    if outside:
        raise ConfigurationError(f"index pair {outside[0]} outside [0, {n}) x [0, {n})")
    free_rows = sorted(index_set.rows)
    if not pairs:
        return 1
    check_enumeration(q ** (len(free_rows) * d), cap, "assignments")
    kt = k.data.T.tolist()  # d x N, Python ints
    seen = set()
    row_pos = {r: t for t, r in enumerate(free_rows)}
    for assignment in itertools.product(range(q), repeat=len(free_rows) * d):
        outputs = []
        for r, c in pairs:
            t = row_pos[r]
            qrow = assignment[t * d:(t + 1) * d]
            outputs.append(sum(qrow[l] * kt[l][c] for l in range(d)) % q)
        seen.add(tuple(outputs))
    return len(seen)


def cc_lower_bound_symbols(count: int, q: int) -> int:
    """ceil(log_q count): minimum one-way message length in field symbols."""
    if count < 1:
        raise ConfigurationError("count must be >= 1")
    if q < 2:
        raise ConfigurationError(f"alphabet size q must be >= 2, got {q}")
    symbols, reach = 0, 1
    while reach < count:
        reach *= q
        symbols += 1
    return symbols


@dataclass(frozen=True)
class ProtocolResult:
    strategy: str          # "entries" or "rows"
    message: tuple         # field symbols
    length: int
    decoded: dict          # (row, col) -> value


def direct_compression_protocol(q_mat: FieldMatrix, k_mat: FieldMatrix,
                                index_set: IndexSet) -> ProtocolResult:
    """The cheaper of two explicit protocols, decoder included.

    (a) send the |I| requested entry values directly;
    (b) send the Q rows indexed by R_I and the K rows indexed by C_I,
        d(|R_I| + |C_I|) symbols, and let the decoder multiply.
    Ties go to (b).
    """
    if q_mat.q != k_mat.q:
        raise ConfigurationError("Q and K over different fields")
    q = q_mat.q
    d = q_mat.cols
    pairs = index_set.sorted_pairs()
    rows, cols = sorted(index_set.rows), sorted(index_set.cols)
    len_a = len(pairs)
    len_b = d * (len(rows) + len(cols))

    product = q_mat.matmul(k_mat.transpose()).data
    if len_a < len_b:
        message = tuple(int(product[r, c]) for r, c in pairs)
        decoded = {(r, c): m for (r, c), m in zip(pairs, message)}
        return ProtocolResult("entries", message, len_a, decoded)

    message = tuple(int(x) for r in rows for x in q_mat.data[r]) + \
              tuple(int(x) for c in cols for x in k_mat.data[c])
    qrows = {r: message[i * d:(i + 1) * d] for i, r in enumerate(rows)}
    off = len(rows) * d
    krows = {c: message[off + i * d:off + (i + 1) * d] for i, c in enumerate(cols)}
    decoded = {(r, c): sum(a * b for a, b in zip(qrows[r], krows[c])) % q for r, c in pairs}
    return ProtocolResult("rows", message, len_b, decoded)


def epoch_progress_bound(m: int, d: int) -> int:
    """Closed-form cap (constant 1 per term) on Q K^T entries completed
    per epoch by a cache-size-M execution: max(ceil(M^2/d^2), M)."""
    if m < 1 or d < 1:
        raise ConfigurationError("M and d must be >= 1")
    return max(math.ceil(m * m / (d * d)), m)


def max_entries_per_epoch(entry_completions, epochs) -> int:
    """B_max: the largest number of Q K^T entries whose summations
    completed within a single epoch of the given trace split.

    ``entry_completions`` holds (tick, count) pairs from an instrumented
    kernel, ``epochs`` the range of epoch starts of ``split_into_epochs``.
    A completion at tick t lands in the epoch holding tick t - 1, i.e. the
    epoch of the last contributing event; later ticks go to the last epoch.
    """
    totals = [0] * len(epochs)
    step, last = epochs.step, len(epochs) - 1
    for tick, count in entry_completions:
        k = (tick - 1) // step
        if not 0 <= k <= last:
            k = 0 if k < 0 else last
        totals[k] += count
    return max(totals)
