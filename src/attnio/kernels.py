"""Attention kernels executed against the memory-hierarchy simulator.

Two exact kernels cover the two cache regimes:

* ``square_tiling_attention`` - small cache.  Materializes exp(Q K^T)
  to memory in square blocks of side B = floor(sqrt(M/4)), then forms
  the normalized product in a second blocked pass.  I/O is
  O(N^2 d / sqrt(M) + N^2).

* ``streaming_attention`` - large cache.  Keeps a block of Q rows
  resident and streams K and V rows once per block, maintaining
  running-max-stabilized accumulators; exp(Q K^T) is never
  materialized.  I/O is O(N^2 d^2 / M + N d).

``dispatch_attention`` selects between them at the M = d^2 crossover.
``reference_attention`` is the plain-memory oracle both are tested
against.  Every kernel needs a fresh hierarchy - one that has moved no
word and holds no memory or cache - and raises ``ConfigurationError``
otherwise, so one hierarchy's counts always belong to exactly one run.
Each kernel loads its inputs and reserves its outputs (``A``, ``dvec``,
``QKT``, ``O``) as named arrays, and moves ``Block``s of them.
Kernels read the hierarchy's read and write counters, never its trace:
completion ticks and the epoch split both come from ``reads + writes``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, RegimeError
from .matrices import AttentionInstance
from .memory import Block, IoStats, MemoryHierarchy, split_into_epochs


@dataclass(frozen=True)
class KernelResult:
    """Output plus exact I/O accounting for one kernel run.

    ``entry_completions`` logs, for each group of Q K^T entries, the
    number of words moved when their summations finished, as
    (tick, count) pairs.  Epoch-progress checks bucket these by the
    epochs, the ``range`` of epoch starts.  Ranges compare by element:
    9 and 10 ticks at M = 4 give equal epochs, so compare ``io`` too.
    ``overflow`` is set if the arithmetic stored a NaN or +inf in the
    cache or if the output holds any non-finite value, -inf included.
    """

    output: np.ndarray
    io: IoStats
    epochs: range
    algorithm: str
    entry_completions: list[tuple[int, int]]
    overflow: bool


def reference_attention(inst: AttentionInstance) -> np.ndarray:
    """Oracle: D^{-1} exp(Q K^T) V with D the diagonal of row sums.

    Computed in plain memory with no I/O accounting.  Uses the row-max
    shift (exact by softmax shift invariance) so it stays finite for
    any input magnitude.
    """
    scores = inst.Q @ inst.K.T
    shifted = np.exp(scores - scores.max(axis=1, keepdims=True))
    return (shifted @ inst.V) / shifted.sum(axis=1, keepdims=True)


def _kernel(run):
    """Give a kernel a fresh-hierarchy check and one numpy error state.

    Overflow, invalid values and division by zero (the reciprocal of a
    row sum whose every exp underflowed) are silenced once per run
    rather than per ``compute``; ``MemoryHierarchy.overflow`` still
    records the NaN or +inf they leave.
    """
    def kernel(h: MemoryHierarchy, *args, **kwargs) -> KernelResult:
        if h.reads or h.writes or h.memory or h.words_used:
            raise ConfigurationError(
                "kernels need a fresh MemoryHierarchy (no word moved, empty memory and cache)"
            )
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return run(h, *args, **kwargs)
    functools.update_wrapper(kernel, run)
    # ``__wrapped__`` marks the bench tracer's wrappers; a kernel is not one.
    del kernel.__wrapped__
    return kernel


def _finish(h: MemoryHierarchy, output, algorithm, completions) -> KernelResult:
    return KernelResult(
        output=output,
        io=h.io,
        epochs=split_into_epochs(h.reads + h.writes, h.capacity),
        algorithm=algorithm,
        entry_completions=completions,
        # The cache flag leaves out -inf, the running max's identity; a
        # -inf that reaches the output is an overflow all the same.
        overflow=h.overflow or not np.isfinite(output).all(),
    )


@_kernel
def square_tiling_attention(
    h: MemoryHierarchy,
    inst: AttentionInstance,
    write_qkt: bool = False,
) -> KernelResult:
    """Two-phase square-tiled attention with block side B = floor(sqrt(M/4)).

    Phase 1 writes every B x B block of A = exp(Q K^T) and the row-sum
    vector to memory; Phase 2 reads them back and accumulates
    D^{-1} A V block by block.  Boundary blocks are clipped.  exp is
    applied to the raw scores, so callers bound input magnitude; a
    score that overflows sets the result's ``overflow``.

    ``write_qkt`` additionally writes each raw Q K^T entry to memory
    when it is computed (N^2 extra writes); this is the matmul
    reduction hook.
    """
    n, d = inst.N, inst.d
    b = math.isqrt(h.capacity // 4)

    h.load("Q", inst.Q)
    h.load("KT", inst.K.T)
    h.load("V", inst.V)
    h.reserve("A", (n, n))
    h.reserve("dvec", (n,))
    h.reserve("O", (n, d))
    if write_qkt:
        h.reserve("QKT", (n, n))
    read_block, write_block = h.read_block, h.write_block
    compute, alloc, free = h.compute, h.alloc, h.free
    rows = [range(i, min(i + b, n)) for i in range(0, n, b)]
    cols = [range(l, min(l + b, d)) for l in range(0, d, b)]
    # Every block built once per run, so each has one checked view:
    # Q[i][l] and KT[j][l] feed the l-loop, A[i][k] and V[j][k] Phase 2,
    # and dvec[i] is written in Phase 1 and read back in Phase 2.
    q_blocks = [[Block("Q", ri, rl) for rl in cols] for ri in rows]
    kt_blocks = [[Block("KT", rl, rj) for rl in cols] for rj in rows]
    a_blocks = [[Block("A", ri, rk) for rk in rows] for ri in rows]
    v_blocks = [[Block("V", rk, cj) for rk in rows] for cj in cols]
    o_blocks = [[Block("O", ri, cj) for cj in cols] for ri in rows]
    qkt_blocks = [[Block("QKT", ri, rj) for rj in rows] for ri in rows] if write_qkt else None
    dvec_blocks = [Block("dvec", ri) for ri in rows]
    completions: list[tuple[int, int]] = []

    # Phase 1: compute and store A = exp(Q K^T) and row sums.
    for i, ri in enumerate(rows):
        dvec = alloc((len(ri),))
        for j, rj in enumerate(rows):
            # The raw Q K^T block, summed over the l-loop.
            a = alloc((len(ri), len(rj)))
            for qblk, kblk in zip(q_blocks[i], kt_blocks[j]):
                qb = read_block(qblk, qblk.shape)
                kb = read_block(kblk, kblk.shape)
                compute("addmm", a, qb, kb, out=a)
                free(qb, kb)
            completions.append((h.reads + h.writes, len(ri) * len(rj)))
            if write_qkt:
                write_block(a, qkt_blocks[i][j])
            compute("exp", a, out=a)
            write_block(a, a_blocks[i][j])
            compute("add_rowsum", dvec, a, out=dvec)
            free(a)
        write_block(dvec, dvec_blocks[i])
        free(dvec)

    # Phase 2: O block = sum_k diag(d)^{-1} A[i,k] V[k,j].
    for i, ri in enumerate(rows):
        dvec = read_block(dvec_blocks[i], (len(ri),))
        compute("inv", dvec, out=dvec)
        for cj, v_row, oblk in zip(cols, v_blocks, o_blocks[i]):
            o = alloc((len(ri), len(cj)))
            for ablk, vblk in zip(a_blocks[i], v_row):
                ab = read_block(ablk, ablk.shape)
                vb = read_block(vblk, vblk.shape)
                compute("scaled_addmm", o, dvec, ab, vb, out=o)
                free(ab, vb)
            write_block(o, oblk)
            free(o)
        free(dvec)

    return _finish(h, h.fetch_matrix("O", (n, d)), "tiling", completions)


def streaming_block_rows(m: int, n: int, d: int) -> int:
    """Resident Q-row count for the streaming kernel.

    Starts from floor(M / 4d) and shrinks until the exact peak cache
    usage - two R x d blocks, up to five length-R vectors, and one
    streamed K-or-V row - fits in M words.
    """
    r = min(m // (4 * d), n)
    while r > 1 and 2 * r * d + max(5 * r, 3 * r + d) > m:
        r -= 1
    return max(r, 1)


def streaming_fits(m: int, d: int) -> bool:
    """Whether the streaming kernel's row budget M >= 8d holds."""
    return m >= 8 * d


def picks_streaming(m: int, d: int) -> bool:
    """The dispatcher's choice: streaming iff M >= d^2 (ties to
    streaming) and the streaming row budget holds."""
    return m >= d * d and streaming_fits(m, d)


@_kernel
def streaming_attention(h: MemoryHierarchy, inst: AttentionInstance) -> KernelResult:
    """One-pass attention with running-max renormalized accumulators.

    Q K^T is never materialized: per resident block of Q rows, each K
    row and V row is read exactly once and folded into the output and
    row-sum accumulators.
    """
    n, d = inst.N, inst.d
    m = h.capacity
    if not streaming_fits(m, d):
        raise RegimeError(
            f"streaming needs M >= 8d, got M={m} with d={d}; use square_tiling_attention"
        )
    r_max = streaming_block_rows(m, n, d)

    h.load("Q", inst.Q)
    h.load("K", inst.K)
    h.load("V", inst.V)
    h.reserve("O", (n, d))
    read_block, write_block = h.read_block, h.write_block
    compute, alloc, free = h.compute, h.alloc, h.free
    cols = range(d)
    row_shape = (d,)
    # Each K and V row is read once per row block: build its block once.
    kv_rows = [(Block("K", range(j, j + 1), cols), Block("V", range(j, j + 1), cols))
               for j in range(n)]
    completions: list[tuple[int, int]] = []

    for i0 in range(0, n, r_max):
        rows = range(i0, min(i0 + r_max, n))
        r = len(rows)
        q = read_block(Block("Q", rows, cols), (r, d))
        o = alloc((r, d))
        lsum = alloc((r,))
        mrun = alloc((r,), fill=-math.inf)
        for kblk, vblk in kv_rows:
            krow = read_block(kblk, row_shape)
            s = compute("matmul", q, krow)
            free(krow)
            mnew = compute("maximum", mrun, s)
            alpha = compute("exp_sub", mrun, mnew)
            free(mrun)
            mrun = mnew
            # s becomes p = exp(s - m) in place
            compute("exp_sub", s, mrun, out=s)
            compute("mul_add", lsum, alpha, s, out=lsum)
            compute("rowscale", o, alpha, out=o)
            free(alpha)
            vrow = read_block(vblk, row_shape)
            compute("add_outer", o, s, vrow, out=o)
            free(vrow, s)
            completions.append((h.reads + h.writes, r))
        compute("inv", lsum, out=lsum)
        compute("rowscale", o, lsum, out=o)
        write_block(o, Block("O", rows, cols))
        free(q, o, lsum, mrun)

    return _finish(h, h.fetch_matrix("O", (n, d)), "streaming", completions)


def dispatch_attention(h: MemoryHierarchy, inst: AttentionInstance) -> KernelResult:
    """Pick the regime-appropriate kernel by ``picks_streaming`` and run
    it with its defaults."""
    if picks_streaming(h.capacity, inst.d):
        return streaming_attention(h, inst)
    return square_tiling_attention(h, inst)


def matmul_via_attention(h: MemoryHierarchy, Q, K) -> np.ndarray:
    """Compute Q K^T by running the tiled attention kernel instrumented
    to write each raw Q K^T entry to memory when first computed.

    V is a dummy all-ones matrix whose output is discarded; the added
    I/O is at most N^2 writes over the plain kernel.
    """
    Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
    inst = AttentionInstance(Q, K, np.ones_like(Q))
    square_tiling_attention(h, inst, write_qkt=True)
    return h.fetch_matrix("QKT", (inst.N, inst.N))
