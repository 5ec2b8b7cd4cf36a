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
against.  Every kernel needs a fresh hierarchy - empty trace, memory
and cache - and raises ``ConfigurationError`` otherwise, so one
hierarchy's counts always belong to exactly one run.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ConfigurationError, RegimeError
from .matrices import AttentionInstance, block_extent, num_blocks
from .memory import Epoch, IoStats, MemoryHierarchy, split_into_epochs


@dataclass(frozen=True)
class KernelResult:
    """Output plus exact I/O accounting for one kernel run.

    ``entry_completions`` logs, for each group of Q K^T entries, the
    trace length at the moment their summations finished, as
    (tick, count) pairs.  Epoch-progress checks bucket these by epoch.
    """

    output: np.ndarray
    io: IoStats
    epochs: list[Epoch]
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


def _addrs(name, *extents):
    """Addresses (name, i, ...) of a block, row-major over the extents.

    Kernels build each block's tuple once per run, so a block moved
    many times reuses one address tuple.
    """
    # tuple() of a list allocates once; tuple() of an iterator grows by
    # reallocation, which raised peak RSS on the stream benchmark.
    return tuple(list(product((name,), *extents)))


def _kernel(run):
    """Give a kernel a fresh-hierarchy check and one numpy error state.

    Overflow, invalid values and division by zero (the reciprocal of a
    row sum whose every exp underflowed) are silenced once per run
    rather than per ``compute``; ``MemoryHierarchy.overflow`` still
    records the NaN or +inf they leave.
    """
    def kernel(h: MemoryHierarchy, *args, **kwargs) -> KernelResult:
        if h.trace or h.memory or h.words_used:
            raise ConfigurationError(
                "kernels need a fresh MemoryHierarchy (empty trace, memory and cache)"
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
        io=IoStats(h.reads, h.writes),
        epochs=split_into_epochs(h.trace, h.capacity),
        algorithm=algorithm,
        entry_completions=completions,
        overflow=h.overflow,
    )


@_kernel
def square_tiling_attention(
    h: MemoryHierarchy,
    inst: AttentionInstance,
    stabilize: bool = False,
    write_qkt: bool = False,
) -> KernelResult:
    """Two-phase square-tiled attention with block side B = floor(sqrt(M/4)).

    Phase 1 writes every B x B block of A = exp(Q K^T) and the row-sum
    vector to memory; Phase 2 reads them back and accumulates
    D^{-1} A V block by block.  Boundary blocks are clipped.

    ``stabilize`` adds a row-max pre-pass with the same I/O order (the
    default path applies exp directly, so callers bound input
    magnitude).  ``write_qkt`` additionally writes each raw Q K^T entry
    to memory when it is first computed (at most N^2 extra writes);
    this is the matmul reduction hook.
    """
    n, d = inst.N, inst.d
    m = h.capacity
    b = math.isqrt(m // 4)
    nb, db = num_blocks(n, b), num_blocks(d, b)
    if stabilize and 3 * b * b + 2 * b > m:
        raise RegimeError("stabilized pre-pass needs M >= 3B^2 + 2B")

    h.load("Q", inst.Q)
    h.load("KT", inst.K.T)
    h.load("V", inst.V)
    read_block, write_block = h.read_block, h.write_block
    compute, alloc, free = h.compute, h.alloc, h.free
    addrs = functools.cache(_addrs)
    rows = [block_extent(n, b, i) for i in range(nb)]
    cols = [block_extent(d, b, l) for l in range(db)]
    # (addresses, shape) of every block moved more than once, built once:
    # Q[i][l] and KT[j][l] feed the l-loop, A[i][k] and V[j][k] Phase 2.
    q_blocks = [[(addrs("Q", ri, rl), (len(ri), len(rl))) for rl in cols] for ri in rows]
    kt_blocks = [[(addrs("KT", rl, rj), (len(rl), len(rj))) for rl in cols] for rj in rows]
    a_blocks = [[(addrs("A", ri, rk), (len(ri), len(rk))) for rk in rows] for ri in rows]
    v_blocks = [[(addrs("V", rk, cj), (len(rk), len(cj))) for rk in rows] for cj in cols]
    completions: list[tuple[int, int]] = []

    def score_block(i, j):
        """Raw (pre-exp) Q K^T block summed over the l-loop."""
        a = alloc((len(rows[i]), len(rows[j])))
        for (qa, qs), (ka, ks) in zip(q_blocks[i], kt_blocks[j]):
            qb = read_block(qa, qs)
            kb = read_block(ka, ks)
            compute("addmm", a, qb, kb, out=a)
            free(qb)
            free(kb)
        return a

    def complete(a, ri, rj):
        """Log the block's finished entries (and write them if asked).
        Called once per block, on its first computation."""
        # reads + writes is the trace length, without a method call.
        completions.append((h.reads + h.writes, len(ri) * len(rj)))
        if write_qkt:
            write_block(a, addrs("QKT", ri, rj))

    if stabilize:
        # Pre-pass: per row block, the running max over all score blocks.
        for i, ri in enumerate(rows):
            mrow = alloc((len(ri),), fill=-math.inf)
            for j, rj in enumerate(rows):
                a = score_block(i, j)
                complete(a, ri, rj)
                t = compute("rowmax", a)
                compute("maximum", mrow, t, out=mrow)
                free(t)
                free(a)
            write_block(mrow, addrs("rmax", ri))
            free(mrow)

    # Phase 1: compute and store A = exp(Q K^T [- rowmax]) and row sums.
    for i, ri in enumerate(rows):
        dvec = alloc((len(ri),))
        mrow = None
        if stabilize:
            mrow = read_block(addrs("rmax", ri), (len(ri),))
        for j, rj in enumerate(rows):
            a = score_block(i, j)
            if stabilize:
                compute("subrow", a, mrow, out=a)
            else:
                complete(a, ri, rj)
            compute("exp", a, out=a)
            write_block(a, a_blocks[i][j][0])
            t = compute("rowsum", a)
            compute("add", dvec, t, out=dvec)
            free(t)
            free(a)
        write_block(dvec, addrs("dvec", ri))
        free(dvec)
        if mrow is not None:
            free(mrow)

    # Phase 2: O block = sum_k diag(d)^{-1} A[i,k] V[k,j].
    for i, ri in enumerate(rows):
        dvec = read_block(addrs("dvec", ri), (len(ri),))
        compute("inv", dvec, out=dvec)
        for cj, v_row in zip(cols, v_blocks):
            o = alloc((len(ri), len(cj)))
            for (aa, as_), (va, vs) in zip(a_blocks[i], v_row):
                ab = read_block(aa, as_)
                vb = read_block(va, vs)
                compute("scaled_addmm", o, dvec, ab, vb, out=o)
                free(ab)
                free(vb)
            write_block(o, addrs("O", ri, cj))
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
    read_block, write_block = h.read_block, h.write_block
    compute, alloc, free = h.compute, h.alloc, h.free
    cols = range(d)
    row_shape = (d,)
    # Each K and V row is read once per row block: build its addresses once.
    kv_rows = [(_addrs("K", (j,), cols), _addrs("V", (j,), cols)) for j in range(n)]
    completions: list[tuple[int, int]] = []

    for i0 in range(0, n, r_max):
        rows = range(i0, min(i0 + r_max, n))
        r = len(rows)
        q = read_block(_addrs("Q", rows, cols), (r, d))
        o = alloc((r, d))
        lsum = alloc((r,))
        mrun = alloc((r,), fill=-math.inf)
        for k_addrs, v_addrs in kv_rows:
            krow = read_block(k_addrs, row_shape)
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
            vrow = read_block(v_addrs, row_shape)
            compute("add_outer", o, s, vrow, out=o)
            free(vrow)
            free(s)
            # reads + writes is the trace length, without a method call.
            completions.append((h.reads + h.writes, r))
        compute("inv", lsum, out=lsum)
        compute("rowscale", o, lsum, out=o)
        write_block(o, _addrs("O", rows, cols))
        for slot in (q, o, lsum, mrun):
            free(slot)

    return _finish(h, h.fetch_matrix("O", (n, d)), "streaming", completions)


def dispatch_attention(h: MemoryHierarchy, inst: AttentionInstance, **kw) -> KernelResult:
    """Pick the regime-appropriate kernel by ``picks_streaming``."""
    if picks_streaming(h.capacity, inst.d):
        return streaming_attention(h, inst)
    return square_tiling_attention(h, inst, **kw)


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
