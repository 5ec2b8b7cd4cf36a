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

    Kernels wrap this in a per-run ``functools.cache`` so a block read
    many times reuses one address tuple.
    """
    # tuple() of a list allocates once; tuple() of an iterator grows by
    # reallocation, which raised peak RSS on the stream benchmark.
    return tuple(list(product((name,), *extents)))


def _kernel(run):
    """Give a kernel a fresh-hierarchy check and one numpy error state.

    Overflow and invalid values are silenced once per run rather than
    per ``compute``; ``MemoryHierarchy.overflow`` still records them.
    """
    def kernel(h: MemoryHierarchy, *args, **kwargs) -> KernelResult:
        if h.trace or h.memory or h.words_used:
            raise ConfigurationError(
                "kernels need a fresh MemoryHierarchy (empty trace, memory and cache)"
            )
        with np.errstate(over="ignore", invalid="ignore"):
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
    addrs = functools.cache(_addrs)
    completions: list[tuple[int, int]] = []

    def score_block(ri, rj):
        """Raw (pre-exp) Q K^T block summed over the l-loop."""
        a = h.alloc((len(ri), len(rj)))
        for l in range(db):
            rl = block_extent(d, b, l)
            qb = h.read_block(addrs("Q", ri, rl), (len(ri), len(rl)))
            kb = h.read_block(addrs("KT", rl, rj), (len(rl), len(rj)))
            h.compute("addmm", a, qb, kb, out=a)
            h.free(qb)
            h.free(kb)
        return a

    def complete(a, ri, rj):
        """Log the block's finished entries (and write them if asked).
        Called once per block, on its first computation."""
        completions.append((len(h.trace), len(ri) * len(rj)))
        if write_qkt:
            h.write_block(a, addrs("QKT", ri, rj))

    if stabilize:
        # Pre-pass: per row block, the running max over all score blocks.
        for i in range(nb):
            ri = block_extent(n, b, i)
            mrow = h.alloc((len(ri),), fill=-math.inf)
            for j in range(nb):
                rj = block_extent(n, b, j)
                a = score_block(ri, rj)
                complete(a, ri, rj)
                t = h.compute("rowmax", a)
                h.compute("maximum", mrow, t, out=mrow)
                h.free(t)
                h.free(a)
            h.write_block(mrow, addrs("rmax", ri))
            h.free(mrow)

    # Phase 1: compute and store A = exp(Q K^T [- rowmax]) and row sums.
    for i in range(nb):
        ri = block_extent(n, b, i)
        dvec = h.alloc((len(ri),))
        mrow = None
        if stabilize:
            mrow = h.read_block(addrs("rmax", ri), (len(ri),))
        for j in range(nb):
            rj = block_extent(n, b, j)
            a = score_block(ri, rj)
            if stabilize:
                h.compute("subrow", a, mrow, out=a)
            else:
                complete(a, ri, rj)
            h.compute("exp", a, out=a)
            h.write_block(a, addrs("A", ri, rj))
            t = h.compute("rowsum", a)
            h.compute("add", dvec, t, out=dvec)
            h.free(t)
            h.free(a)
        h.write_block(dvec, addrs("dvec", ri))
        h.free(dvec)
        if mrow is not None:
            h.free(mrow)

    # Phase 2: O block = sum_k diag(d)^{-1} A[i,k] V[k,j].
    for i in range(nb):
        ri = block_extent(n, b, i)
        dvec = h.read_block(addrs("dvec", ri), (len(ri),))
        h.compute("inv", dvec, out=dvec)
        for j in range(db):
            cj = block_extent(d, b, j)
            o = h.alloc((len(ri), len(cj)))
            for k in range(nb):
                rk = block_extent(n, b, k)
                ab = h.read_block(addrs("A", ri, rk), (len(ri), len(rk)))
                vb = h.read_block(addrs("V", rk, cj), (len(rk), len(cj)))
                h.compute("scaled_addmm", o, dvec, ab, vb, out=o)
                h.free(ab)
                h.free(vb)
            h.write_block(o, addrs("O", ri, cj))
            h.free(o)
        h.free(dvec)

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
    addrs = functools.cache(_addrs)
    cols = range(d)
    completions: list[tuple[int, int]] = []

    for i0 in range(0, n, r_max):
        rows = range(i0, min(i0 + r_max, n))
        r = len(rows)
        q = h.read_block(addrs("Q", rows, cols), (r, d))
        o = h.alloc((r, d))
        lsum = h.alloc((r,))
        mrun = h.alloc((r,), fill=-math.inf)
        for j in range(n):
            krow = h.read_block(addrs("K", (j,), cols), (d,))
            s = h.compute("matmul", q, krow)
            h.free(krow)
            mnew = h.compute("maximum", mrun, s)
            alpha = h.compute("sub", mrun, mnew)
            h.compute("exp", alpha, out=alpha)
            h.free(mrun)
            mrun = mnew
            # s becomes p = exp(s - m) in place
            h.compute("sub", s, mrun, out=s)
            h.compute("exp", s, out=s)
            h.compute("mul", lsum, alpha, out=lsum)
            h.compute("add", lsum, s, out=lsum)
            h.compute("rowscale", o, alpha, out=o)
            h.free(alpha)
            vrow = h.read_block(addrs("V", (j,), cols), (d,))
            h.compute("add_outer", o, s, vrow, out=o)
            h.free(vrow)
            h.free(s)
            completions.append((len(h.trace), r))
        h.compute("inv", lsum, out=lsum)
        h.compute("rowscale", o, lsum, out=o)
        h.write_block(o, addrs("O", rows, cols))
        for slot in (q, o, lsum, mrun):
            h.free(slot)

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
