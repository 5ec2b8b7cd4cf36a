"""How cache size shapes the I/O cost of exact attention.

Runs the two kernels over a range of cache sizes M and shows the two
scaling regimes: the tiled kernel's I/O falls like 1/sqrt(M) while the
streaming kernel's falls like 1/M, and the two meet near M = d^2.
Every number below is an exact word count from the simulator, not an
estimate.
"""

import numpy as np

from attnio import (
    MemoryHierarchy,
    dispatch_attention,
    random_instance,
    reference_attention,
    square_tiling_attention,
    streaming_attention,
)
from attnio.experiments import regime_terms

N, D = 64, 8
inst = random_instance(N, D, seed=0)
reference = reference_attention(inst)

print(f"attention instance: N={N}, d={D}")
print(f"naive materialization would touch ~{N * N + 4 * N * D} words\n")

print("tiled kernel (writes exp(QK^T) to memory in square blocks):")
print(f"{'M':>6} {'reads':>8} {'writes':>8} {'total':>8} {'N^2 d/sqrt(M)':>14}")
for m in (16, 36, 64, 144, 256):
    res = square_tiling_attention(MemoryHierarchy(m), inst)
    err = np.linalg.norm(res.output - reference) / np.linalg.norm(reference)
    assert err < 1e-9
    print(f"{m:>6} {res.io.reads:>8} {res.io.writes:>8} {res.io.total:>8} "
          f"{regime_terms(N, D, m)[0]:>14.0f}")

print("\nstreaming kernel (running-max accumulators, QK^T never stored):")
print(f"{'M':>6} {'reads':>8} {'writes':>8} {'total':>8} {'N^2 d^2/M':>12}")
for m in (64, 128, 256, 512, 1024):
    res = streaming_attention(MemoryHierarchy(m), inst)
    err = np.linalg.norm(res.output - reference) / np.linalg.norm(reference)
    assert err < 1e-9
    print(f"{m:>6} {res.io.reads:>8} {res.io.writes:>8} {res.io.total:>8} "
          f"{regime_terms(N, D, m)[1]:>12.0f}")

print(f"\ncrossover: at M = d^2 = {D * D} both formulas equal N^2 = {N * N}")
tiled = square_tiling_attention(MemoryHierarchy(D * D), inst).io.total
streamed = streaming_attention(MemoryHierarchy(D * D), inst).io.total
print(f"measured there: tiled = {tiled}, streaming = {streamed}, "
      f"ratio = {max(tiled, streamed) / min(tiled, streamed):.2f}")

picked = dispatch_attention(MemoryHierarchy(D * D), inst)
print(f"dispatcher picks: {picked.algorithm} (ties go to streaming)")
