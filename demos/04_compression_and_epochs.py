"""Counting distinct outputs: why caches can't compress score matrices.

If a small cache could summarize many Q K^T entries in few words, fast
attention would be easy.  This demo plays the one-way game at sizes
where the full input space can be enumerated: count how many distinct
answer tuples a fixed index set can take, convert the count to a
minimum message length, and compare with explicit protocols.  The last
section checks the per-epoch entry budget on real instrumented runs.
"""

from attnio import compression as C
from attnio.fields import FieldMatrix, vandermonde_matrix
from attnio.kernels import square_tiling_attention, streaming_attention
from attnio.matrices import random_instance
from attnio.memory import MemoryHierarchy

# tiny exact instance: q=3, N=2, d=1, both K entries = 1
k = FieldMatrix([[1], [1]], 3)
idx = C.IndexSet([(0, 0), (1, 0)])
count = C.distinct_output_count(k, idx, 3, 2, 1)
print(f"K = [1; 1] over F_3, asking for one column of QK^T:")
print(f"  distinct output tuples over all Q: {count} (= 3^2)")
print(f"  so any one-way protocol needs >= "
      f"{C.cc_lower_bound_symbols(count, 3)} field symbols\n")

# Vandermonde K makes every requested row contribute independently
v = vandermonde_matrix(3, 2, 3)
idx = C.IndexSet([(0, 0), (1, 1), (2, 2)])
count = C.distinct_output_count(v, idx, 3, 3, 2)
print(f"Vandermonde K over F_3 (N=3, d=2), one entry per row:")
print(f"  distinct outputs: {count} >= 3^3 = 27, "
      f"lower bound {C.cc_lower_bound_symbols(count, 3)} symbols")

q_mat = FieldMatrix([[1, 2], [0, 1], [2, 2]], 3)
protocol = C.direct_compression_protocol(q_mat, v, idx)
print(f"  explicit protocol: send {protocol.strategy}, "
      f"{protocol.length} symbols (lower bound holds)\n")

# the epoch-progress budget on instrumented kernel runs
print("entries completed per epoch vs the closed-form cap:")
inst = random_instance(32, 4, seed=1)
for kernel, m in [(square_tiling_attention, 16),
                  (streaming_attention, 64),
                  (streaming_attention, 256)]:
    res = kernel(MemoryHierarchy(m), inst)
    bmax = C.max_entries_per_epoch(res.entry_completions, res.epochs)
    cap = 4 * C.epoch_progress_bound(2 * m, 4)
    print(f"  {res.algorithm:>9} M={m:>4}: {len(res.epochs)} epochs, "
          f"B_max = {bmax} <= {cap}")
