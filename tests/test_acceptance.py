"""Acceptance gate: twelve checks covering the whole package.

Each test prints a single CRITERION line so a log scrape shows the
per-criterion outcome.  Numeric thresholds come from the package's
bound_config.json; structural constants are asserted inline.
"""

import itertools
import time

import numpy as np
import pytest

from attnio import compression as C
from attnio import experiments as E
from attnio import fields as F
from attnio import pebbling as P
from attnio.fields import FieldMatrix, vandermonde_matrix
from attnio.kernels import (
    dispatch_attention,
    reference_attention,
    square_tiling_attention,
    streaming_attention,
)
from attnio.matrices import random_instance
from attnio.memory import MemoryHierarchy

CFG = E.load_bound_config()


def report(number, name, ok):
    print(f"CRITERION {number:2d} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok


def run_kernel(kernel, n, d, m, seed):
    return kernel(MemoryHierarchy(m), random_instance(n, d, seed))


def fit_slope(kernel, n, d, m_grid, seed=0):
    ios = [run_kernel(kernel, n, d, m, seed).io.total for m in m_grid]
    slope, _ = np.polyfit(np.log(m_grid), np.log(ios), 1)
    return slope, ios


def test_criterion_01_oracle_equivalence():
    """100 seeded instances: both kernels match the reference within
    1e-9 relative Frobenius error, in under two minutes."""
    start = time.monotonic()
    tol = CFG["oracle_rel_tolerance"]
    grid = list(itertools.product((4, 8, 16, 32, 64), (2, 4, 8, 16)))
    count = 0
    ok = True
    for n, d in grid:
        for rep in range(5):
            count += 1
            inst = random_instance(n, d, (n, d, rep))
            expected = reference_attention(inst)
            scale = np.linalg.norm(expected)
            tiled = square_tiling_attention(MemoryHierarchy(d * d), inst)
            ok &= np.linalg.norm(tiled.output - expected) / scale <= tol
            streamed = streaming_attention(
                MemoryHierarchy(max(d * d, 8 * d)), inst)
            ok &= np.linalg.norm(streamed.output - expected) / scale <= tol
    elapsed = time.monotonic() - start
    ok &= count == 100 and elapsed < 120
    report(1, "oracle equivalence", ok)


def test_criterion_02_tiling_scaling():
    """Tiling at N=64, d=16: slope in the configured window and
    absolute I/O <= 16 N^2 d / sqrt(M) at every point (the small-cache
    regime term alone, stricter than tiling's upper bound)."""
    n, d = 64, 16
    m_grid = (16, 36, 64, 144, 256)
    slope, ios = fit_slope(square_tiling_attention, n, d, m_grid)
    lo, hi = CFG["tiling_slope_window"]
    ok = lo <= slope <= hi
    for m, io in zip(m_grid, ios):
        ok &= io <= CFG["upper_constant"] * E.regime_terms(n, d, m)[0]
    report(2, "tiling scaling", ok)


def test_criterion_03_streaming_scaling():
    """Streaming at N=64, d=4: slope in the configured window and
    absolute I/O <= 16 N^2 d^2 / M + 16 N d at every point."""
    n, d = 64, 4
    m_grid = (32, 64, 128, 256, 512)
    slope, ios = fit_slope(streaming_attention, n, d, m_grid)
    lo, hi = CFG["streaming_slope_window"]
    ok = lo <= slope <= hi
    for m, io in zip(m_grid, ios):
        ok &= io <= CFG["upper_constant"] * E.upper_bound_formula("streaming", n, d, m)
    report(3, "streaming scaling", ok)


def test_criterion_04_crossover():
    """At N=32, d=8, M=64=d^2 both kernels' I/O agree within 8x of each
    other and stay within 16x of N^2; the dispatcher picks the formula
    argmin across a wide grid."""
    n, d, m = 32, 8, 64
    tiled = run_kernel(square_tiling_attention, n, d, m, 4).io.total
    streamed = run_kernel(streaming_attention, n, d, m, 4).io.total
    ratio = max(tiled, streamed) / min(tiled, streamed)
    ok = ratio <= CFG["crossover_ratio"]
    for io in (tiled, streamed):
        ok &= io <= CFG["crossover_vs_nsq"] * n * n
        ok &= io >= n * n / CFG["crossover_vs_nsq"]
    for gn in (8, 16, 32):
        for gd in (2, 4, 8, 16):
            for gm in (4, 16, 64, 256, 1024):
                ok &= E.dispatch_matches_argmin(gn, gd, gm)
    chosen = dispatch_attention(MemoryHierarchy(m), random_instance(n, d, 4))
    ok &= chosen.algorithm == "streaming"  # tie at M = d^2 goes streaming
    report(4, "crossover", ok)


def test_criterion_05_lower_bound_consistency():
    """Every measured record: I/O >= (1/16) min(N^2 d^2 / M, N^2) and
    I/O >= 3 N d."""
    config = E.SweepConfig(n_grid=(16, 32, 64), d_grid=(4, 8),
                           m_grid=(16, 64, 256), seed=11)
    records = [r for r in E.run_sweep(config) if r.status == "ok"]
    ok = bool(records)
    # The criterion's own, weaker wording, kept as stated; check_bounds holds
    # the same records to the paper's bound, C_lo * min(regime_terms).
    for r in records:
        ok &= r.io >= CFG["lower_constant"] * min(r.N ** 2 * r.d ** 2 / r.M,
                                                  r.N ** 2)
        ok &= r.io >= 3 * r.N * r.d
    report(5, "lower-bound consistency", ok)


def test_criterion_06_epoch_progress():
    """B_max <= 4 max(4 M^2 / d^2, 2M) on the scaling grids of
    criteria 2 and 3."""
    ok = True
    for kernel, n, d, m_grid in [
        (square_tiling_attention, 64, 16, (16, 36, 64, 144, 256)),
        (streaming_attention, 64, 4, (32, 64, 128, 256, 512)),
    ]:
        for m in m_grid:
            res = run_kernel(kernel, n, d, m, 6)
            bmax = C.max_entries_per_epoch(res.entry_completions, res.epochs)
            # Kept in its own words: stricter than epoch_progress_bound(2M, d),
            # which rounds 4M^2/d^2 up.
            cap = CFG["epoch_progress_constant"] * max(
                4 * m * m / (d * d), 2 * m)
            ok &= bmax <= cap
    report(6, "epoch progress", ok)


def test_criterion_07_pebbling():
    """Scheduled calculations validate with bounded I/O; exhaustive
    search returns the known exact values on tiny DAGs."""
    ok = True
    for n in (2, 4, 8):
        for d in (2, 4):
            for m in (4 * d * d, 8 * d * d):
                dag = P.build_attention_dag(n, d)
                calc = P.blocked_pebbling_schedule(dag, m)
                res = P.validate_calculation(dag, m, calc)
                ok &= res.ok
                ok &= res.io <= CFG["upper_constant"] * E.upper_bound_formula(
                    "streaming", n, d, m)
    edge = P.PebblingDag({"in": P.Node(P.INPUT, ()),
                          "out": P.Node(P.SCALE, ("in",))})
    ok &= P.brute_force_min_io(edge, 2) == 2
    path3 = P.PebblingDag({"a": P.Node(P.INPUT, ()),
                           "b": P.Node(P.EXP, ("a",)),
                           "c": P.Node(P.SCALE, ("b",))})
    ok &= P.brute_force_min_io(path3, 2) == 2
    report(7, "pebbling", ok)


def test_criterion_08_dag_counts():
    """Builder node counts match the closed forms on the full grid and
    the level-1 summation trees are pairwise disjoint."""
    ok = True
    for n in (1, 2, 3, 4):
        for d in (1, 2, 3, 4):
            dag = P.build_attention_dag(n, d)
            counts = dag.kind_counts()
            expected = {
                P.INPUT: 3 * n * d, P.L1_PRODUCT: n * n * d,
                P.SUM_INTERNAL: n * n * (d - 1), P.QKT_ROOT: n * n,
                P.EXP: n * n, P.ROWSUM_INTERNAL: n * (n - 1),
                P.ROWSUM_ROOT: n, P.INVERSE: n, P.L2_PRODUCT: n * n * d,
                P.AV_SUM_INTERNAL: n * d * (n - 1), P.AV_ROOT: n * d,
                P.SCALE: n * d,
            }
            ok &= counts == {k: v for k, v in expected.items() if v}
    dag = P.build_attention_dag(3, 2)
    trees = {}
    for v, node in dag.nodes.items():
        if node.level1:
            i, j = v.split("[")[1].split("]")[0].split(",")[:2]
            trees.setdefault((i, j), set()).add(v)
    tree_sets = list(trees.values())
    for a in range(len(tree_sets)):
        for b in range(a + 1, len(tree_sets)):
            ok &= not tree_sets[a] & tree_sets[b]
    report(8, "DAG counts", ok)


def test_criterion_09_codes():
    """Vandermonde triple independence; BCH(15) with <= 8 rows,
    distance exactly 5, all 1365 4-column subsets independent; Hamming
    distance exactly 3."""
    v = vandermonde_matrix(8, 3, 17)
    ok, _ = F.all_k_subsets_independent(v, 3)
    h = F.bch_parity_check(4, 5)
    ok &= h.rows <= 8
    ok &= F.min_code_distance(h) == 5
    cols_ok, _ = F.all_k_subsets_independent(h.transpose(), 4)
    ok &= cols_ok
    ham = F.bch_parity_check(3, 3)
    ok &= F.min_code_distance(ham) == 3
    report(9, "codes", ok)


def test_criterion_10_compression_counting():
    """Exact distinct-output counts and lower <= upper on every tested
    instance."""
    k = FieldMatrix([[1], [1]], 3)
    idx = C.IndexSet([(0, 0), (1, 0)])
    ok = C.distinct_output_count(k, idx, 3, 2, 1) == 9
    v = vandermonde_matrix(3, 2, 3)
    one_per_row = C.IndexSet([(0, 0), (1, 1), (2, 2)])
    ok &= C.distinct_output_count(v, one_per_row, 3, 3, 2) >= 27
    rng = np.random.default_rng(10)
    q, n, d = 3, 3, 2
    for _ in range(25):
        k_mat = FieldMatrix(rng.integers(0, q, (n, d)), q)
        q_mat = FieldMatrix(rng.integers(0, q, (n, d)), q)
        pairs = [(int(a), int(b)) for a in range(n) for b in range(n)]
        chosen = rng.choice(len(pairs), size=4, replace=False)
        subset = C.IndexSet([pairs[i] for i in chosen])
        count = C.distinct_output_count(k_mat, subset, q, n, d)
        protocol = C.direct_compression_protocol(q_mat, k_mat, subset)
        ok &= C.cc_lower_bound_symbols(count, q) <= protocol.length
    report(10, "compression counting", ok)


def test_criterion_11_m_partition_verifier():
    """Accepts the whole-graph partition; rejects a P1 overlap, a P2
    uncovered path (with witness), and a P4 cycle (with witness)."""
    dag = P.build_attention_dag(2, 2)
    whole = P.PartSpec(dag.nodes.keys(), dag.inputs)
    ok = P.verify_m_partition(dag, 12, [whole]) == []

    v0 = sorted(dag.nodes)[0]
    overlap = P.verify_m_partition(dag, 12, [whole, P.PartSpec({v0}, {v0})])
    ok &= any(v.rule == "P1" for v in overlap)

    dom = set(dag.inputs)
    dropped = sorted(dom)[0]
    dom.discard(dropped)
    uncovered = P.verify_m_partition(dag, 12, [P.PartSpec(dag.nodes.keys(), dom)])
    p2 = [v for v in uncovered if v.rule == "P2" and v.witness]
    ok &= bool(p2) and p2[0].witness[0] == dropped

    rest = set(dag.nodes) - {"L1[0,0,0]", "L1[0,0,1]", "S1[0,0]#0", "QKT[0,0]"}
    cyclic = P.verify_m_partition(dag, 12, [
        P.PartSpec({"L1[0,0,0]", "QKT[0,0]"}, dag.inputs),
        P.PartSpec({"L1[0,0,1]", "S1[0,0]#0"}, dag.inputs),
        P.PartSpec(rest, dag.inputs)])
    p4 = [v for v in cyclic if v.rule == "P4"]
    ok &= bool(p4) and p4[0].witness is not None
    report(11, "M-partition verifier", ok)


def test_criterion_12_determinism():
    """Identical seeds produce byte-identical sweep CSV."""
    config = E.SweepConfig(n_grid=(16,), d_grid=(4,), m_grid=(16, 32, 64),
                           algorithms=("tiling", "streaming"), seed=99)
    first = E.records_to_csv(E.run_sweep(config))
    second = E.records_to_csv(E.run_sweep(config))
    ok = first == second and first.encode() == second.encode()
    report(12, "determinism", ok)
