"""The benchmark's four workloads: inputs from a seed, a fixed op list, checks.

Every op calls attnio through its public module functions (looked up on
the module at call time, so the traced run sees them) and returns an
``OpResult``: the simulated I/O words it produced, the host seconds of
the calls that simulated them, and its exact answers.  The pass loop
compares the answers with ``pinned.json``; an op also raises
``CheckFailure`` itself when its output misses the reference or an
independent cross-check.

I/O counts are data-independent, so one pinned set of counts holds for
every seed; the seed only changes the numbers flowing through.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from attnio import compression, experiments, fields, kernels, matrices, memory, pebbling

PINNED_PATH = Path(__file__).resolve().parent / "pinned.json"
TOLERANCE = experiments.load_bound_config()["oracle_rel_tolerance"]


class CheckFailure(Exception):
    """An op's output or count differs from its reference or pinned value."""


@dataclass
class OpResult:
    io_words: int = 0
    io_seconds: float = 0.0
    answers: dict = field(default_factory=dict)
    wall_s: float = 0.0   # the whole op, checks included; set by run_pass
    ref_s: float = 0.0    # the reference loop run just before it; set by run_pass


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], OpResult]


def load_pinned() -> dict:
    with open(PINNED_PATH) as fh:
        return json.load(fh)


def compare(label: str, answers: dict, pinned: dict) -> None:
    """Raise CheckFailure unless every answer equals its pinned value."""
    if set(answers) != set(pinned):
        raise CheckFailure(f"{label}: answers {sorted(answers)} vs pinned {sorted(pinned)}")
    for key, value in answers.items():
        if value != pinned[key]:
            raise CheckFailure(f"{label}: {key} = {value!r}, pinned {pinned[key]!r}")


def _check_close(label: str, got: np.ndarray, expected: np.ndarray) -> None:
    err = np.linalg.norm(got - expected) / np.linalg.norm(expected)
    if not err <= TOLERANCE:
        raise CheckFailure(f"{label}: relative error {err:.3e} > {TOLERANCE}")


# -- stream and tile: kernel cases ---------------------------------------------

KERNELS = {"streaming": "streaming_attention", "tiling": "square_tiling_attention"}

# Many small cases rather than a few large ones.  Each op is timed right
# after a reference loop that measures the host's speed (run.py divides
# by it), and the host this was tuned on changes speed within seconds: a
# 10-ms op runs at the speed the loop just measured, a 300-ms op may not.
# Short passes also give a 25-second run 50-250 passes to take a median of.
# Every stream case has M >= d^2 (the large-cache regime) and several
# resident Q-row blocks; the tile cases use blocks of side B = 4, 8, 16.
STREAM_CASES = [("streaming", 32, 8, 512), ("streaming", 32, 4, 256),
                ("streaming", 32, 16, 1024), ("streaming", 24, 8, 256),
                ("streaming", 24, 4, 128), ("streaming", 40, 8, 512),
                ("streaming", 48, 16, 1024), ("streaming", 32, 8, 256)]
TILE_CASES = [("tiling", 32, 16, 256), ("tiling", 48, 8, 256), ("tiling", 64, 16, 1024),
              ("tiling", 48, 4, 64), ("tiling", 32, 4, 64)]
MATMUL_CASE = (48, 8, 256)


def _kernel_op(kind: str, n: int, d: int, m: int, inst) -> Op:
    label = f"{kind} N={n} d={d} M={m}"

    def run() -> OpResult:
        kernel = getattr(kernels, KERNELS[kind])
        h = memory.MemoryHierarchy(m)
        t0 = perf_counter()
        res = kernel(h, inst)
        seconds = perf_counter() - t0
        _check_close(label, res.output, kernels.reference_attention(inst))
        bmax = compression.max_entries_per_epoch(res.entry_completions, res.epochs)
        return OpResult(res.io.total, seconds, {
            "reads": res.io.reads, "writes": res.io.writes,
            "epochs": len(res.epochs), "bmax": bmax})

    return Op(label, run)


def _matmul_op(n: int, d: int, m: int, inst) -> Op:
    label = f"matmul_via_attention N={n} d={d} M={m}"

    def run() -> OpResult:
        h = memory.MemoryHierarchy(m)
        t0 = perf_counter()
        product = kernels.matmul_via_attention(h, inst.Q, inst.K)
        seconds = perf_counter() - t0
        _check_close(label, product, inst.Q @ inst.K.T)
        return OpResult(h.reads + h.writes, seconds, {"reads": h.reads, "writes": h.writes})

    return Op(label, run)


def _instance(seed: int, index: int, n: int, d: int):
    return matrices.random_instance(n, d, np.random.SeedSequence([seed, index]))


def setup_stream(seed: int) -> list[Op]:
    return [_kernel_op(kind, n, d, m, _instance(seed, i, n, d))
            for i, (kind, n, d, m) in enumerate(STREAM_CASES)]


def setup_tile(seed: int) -> list[Op]:
    ops = [_kernel_op(kind, n, d, m, _instance(seed, i, n, d))
           for i, (kind, n, d, m) in enumerate(TILE_CASES)]
    n, d, m = MATMUL_CASE
    ops.append(_matmul_op(n, d, m, _instance(seed, len(TILE_CASES), n, d)))
    return ops


# -- oracles: the exhaustive layers ----------------------------------------------

# Sizes keep each oracle call near 5-30 ms on a 2-vCPU host (see the
# note on STREAM_CASES).  distinct_output_count: Q has 2 free rows of
# length d over F_q, so q^(2d) = 3^6 = 729 assignments are enumerated
# whatever the seed.
COUNT_Q, COUNT_N, COUNT_D, COUNT_ROWS, COUNT_COLS_PER_ROW = 3, 8, 3, 2, 3
BCH = (5, 9)                 # m, designed distance: a [31, 11] code, 2^11 codewords
VANDERMONDE = (13, 4, 29)    # N, d, q; every 4-row subset (715) is checked
PEBBLE = (16, 4, 32)         # N, d, M for build + schedule + validate
BRUTE = (1, 1, 3)            # N, d, M: the 11-node attention DAG


def output_map_rank(k: fields.FieldMatrix, index_set: compression.IndexSet, d: int) -> int:
    """Rank over F_q of the linear map Q -> ((Q K^T)[r, c]) for (r, c) in I,
    restricted to the index set's rows.  distinct_output_count must equal
    q ** rank: the image of a linear map has q^rank elements."""
    rows = sorted(index_set.rows)
    pos = {r: t for t, r in enumerate(rows)}
    coeffs = np.zeros((len(index_set), len(rows) * d), dtype=np.int64)
    for e, (r, c) in enumerate(index_set.sorted_pairs()):
        coeffs[e, pos[r] * d:(pos[r] + 1) * d] = k.data[c]
    return fields.FieldMatrix(coeffs, k.q).rank()


def setup_oracles(seed: int) -> list[Op]:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    q, n, d = COUNT_Q, COUNT_N, COUNT_D
    k_mat = fields.FieldMatrix(rng.integers(0, q, size=(n, d)), q)
    rows = rng.choice(n, size=COUNT_ROWS, replace=False)
    index_set = compression.IndexSet(
        (int(r), int(c)) for r in rows
        for c in rng.choice(n, size=COUNT_COLS_PER_ROW, replace=False))
    expected_count = q ** output_map_rank(k_mat, index_set, d)

    bch = fields.bch_parity_check(*BCH)
    vand = fields.vandermonde_matrix(*VANDERMONDE)
    brute_dag = pebbling.build_attention_dag(BRUTE[0], BRUTE[1])

    def count() -> OpResult:
        got = compression.distinct_output_count(k_mat, index_set, q, n, d)
        if got != expected_count:
            raise CheckFailure(f"distinct_output_count = {got}, q^rank = {expected_count}")
        return OpResult()

    def distance() -> OpResult:
        return OpResult(answers={"distance": fields.min_code_distance(bch)})

    def subsets() -> OpResult:
        ok, witness = fields.all_k_subsets_independent(vand, VANDERMONDE[1])
        return OpResult(answers={"independent": ok, "witness": witness})

    def schedule() -> OpResult:
        pn, pd, pm = PEBBLE
        dag = pebbling.build_attention_dag(pn, pd)
        calc = pebbling.blocked_pebbling_schedule(dag, pm)
        t0 = perf_counter()
        res = pebbling.validate_calculation(dag, pm, calc)
        seconds = perf_counter() - t0
        return OpResult(res.io, seconds, {
            "dag_nodes": len(dag), "transitions": len(calc), "valid": res.ok,
            "reads": res.reads, "writes": res.writes})

    def brute() -> OpResult:
        return OpResult(answers={"min_io": pebbling.brute_force_min_io(brute_dag, BRUTE[2])})

    return [
        Op(f"distinct_output_count q={q} N={n} d={d} |I|={len(index_set)}", count),
        Op("min_code_distance BCH(m={}, s={})".format(*BCH), distance),
        Op("all_k_subsets_independent Vandermonde(N={}, d={}, q={})".format(*VANDERMONDE),
           subsets),
        Op("pebbling N={} d={} M={}".format(*PEBBLE), schedule),
        Op("brute_force_min_io N={} d={} M={}".format(*BRUTE), brute),
    ]


# -- sweep: the experiments driver -------------------------------------------------

# Streaming needs M >= 8d, so its four M=16 points end as regime_error
# records (wasted attempts); dispatch falls back to tiling there.
SWEEP_GRID = dict(n_grid=(16, 24), d_grid=(4, 8), m_grid=(16, 64, 256))
SWEEP_ALGORITHMS = ("tiling", "streaming", "dispatch")


def setup_sweep(seed: int) -> list[Op]:
    """One run_sweep per grid point, then a report op.

    run_sweep loops algorithm, N, d, M outermost to innermost and seeds
    each point from the point alone, so the points' records, concatenated
    in order, are the records of one sweep over the whole grid, and the
    report checks the CSV of the whole grid.
    """
    records = []
    points = [experiments.SweepConfig(n_grid=(n,), d_grid=(d,), m_grid=(m,),
                                      algorithms=(alg,), seed=seed)
              for alg in SWEEP_ALGORITHMS for n in SWEEP_GRID["n_grid"]
              for d in SWEEP_GRID["d_grid"] for m in SWEEP_GRID["m_grid"]]

    def sweep_point(config):
        def run() -> OpResult:
            t0 = perf_counter()
            part = experiments.run_sweep(config)
            seconds = perf_counter() - t0
            records.extend(part)
            return OpResult(sum(r.io for r in part), seconds)
        return run

    def report() -> OpResult:
        grid = records[:]
        records.clear()
        csv_text = experiments.records_to_csv(grid)
        return OpResult(answers={
            "csv_sha256": hashlib.sha256(csv_text.encode()).hexdigest(),
            "records": len(grid),
            "regime_errors": sum(r.status == "regime_error" for r in grid),
            "bounds_ok": experiments.check_bounds(grid).ok})

    ops = [Op(f"run_sweep {c.algorithms[0]} N={c.n_grid[0]} d={c.d_grid[0]} M={c.m_grid[0]}",
              sweep_point(c)) for c in points]
    return ops + [Op("check_bounds + records_to_csv of the 3x2x2x3 grid", report)]


WORKLOADS = {
    "stream": setup_stream,
    "tile": setup_tile,
    "oracles": setup_oracles,
    "sweep": setup_sweep,
}


# -- host speed ----------------------------------------------------------------------

_REF_MATRIX = np.linspace(0.0, 1.0, 64).reshape(8, 8)


def reference_loop() -> float:
    """A fixed ~1 ms mix of the work attnio does on the host: tuple-keyed
    dict stores and small numpy products.  It calls nothing in attnio,
    so no change to attnio moves its time; only the host's speed does."""
    slots = {}
    for i in range(3000):
        slots[("Q", i & 63, i >> 6)] = i
    total = 0.0
    for _ in range(300):
        total += float((_REF_MATRIX @ _REF_MATRIX).sum())
    return total + len(slots)


def run_pass(ops: list[Op], pinned: dict) -> tuple[dict[str, OpResult], list[str]]:
    """Run every op once, each just after one reference loop; return the
    results of the ops that passed, by label, each with its wall time and
    the reference loop's time, and the failure messages.

    An op fails if it raises (a CheckFailure or any error from attnio)
    or if its answers differ from the pinned ones.
    """
    results, failures = {}, []
    for op in ops:
        r0 = perf_counter()
        reference_loop()
        t0 = perf_counter()
        try:
            res = op.run()
            res.wall_s = perf_counter() - t0
            res.ref_s = t0 - r0
            compare(op.label, res.answers, pinned[op.label])
        except Exception as exc:  # a failed op is counted, the pass goes on
            failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
            continue
        results[op.label] = res
    return results, failures
