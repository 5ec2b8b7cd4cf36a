"""Self-tests of the benchmark itself.

    python3 -m pytest bench

They check that a wrong pinned count fails its op, that two seeds give
identical counts, the division by the host slowdown, the span self-time
arithmetic on a synthetic tree, the traced run's sum checks, and that
the benchmark refuses to run without the package source beside it.
"""

import copy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.use_checkout_source()

import tracer  # noqa: E402
import workloads  # noqa: E402
from attnio import experiments, kernels  # noqa: E402

PINNED = workloads.load_pinned()


def _op(ops, label):
    return next(op for op in ops if op.label == label)


@pytest.mark.parametrize("workload, setup, label, key", [
    ("tile", workloads.setup_tile, "tiling N=64 d=16 M=1024", "reads"),
    ("stream", workloads.setup_stream, "streaming N=32 d=16 M=1024", "bmax"),
    ("oracles", workloads.setup_oracles, "brute_force_min_io N=1 d=1 M=3", "min_io"),
])
def test_corrupted_pinned_count_fails_the_op(workload, setup, label, key):
    ops = [_op(setup(1), label)]
    passes = run.timed_passes(ops, PINNED[workload], 0, min_passes=1)
    assert (passes.attempted, passes.failures) == (1, [])
    corrupted = copy.deepcopy(PINNED[workload])
    corrupted[label][key] += 1
    passes = run.timed_passes(ops, corrupted, 0, min_passes=1)
    assert passes.attempted == 1 and len(passes.failures) == 1
    assert key in passes.failures[0]


def test_wrong_distinct_count_cross_check_fails():
    ops = workloads.setup_oracles(1)
    label = next(op.label for op in ops if op.label.startswith("distinct_output_count"))
    original = workloads.compression.distinct_output_count
    workloads.compression.distinct_output_count = lambda *a, **kw: original(*a, **kw) + 1
    try:
        _, failures = workloads.run_pass([_op(ops, label)], PINNED["oracles"])
    finally:
        workloads.compression.distinct_output_count = original
    assert len(failures) == 1 and "q^rank" in failures[0]


SEEDED_LABELS = {
    "stream": ["streaming N=32 d=4 M=256", "streaming N=48 d=16 M=1024"],
    "tile": ["tiling N=64 d=16 M=1024", "matmul_via_attention N=48 d=8 M=256"],
    "oracles": ["distinct_output_count q=3 N=8 d=3 |I|=6"],
    "sweep": [op.label for op in workloads.setup_sweep(0)],
}


@pytest.mark.parametrize("workload", sorted(SEEDED_LABELS))
def test_two_seeds_give_identical_counts(workload):
    answers = []
    for seed in (11, 12):
        ops = workloads.WORKLOADS[workload](seed)
        chosen = [_op(ops, label) for label in SEEDED_LABELS[workload]]
        results, failures = workloads.run_pass(chosen, PINNED[workload])
        assert failures == []
        answers.append({label: res.answers for label, res in results.items()})
    assert answers[0] == answers[1]


def test_normalized_pass_time_divides_out_the_host_slowdown(monkeypatch):
    # One op that takes 0.1 s and simulates 100 words at reference speed,
    # run at full, half and a third of that speed: the op and the
    # reference loop before it slow down alike.
    passes = run.Passes()
    for slowdown in (1.0, 2.0, 3.0):
        res = workloads.OpResult(io_words=100, io_seconds=0.1 * slowdown,
                                 wall_s=0.1 * slowdown, ref_s=run.REF_LOOP_S * slowdown)
        monkeypatch.setattr(workloads, "run_pass", lambda ops, pinned: ({"op": res}, []))
        run.add_pass(["op"], {}, passes)
    assert passes.walls == pytest.approx([0.1, 0.2, 0.3])
    assert passes.norm_wall() == pytest.approx(0.1)
    assert passes.norm_io_rate() == pytest.approx(1000.0)


def test_self_time_arithmetic_on_synthetic_tree():
    #   0 root [0, 10]
    #   1  a   [1, 4]     parent 0
    #   2   g  [2, 3]     parent 1
    #   3  b   [5, 9]     parent 0
    #   4 top  [20, 30]   children 5 and 6 overlap: [21, 25] and [23, 28]
    starts = [0.0, 1.0, 2.0, 5.0, 20.0, 21.0, 23.0]
    ends = [10.0, 4.0, 3.0, 9.0, 30.0, 25.0, 28.0]
    parents = [-1, 0, 1, 0, -1, 4, 4]
    assert tracer.self_times(starts, ends, parents) == [3.0, 2.0, 1.0, 4.0, 3.0, 4.0, 5.0]


def test_traced_pass_sum_checks_hold_and_uninstall_restores():
    ops = [_op(workloads.setup_tile(1), "matmul_via_attention N=48 d=8 M=256"),
           _op(workloads.setup_stream(1), "streaming N=32 d=16 M=1024")]
    t = tracer.Tracer()
    t.install()
    try:
        _, failures = workloads.run_pass(ops, {**PINNED["tile"], **PINNED["stream"]})
    finally:
        t.uninstall()
    assert failures == []
    assert experiments._KERNELS["tiling"] is kernels.square_tiling_attention
    assert not hasattr(kernels.square_tiling_attention, "__wrapped__")

    metrics, check_failures = t.pass_metrics()
    assert check_failures == []
    reads = (PINNED["tile"][ops[0].label]["reads"] + PINNED["stream"][ops[1].label]["reads"])
    assert metrics["memory.read_block.words"] == reads
    assert 0 < metrics["memory.peak_words_over_M"] <= 1
    assert metrics["kernels.tiling.self_s"] > 0 and metrics["kernels.streaming.self_s"] > 0

    t.counts["memory.write_words"] += 1
    _, check_failures = t.pass_metrics()
    assert len(check_failures) == 1 and "write_block words" in check_failures[0]


def test_refuses_to_run_without_package_source(tmp_path):
    bench = Path(run.__file__).resolve().parent
    shutil.copytree(bench, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(bench.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
