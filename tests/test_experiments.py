"""Sweeps, fits, bound checks, and CSV determinism."""

import math
import os
import subprocess
import sys
import warnings
from decimal import Decimal
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from attnio import errors
from attnio import experiments as E
from attnio.compression import max_entries_per_epoch
from attnio.kernels import dispatch_attention, square_tiling_attention, streaming_attention
from attnio.matrices import AttentionInstance, random_instance
from attnio.memory import CountHierarchy, MemoryHierarchy


def small_config(**kw):
    defaults = dict(n_grid=(16,), d_grid=(4,), m_grid=(32, 64, 128),
                    algorithms=("streaming",), seed=1)
    defaults.update(kw)
    return E.SweepConfig(**defaults)


def test_sweep_streaming_records():
    records = E.run_sweep(small_config(m_grid=(16, 32, 64, 128)))
    assert len(records) == 4
    assert records[0].status == "regime_error"  # M=16 < 8d=32
    ok = [r for r in records if r.status == "ok"]
    ios = [r.io for r in ok]
    assert ios == sorted(ios, reverse=True)


def test_sweep_tiling_records():
    records = E.run_sweep(small_config(algorithms=("tiling",),
                                       m_grid=(16, 32, 64, 128)))
    assert len(records) == 4
    assert all(r.status == "ok" for r in records)


def test_sweep_record_invariants():
    for r in E.run_sweep(small_config()):
        assert r.reads + r.writes == r.io
        assert r.epochs >= 1
        assert r.epochs == math.ceil(r.io / r.M) or r.io == 0


def test_sweep_overflow_is_numeric_error():
    # exp of raw scores near 30^2 * 4 overflows the tiling kernel
    records = E.run_sweep(small_config(algorithms=("tiling",), m_grid=(16,),
                                       magnitude=30.0))
    assert [r.status for r in records] == ["numeric_error"]
    assert records[0].io > 0
    assert E.check_bounds(records).flags == []


def test_sweep_underflowed_row_is_silent_numeric_error():
    # the zero row sum's reciprocal divides by zero without a warning
    config = small_config(n_grid=(1,), d_grid=(1,), m_grid=(16,),
                          algorithms=("tiling",), seed=16, magnitude=30.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records = E.run_sweep(config)
    assert [r.status for r in records] == ["numeric_error"]


def test_sweep_determinism():
    a = E.records_to_csv(E.run_sweep(small_config()))
    b = E.records_to_csv(E.run_sweep(small_config()))
    assert a == b


def test_csv_round_trip(tmp_path):
    records = E.run_sweep(small_config())
    path = tmp_path / "records.csv"
    E.write_records_csv(records, path)
    assert E.read_records_csv(path) == records
    header = path.read_text().splitlines()[0]
    assert header == ",".join(E.CSV_COLUMNS)
    body = path.read_text().splitlines(keepends=True)[1:]
    columns = E.CSV_COLUMNS
    for wrong in ([], columns[:-1], columns[1:2] + columns[:1] + columns[2:],
                  columns + ["extra"]):
        path.write_text("".join([",".join(wrong) + "\n"] + body))
        with pytest.raises(errors.ConfigurationError, match="records.csv: header"):
            E.read_records_csv(path)
    path.write_text("")
    with pytest.raises(errors.ConfigurationError, match="header None"):
        E.read_records_csv(path)
    # a row longer or shorter than the header is not read in part
    for row in (body[0].rstrip("\n") + ",9\n", body[0].rsplit(",", 1)[0] + "\n"):
        path.write_text(header + "\n" + row)
        with pytest.raises(ValueError, match="zip"):
            E.read_records_csv(path)


@pytest.mark.parametrize("bad_row, message", [
    (lambda f: f[:5] + ["x"] + f[6:], "invalid literal for int"),
    (lambda f: f[:-1], "shorter"),
    (lambda f: f + ["9"], "longer"),
    (lambda f: f[:4] + ["done"] + f[5:], "status 'done' not in"),
    (lambda f: ["quantum"] + f[1:], "unknown algorithm 'quantum'"),
    (lambda f: f[:1] + ["-8"] + f[2:], "N = -8 is below 1"),
    (lambda f: f[:3] + ["0"] + f[4:], "M = 0 is below 4"),
    (lambda f: f[:6] + ["-1"] + f[7:], "writes = -1 is below 0"),
], ids=["non_integer_count", "short_row", "long_row", "unknown_status",
        "unknown_algorithm", "negative_n", "zero_capacity", "negative_count"])
def test_csv_bad_row_names_file_and_line(tmp_path, bad_row, message):
    path = tmp_path / "records.csv"
    E.write_records_csv(E.run_sweep(small_config())[:1], path)
    header, first = path.read_text().splitlines()
    path.write_text(f"{header}\n{first}\n{','.join(bad_row(first.split(',')))}\n")
    with pytest.raises(errors.ConfigurationError, match=f"records.csv, line 3: .*{message}"):
        E.read_records_csv(path)


@pytest.mark.parametrize("fields, message", [
    (("tiling", 4, 2, 0, "ok", 10, 0, 1, 0), "M = 0 is below 4"),
    (("nope", 4, 2, 16, "weird", 10, 0, 1, 0), "unknown algorithm 'nope'"),
    (("tiling", 4, 2, 16, "weird", 10, 0, 1, 0), "status 'weird' not in"),
    ((["tiling"], 4, 2, 16, "ok", 10, 0, 1, 0), r"unknown algorithm \['tiling'\]"),
    (("tiling", 4, 2.0, 16, "ok", 10, 0, 1, 0), "d = 2.0 is not an integer"),
    (("tiling", 4, 2, 16, "ok", 10, True, 1, 0), "writes = True is not an integer"),
    (("streaming", 4, 2, 16, "ok", 10, 0, 1, -3), "bmax = -3 is below 0"),
], ids=["zero_capacity", "unknown_algorithm_and_status", "unknown_status",
        "unhashable_algorithm", "float_d", "bool_count", "negative_bmax"])
def test_record_built_in_code_is_checked(fields, message):
    # a record that never passed through a CSV gets the same checks,
    # before check_bounds could divide by M = 0 or skip an unknown status
    with pytest.raises(errors.ConfigurationError, match=f"^{message}"):
        E.SweepRecord(*fields)


def test_config_from_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"N": [8], "d": [2], "M": [16, 32], '
                    '"algorithms": ["tiling"], "seed": 9}')
    cfg = E.SweepConfig.from_json(path)
    assert cfg.n_grid == (8,) and cfg.seed == 9
    assert len(E.run_sweep(cfg)) == 2


def test_config_rejects_unknown_algorithm():
    with pytest.raises(errors.ConfigurationError):
        small_config(algorithms=("quantum",))


@pytest.mark.parametrize("magnitude", [0, 0.0, 1, 30.0, np.float64(2.5), Fraction(1, 3),
                                       sys.float_info.max / 2])
def test_config_accepts_a_drawable_magnitude(magnitude):
    assert small_config(magnitude=magnitude).magnitude == magnitude


@pytest.mark.parametrize("magnitude", [-1.0, -1, math.nan, math.inf, 1e308, 10 ** 400,
                                       True, False, "1", None, Decimal(1), 1j])
def test_config_refuses_a_magnitude_random_instance_cannot_draw_from(magnitude):
    with pytest.raises(errors.ConfigurationError, match="^magnitude must be"):
        small_config(magnitude=magnitude)


def test_fit_exact_power_laws():
    streaming = [E.SweepRecord("streaming", 16, 4, m, "ok",
                               int(1000 * 16 * 16 * 16 / m), 0, 1, 0)
                 for m in (16, 32, 64)]
    slope, residual = E.fit_scaling_exponent(streaming)
    assert abs(slope + 1.0) < 1e-9 and residual < 1e-9

    tiling = [E.SweepRecord("tiling", 16, 4, m, "ok",
                            int(round(1000 * 16 * 16 * 4 / math.sqrt(m))), 0, 1, 0)
              for m in (16, 36, 64)]
    slope, _ = E.fit_scaling_exponent(tiling)
    assert abs(slope + 0.5) < 1e-3


def test_fit_measured_tiling_slope():
    cfg = small_config(n_grid=(32,), d_grid=(8,), m_grid=(16, 36, 64),
                       algorithms=("tiling",), seed=3)
    slope, _ = E.fit_scaling_exponent(E.run_sweep(cfg))
    assert -0.6 <= slope <= -0.4


def test_fit_preconditions():
    records = E.run_sweep(small_config(m_grid=(32, 64)))
    with pytest.raises(errors.ConfigurationError):
        E.fit_scaling_exponent(records)  # only 2 points
    mixed = E.run_sweep(small_config(n_grid=(8, 16), m_grid=(32, 64, 128)))
    with pytest.raises(errors.ConfigurationError):
        E.fit_scaling_exponent(mixed)  # N varies too


def test_check_bounds_pass():
    records = E.run_sweep(small_config(algorithms=("tiling", "streaming")))
    report = E.check_bounds(records)
    assert report.ok and not report.failures()
    # trivial lower bound: every run reads at least the inputs
    for r in records:
        if r.status == "ok":
            assert r.io >= 3 * r.N * r.d


def test_check_bounds_fails_with_nothing_checked():
    overflowed = E.run_sweep(small_config(algorithms=("tiling",), m_grid=(16,),
                                          magnitude=30.0))
    regime = E.run_sweep(small_config(m_grid=(16,)))
    for records in (overflowed, regime):
        report = E.check_bounds(records)
        assert report.flags == [] and report.skipped == 1
        assert not report.ok


def test_check_bounds_holds_records_to_the_paper_lower_bound():
    # C_lo N^2 d / sqrt(M) = 2048 > io = 1800 >= 3Nd = 1536, and above the
    # N^2-capped 1024 the check used to ask for below M = d^2
    record = E.SweepRecord("tiling", 128, 4, 4, "ok", 1800, 0, 1, 0)
    (flags,) = E.check_bounds([record]).flags
    assert (flags.upper_ok, flags.lower_ok, flags.epoch_ok) == (True, False, True)
    records = E.run_sweep(small_config(algorithms=("tiling", "streaming", "dispatch"),
                                       m_grid=(16, 64, 256)))
    for f in E.check_bounds(records).flags:
        assert {type(f.upper_ok), type(f.lower_ok), type(f.epoch_ok)} == {bool}
    assert type(E.dispatch_matches_argmin(16, 4, 64)) is bool


def test_upper_bound_formula_adds_the_output_terms_to_regime_terms():
    n, d, m = 32, 8, 16
    small, large = E.regime_terms(n, d, m)
    assert (small, large) == (n * n * d / 4, n * n * d * d / m)
    assert E.upper_bound_formula("tiling", n, d, m) == small + n * n + n * d
    assert E.upper_bound_formula("streaming", n, d, m) == large + n * d
    assert E.upper_bound_formula("dispatch", n, d, m) == min(small + n * n + n * d,
                                                             large + n * d)
    with pytest.raises(errors.ConfigurationError, match="unknown algorithm 'quantum'"):
        E.upper_bound_formula("quantum", n, d, m)


def test_check_bounds_passes_tiling_where_the_output_terms_dominate():
    # at N = 1 reading Q, K^T, V and writing O (the Nd terms) outweighs
    # N^2 d / sqrt(M) + N^2, so tiling's bound needs its own Nd term
    records = E.run_sweep(E.SweepConfig((1,), (8,), (32, 64, 100, 256), ("tiling",)))
    assert [r.status for r in records] == ["ok"] * 4
    report = E.check_bounds(records)
    assert report.ok, report.failures()


def test_check_bounds_catches_wasteful_kernel():
    # a kernel that re-read K per scalar would cost ~N^2 d extra reads
    n, d, m = 16, 4, 128
    wasteful = E.SweepRecord("streaming", n, d, m, "ok",
                             n * n * d * 20, 0, 1, 0)
    report = E.check_bounds([wasteful])
    assert not report.ok
    assert not report.failures()[0].upper_ok


def test_bound_config_loaded():
    cfg = E.load_bound_config()
    assert cfg["upper_constant"] == 16
    assert cfg["lower_constant"] == 1 / 16
    assert cfg["epoch_progress_constant"] == 4


def test_dispatch_matches_argmin_grid():
    for n in (8, 16, 32):
        for d in (2, 4, 8):
            for m in (4, 16, 64, 256, 1024):
                assert E.dispatch_matches_argmin(n, d, m)


def test_report_does_not_mutate_records():
    records = E.run_sweep(small_config())
    snapshot = list(records)
    E.check_bounds(records)
    assert records == snapshot


def test_fit_names_the_first_varying_axis_whatever_the_hash_seed():
    script = ("from attnio import experiments as E\n"
              "recs = [E.SweepRecord('tiling', n, d, m, 'ok', 100 + n + d + m, 0, 1, 0)\n"
              "        for n, d, m in [(8, 2, 16), (16, 4, 32), (8, 4, 64)]]\n"
              "try:\n    E.fit_scaling_exponent(recs)\n"
              "except E.ConfigurationError as exc:\n    print(exc)\n")
    src = str(Path(E.__file__).resolve().parents[1])
    messages = {subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                               env={**os.environ, "PYTHONHASHSEED": str(seed),
                                    "PYTHONPATH": src}).stdout
                for seed in range(4)}
    assert messages == {"records vary along N, expected only M\n"}


def test_config_from_json_takes_the_dataclass_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"N": [8], "d": [2], "M": [16]}')
    assert E.SweepConfig.from_json(path) == E.SweepConfig((8,), (2,), (16,))


# -- the count backend -----------------------------------------------------------

# Every sweep grid in tests/, with its seed (the magnitude-30 grids run on
# the numeric backend in a sweep, but their counts must agree all the
# same), then the bench sweep grid at seeds 0 and 7.
SWEEP_GRIDS = [
    # this file
    ((16,), (4,), (16, 32, 64, 128), 1), ((8, 16), (4,), (32, 64, 128), 1),
    ((16,), (4,), (16, 64, 256), 1), ((32,), (8,), (16, 36, 64), 3),
    ((1,), (1,), (16,), 16), ((8,), (2,), (16, 32), 9),
    # test_acceptance criteria 5 and 12
    ((16, 32, 64), (4, 8), (16, 64, 256), 11), ((16,), (4,), (16, 32, 64), 99),
    # test_kernels and test_cli
    ((4, 8), (2, 4), (16, 64), 0), ((16,), (4,), (32, 64), 5), ((4,), (1,), (16,), 4),
    ((8,), (2,), (32,), 0),
    # bench/workloads.py SWEEP_GRID
    ((16, 24), (4, 8), (16, 64, 256), 0), ((16, 24), (4, 8), (16, 64, 256), 7),
]
BACKEND_MODES = {
    "tiling": square_tiling_attention,
    "streaming": streaming_attention,
    "dispatch": dispatch_attention,
    "write_qkt": lambda h, inst: square_tiling_attention(h, inst, write_qkt=True),
}


def _counts(kernel, h, inst):
    try:
        res = kernel(h, inst)
    except errors.RegimeError:
        return "regime_error"
    return (res.io, res.epochs, res.entry_completions, h.peak_words,
            max_entries_per_epoch(res.entry_completions, res.epochs))


@pytest.mark.parametrize("grid", range(len(SWEEP_GRIDS)))
def test_count_backend_gives_the_numeric_counts(grid, monkeypatch):
    ns, ds, ms, seed = SWEEP_GRIDS[grid]
    for n, d, m in product(ns, ds, ms):
        inst = random_instance(n, d, (seed, n, d, m))
        for mode, kernel in BACKEND_MODES.items():
            assert (_counts(kernel, CountHierarchy(m), inst)
                    == _counts(kernel, MemoryHierarchy(m), inst)), (mode, n, d, m)
    config = E.SweepConfig(ns, ds, ms, ("tiling", "streaming", "dispatch"), seed)
    built = []
    monkeypatch.setattr(E, "CountHierarchy", lambda m: built.append(m) or CountHierarchy(m))
    csv_text = E.records_to_csv(E.run_sweep(config))
    assert len(built) == 3 * len(ns) * len(ds) * len(ms)
    # every point numeric, on the values its seed draws
    monkeypatch.setattr(E, "_runs_on_counts", lambda n, d, a: False)
    assert csv_text == E.records_to_csv(E.run_sweep(config))
    assert len(built) == 3 * len(ns) * len(ds) * len(ms)


def test_count_points_draw_no_values(monkeypatch):
    def refuse(*args):
        raise AssertionError("a count point drew values")

    config = E.SweepConfig((16, 24), (4, 8), (16, 64, 256), ("tiling", "streaming", "dispatch"))
    expected = E.records_to_csv(E.run_sweep(config))
    monkeypatch.setattr(E, "random_instance", refuse)
    monkeypatch.setattr(E, "_point_seed", refuse)
    assert E.records_to_csv(E.run_sweep(config)) == expected


# A magnitude-30 grid runs every point on the numeric backend; its values
# decide which points overflow.
MAGNITUDE_30_CSV = """\
algorithm,N,d,M,status,reads,writes,epochs,bmax
tiling,4,1,16,ok,44,24,5,8
tiling,4,1,64,ok,32,24,1,16
tiling,4,4,16,numeric_error,132,36,11,4
tiling,4,4,64,numeric_error,68,36,2,16
tiling,12,1,16,numeric_error,372,168,34,8
tiling,12,1,64,numeric_error,264,168,7,48
tiling,12,4,16,numeric_error,1164,204,86,4
tiling,12,4,64,numeric_error,588,204,13,32
streaming,4,1,16,ok,20,4,2,10
streaming,4,1,64,ok,12,4,1,16
streaming,4,4,16,regime_error,0,0,0,0
streaming,4,4,64,ok,48,16,1,16
streaming,12,1,16,ok,156,12,11,16
streaming,12,1,64,ok,60,12,2,135
streaming,12,4,16,regime_error,0,0,0,0
streaming,12,4,64,ok,336,48,6,24
dispatch,4,1,16,ok,20,4,2,10
dispatch,4,1,64,ok,12,4,1,16
dispatch,4,4,16,numeric_error,132,36,11,4
dispatch,4,4,64,ok,48,16,1,16
dispatch,12,1,16,ok,156,12,11,16
dispatch,12,1,64,ok,60,12,2,135
dispatch,12,4,16,numeric_error,1164,204,86,4
dispatch,12,4,64,ok,336,48,6,24
"""


def test_numeric_points_draw_their_seeded_values(monkeypatch):
    drawn = []
    monkeypatch.setattr(E, "random_instance", lambda n, d, seed, a: drawn.append(
        (n, d, seed.entropy, a)) or random_instance(n, d, seed, a))
    config = E.SweepConfig((4, 12), (1, 4), (16, 64), ("tiling", "streaming", "dispatch"),
                           seed=5, magnitude=30.0)
    assert E.records_to_csv(E.run_sweep(config)) == MAGNITUDE_30_CSV
    assert drawn == [(n, d, [5, sorted(E._KERNELS).index(alg), n, d, m], 30.0)
                     for alg, n, d, m in product(config.algorithms, (4, 12), (1, 4), (16, 64))]


def largest_count_magnitude(n, d):
    """The largest float a with d a^2 + ln N <= 700, run_sweep's test."""
    a = math.sqrt((700 - math.log(n)) / d)
    while d * a * a + math.log(n) > 700:
        a = math.nextafter(a, 0)
    while d * (b := math.nextafter(a, math.inf)) * b + math.log(n) <= 700:
        a = b
    return a


EDGE_POINTS = [(1, 1, 16), (5, 1, 4), (16, 1, 64), (16, 4, 16), (24, 8, 64),
               (24, 8, 256), (33, 2, 36)]


def test_count_backend_magnitude_edge_never_overflows(monkeypatch):
    built = []
    monkeypatch.setattr(E, "CountHierarchy", lambda m: built.append("count") or CountHierarchy(m))
    monkeypatch.setattr(E, "MemoryHierarchy", lambda m: built.append("numeric")
                        or MemoryHierarchy(m))
    for n, d, m in EDGE_POINTS:
        a = largest_count_magnitude(n, d)
        # run_sweep takes the count backend exactly up to a
        for magnitude, backend in ((a, "count"), (math.nextafter(a, math.inf), "numeric")):
            built.clear()
            E.run_sweep(E.SweepConfig((n,), (d,), (m,), ("tiling",), magnitude=magnitude))
            assert built == [backend], (n, d, m, magnitude)
        # so numeric runs at a never overflow, random or aligned (every
        # score d a^2, each exp e^700 / N, each row sum e^700)
        aligned = np.full((n, d), a)
        for inst in (random_instance(n, d, 5, a), AttentionInstance(aligned, aligned, aligned),
                     AttentionInstance(aligned, aligned, -aligned)):
            for mode, kernel in BACKEND_MODES.items():
                if mode == "streaming" and m < 8 * d:
                    continue
                res = kernel(MemoryHierarchy(m), inst)
                assert not res.overflow, (mode, n, d, m)
    # the margin is real: at d a^2 + ln N = 712 the aligned tiling run overflows
    n, d = 16, 4
    aligned = np.full((n, d), math.sqrt((712 - math.log(n)) / d))
    assert square_tiling_attention(MemoryHierarchy(16),
                                   AttentionInstance(aligned, aligned, aligned)).overflow
