"""Sweeps, fits, bound checks, and CSV determinism."""

import math
import warnings

import pytest

from attnio import errors
from attnio import experiments as E


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
    # exp of raw scores near 30^2 * 4 overflows the unstabilized kernel
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


def test_fit_exact_power_laws():
    streaming = [E.SweepRecord("streaming", 16, 4, m, "ok",
                               int(1000 * 16 * 16 * 16 / m), 0, 1, 0)
                 for m in (16, 32, 64)]
    slope, residual = E.fit_scaling_exponent(streaming, "M")
    assert abs(slope + 1.0) < 1e-9 and residual < 1e-9

    tiling = [E.SweepRecord("tiling", 16, 4, m, "ok",
                            int(round(1000 * 16 * 16 * 4 / math.sqrt(m))), 0, 1, 0)
              for m in (16, 36, 64)]
    slope, _ = E.fit_scaling_exponent(tiling, "M")
    assert abs(slope + 0.5) < 1e-3


def test_fit_measured_tiling_slope():
    cfg = small_config(n_grid=(32,), d_grid=(8,), m_grid=(16, 36, 64),
                       algorithms=("tiling",), seed=3)
    slope, _ = E.fit_scaling_exponent(E.run_sweep(cfg), "M")
    assert -0.6 <= slope <= -0.4


def test_fit_preconditions():
    records = E.run_sweep(small_config(m_grid=(32, 64)))
    with pytest.raises(errors.ConfigurationError):
        E.fit_scaling_exponent(records, "M")  # only 2 points
    mixed = E.run_sweep(small_config(n_grid=(8, 16), m_grid=(32, 64, 128)))
    with pytest.raises(errors.ConfigurationError):
        E.fit_scaling_exponent(mixed, "M")  # N varies too


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
