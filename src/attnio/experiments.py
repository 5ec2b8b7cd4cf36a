"""Parameter sweeps, scaling-exponent fits, and bound-consistency checks.

A sweep runs the chosen kernels over an (N, d, M) grid on seeded random
instances and records exact I/O counts, epoch counts, and the largest
number of Q K^T entries completed in any single epoch (B_max).  Records
serialize to a stable CSV schema; fits and bound checks consume them.

All numeric thresholds live in bound_config.json next to this module so
the acceptance constants are auditable in one place.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, fields
from importlib import resources
from itertools import product
from numbers import Real
from operator import attrgetter
from typing import get_type_hints

import numpy as np

from .compression import epoch_progress_bound, max_entries_per_epoch
from .errors import ConfigurationError, RegimeError, is_integer
from .kernels import (
    dispatch_attention,
    picks_streaming,
    square_tiling_attention,
    streaming_attention,
    streaming_fits,
)
from .matrices import AttentionInstance, random_instance
from .memory import MIN_CAPACITY, CountHierarchy, MemoryHierarchy

_KERNELS = {
    "tiling": square_tiling_attention,
    "streaming": streaming_attention,
    "dispatch": dispatch_attention,
}


def load_bound_config() -> dict:
    with resources.files(__package__).joinpath("bound_config.json").open() as fh:
        return json.load(fh)


def _is_list(value) -> bool:
    return isinstance(value, Sequence) and not isinstance(value, str)


# The least N, d and M a sweep accepts; every other integer field of a
# record (the counts) is at least 0.
_LEAST = {"N": 1, "d": 1, "M": MIN_CAPACITY}


@dataclass(frozen=True)
class SweepConfig:
    """Grid specification; the seed fully determines all inputs.

    Every grid is a non-empty sequence of ints, N and d >= 1 and
    M >= ``memory.MIN_CAPACITY``; ``algorithms`` is a non-empty sequence
    of kernel names; the seed is an int >= 0; the magnitude is a real
    number >= 0, not a bool, whose double is a finite float (what
    ``random_instance`` can draw from).  Anything else raises
    ``ConfigurationError`` naming the field, before any point runs.
    """

    n_grid: tuple
    d_grid: tuple
    m_grid: tuple
    algorithms: tuple = ("tiling", "streaming")
    seed: int = 0
    magnitude: float = 1.0

    def __post_init__(self):
        for field, name in (("n_grid", "N"), ("d_grid", "d"), ("m_grid", "M")):
            grid, least = getattr(self, field), _LEAST[name]
            if not (_is_list(grid) and grid and all(is_integer(x) and x >= least for x in grid)):
                raise ConfigurationError(
                    f"{name} must be a non-empty list of integers >= {least}, got {grid!r}")
            object.__setattr__(self, field, tuple(grid))
        if not (_is_list(self.algorithms) and self.algorithms):
            raise ConfigurationError(
                f"algorithms must be a non-empty list, got {self.algorithms!r}")
        for alg in self.algorithms:
            if not isinstance(alg, str) or alg not in _KERNELS:
                raise ConfigurationError(f"unknown algorithm {alg!r}")
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        if not (is_integer(self.seed) and self.seed >= 0):
            raise ConfigurationError(f"seed must be an integer >= 0, got {self.seed!r}")
        a = self.magnitude
        try:
            drawable = (isinstance(a, Real) and not isinstance(a, bool) and a >= 0
                        and math.isfinite(2 * float(a)))
        except OverflowError:  # an int too large for a float
            drawable = False
        if not drawable:
            raise ConfigurationError(
                f"magnitude must be a real number >= 0 with 2*magnitude finite, got {a!r}")

    @classmethod
    def from_json(cls, path) -> "SweepConfig":
        """Read a grid; malformed content raises ``ConfigurationError``."""
        with open(path) as fh:
            try:
                raw = json.load(fh)
                parsed = dict(n_grid=raw["N"], d_grid=raw["d"], m_grid=raw["M"])
                parsed.update((key, raw[key]) for key in ("algorithms", "seed", "magnitude")
                              if key in raw)
            except (ValueError, KeyError, TypeError) as exc:
                raise ConfigurationError(f"{path}: malformed sweep config ({exc!r})") from None
        return cls(**parsed)


@dataclass(frozen=True)
class SweepRecord:
    algorithm: str
    N: int
    d: int
    M: int
    status: str            # one of STATUSES
    reads: int
    writes: int
    epochs: int
    bmax: int

    def __post_init__(self):
        """Refuse a record ``run_sweep`` could not have written: an unknown
        algorithm, a status outside ``STATUSES``, a non-integer count, N, d
        or M below ``SweepConfig``'s least, or a negative count.  Raises
        ``ConfigurationError``, so every record source gets the one check."""
        if not isinstance(self.algorithm, str) or self.algorithm not in _KERNELS:
            raise ConfigurationError(f"unknown algorithm {self.algorithm!r}")
        if self.status not in STATUSES:
            raise ConfigurationError(f"status {self.status!r} not in {STATUSES}")
        for name in _INT_COLUMNS:
            value, least = getattr(self, name), _LEAST.get(name, 0)
            if not is_integer(value):
                raise ConfigurationError(f"{name} = {value!r} is not an integer")
            if value < least:
                raise ConfigurationError(f"{name} = {value} is below {least}")

    @property
    def io(self) -> int:
        return self.reads + self.writes


STATUSES = ("ok", "regime_error", "numeric_error")
CSV_COLUMNS = [f.name for f in fields(SweepRecord)]
_COLUMN_TYPES = [get_type_hints(SweepRecord)[name] for name in CSV_COLUMNS]
_INT_COLUMNS = [name for name, t in zip(CSV_COLUMNS, _COLUMN_TYPES) if t is int]


def _point_seed(base: int, alg: str, n: int, d: int, m: int) -> np.random.SeedSequence:
    alg_id = sorted(_KERNELS).index(alg)
    return np.random.SeedSequence([base, alg_id, n, d, m])


def _runs_on_counts(n: int, d: int, magnitude: float) -> bool:
    """Whether a point's values provably stay finite, d a^2 + ln N <= 700
    for the magnitude a, so that it runs on a ``CountHierarchy``."""
    return d * magnitude * magnitude + math.log(n) <= 700


def _shape_instance(n: int, d: int) -> AttentionInstance:
    """An N x d instance of one shared zero (a read-only broadcast view),
    for kernels that read only its shapes."""
    zero = np.broadcast_to(0.0, (n, d))
    return AttentionInstance(zero, zero, zero)


def run_sweep(config: SweepConfig) -> list[SweepRecord]:
    """One record per (algorithm, N, d, M) grid point, in grid order.

    A kernel raising a regime error yields a record with status
    "regime_error" and zeroed counters; the sweep continues.  A run whose
    arithmetic overflowed (NaN or +inf in the cache, or any non-finite
    value in the output) keeps its counts but gets status
    "numeric_error", so bound checks skip it.

    Counts do not depend on the values, so a point runs on a
    ``CountHierarchy`` whenever its values provably stay finite, that is
    when d a^2 + ln N <= 700 for the magnitude a, and on a
    ``MemoryHierarchy`` otherwise.  A count point draws no values: its
    kernel reads only the shapes of an all-zero instance, so the seed
    sets only the values of numeric points, each drawn from the point's
    own seed.  Proof that such a point's values stay finite: every entry
    of Q and K lies in [-a, a], so every score s has |s| <= d a^2 <=
    700 - ln N.  Tiling's raw exps then lie in [e^-700, e^700 / N] and its
    row sums in [e^-700, e^700]: none is 0 or +inf, as float64 reaches
    e^709.7 and its least normal is e^-708.3.  So the reciprocal row
    sums are finite, a block product A V stays below N (e^700 / N) a <=
    e^704 (a <= sqrt(700)), and each scaled term is a weighted mean of V
    entries.  Streaming subtracts the running max before each exp, so
    every exp lies in [0, 1], the row sums in [1, N] and the output
    within N a.  No stored result is NaN or +/-inf, so ``overflow``
    would be False and the count run records what the numeric run would.
    """
    records = []
    a = float(config.magnitude)
    for alg, n, d, m in product(config.algorithms, config.n_grid, config.d_grid,
                                config.m_grid):
        if _runs_on_counts(n, d, a):
            h, inst = CountHierarchy(m), _shape_instance(n, d)
        else:
            seed = _point_seed(config.seed, alg, n, d, m)
            h, inst = MemoryHierarchy(m), random_instance(n, d, seed, config.magnitude)
        try:
            res = _KERNELS[alg](h, inst)
        except RegimeError:
            records.append(SweepRecord(alg, n, d, m, "regime_error", 0, 0, 0, 0))
            continue
        bmax = max_entries_per_epoch(res.entry_completions, res.epochs)
        status = "numeric_error" if res.overflow else "ok"
        records.append(SweepRecord(alg, n, d, m, status, res.io.reads, res.io.writes,
                                   len(res.epochs), bmax))
    return records


def records_to_csv(records) -> str:
    """Stable CSV text: header then one record per line in input order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(map(attrgetter(*CSV_COLUMNS), records))
    return buf.getvalue()


def write_records_csv(records, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(records_to_csv(records))


def read_records_csv(path) -> list[SweepRecord]:
    """The records of a CSV that ``write_records_csv`` wrote.  A header
    other than ``CSV_COLUMNS``, a row of the wrong field count or with a
    non-integer count, or a record ``SweepRecord`` refuses, raises
    ``ConfigurationError`` naming the file (and the line)."""
    records = []
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows, None)
        if header != CSV_COLUMNS:
            raise ConfigurationError(
                f"{path}: header {header} is not the sweep columns {CSV_COLUMNS}")
        for row in rows:
            try:
                records.append(
                    SweepRecord(*(t(v) for t, v in zip(_COLUMN_TYPES, row, strict=True))))
            except ValueError as exc:  # ConfigurationError included
                raise ConfigurationError(f"{path}, line {rows.line_num}: {exc}") from None
    return records


def fit_scaling_exponent(records) -> tuple[float, float]:
    """Least-squares slope of log(I/O) against log(M).

    Returns (slope, residual) where residual is the root-mean-square
    log deviation from the fitted line.  Needs at least 3 records that
    differ only in M.
    """
    usable = [r for r in records if r.status == "ok"]
    if len(usable) < 3:
        raise ConfigurationError("need at least 3 ok records to fit")
    for name in ("N", "d"):
        if len({getattr(r, name) for r in usable}) != 1:
            raise ConfigurationError(f"records vary along {name}, expected only M")
    xs = np.log([r.M for r in usable])
    if len(set(xs)) < 2:
        raise ConfigurationError("degenerate grid: axis values all equal")
    ys = np.log([r.io for r in usable])
    (slope, intercept), *_ = np.polyfit(xs, ys, 1, full=True)
    residual = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
    return float(slope), residual


@dataclass(frozen=True)
class BoundFlags:
    record: SweepRecord
    upper_ok: bool
    lower_ok: bool
    epoch_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.upper_ok and self.lower_ok and self.epoch_ok


@dataclass(frozen=True)
class BoundReport:
    """Flags of the checked (ok) records; ``skipped`` counts the rest."""

    flags: list
    skipped: int

    @property
    def ok(self) -> bool:
        """Every checked record passes, and at least one was checked."""
        return bool(self.flags) and all(f.all_ok for f in self.flags)

    def failures(self) -> list:
        return [f for f in self.flags if not f.all_ok]


def regime_terms(n: int, d: int, m: int) -> tuple[float, float]:
    """The paper's regime terms (N^2 d / sqrt(M), N^2 d^2 / M); their
    minimum, the first below M = d^2 and the second from it on, is the
    paper's Theta bound.  Every bound in this module derives from them."""
    return n * n * d / math.sqrt(m), n * n * d * d / m


def upper_bound_formula(algorithm: str, n: int, d: int, m: int) -> float:
    """The regime formula each kernel is held to (constant excluded):
    tiling's small-cache term plus N^2 + Nd, streaming's large-cache term
    plus Nd, dispatch the better of the two.  An unknown algorithm raises
    ``ConfigurationError``."""
    small, large = regime_terms(n, d, m)
    tiling, streaming = small + n * n + n * d, large + n * d
    if algorithm == "tiling":
        return tiling
    if algorithm == "streaming":
        return streaming
    if algorithm == "dispatch":
        return min(tiling, streaming)
    raise ConfigurationError(f"unknown algorithm {algorithm!r}")


def check_bounds(records) -> BoundReport:
    """Flag each ok record against three inequalities; other records are
    counted as skipped.

    (i) upper: I/O <= C_up * ``upper_bound_formula``; (ii) lower: the
    paper's bound I/O >= C_lo * min(N^2 d / sqrt(M), N^2 d^2 / M) plus
    I/O >= 3Nd; (iii) epoch progress: B_max <= C_ep *
    epoch_progress_bound(2M, d).  Both I/O bounds derive from
    ``regime_terms``; flags are plain bools.  ``read_records_csv``
    refuses a row a sweep could not have written, so none reaches here.
    """
    cfg = load_bound_config()
    c_up = cfg["upper_constant"]
    c_lo = cfg["lower_constant"]
    c_ep = cfg["epoch_progress_constant"]
    factor = cfg["epoch_cache_factor"]
    flags = []
    skipped = 0
    for r in records:
        if r.status != "ok":
            skipped += 1
            continue
        upper = r.io <= c_up * upper_bound_formula(r.algorithm, r.N, r.d, r.M)
        lower = r.io >= c_lo * min(regime_terms(r.N, r.d, r.M)) and r.io >= 3 * r.N * r.d
        epoch = r.bmax <= c_ep * epoch_progress_bound(factor * r.M, r.d)
        flags.append(BoundFlags(r, upper, lower, epoch))
    return BoundReport(flags, skipped)


def dispatch_matches_argmin(n: int, d: int, m: int) -> bool:
    """True iff the dispatcher's choice (``picks_streaming``, the kernels'
    own integer predicate) equals the argmin of ``regime_terms`` (ties to
    streaming) wherever both regimes are available."""
    tiling_f, streaming_f = regime_terms(n, d, m)
    picked = picks_streaming(m, d)
    if not streaming_fits(m, d):
        return not picked
    return picked == (streaming_f <= tiling_f)
