"""Command-line front end.

Subcommand groups mirror the library's modules:

* ``attn run`` / ``attn sweep`` - kernel runs and grid sweeps;
* ``pebble build|validate|search`` - DAG export, calculation checking,
  and exhaustive I/O search;
* ``codes vandermonde|bch|verify`` - independence constructions;
* ``compress count`` - the distinct-output counting oracle.

Exit code is 0 iff every check the invocation enables passes; bad
input, including a path that cannot be read or written, exits 2.  The
output paths of ``attn run`` and ``attn sweep`` are opened before the
run, so an unwritable one exits 2 with no run and no output.  An input
above an enumeration cap exits 1 with one ``refused: ...`` line, and
ATTNIO_ENUM_CAP sets the cap in each command's unit: ``pebble search``
configurations 4^n for n nodes, ``codes vandermonde|verify`` subsets
C(N, k), ``codes bch`` codewords 2^(null space dimension), ``compress
count`` assignments q^(free rows * d).  ``main`` alone sets exit codes.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import compression, experiments, fields, kernels, pebbling
from .errors import (
    ConfigurationError,
    DegenerateParameterError,
    EnumerationCapError,
    FieldError,
    RegimeError,
)
from .fields import FieldMatrix
from .matrices import random_instance
from .memory import MemoryHierarchy, export_trace_csv

ENUM_CAP_VAR = "ATTNIO_ENUM_CAP"


def _enum_cap(default: int) -> int:
    raw = os.environ.get(ENUM_CAP_VAR)
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{ENUM_CAP_VAR} must be an integer, got {raw!r}") from None


def _check_writable(path) -> None:
    """Open ``path`` for appending, which creates it but keeps what it
    holds, so an unwritable path fails before a run, not after it."""
    if path:
        with open(path, "a"):
            pass


def _cmd_attn_run(args) -> int:
    inst = random_instance(args.N, args.d, args.seed)
    h = MemoryHierarchy(args.M)
    _check_writable(args.trace)
    result = experiments._KERNELS[args.algorithm](h, inst)
    reference = kernels.reference_attention(inst)
    err = np.linalg.norm(result.output - reference) / np.linalg.norm(reference)
    print(f"algorithm={result.algorithm} N={args.N} d={args.d} M={args.M}")
    print(f"reads={result.io.reads} writes={result.io.writes} total={result.io.total}")
    print(f"epochs={len(result.epochs)} relative_error={err:.3e}")
    if args.trace:
        export_trace_csv(h.trace, args.trace)
        print(f"trace written to {args.trace}")
    return 0 if err <= experiments.load_bound_config()["oracle_rel_tolerance"] else 1


def _cmd_attn_sweep(args) -> int:
    config = experiments.SweepConfig.from_json(args.config)
    _check_writable(args.out)
    records = experiments.run_sweep(config)
    experiments.write_records_csv(records, args.out)
    report = experiments.check_bounds(records)
    numeric_errors = sum(r.status == "numeric_error" for r in records)
    print(f"{len(records)} records written to {args.out}")
    for flag in report.failures():
        r = flag.record
        print(f"bound failure: {r.algorithm} N={r.N} d={r.d} M={r.M} "
              f"upper={flag.upper_ok} lower={flag.lower_ok} epoch={flag.epoch_ok}")
    print(f"numeric errors: {numeric_errors}")
    print(f"bound checks: {'pass' if report.ok else 'FAIL'} "
          f"({len(report.flags)} checked, {report.skipped} skipped)")
    return 0 if report.ok and not numeric_errors else 1


def _cmd_pebble_build(args) -> int:
    dag = pebbling.build_attention_dag(args.N, args.d)
    dag.to_jsonl(args.out)
    counts = dag.kind_counts()
    print(f"{len(dag)} nodes written to {args.out}")
    for kind in sorted(counts):
        print(f"  {kind}: {counts[kind]}")
    return 0


def _cmd_pebble_validate(args) -> int:
    dag = pebbling.PebblingDag.from_jsonl(args.dag)
    calc = pebbling.load_calculation(args.calculation)
    result = pebbling.validate_calculation(dag, args.M, calc)
    if result.ok:
        print(f"valid: reads={result.reads} writes={result.writes} io={result.io}")
        return 0
    v = result.violation
    print(f"invalid at transition {v.index}: rule {v.rule}: {v.message}")
    return 1


def _cmd_pebble_search(args) -> int:
    dag = pebbling.PebblingDag.from_jsonl(args.dag)
    best = pebbling.brute_force_min_io(
        dag, args.M, cap=_enum_cap(pebbling.CONFIGURATION_ENUMERATION_CAP))
    print(f"minimum I/O = {best}")
    return 0


def _report_independence(matrix: FieldMatrix, k: int) -> int:
    ok, witness = fields.all_k_subsets_independent(
        matrix, k, cap=_enum_cap(fields.SUBSET_ENUMERATION_CAP))
    print(f"all {k}-row subsets independent: {ok}"
          + (f" (witness {witness})" if witness else ""))
    return 0 if ok else 1


def _cmd_codes_vandermonde(args) -> int:
    matrix = fields.vandermonde_matrix(args.N, args.d, args.q)
    if args.out:
        matrix.save_csv(args.out)
        print(f"matrix written to {args.out}")
    return _report_independence(matrix, args.d)


def _cmd_codes_bch(args) -> int:
    h = fields.bch_parity_check(args.m, args.s)
    if args.out:
        h.save_csv(args.out)
        print(f"parity check written to {args.out}")
    distance = fields.min_code_distance(
        h, cap=_enum_cap(fields.CODEWORD_ENUMERATION_CAP))
    print(f"rows={h.rows} cols={h.cols} rank={h.rank()} min_distance={distance}")
    return 0


def _cmd_codes_verify(args) -> int:
    return _report_independence(FieldMatrix.load_csv(args.file, args.q), args.k)


def _load_k_matrix(spec: str, n: int, d: int, q: int) -> FieldMatrix:
    if spec == "vandermonde":
        return fields.vandermonde_matrix(n, d, q)
    if spec == "bch":
        if q != 2:
            raise ConfigurationError("the bch construction is binary; use --q 2")
        return fields.binary_independence_matrix(n, d)
    return FieldMatrix.load_csv(spec, q)


def _cmd_compress_count(args) -> int:
    pairs = fields.read_int_csv(args.indices)
    if pairs.shape[1] != 2:
        raise ConfigurationError(
            f"{args.indices}: expected (row, col) pairs, got {pairs.shape[1]} columns")
    index_set = compression.IndexSet(pairs.tolist())
    k = _load_k_matrix(args.K, args.N, args.d, args.q)
    count = compression.distinct_output_count(
        k, index_set, args.q, args.N, args.d,
        cap=_enum_cap(compression.ENUMERATION_CAP))
    symbols = compression.cc_lower_bound_symbols(count, args.q)
    print(f"distinct outputs: {count}")
    print(f"lower bound: {symbols} field symbols")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attnio", description="I/O-complexity laboratory for attention")
    top = parser.add_subparsers(dest="group", required=True)

    attn = top.add_parser("attn", help="attention kernel runs and sweeps")
    attn_sub = attn.add_subparsers(dest="command", required=True)
    run = attn_sub.add_parser("run", help="run one kernel and report exact I/O")
    run.add_argument("--N", type=int, required=True)
    run.add_argument("--d", type=int, required=True)
    run.add_argument("--M", type=int, required=True)
    run.add_argument("--algorithm", choices=tuple(experiments._KERNELS),
                     default="dispatch")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--trace", help="write the I/O trace CSV here")
    run.set_defaults(func=_cmd_attn_run)
    sweep = attn_sub.add_parser("sweep", help="run a grid sweep from a JSON config")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--out", required=True)
    sweep.set_defaults(func=_cmd_attn_sweep)

    pebble = top.add_parser("pebble", help="pebbling DAGs and calculations")
    pebble_sub = pebble.add_subparsers(dest="command", required=True)
    build = pebble_sub.add_parser("build", help="build the attention DAG as JSON lines")
    build.add_argument("--N", type=int, required=True)
    build.add_argument("--d", type=int, required=True)
    build.add_argument("--out", required=True)
    build.set_defaults(func=_cmd_pebble_build)
    validate = pebble_sub.add_parser("validate", help="check a calculation file")
    validate.add_argument("--dag", required=True)
    validate.add_argument("--calculation", required=True)
    validate.add_argument("--M", type=int, required=True)
    validate.set_defaults(func=_cmd_pebble_validate)
    search = pebble_sub.add_parser("search", help="exact minimum I/O on tiny DAGs")
    search.add_argument("--dag", required=True)
    search.add_argument("--M", type=int, required=True)
    search.set_defaults(func=_cmd_pebble_search)

    codes = top.add_parser("codes", help="independence constructions")
    codes_sub = codes.add_subparsers(dest="command", required=True)
    vand = codes_sub.add_parser("vandermonde", help="Vandermonde matrix over F_q")
    vand.add_argument("N", type=int)
    vand.add_argument("d", type=int)
    vand.add_argument("q", type=int)
    vand.add_argument("--out")
    vand.set_defaults(func=_cmd_codes_vandermonde)
    bch = codes_sub.add_parser("bch", help="binary BCH parity-check matrix")
    bch.add_argument("m", type=int)
    bch.add_argument("s", type=int)
    bch.add_argument("--out")
    bch.set_defaults(func=_cmd_codes_bch)
    verify = codes_sub.add_parser("verify", help="check k-row independence of a CSV matrix")
    verify.add_argument("file")
    verify.add_argument("k", type=int)
    verify.add_argument("--q", type=int, default=2)
    verify.set_defaults(func=_cmd_codes_verify)

    compress = top.add_parser("compress", help="entry-compression counting oracle")
    compress_sub = compress.add_subparsers(dest="command", required=True)
    count = compress_sub.add_parser("count", help="count distinct output tuples")
    count.add_argument("--q", type=int, required=True)
    count.add_argument("--N", type=int, required=True)
    count.add_argument("--d", type=int, required=True)
    count.add_argument("--indices", required=True,
                       help="CSV of (row, col) pairs, 0-based")
    count.add_argument("--K", required=True,
                       help="'vandermonde', 'bch', or a CSV file path")
    count.set_defaults(func=_cmd_compress_count)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EnumerationCapError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    except RegimeError as exc:
        print(f"regime error: {exc}", file=sys.stderr)
        return 1
    except (ConfigurationError, FieldError, DegenerateParameterError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy's message names the size and shape it could not allocate
        print(f"error: out of memory{': ' if str(exc) else ''}{exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
