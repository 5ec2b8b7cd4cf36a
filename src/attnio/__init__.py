"""A desk-scale laboratory for the I/O complexity of attention.

The package simulates a two-level memory hierarchy with exact per-word
I/O accounting, runs tiled and streaming attention kernels against it,
models the computation as a red-blue pebble game on an explicit DAG,
and provides the finite-field counting machinery (Vandermonde and BCH
constructions, distinct-output enumeration) behind communication-style
lower bounds, all at sizes where everything can be checked exhaustively.
"""

from .compression import (
    IndexSet,
    cc_lower_bound_symbols,
    direct_compression_protocol,
    distinct_output_count,
    epoch_progress_bound,
    max_entries_per_epoch,
)
from .errors import (
    AddressError,
    CapacityError,
    ConfigurationError,
    DegenerateParameterError,
    EnumerationCapError,
    FieldError,
    RegimeError,
    ResidencyError,
    UsageError,
)
from .experiments import (
    SweepConfig,
    SweepRecord,
    check_bounds,
    fit_scaling_exponent,
    load_bound_config,
    run_sweep,
    write_records_csv,
)
from .fields import (
    BinaryExtField,
    FieldMatrix,
    PrimeField,
    all_k_subsets_independent,
    bch_parity_check,
    binary_independence_matrix,
    min_code_distance,
    vandermonde_matrix,
)
from .kernels import (
    KernelResult,
    dispatch_attention,
    matmul_via_attention,
    reference_attention,
    square_tiling_attention,
    streaming_attention,
)
from .matrices import AttentionInstance, random_instance
from .memory import (
    Block,
    CountHierarchy,
    IoStats,
    MemoryHierarchy,
    export_trace_csv,
    split_into_epochs,
)
from .pebbling import (
    AttentionDag,
    PartSpec,
    PebblingDag,
    blocked_pebbling_schedule,
    brute_force_min_io,
    build_attention_dag,
    level1_vertex_count,
    validate_calculation,
    verify_m_partition,
)

__version__ = "0.1.0"
