"""Span tracer that wraps attnio's public layer functions from outside.

The traced run replaces each wrapped function, wherever an attnio module
or a module-level registry holds it, with a wrapper that records one span
(name, start, end, parent) and the counts seen at that boundary: words
per ``read_block``/``write_block``, cache occupancy after each memory
call, and the exact I/O of each leaf kernel.  Nothing inside ``src/`` is
edited; ``uninstall`` puts every original back.

Spans live in flat arrays for one pass at a time; ``pass_metrics``
reduces them to per-layer self times, counts and rates, and runs the
sum checks (read words equal kernel reads, write words equal kernel
writes, peak occupancy at most M, child spans inside their parents).
"""

from __future__ import annotations

import math
import sys
from array import array
from time import perf_counter
from types import FunctionType

# Wrapped call -> span name.  alloc and free share one name: slot
# management is one cost centre of the simulator.
MEMORY_METHODS = {
    "compute": "memory.compute",
    "read_block": "memory.read_block",
    "write_block": "memory.write_block",
    "alloc": "memory.slots",
    "free": "memory.slots",
    "load": "memory.load",
    "fetch_matrix": "memory.fetch_matrix",
}
MODULE_FUNCTIONS = {
    "memory": {"split_into_epochs": "memory.split_into_epochs"},
    "kernels": {
        "square_tiling_attention": "kernels.tiling",
        "streaming_attention": "kernels.streaming",
        "dispatch_attention": "kernels.dispatch",
        "matmul_via_attention": "kernels.matmul",
        "reference_attention": "kernels.reference",
    },
    "compression": {
        "distinct_output_count": "compression.distinct_output_count",
        "max_entries_per_epoch": "compression.max_entries_per_epoch",
    },
    "fields": {
        "min_code_distance": "fields.min_code_distance",
        "all_k_subsets_independent": "fields.all_k_subsets_independent",
    },
    "pebbling": {
        "build_attention_dag": "pebbling.build_attention_dag",
        "blocked_pebbling_schedule": "pebbling.blocked_pebbling_schedule",
        "validate_calculation": "pebbling.validate_calculation",
        "brute_force_min_io": "pebbling.brute_force_min_io",
    },
    "experiments": {
        "run_sweep": "experiments.run_sweep",
        "check_bounds": "experiments.check_bounds",
        "records_to_csv": "experiments.records_to_csv",
    },
}
LEAF_KERNELS = ("kernels.tiling", "kernels.streaming")

# Per-layer metrics of the traced run, in report order, with units.
PER_LAYER = {
    "memory.compute.calls": "count",
    "memory.compute.self_s": "s",
    "memory.read_block.calls": "count",
    "memory.read_block.words": "words",
    "memory.read_block.self_s": "s",
    "memory.write_block.calls": "count",
    "memory.write_block.words": "words",
    "memory.write_block.self_s": "s",
    "memory.slots.self_s": "s",
    "memory.load.self_s": "s",
    "memory.fetch_matrix.self_s": "s",
    "memory.split_into_epochs.self_s": "s",
    "memory.words_per_read_call": "words/call",
    "memory.peak_words_over_M": "ratio",
    "kernels.streaming.self_s": "s",
    "kernels.tiling.self_s": "s",
    "kernels.streaming.us_per_io": "us",
    "kernels.tiling.us_per_io": "us",
    "kernels.reference.s": "s",
    "compression.distinct_output_count.s": "s",
    "compression.assignments_per_s": "1/s",
    "compression.max_entries_per_epoch.s": "s",
    "fields.min_code_distance.s": "s",
    "fields.codewords_per_s": "1/s",
    "fields.all_k_subsets_independent.s": "s",
    "fields.subsets_per_s": "1/s",
    "pebbling.build_attention_dag.s": "s",
    "pebbling.blocked_pebbling_schedule.s": "s",
    "pebbling.validate_calculation.s": "s",
    "pebbling.brute_force_min_io.s": "s",
    "pebbling.transitions_per_s": "1/s",
    "experiments.run_sweep.self_s": "s",
    "experiments.check_bounds.s": "s",
    "experiments.records_to_csv.s": "s",
    "experiments.kernel_share": "ratio",
    "experiments.regime_error_share": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it that its direct
    children cover (child intervals are clipped to the parent and
    merged, so overlapping children are not subtracted twice)."""
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(len(starts)):
        lo, hi = starts[i], ends[i]
        covered = 0.0
        cursor = lo
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            a, b = max(starts[c], cursor), min(ends[c], hi)
            if b > a:
                covered += b - a
                cursor = b
        out.append((hi - lo) - covered)
    return out


class Tracer:
    """Records spans and boundary counts while installed."""

    def __init__(self):
        self._installed: list[tuple[object, str, object]] = []
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.peak_ratio = 0.0

    def reset(self) -> None:
        """Forget the spans and counts recorded so far (wrappers hold
        references to these containers, so they are cleared in place)."""
        self.names.clear()
        for arr in (self.starts, self.ends, self.parents):
            del arr[:]
        self._stack.clear()
        self.counts.clear()
        self.peak_ratio = 0.0

    def _count(self, key: str, n: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack)

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every traced function of the imported attnio package."""
        from attnio.memory import MemoryHierarchy

        self.reset()
        for method, name in MEMORY_METHODS.items():
            original = getattr(MemoryHierarchy, method)
            self._replace(MemoryHierarchy, method, original,
                          self._wrap(name, original, self._memory_hook(method)))
        originals = {}
        for module, table in MODULE_FUNCTIONS.items():
            mod = sys.modules[f"attnio.{module}"]
            for func, name in table.items():
                original = getattr(mod, func)
                originals[original] = self._wrap(name, original, self._hook(name))
        # Rebind every reference: module globals (kernels calls memory's
        # split_into_epochs through its own namespace) and module-level
        # registries such as experiments' algorithm table.
        modules = [m for key, m in list(sys.modules.items())
                   if key == "attnio" or key.startswith("attnio.")]
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if isinstance(value, FunctionType) and value in originals:
                    self._replace(mod, key, value, originals[value])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if isinstance(v, FunctionType) and v in originals:
                            self._replace(value, k, v, originals[v])

    def _replace(self, owner, key, original, wrapper) -> None:
        if isinstance(owner, dict):
            owner[key] = wrapper
        else:
            setattr(owner, key, wrapper)
        self._installed.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._installed):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._installed.clear()

    # -- boundary counts -------------------------------------------------------

    def _memory_hook(self, method: str):
        def after(args, _result):
            h = args[0]
            if method == "read_block":
                self._count("memory.read_words", len(args[1]))
            elif method == "write_block":
                self._count("memory.write_words", len(args[2]))
            ratio = h.words_used / h.capacity
            if ratio > self.peak_ratio:
                self.peak_ratio = ratio
        return after

    def _hook(self, name: str):
        if name in LEAF_KERNELS:
            def after(_args, res):
                self._count(name + ".reads", res.io.reads)
                self._count(name + ".writes", res.io.writes)
        elif name == "compression.distinct_output_count":
            def after(args, _res):
                k, index_set, q = args[0], args[1], args[2]
                self._count("compression.assignments", q ** (len(index_set.rows) * k.cols))
        elif name == "fields.min_code_distance":
            def after(args, _res):
                h = args[0]
                self._count("fields.codewords", 2 ** (h.cols - h.rank()))
        elif name == "fields.all_k_subsets_independent":
            def after(args, _res):
                self._count("fields.subsets", math.comb(args[0].rows, args[1]))
        elif name == "pebbling.validate_calculation":
            def after(args, _res):
                self._count("pebbling.transitions", len(args[2]))
        elif name == "experiments.run_sweep":
            def after(_args, records):
                self._count("experiments.attempts", len(records))
                self._count("experiments.regime_errors",
                            sum(r.status == "regime_error" for r in records))
        else:
            after = None
        return after

    # -- reduction -------------------------------------------------------------

    def pass_metrics(self) -> tuple[dict[str, float], list[str]]:
        """Per-layer figures of the pass traced since ``reset``, and the
        list of sum checks that failed (empty when all hold)."""
        selfs = self_times(self.starts, self.ends, self.parents)
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        calls: dict[str, int] = {}
        for i, name in enumerate(self.names):
            total[name] = total.get(name, 0.0) + (self.ends[i] - self.starts[i])
            own[name] = own.get(name, 0.0) + selfs[i]
            calls[name] = calls.get(name, 0) + 1
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        m = {
            "memory.compute.calls": calls.get("memory.compute", 0),
            "memory.read_block.calls": calls.get("memory.read_block", 0),
            "memory.read_block.words": c.get("memory.read_words", 0),
            "memory.write_block.calls": calls.get("memory.write_block", 0),
            "memory.write_block.words": c.get("memory.write_words", 0),
            "memory.words_per_read_call": ratio(c.get("memory.read_words", 0),
                                                calls.get("memory.read_block", 0)),
            "memory.peak_words_over_M": self.peak_ratio,
            "kernels.reference.s": total.get("kernels.reference", 0.0),
            "compression.assignments_per_s": ratio(
                c.get("compression.assignments", 0),
                total.get("compression.distinct_output_count", 0.0)),
            "fields.codewords_per_s": ratio(c.get("fields.codewords", 0),
                                            total.get("fields.min_code_distance", 0.0)),
            "fields.subsets_per_s": ratio(c.get("fields.subsets", 0),
                                          total.get("fields.all_k_subsets_independent", 0.0)),
            "pebbling.transitions_per_s": ratio(c.get("pebbling.transitions", 0),
                                                total.get("pebbling.validate_calculation", 0.0)),
            "experiments.kernel_share": ratio(
                sum(total.get(k, 0.0) for k in LEAF_KERNELS),
                total.get("experiments.run_sweep", 0.0)),
            "experiments.regime_error_share": ratio(c.get("experiments.regime_errors", 0),
                                                    c.get("experiments.attempts", 0)),
            "trace.spans": len(self.names),
        }
        for name in ("memory.compute", "memory.read_block", "memory.write_block",
                     "memory.slots", "memory.load", "memory.fetch_matrix",
                     "memory.split_into_epochs", "kernels.streaming", "kernels.tiling",
                     "experiments.run_sweep"):
            m[name + ".self_s"] = own.get(name, 0.0)
        for name in ("compression.distinct_output_count", "compression.max_entries_per_epoch",
                     "fields.min_code_distance", "fields.all_k_subsets_independent",
                     "pebbling.build_attention_dag", "pebbling.blocked_pebbling_schedule",
                     "pebbling.validate_calculation", "pebbling.brute_force_min_io",
                     "experiments.check_bounds", "experiments.records_to_csv"):
            m[name + ".s"] = total.get(name, 0.0)
        for name in LEAF_KERNELS:
            io = c.get(name + ".reads", 0) + c.get(name + ".writes", 0)
            m[name + ".us_per_io"] = ratio(total.get(name, 0.0) * 1e6, io)
        return m, self._sum_check_failures(selfs)

    def _sum_check_failures(self, selfs) -> list[str]:
        c = self.counts
        failures = []
        kernel_reads = sum(c.get(k + ".reads", 0) for k in LEAF_KERNELS)
        kernel_writes = sum(c.get(k + ".writes", 0) for k in LEAF_KERNELS)
        if c.get("memory.read_words", 0) != kernel_reads:
            failures.append(f"read_block words {c.get('memory.read_words', 0)}"
                            f" != kernel reads {kernel_reads}")
        if c.get("memory.write_words", 0) != kernel_writes:
            failures.append(f"write_block words {c.get('memory.write_words', 0)}"
                            f" != kernel writes {kernel_writes}")
        if self.peak_ratio > 1.0:
            failures.append(f"peak words over M is {self.peak_ratio} > 1")
        for i, p in enumerate(self.parents):
            if p < 0:
                continue
            inside = self.starts[p] <= self.starts[i] <= self.ends[i] <= self.ends[p]
            if not inside or not 0.0 <= selfs[i] <= self.ends[p] - self.starts[p]:
                failures.append(f"span {i} ({self.names[i]}) is not inside its parent {p}")
                break
        return failures

    def write_spans(self, path) -> None:
        """Write the current pass's spans as CSV: id,name,start,end,parent."""
        with open(path, "w") as fh:
            fh.write("id,name,start_s,end_s,parent\n")
            t0 = self.starts[0] if self.starts else 0.0
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.starts[i] - t0:.9f},"
                         f"{self.ends[i] - t0:.9f},{self.parents[i]}\n")
