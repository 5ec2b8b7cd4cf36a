"""Red-blue pebble game machinery on the attention computational DAG.

The game is played on a DAG whose inputs start with blue pebbles
(data in slow memory).  Rules:

* R1 (read):    red on a vertex with a blue pebble - one I/O.
* R2 (write):   blue on a vertex with a red pebble - one I/O.
* R3 (compute): red on a non-input vertex whose parents are all red.
* R4 (delete):  remove a pebble (red first if both colors present,
                unless the transition names a color).

At most M red pebbles exist at any instant.  A complete calculation
starts from blue-on-inputs and ends with blue exactly on the outputs
and no other pebbles.  I/O complexity is the minimum number of R1/R2
transitions over complete calculations.
"""

from __future__ import annotations

import graphlib
import json
from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, filterfalse, repeat
from typing import NamedTuple

from .errors import ConfigurationError, RegimeError, check_enumeration

INPUT = "Input"
L1_PRODUCT = "L1Product"
SUM_INTERNAL = "SumInternal"
QKT_ROOT = "QKtRoot"
EXP = "Exp"
ROWSUM_INTERNAL = "RowSumInternal"
ROWSUM_ROOT = "RowSumRoot"
INVERSE = "Inverse"
L2_PRODUCT = "L2Product"
AV_SUM_INTERNAL = "AVSumInternal"
AV_ROOT = "AVRoot"
SCALE = "Scale"

LEVEL1_KINDS = {L1_PRODUCT, SUM_INTERNAL, QKT_ROOT}

CONFIGURATION_ENUMERATION_CAP = 4 ** 12


class Node(NamedTuple):
    kind: str
    parents: tuple[str, ...]

    @property
    def level1(self) -> bool:
        """Whether the node lies in a level-1 (Q K^T) summation tree."""
        return self.kind in LEVEL1_KINDS


# Node((kind, parents)) in C, without NamedTuple's Python-level __new__.
_new_node = partial(tuple.__new__, Node)


class PebblingDag:
    """A DAG with designated inputs (no parents) and outputs (no children).

    The outputs are the vertices that no node names as a parent.  Each
    vertex's children, in node order, are built on the first read of
    ``children``: only the M-partition verifier walks them."""

    def __init__(self, nodes: dict[str, Node]):
        self.nodes = nodes = dict(nodes)
        parents = set(chain.from_iterable([node.parents for node in nodes.values()]))
        if not parents <= nodes.keys():
            self.children  # building the child lists names the first unknown parent
        self.inputs = frozenset([v for v, node in nodes.items() if not node.parents])
        self.outputs = frozenset(nodes.keys() - parents)

    @cached_property
    def children(self) -> dict[str, list[str]]:
        children = {v: [] for v in self.nodes}
        try:
            for v, node in self.nodes.items():
                for p in node.parents:
                    children[p].append(v)
        except KeyError:
            raise ConfigurationError(
                f"node {v!r} references unknown parent {p!r}") from None
        return children

    def __len__(self) -> int:
        return len(self.nodes)

    def kind_counts(self) -> dict[str, int]:
        return dict(Counter(node.kind for node in self.nodes.values()))

    # -- JSON lines export/import: one node per line --------------------------

    def to_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for v, node in sorted(self.nodes.items()):
                fh.write(json.dumps({
                    "id": v, "kind": node.kind,
                    "parents": list(node.parents), "level1": node.level1,
                }) + "\n")

    @classmethod
    def from_jsonl(cls, path) -> "PebblingDag":
        """Read one node per line: an object with a string ``id`` and
        ``kind`` and a list of string ``parents``.  ``level1`` may be
        omitted; when given it must agree with the kind.  Malformed content,
        a repeated id, an unknown parent or a cycle raises
        ``ConfigurationError`` naming the file and line (for a cycle, the
        line of a vertex on it)."""
        nodes, lines = {}, {}
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                    vid, kind, parents = rec["id"], rec["kind"], rec["parents"]
                except (ValueError, KeyError, TypeError) as exc:
                    raise ConfigurationError(
                        f"{path}, line {lineno}: malformed node record ({exc!r})") from None
                if not (isinstance(parents, list)
                        and all(isinstance(x, str) for x in (vid, kind, *parents))):
                    raise ConfigurationError(
                        f"{path}, line {lineno}: 'id' and 'kind' must be strings and "
                        f"'parents' a list of strings")
                if vid in lines:
                    raise ConfigurationError(
                        f"{path}, line {lineno}: duplicate id {vid!r} (first on line {lines[vid]})")
                lines[vid] = lineno
                node = nodes[vid] = Node(kind, tuple(parents))
                level1 = node.level1
                if rec.get("level1", level1) != level1:
                    raise ConfigurationError(
                        f"{path}, line {lineno}: level1 disagrees with kind {node.kind!r}")
        for vid, node in nodes.items():
            unknown = next((p for p in node.parents if p not in nodes), None)
            if unknown is not None:
                raise ConfigurationError(
                    f"{path}, line {lines[vid]}: node {vid!r} references unknown parent "
                    f"{unknown!r}")
        try:
            graphlib.TopologicalSorter({v: n.parents for v, n in nodes.items()}).prepare()
        except graphlib.CycleError as exc:
            cycle = exc.args[1]
            raise ConfigurationError(f"{path}, line {lines[cycle[0]]}: parents form a cycle "
                                     f"{' -> '.join(cycle)}") from None
        return cls(nodes)


class AttentionDag(PebblingDag):
    """The attention computational graph for given N, d.

    Besides the nodes, the builder keeps the id lists the blocked schedule
    walks, each holding the very string objects that key ``nodes``:

    * ``input_ids``: the Q, K and V tables, each N rows of d ids;
    * ``score_trees[i][k]``: L1[i,k,0..d-1], the S1[i,k] internals in
      creation order, QKT[i,k], EXP[i,k];
    * ``rowsum_trees[i]``: EXP[i,0..N-1], the SR[i] internals, RS[i], INV[i];
    * ``output_trees[i][j]``: L2[i,0..N-1,j], the SA[i,j] internals,
      AV[i,j], OUT[i,j].

    Each list is a block of ``nodes``' creation order (the row-sum tree's
    leaves are the score trees' last ids).

    ``nodes`` is the builder's own dict, not a copy.  ``inputs`` are the
    ids of ``input_ids`` and ``outputs`` the OUT ids, the last of each
    output tree; ``PebblingDag.__init__``, which would derive both from
    every parent reference and check each one names a node, is not run.
    The builder only names a parent it has already added.
    """

    def __init__(self, nodes, n: int, d: int, input_ids, score_trees, rowsum_trees,
                 output_trees):
        self.nodes = nodes
        self.inputs = frozenset(chain(*chain(*input_ids)))
        self.outputs = frozenset([tree[-1] for row in output_trees for tree in row])
        self.N = n
        self.d = d
        self.input_ids = input_ids
        self.score_trees = score_trees
        self.rowsum_trees = rowsum_trees
        self.output_trees = output_trees


def _tree_shape(leaves: int):
    """Creation-order (left, right) operands of the balanced binary sum
    tree over ``leaves`` leaves.  Operand t < ``leaves`` is leaf t; operand
    ``leaves`` + c is the c-th internal node created, so the last one
    (or the only leaf) is the top.  Each node is created right after its
    right operand's subtree."""
    shape = []

    # ``build`` gets itself as an argument: a closure that named itself
    # would form a reference cycle, garbage for the cyclic GC, per call.
    def build(lo, hi, build):
        if hi - lo == 1:
            return lo
        mid = (lo + hi + 1) // 2
        left, right = build(lo, mid, build), build(mid, hi, build)
        shape.append((left, right))
        return leaves + len(shape) - 1

    build(0, leaves, build)
    return shape


def _add_nodes(nodes: dict[str, Node], ids, kind: str, parents) -> None:
    """Add a ``kind`` node under each id, with the matching parent tuple."""
    nodes.update(zip(ids, map(_new_node, zip(repeat(kind), parents))))


def _sum_tree(nodes: dict[str, Node], leaves: list[str], prefix: str, kind: str,
              shape: list[tuple[int, int]], labels: list[str], *roots) -> list[str]:
    """Add ``kind`` nodes ``prefix + labels[c]`` for the c-th node of
    ``shape`` over ``leaves``, then each (id, kind, *other parents) of
    ``roots`` as a chain above the top, each root's first parent the node
    below it.  Returns the tree's ids: the leaves, the internal nodes in
    creation order, then the roots."""
    tree = leaves + list(map(prefix.__add__, labels[:len(shape)]))
    _add_nodes(nodes, tree[len(leaves):], kind, [(tree[l], tree[r]) for l, r in shape])
    for vid, root_kind, *parents in roots:
        nodes[vid] = _new_node((root_kind, (tree[-1], *parents)))
        tree.append(vid)
    return tree


def build_attention_dag(n: int, d: int) -> AttentionDag:
    """Construct the attention DAG.

    Per the closed forms: 3Nd inputs, N^2 d elementary products, a
    node-disjoint summation tree with d leaves and d-1 internals under
    each of the N^2 Q K^T roots, N^2 exp nodes, N row-sum trees, N
    inverses, N^2 d second-stage products, Nd output trees, and Nd
    scaled outputs.  Roots are distinct pass-through nodes above their
    trees, so every summation tree holds exactly 2d (or 2N) vertices.
    """
    if n < 1 or d < 1:
        raise ConfigurationError("N and d must be >= 1")
    # index labels, so that each id joins strings and formats no int; an
    # internal node's id is its tree's "#"-ended prefix plus a label
    labels = [str(x) for x in range(max(n, d))]
    rows, dims = labels[:n], labels[:d]
    input_ids = [[[f"{name}[{i},{l}]" for l in dims] for i in rows] for name in "QKV"]
    q_ids, k_ids, v_ids = input_ids
    nodes: dict[str, Node] = dict.fromkeys(chain.from_iterable(chain(*input_ids)),
                                           Node(INPUT, ()))
    d_shape, n_shape = _tree_shape(d), _tree_shape(n)

    score_trees = []
    for i, q_row in zip(rows, q_ids):
        row_trees = []
        for k, k_row in zip(rows, k_ids):
            leaves = [f"L1[{i},{k},{l}]" for l in dims]
            _add_nodes(nodes, leaves, L1_PRODUCT, zip(q_row, k_row))
            row_trees.append(_sum_tree(nodes, leaves, f"S1[{i},{k}]#", SUM_INTERNAL, d_shape,
                                       labels, (f"QKT[{i},{k}]", QKT_ROOT),
                                       (f"EXP[{i},{k}]", EXP)))
        score_trees.append(row_trees)

    exp_ids = [[tree[-1] for tree in row_trees] for row_trees in score_trees]
    rowsum_trees = [_sum_tree(nodes, exp_row, f"SR[{i}]#", ROWSUM_INTERNAL, n_shape, labels,
                              (f"RS[{i}]", ROWSUM_ROOT), (f"INV[{i}]", INVERSE))
                    for i, exp_row in zip(rows, exp_ids)]

    v_columns = list(zip(*v_ids))
    output_trees = []
    for i, exp_row, rowsum in zip(rows, exp_ids, rowsum_trees):
        row_trees = []
        for j, v_column in zip(dims, v_columns):
            leaves = [f"L2[{i},{k},{j}]" for k in rows]
            _add_nodes(nodes, leaves, L2_PRODUCT, zip(exp_row, v_column))
            row_trees.append(_sum_tree(nodes, leaves, f"SA[{i},{j}]#", AV_SUM_INTERNAL, n_shape,
                                       labels, (f"AV[{i},{j}]", AV_ROOT),
                                       (f"OUT[{i},{j}]", SCALE, rowsum[-1])))
        output_trees.append(row_trees)

    return AttentionDag(nodes, n, d, input_ids, score_trees, rowsum_trees, output_trees)


def level1_vertex_count(dag: PebblingDag, part) -> int:
    """Exact number of level-1-flagged vertices in a vertex subset."""
    return sum(1 for v in part if dag.nodes[v].level1)


# -- calculations --------------------------------------------------------------

Transition = tuple  # ("R1"|"R2"|"R3"|"R4", vertex) or ("R4", vertex, color)


@dataclass(frozen=True)
class Violation:
    index: int | None
    rule: str
    message: str
    witness: object = None


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    reads: int = 0
    writes: int = 0
    violation: Violation | None = None

    @property
    def io(self) -> int:
        return self.reads + self.writes


def validate_calculation(dag: PebblingDag, m: int, calc: list[Transition]) -> ValidationResult:
    """Replay a calculation, checking every rule, the red budget, and the
    boundary configurations.  Returns R1+R2 counts on acceptance, or the
    first violating transition.  A transition is a sequence other than a
    string (a tuple or a list) of a rule, a vertex and, for R4, an
    optional color; anything else, a dict or a string say, is malformed.

    A move is applied when it succeeds on the red and blue sets alone
    (only R3 reads its node), and a move that fails is then diagnosed by
    every check in order.  Skipping the unknown-vertex check on success
    is exact, as only DAG vertices ever hold a pebble: blue starts on the
    inputs, R1 needs blue, R2 needs red and R3 a DAG vertex, so a vertex
    found red or blue is known."""
    nodes, inputs = dag.nodes, dag.inputs
    red, blue = set(), set(inputs)
    reads = writes = 0
    # rules are tested in order of their frequency in a schedule
    for i, tr in enumerate(calc):
        try:
            match tr:
                case (rule, v):  # a schedule's own moves: matched first
                    pass
                case (rule, v, color, *_) if rule == "R4":
                    {"red": red, "blue": blue}[color].remove(v)
                    continue
                case (rule, v, *_):
                    pass
                case _:
                    return ValidationResult(False, reads, writes, Violation(
                        i, "malformed", f"transition {tr!r} is not (rule, vertex)"))
            if rule == "R4":
                (red if v in red else blue).remove(v)
                continue
            if (rule == "R3" and v not in inputs and red.issuperset(nodes[v].parents)
                    and (len(red) < m or v in red)):
                red.add(v)
                continue
            if rule == "R1" and v in blue and (len(red) < m or v in red):
                red.add(v)
                reads += 1
                continue
            if rule == "R2" and v in red:
                blue.add(v)
                writes += 1
                continue
        except (KeyError, TypeError):  # no such pebble, node or color, or unhashable
            pass

        # the move fails: name the first check it breaks
        try:
            node = nodes.get(v)
        except TypeError:  # an unhashable vertex names no node
            node = None
        if node is None:
            msg = f"unknown vertex {v!r}"
        elif rule == "R4":
            color = tr[2] if len(tr) > 2 else "blue"  # without a color, v is not red
            msg = (f"R4 red on {v!r} without a red pebble" if color == "red"
                   else f"R4 on unpebbled vertex {v!r}" if color == "blue"
                   else f"R4 with unknown color {color!r}")
        elif rule == "R3" and v in inputs:
            msg = f"R3 on input vertex {v!r}"
        elif rule == "R3" and not red.issuperset(node.parents):
            # filterfalse, as a comprehension would make red a closure cell
            msg = (f"R3 on {v!r}: parents not red: "
                   f"{list(filterfalse(red.__contains__, node.parents))}")
        elif rule == "R1" and v not in blue:
            msg = f"R1 on {v!r} without a blue pebble"
        elif rule == "R2":
            msg = f"R2 on {v!r} without a red pebble"
        elif rule in ("R1", "R3") and len(red) >= m:
            msg = f"red budget {m} exceeded"
        else:
            msg = f"unknown rule {rule!r}"
        return ValidationResult(False, reads, writes, Violation(i, rule, msg))

    if red:
        msg = f"red pebbles remain: {sorted(red)[:5]}"
    elif blue != dag.outputs:
        msg = "terminal blue pebbles differ from the output set"
    else:
        return ValidationResult(True, reads, writes)
    return ValidationResult(False, reads, writes, Violation(None, "terminal", msg))


# -- blocked streaming schedule ------------------------------------------------

def _tree_walk(leaves: int, roots: int, compute_leaves: bool) -> list[list[tuple[str, int]]]:
    """Per leaf t, in order, the (rule, tree-list index) moves that follow
    leaf t turning red in a sum tree whose list holds ``leaves`` leaves,
    the internal nodes of ``_tree_shape(leaves)`` and a chain of ``roots``
    one-parent nodes above the top: leaf t's own R3 when
    ``compute_leaves``, then for each node it completes an R3 and an R4
    per operand.  As ``_tree_shape`` creates a node right after its right
    operand's subtree, a node is complete once the last leaf under it is
    red, and the nodes complete in creation order; each operand is
    released as soon as its node is computed, so a tree keeps O(log
    leaves) partials red."""
    operands = _tree_shape(leaves)  # a fresh list
    for _ in range(roots):
        operands.append((leaves + len(operands) - 1,))
    last = list(range(leaves))  # the last leaf under each tree-list index
    walk = [[("R3", t)] if compute_leaves else [] for t in range(leaves)]
    for c, ops in enumerate(operands, leaves):
        last.append(last[ops[-1]])
        walk[last[c]] += [("R3", c), *(("R4", o) for o in ops)]
    return walk


def _budgeted(moves: list[tuple[str, int]]) -> tuple[tuple, tuple, int, int]:
    """A walk as (rules, indices, peak rise, net change) of the red count."""
    rules, index = map(tuple, zip(*moves)) if moves else ((), ())
    red = peak = 0
    for rule in rules:
        red += 1 if rule == "R3" else -1
        peak = max(peak, red)
    return rules, index, peak, red


def blocked_pebbling_schedule(dag: AttentionDag, m: int) -> list[Transition]:
    """Complete calculation in the streaming kernel's loop order.

    A block of r Q-row inputs stays red; K rows and then V rows are read
    once per block.  Per streamed row, the exp'd score vertices are
    computed through their summation trees and folded immediately into
    the output and row-sum trees, keeping only O(log) partials.  The
    calculation reads and writes 2Nd + 2Nd * ceil(N / r) words.

    ``dag`` must be an ``AttentionDag`` from ``build_attention_dag``; any
    other graph, a ``from_jsonl`` copy of one included, raises
    ``ConfigurationError``.  The moves come from the id lists the builder
    keeps on it, walked by per-leaf climb tables derived once from
    ``_tree_shape(d)`` and ``_tree_shape(N)``; every transition names the
    builder's own id string.  The red budget is a count kept through each
    block's streamed rows, exact because every add there is of a vertex
    not yet red and every R4 removes a red pebble; the block's closing
    moves hold no more red pebbles than its last row-sum walk reached.

    r is the largest value <= min(max(floor(M / 4d), 1), N) whose peak
    red-pebble count fits in M.  Scalar pebbles keep each partial sum of
    every tree separately, so r is often smaller than
    ``kernels.streaming_block_rows`` and the schedule then costs more I/O
    than the kernel: 320 against 192 at N=8 d=4 M=64, and 160 against 128
    at N=8 d=2 M=32 (r = 2 against the kernel's 4 and 3).  Near M = 8d at
    larger N not even r = 1 fits, and ``RegimeError`` is raised although
    the kernel runs.
    """
    if not isinstance(dag, AttentionDag):
        raise ConfigurationError("the blocked schedule needs build_attention_dag's DAG")
    n, d = dag.N, dag.d
    score = _budgeted([move for leaf in _tree_walk(d, 2, True) for move in leaf])
    output = [_budgeted(leaf) for leaf in _tree_walk(n, 1, True)]
    rowsum = [_budgeted(leaf) for leaf in _tree_walk(n, 2, False)]
    for r in range(min(max(m // (4 * d), 1), n), 0, -1):
        moves = _emit_schedule(dag, m, r, score, output, rowsum)
        if moves is not None:
            return moves
    raise RegimeError(f"cache of {m} words cannot hold even a single-row block")


def _emit_schedule(dag: AttentionDag, m: int, r: int, score, output,
                   rowsum) -> list[Transition] | None:
    """The calculation with row blocks of r, or None once the red count
    would pass m.  ``score`` is the whole walk of one score tree;
    ``output`` and ``rowsum`` hold the walk of each leaf of an output and
    a row-sum tree (see ``_budgeted``)."""
    q_ids, k_ids, v_ids = dag.input_ids
    n, d = dag.N, dag.d
    moves: list[Transition] = []
    extend = moves.extend
    score_rules, score_index, score_peak, score_net = score

    for i0 in range(0, n, r):
        rows = range(i0, min(i0 + r, n))
        for i in rows:
            extend(zip(repeat("R1"), q_ids[i]))
        red = d * len(rows)  # a block starts with no other red pebble
        for k, (k_row, v_row) in enumerate(zip(k_ids, v_ids)):
            extend(zip(repeat("R1"), k_row))
            red += d
            for i in rows:
                if red + score_peak > m:
                    return None
                red += score_net
                extend(zip(score_rules, map(dag.score_trees[i][k].__getitem__, score_index)))
            extend(zip(repeat("R4"), k_row))
            extend(zip(repeat("R1"), v_row))  # as many red as the K row just freed
            rules, index, peak, net = output[k]
            for i in rows:
                for tree in dag.output_trees[i]:
                    if red + peak > m:
                        return None
                    red += net
                    extend(zip(rules, map(tree.__getitem__, index)))
            extend(zip(repeat("R4"), v_row))
            red -= d
            rules, index, peak, net = rowsum[k]
            for i in rows:
                if red + peak > m:
                    return None
                red += net
                extend(zip(rules, map(dag.rowsum_trees[i].__getitem__, index)))

        # At most r(2d + 1) + 1 red pebbles from here on: no more than the
        # last row-sum walk reached, so the block's moves all fit.
        for i in rows:
            for tree in dag.output_trees[i]:
                av, out = tree[-2:]
                extend((("R3", out), ("R2", out), ("R4", out), ("R4", av)))
            extend(zip(repeat("R4"), (dag.rowsum_trees[i][-1], *q_ids[i])))

    # clear the initial blue pebbles so only outputs remain pebbled
    extend(zip(repeat("R4"), sorted(dag.inputs)))
    return moves


# -- M-partitions ----------------------------------------------------------------

@dataclass(frozen=True)
class PartSpec:
    """One part of an M-partition with its claimed dominator set."""

    vertices: frozenset
    dominator: frozenset

    def __init__(self, vertices, dominator):
        object.__setattr__(self, "vertices", frozenset(vertices))
        object.__setattr__(self, "dominator", frozenset(dominator))


def minimum_set(dag: PebblingDag, vertices: frozenset) -> frozenset:
    """The part's vertices with no children inside the part."""
    return frozenset(
        v for v in vertices
        if vertices.isdisjoint(dag.children[v])
    )


def verify_m_partition(dag: PebblingDag, m: int, parts: list[PartSpec]) -> list[Violation]:
    """Check P1 (disjoint cover), P2 (dominators of size <= M), P3
    (minimum sets of size <= M), and P4 (no cyclic part dependence).

    A part containing an input vertex must include it in its dominator
    set (length-0 paths count).  A part vertex the DAG lacks is a P1
    violation, and P2 and P3 are checked on the part's other vertices.
    Witnesses: up to five offending vertices (sorted) for P1; for an
    uncovered P2 path, the BFS path from the first input in sorted order
    that reaches the part; for P4, the part indices of a dependence
    cycle.  A too-large P2 dominator and P3 carry ``None``.
    """
    violations: list[Violation] = []

    owner: dict[object, int] = {}
    for idx, part in enumerate(parts):
        overlap = [v for v in part.vertices if owner.setdefault(v, idx) != idx]
        if overlap:
            violations.append(Violation(idx, "P1", "parts overlap",
                                        sorted(overlap, key=str)[:5]))
        unknown = part.vertices.difference(dag.nodes)
        if unknown:
            violations.append(Violation(idx, "P1", "vertices not in the DAG",
                                        sorted(unknown, key=str)[:5]))
    missing = dag.nodes.keys() - owner.keys()
    if missing:
        violations.append(Violation(None, "P1", "vertices not covered", sorted(missing)[:5]))

    for idx, part in enumerate(parts):
        if len(part.dominator) > m:
            violations.append(Violation(
                idx, "P2", f"dominator has {len(part.dominator)} > {m} vertices", None))
        path = _uncovered_path(dag, part)
        if path is not None:
            violations.append(Violation(idx, "P2", "input-to-part path avoids dominator", path))
        msize = len(minimum_set(dag, part.vertices.intersection(dag.nodes)))
        if msize > m:
            violations.append(Violation(
                idx, "P3", f"minimum set has {msize} > {m} vertices", None))

    preds: dict[int, set[int]] = {i: set() for i in range(len(parts))}
    for v, node in dag.nodes.items():
        b = owner.get(v)
        for a in map(owner.get, node.parents):
            if b is not None and a is not None and a != b:
                preds[b].add(a)
    try:
        graphlib.TopologicalSorter(preds).prepare()
    except graphlib.CycleError as exc:
        violations.append(Violation(None, "P4", "cyclic dependence among parts", exc.args[1]))
    return violations


def _uncovered_path(dag: PebblingDag, part: PartSpec):
    """BFS from each unblocked input in sorted order, avoiding the
    dominator; a reached part vertex yields a witness path.  The searches
    share ``prev``, as a vertex an earlier one reached cannot reach the part."""
    target = part.vertices - part.dominator
    blocked = part.dominator
    prev = {}
    for src in sorted(dag.inputs):
        if src in blocked:
            continue
        prev[src] = None
        queue = deque([src])
        while queue:
            v = queue.popleft()
            if v in target:
                path = []
                while v is not None:
                    path.append(v)
                    v = prev[v]
                return path[::-1]
            for c in dag.children[v]:
                if c not in blocked and c not in prev:
                    prev[c] = v
                    queue.append(c)
    return None


# -- exact I/O by exhaustive search ----------------------------------------------

def brute_force_min_io(dag: PebblingDag, m: int,
                       cap: int = CONFIGURATION_ENUMERATION_CAP) -> int:
    """Exact Q(G, M) by a 0-1 breadth-first search over configurations,
    R1/R2 transitions costing 1 and R3/R4 costing 0.  Tiny graphs only.

    A configuration is one int, ``red | blue << n`` with bit i for the
    i-th vertex in sorted order.  Zero-cost moves go to the front of the
    queue and unit-cost moves to the back, so configurations leave the
    queue in order of cost and the first goal popped is the minimum.

    Blue pebbles are never removed, and the goal is any configuration
    whose blue set holds every output.  Neither changes the minimum: no
    rule needs a blue pebble to be absent and M bounds only the red
    ones, so keeping a blue pebble leaves every move of a calculation
    possible (an R2 onto a blue vertex is a skipped no-op); and from
    such a goal, free R4 moves reach the exact terminal configuration.

    R3 needs every parent and the vertex itself red at once, so no
    complete calculation exists when M < max in-degree + 1; such an M is
    rejected up front with ``ConfigurationError``.  ``cap`` bounds the
    configurations of an n-vertex graph, counted as all 4^n (one red
    and one blue bit per vertex) though the search visits far fewer."""
    need = 1 + max((len(node.parents) for node in dag.nodes.values()), default=0)
    if m < need:
        raise ConfigurationError(
            f"M = {m} < max in-degree + 1 = {need}: no complete calculation exists")
    n = len(dag.nodes)
    check_enumeration(4 ** n, cap, "configurations")

    order = sorted(dag.nodes)
    idx = {v: i for i, v in enumerate(order)}
    # per vertex: (red bit, blue bit, parent mask, computable by R3)
    vertices = []
    for i, v in enumerate(order):
        node = dag.nodes[v]
        parents = sum(1 << idx[p] for p in set(node.parents))
        vertices.append((1 << i, 1 << (i + n), parents, bool(node.parents)))
    reds = (1 << n) - 1
    start = sum(1 << (idx[v] + n) for v in dag.inputs)
    goal = sum(1 << (idx[v] + n) for v in dag.outputs)

    dist = {start: 0}
    queue = deque([(0, start)])
    while queue:
        cost, state = queue.popleft()
        if state & goal == goal:
            return cost
        if cost > dist[state]:
            continue
        red = state & reds
        can_add_red = red.bit_count() < m
        # Every queued configuration costs at most cost + 1, so a unit
        # move only ever reaches a configuration not yet seen.
        step = cost + 1
        for rbit, bbit, parents, computable in vertices:
            if red & rbit:
                nxt = state | bbit
                if not state & bbit and nxt not in dist:
                    dist[nxt] = step                                 # R2
                    queue.append((step, nxt))
                nxt = state & ~rbit                                  # R4 red
                if dist.get(nxt, step) > cost:
                    dist[nxt] = cost
                    queue.appendleft((cost, nxt))
            elif can_add_red:
                nxt = state | rbit
                if state & bbit and nxt not in dist:
                    dist[nxt] = step                                 # R1
                    queue.append((step, nxt))
                if computable and red & parents == parents and dist.get(nxt, step) > cost:
                    dist[nxt] = cost                                 # R3
                    queue.appendleft((cost, nxt))
        # fall through: unreachable goal would exhaust the queue
    raise RuntimeError("no complete calculation found (malformed DAG?)")


# -- calculation file format -------------------------------------------------------

def save_calculation(calc: list[Transition], path) -> None:
    # Only an R4's third item is a color; the validator ignores the others'.
    with open(path, "w") as fh:
        json.dump([{"rule": t[0], "vertex": t[1],
                    **({"color": t[2]} if t[0] == "R4" and len(t) > 2 else {})}
                   for t in calc], fh)


def load_calculation(path) -> list[Transition]:
    """Read a calculation file: a JSON list of objects with a string
    ``rule`` and ``vertex`` and an optional ``color`` of "red" or "blue".
    Malformed content raises ``ConfigurationError`` naming the file and
    the transition's index."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(raw, list):
        raise ConfigurationError(f"{path}: expected a JSON list of transitions")
    out = []
    for index, rec in enumerate(raw):
        if not isinstance(rec, dict) or "rule" not in rec or "vertex" not in rec:
            raise ConfigurationError(
                f"{path}: transition {index} {rec!r} needs 'rule' and 'vertex'")
        rule, vertex = rec["rule"], rec["vertex"]
        if not (isinstance(rule, str) and isinstance(vertex, str)):
            raise ConfigurationError(
                f"{path}: transition {index}: 'rule' and 'vertex' must be strings")
        if "color" not in rec:
            out.append((rule, vertex))
        elif rec["color"] in ("red", "blue"):
            out.append((rule, vertex, rec["color"]))
        else:
            raise ConfigurationError(f"{path}: transition {index}: 'color' must be "
                                     f"\"red\" or \"blue\", not {rec['color']!r}")
    return out
