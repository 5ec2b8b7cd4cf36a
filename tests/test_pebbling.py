"""Pebble game: DAG construction, validation, schedules, partitions."""

import gc
import graphlib
import hashlib
import json
import math
import random
import re
import tracemalloc
from collections import Counter, deque

import numpy as np
import pytest

from attnio import errors
from attnio import experiments as E
from attnio import pebbling as P
from attnio.errors import ConfigurationError, check_enumeration
from attnio.kernels import streaming_attention
from attnio.matrices import random_instance
from attnio.memory import MemoryHierarchy

CFG = E.load_bound_config()


def edge_dag():
    return P.PebblingDag({"in": P.Node(P.INPUT, ()),
                          "out": P.Node(P.SCALE, ("in",))})


def path3_dag():
    return P.PebblingDag({"a": P.Node(P.INPUT, ()),
                          "b": P.Node(P.EXP, ("a",)),
                          "c": P.Node(P.SCALE, ("b",))})


# -- builder -------------------------------------------------------------------

def expected_counts(n, d):
    counts = {
        P.INPUT: 3 * n * d,
        P.L1_PRODUCT: n * n * d,
        P.SUM_INTERNAL: n * n * (d - 1),
        P.QKT_ROOT: n * n,
        P.EXP: n * n,
        P.ROWSUM_INTERNAL: n * (n - 1),
        P.ROWSUM_ROOT: n,
        P.INVERSE: n,
        P.L2_PRODUCT: n * n * d,
        P.AV_SUM_INTERNAL: n * d * (n - 1),
        P.AV_ROOT: n * d,
        P.SCALE: n * d,
    }
    return {k: v for k, v in counts.items() if v}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_builder_closed_forms(n, d):
    dag = P.build_attention_dag(n, d)
    assert dag.kind_counts() == expected_counts(n, d)
    assert len(dag.inputs) == 3 * n * d
    assert len(dag.outputs) == n * d


def test_builder_boundary_is_the_derived_one():
    # the builder hands over its own dict, inputs and outputs; deriving
    # them again, with the unknown-parent check it skips, agrees
    for n in range(1, 7):
        for d in range(1, 7):
            dag = P.build_attention_dag(n, d)
            derived = P.PebblingDag(dag.nodes)  # raises on an unknown parent
            assert (dag.inputs, dag.outputs) == (derived.inputs, derived.outputs), (n, d)
            assert type(dag.inputs) is type(dag.outputs) is frozenset


def test_builder_peak_memory_is_what_the_dag_holds():
    tracemalloc.start()
    try:
        dag = P.build_attention_dag(16, 4)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(dag) == 4880
    assert peak <= 1.1 * held, (peak, held)


def test_build_schedule_and_validate_leave_no_cyclic_garbage():
    # a reference cycle waits for the cyclic GC, which pays per tracked
    # object: on a DAG's Node tuples that is most of a collection
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        dag = P.build_attention_dag(4, 2)
        assert gc.collect() == 0
        calc = P.blocked_pebbling_schedule(dag, 32)
        assert gc.collect() == 0
        assert P.validate_calculation(dag, 32, calc).ok
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_builder_example_2_2():
    counts = P.build_attention_dag(2, 2).kind_counts()
    assert counts[P.INPUT] == 12
    assert counts[P.L1_PRODUCT] == 8
    assert counts[P.SUM_INTERNAL] == 4
    assert counts[P.QKT_ROOT] == 4
    assert counts[P.EXP] == 4
    assert counts[P.ROWSUM_INTERNAL] == 2
    assert counts[P.ROWSUM_ROOT] == 2
    assert counts[P.INVERSE] == 2
    assert counts[P.L2_PRODUCT] == 8
    assert counts[P.AV_SUM_INTERNAL] == 4
    assert counts[P.AV_ROOT] == 4
    assert counts[P.SCALE] == 4


def test_builder_degenerate_chain():
    dag = P.build_attention_dag(1, 1)
    # single leaf summation trees collapse: L1 -> QKT -> EXP -> RS -> INV
    assert dag.nodes["QKT[0,0]"].parents == ("L1[0,0,0]",)
    assert dag.nodes["RS[0]"].parents == ("EXP[0,0]",)


def test_builder_refuses_a_non_integer_size():
    for n, d, name in ((2.0, 1, "N"), (True, 1, "N"), (1, 2.0, "d"), (1, False, "d")):
        with pytest.raises(ConfigurationError, match=rf"^{name} must be an integer, got "):
            P.build_attention_dag(n, d)
    assert len(P.build_attention_dag(np.int64(1), np.int32(1))) == len(P.build_attention_dag(1, 1))


def test_level1_trees_disjoint():
    dag = P.build_attention_dag(3, 2)
    trees = {}
    for v, node in dag.nodes.items():
        if node.level1:
            i, j = v.split("[")[1].split("]")[0].split(",")[:2]
            trees.setdefault((i, j), set()).add(v)
    tree_sets = list(trees.values())
    for a in range(len(tree_sets)):
        for b in range(a + 1, len(tree_sets)):
            assert not tree_sets[a] & tree_sets[b]


def test_level1_vertex_count():
    n, d = 3, 2
    dag = P.build_attention_dag(n, d)
    assert P.level1_vertex_count(dag, dag.nodes) == 2 * n * n * d
    assert P.level1_vertex_count(dag, dag.inputs) == 0
    one_tree = {v for v in dag.nodes
                if v.startswith(("L1[0,0", "S1[0,0]"))} | {"QKT[0,0]"}
    assert P.level1_vertex_count(dag, one_tree) == 2 * d


def test_dag_acyclic():
    dag = P.build_attention_dag(2, 2)
    # Kahn's algorithm consumes every node iff acyclic
    indeg = {v: len(n.parents) for v, n in dag.nodes.items()}
    frontier = [v for v, k in indeg.items() if k == 0]
    seen = 0
    while frontier:
        v = frontier.pop()
        seen += 1
        for c in dag.children[v]:
            indeg[c] -= 1
            if indeg[c] == 0:
                frontier.append(c)
    assert seen == len(dag)


def test_dag_rejects_unknown_parent():
    nodes = {"a": P.Node(P.INPUT, ()), "b": P.Node(P.EXP, ("a",)),
             "c": P.Node(P.SCALE, ("b", "zz"))}
    with pytest.raises(errors.ConfigurationError,
                       match=r"^node 'c' references unknown parent 'zz'$") as info:
        P.PebblingDag(nodes)
    assert info.value.__cause__ is None and info.value.__suppress_context__
    dag = P.PebblingDag({v: nodes[v] for v in "ab"})
    assert dag.children == {"a": ["b"], "b": []}
    # the first unknown parent in node order, after parents that come later
    nodes = {"x": P.Node(P.SCALE, ("b", "a", "zz", "yy")), "a": nodes["a"], "b": nodes["b"]}
    with pytest.raises(errors.ConfigurationError,
                       match=r"^node 'x' references unknown parent 'zz'$"):
        P.PebblingDag(nodes)


# -- validator ------------------------------------------------------------------

def test_validator_minimal_calculation():
    calc = [("R1", "in"), ("R3", "out"), ("R2", "out"),
            ("R4", "in", "red"), ("R4", "out"), ("R4", "in")]
    res = P.validate_calculation(edge_dag(), 2, calc)
    assert res.ok and res.io == 2


def test_validator_red_budget():
    calc = [("R1", "in"), ("R3", "out")]
    res = P.validate_calculation(edge_dag(), 1, calc)
    assert not res.ok
    assert res.violation.index == 1 and res.violation.rule == "R3"


def test_validator_refuses_a_non_integer_red_budget():
    # a budget of 1.5 would let this second red pebble through
    calc = [("R1", "in"), ("R3", "out")]
    for m in (1.5, 2.0, True):
        with pytest.raises(ConfigurationError, match=r"^M must be an integer, got "):
            P.validate_calculation(edge_dag(), m, calc)
    assert not P.validate_calculation(edge_dag(), np.int64(1), calc).ok


def test_validator_r2_needs_red():
    res = P.validate_calculation(edge_dag(), 2, [("R2", "out")])
    assert not res.ok and res.violation.index == 0 and res.violation.rule == "R2"


def test_validator_r1_needs_blue():
    res = P.validate_calculation(path3_dag(), 2, [("R1", "b")])
    assert not res.ok and res.violation.rule == "R1"


def test_validator_r3_rejected_on_inputs():
    res = P.validate_calculation(edge_dag(), 2, [("R3", "in")])
    assert not res.ok and res.violation.rule == "R3"


def test_validator_terminal_configuration():
    # computing but never writing the output leaves the terminal wrong
    calc = [("R1", "in"), ("R3", "out"), ("R4", "in", "red"),
            ("R4", "out"), ("R4", "in")]
    res = P.validate_calculation(edge_dag(), 2, calc)
    assert not res.ok and res.violation.rule == "terminal"


def fork_dag():
    # "c" lists its parents out of sorted order
    return P.PebblingDag({"a": P.Node(P.INPUT, ()),
                          "b": P.Node(P.INPUT, ()),
                          "c": P.Node(P.SCALE, ("b", "a"))})


@pytest.mark.parametrize("dag, calc, index, rule, message", [
    (edge_dag(), [("R1", "in"), ("R1", "nowhere")], 1, "R1", "unknown vertex 'nowhere'"),
    (edge_dag(), [("R1", "in"), ("R9", "in")], 1, "R9", "unknown rule 'R9'"),
    (edge_dag(), [("R4", "in", "red")], 0, "R4", "R4 red on 'in' without a red pebble"),
    (edge_dag(), [("R4", "in"), ("R4", "out")], 1, "R4", "R4 on unpebbled vertex 'out'"),
    (edge_dag(), [("R4", "in", "blue"), ("R4", "in", "blue")], 1, "R4",
     "R4 on unpebbled vertex 'in'"),
    (fork_dag(), [("R3", "c")], 0, "R3", "R3 on 'c': parents not red: ['b', 'a']"),
    (fork_dag(), [("R1", "b"), ("R3", "c")], 1, "R3", "R3 on 'c': parents not red: ['a']"),
    (fork_dag(), [("R1", "a"), ("R1", "b"), ("R3", "c")], 2, "R3", "red budget 2 exceeded"),
    (fork_dag(), [("R1", "a"), ("R1", "b"), ("R1", "a")], None, "terminal",
     "red pebbles remain: ['a', 'b']"),
    (edge_dag(), [("R1", "in"), ("R4", "in", "blue")], None, "terminal",
     "red pebbles remain: ['in']"),
    (edge_dag(), [("R1", "in"), ("R1",)], 1, "malformed",
     "transition ('R1',) is not (rule, vertex)"),
    (edge_dag(), [()], 0, "malformed", "transition () is not (rule, vertex)"),
    (edge_dag(), [None], 0, "malformed", "transition None is not (rule, vertex)"),
    # save_calculation's JSON record, and a string, are not (rule, vertex)
    (edge_dag(), [("R1", "in"), {"rule": "R3", "vertex": "out"}], 1, "malformed",
     "transition {'rule': 'R3', 'vertex': 'out'} is not (rule, vertex)"),
    (edge_dag(), [("R1", "in"), "R1"], 1, "malformed", "transition 'R1' is not (rule, vertex)"),
])
def test_validator_first_violation_messages(dag, calc, index, rule, message):
    res = P.validate_calculation(dag, 2, calc)
    assert not res.ok
    assert (res.violation.index, res.violation.rule, res.violation.message) == (
        index, rule, message)


def test_validator_red_pebbles_remain_lists_first_five_sorted():
    dag = P.build_attention_dag(1, 1)
    calc = [("R1", v) for v in ("V[0,0]", "K[0,0]", "Q[0,0]")]
    calc += [("R3", v) for v in ("L1[0,0,0]", "QKT[0,0]", "EXP[0,0]")]
    res = P.validate_calculation(dag, 8, calc)
    assert (res.reads, res.writes, res.violation) == (3, 0, P.Violation(
        None, "terminal",
        "red pebbles remain: ['EXP[0,0]', 'K[0,0]', 'L1[0,0,0]', 'QKT[0,0]', 'Q[0,0]']"))


def corrupt(calc, vertices, seed):
    """Delete, retype, retarget or insert one transition (by seed % 4)."""
    rng = random.Random(seed)
    calc = list(calc)
    i = rng.randrange(len(calc))
    kind = ("delete", "retype", "retarget", "insert")[seed % 4]
    if kind == "delete":
        del calc[i]
    elif kind == "retype":
        calc[i] = (rng.choice(["R1", "R2", "R3", "R4"]),) + calc[i][1:]
    elif kind == "retarget":
        calc[i] = (calc[i][0], rng.choice(vertices)) + calc[i][2:]
    else:
        calc.insert(i, (rng.choice(["R1", "R2", "R3", "R4"]), rng.choice(vertices)))
    return calc


# (seed, reads, writes, index, rule, message) of the corrupted schedule;
# a valid result has index, rule and message None
CORRUPTED_SCHEDULES = {
    (2, 2, 16): [
        (0, 12, 0, 98, "R2", "R2 on 'OUT[0,0]' without a red pebble"),
        (1, 12, 4, None, None, None),
        (2, 6, 0, 14, "R4", "R4 on unpebbled vertex 'EXP[0,1]'"),
        (3, 12, 5, None, "terminal", "terminal blue pebbles differ from the output set"),
        (4, 12, 0, 64, "R3", "red budget 16 exceeded"),
        (5, 12, 4, None, None, None),
        (6, 6, 0, 20, "R3", "R3 on 'OUT[0,1]': parents not red: ['AV[0,1]', 'INV[0]']"),
        (7, 12, 0, 82, "R2", "R2 on 'L2[0,1,1]' without a red pebble"),
        (8, 12, 0, 58, "R3", "R3 on 'SA[0,0]#0': parents not red: ['L2[0,1,0]']"),
        (9, 12, 4, 118, "R3", "R3 on input vertex 'Q[1,0]'"),
        (10, 6, 0, 8, "R3", "R3 on 'L2[1,0,1]': parents not red: ['EXP[1,0]', 'V[0,1]']"),
        (11, 12, 4, 115, "R4", "R4 on unpebbled vertex 'L2[1,1,0]'"),
        (12, 12, 4, None, "terminal", "terminal blue pebbles differ from the output set"),
        (13, 12, 0, 66, "R3", "R3 on 'L2[0,0,1]': parents not red: ['V[0,1]']"),
        (14, 8, 0, 29, "R3", "R3 on 'L2[0,0,1]': parents not red: ['V[0,1]']"),
        (15, 10, 0, 53, "R1", "R1 on 'OUT[1,1]' without a blue pebble"),
    ],
    (3, 2, 24): [
        (0, 18, 6, None, "terminal", "red pebbles remain: ['SR[1]#1']"),
        (1, 12, 0, 68, "R1", "R1 on 'L1[2,1,1]' without a blue pebble"),
        (2, 8, 0, 28, "R3", "R3 on 'EXP[1,2]': parents not red: ['QKT[1,2]']"),
        (3, 16, 0, 121, "R2", "R2 on 'L2[0,2,1]' without a red pebble"),
        (4, 18, 6, None, "terminal", "red pebbles remain: ['L1[0,2,0]']"),
        (5, 18, 6, None, "terminal", "red pebbles remain: ['L1[1,2,1]']"),
        (6, 10, 0, 41, "R3", "R3 on 'OUT[1,0]': parents not red: ['AV[1,0]', 'INV[1]']"),
        (7, 18, 0, 165, "R2", "R2 on 'L2[1,1,0]' without a red pebble"),
        (8, 15, 0, 117, "R3", "R3 on 'L1[0,2,1]': parents not red: ['K[2,1]']"),
        (9, 18, 6, 237, "R3", "R3 on 'INV[2]': parents not red: ['RS[2]']"),
        (10, 8, 0, 16, "R4", "R4 on unpebbled vertex 'L2[2,0,0]'"),
        (11, 18, 5, 231, "R4", "R4 on unpebbled vertex 'L2[2,1,1]'"),
        (12, 18, 6, None, "terminal", "terminal blue pebbles differ from the output set"),
        (13, 16, 0, 132, "R3",
         "R3 on 'S1[1,2]#0': parents not red: ['L1[1,2,0]', 'L1[1,2,1]']"),
        (14, 12, 0, 54, "R3", "R3 on input vertex 'Q[1,1]'"),
        (15, 14, 0, 106, "R1", "R1 on 'QKT[0,0]' without a blue pebble"),
    ],
}


@pytest.mark.parametrize("n, d, m", sorted(CORRUPTED_SCHEDULES))
def test_validator_pinned_on_corrupted_schedules(n, d, m):
    dag = P.build_attention_dag(n, d)
    calc = P.blocked_pebbling_schedule(dag, m)
    vertices = sorted(dag.nodes)
    for seed, reads, writes, index, rule, message in CORRUPTED_SCHEDULES[n, d, m]:
        res = P.validate_calculation(dag, m, corrupt(calc, vertices, seed))
        violation = None if rule is None else P.Violation(index, rule, message)
        assert res == P.ValidationResult(violation is None, reads, writes, violation), seed


def _reference_validate(dag, m, calc):
    """The validator as it stood when every move met every check in turn
    and any transition was read as tr[0], tr[1]: the reference for
    ``validate_calculation``, which applies a move that succeeds on the
    pebble sets alone and reads a transition only as a non-string sequence."""
    nodes, inputs = dag.nodes, dag.inputs
    red: set[str] = set()
    blue: set[str] = set(inputs)
    reads = writes = 0

    def fail(i, rule, msg):
        return P.ValidationResult(False, reads, writes, P.Violation(i, rule, msg))

    # rules are tested in order of their frequency in a schedule
    for i, tr in enumerate(calc):
        try:
            rule, v = tr[0], tr[1]
        except (IndexError, TypeError):
            return fail(i, "malformed", f"transition {tr!r} is not (rule, vertex)")
        try:
            node = nodes.get(v)
        except TypeError:  # an unhashable vertex names no node
            node = None
        if node is None:
            return fail(i, rule, f"unknown vertex {v!r}")
        if rule == "R4":
            color = tr[2] if len(tr) > 2 else "red" if v in red else "blue"
            if color == "red":
                if v not in red:
                    return fail(i, rule, f"R4 red on {v!r} without a red pebble")
                red.discard(v)
            elif color != "blue":
                return fail(i, rule, f"R4 with unknown color {color!r}")
            elif v in blue:
                blue.discard(v)
            else:
                return fail(i, rule, f"R4 on unpebbled vertex {v!r}")
        elif rule == "R3":
            if v in inputs:
                return fail(i, rule, f"R3 on input vertex {v!r}")
            if not red.issuperset(node.parents):
                missing = [p for p in node.parents if p not in red]
                return fail(i, rule, f"R3 on {v!r}: parents not red: {missing}")
            if v not in red and len(red) >= m:
                return fail(i, rule, f"red budget {m} exceeded")
            red.add(v)
        elif rule == "R1":
            if v not in blue:
                return fail(i, rule, f"R1 on {v!r} without a blue pebble")
            if v not in red and len(red) >= m:
                return fail(i, rule, f"red budget {m} exceeded")
            red.add(v)
            reads += 1
        elif rule == "R2":
            if v not in red:
                return fail(i, rule, f"R2 on {v!r} without a red pebble")
            blue.add(v)
            writes += 1
        else:
            return fail(i, rule, f"unknown rule {rule!r}")

    if red:
        return fail(None, "terminal", f"red pebbles remain: {sorted(red)[:5]}")
    if blue != dag.outputs:
        return fail(None, "terminal",
                    "terminal blue pebbles differ from the output set")
    return P.ValidationResult(True, reads, writes)


def expected_validation(dag, m, calc):
    """``_reference_validate``'s result, except that a dict or a string
    transition reached by the replay is malformed at its index."""
    odd = next((k for k, tr in enumerate(calc) if isinstance(tr, (dict, str))), None)
    if odd is None:
        return _reference_validate(dag, m, calc)
    res = _reference_validate(dag, m, calc[:odd])
    if res.violation is not None and res.violation.index is not None:
        return res
    return P.ValidationResult(False, res.reads, res.writes, P.Violation(
        odd, "malformed", f"transition {calc[odd]!r} is not (rule, vertex)"))


# Transitions that are not a plain (rule, vertex) pair, made from one
ODD_TRANSITIONS = [
    lambda rule, v: [rule, v],
    lambda rule, v: (rule, v, "extra"),
    lambda rule, v: [rule, v, "red"],
    lambda rule, v: (rule, v, "blue", "extra"),
    lambda rule, v: ("R4", v, "green"),
    lambda rule, v: ("R4", v, None),
    lambda rule, v: ("R4", v, ["red"]),
    lambda rule, v: (rule,),
    lambda rule, v: (),
    lambda rule, v: None,
    lambda rule, v: {rule, v},
    lambda rule, v: {"rule": rule, "vertex": v},
    lambda rule, v: rule,
    lambda rule, v: ("R9", v),
    lambda rule, v: (None, v),
    lambda rule, v: (rule, "nowhere"),
    lambda rule, v: (rule, [v]),
]


def fuzz_calculation(rng, dag):
    """Up to 30 moves, most on a vertex that is pebbled or computable,
    each meant to succeed if every move before it did; now and then one
    is reshaped into an ``ODD_TRANSITIONS`` form."""
    nodes, vertices = dag.nodes, sorted(dag.nodes)
    red, blue = set(), set(dag.inputs)
    calc = []
    for _ in range(rng.randrange(31)):
        for _ in range(10):  # a few draws for one that is pebbled or computable
            v = rng.choice(vertices)
            parents = nodes[v].parents
            if v in red or v in blue or parents and red.issuperset(parents):
                break
        if v in red:
            rule = rng.choice(["R2", "R4", "R4", "R1" if v in blue else "R3"])
        elif v in blue:
            rule = "R4" if rng.random() < 0.1 else "R1"
        else:
            rule = "R3"
        move = (rule, v)
        if rule == "R4":
            color = "red" if v in red else "blue"
            if rng.random() < 0.2:
                color = rng.choice(["red", "blue"])
                move = ("R4", v, color)
            (red if color == "red" else blue).discard(v)
        else:
            (blue if rule == "R2" else red).add(v)
        calc.append(rng.choice(ODD_TRANSITIONS)(rule, v) if rng.random() < 0.05 else move)
    return calc


def test_validator_matches_reference_on_fuzzed_calculations():
    dags = [edge_dag(), path3_dag(), fork_dag()]
    dags += [random_dag(seed) for seed in range(6)]
    dags += [P.build_attention_dag(n, d) for n, d in ((1, 1), (1, 2), (2, 1))]
    rng = random.Random(20)
    outcomes = Counter()
    for case in range(20000):
        dag = dags[case % len(dags)]
        m = rng.randint(2, 8)
        calc = fuzz_calculation(rng, dag)
        res = P.validate_calculation(dag, m, calc)
        assert res == expected_validation(dag, m, calc), (case, m, calc)
        outcomes[res.violation.rule if res.violation else "ok"] += 1
    # every rule, a malformed and a terminal transition, and acceptance all occur
    assert set(outcomes) == {"ok", "malformed", "terminal", "R1", "R2", "R3", "R4",
                             "R9", None}, outcomes
    # valid schedules with some moves as lists and some with an ignored third item
    for n, d, m in ((1, 1, 8), (2, 2, 16), (3, 2, 24)):
        dag = P.build_attention_dag(n, d)
        calc = []
        for tr in P.blocked_pebbling_schedule(dag, m):
            r = rng.random()
            calc.append([*tr] if r < 0.3 else (*tr, "x") if r < 0.4 and tr[0] != "R4" else tr)
        res = P.validate_calculation(dag, m, calc)
        assert res.ok and res == _reference_validate(dag, m, calc)


# -- schedule -------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 4, 8])
@pytest.mark.parametrize("d", [2, 4])
@pytest.mark.parametrize("mfactor", [4, 8])
def test_schedule_valid_and_bounded(n, d, mfactor):
    m = mfactor * d * d
    dag = P.build_attention_dag(n, d)
    calc = P.blocked_pebbling_schedule(dag, m)
    res = P.validate_calculation(dag, m, calc)
    assert res.ok, res.violation
    assert res.io <= CFG["upper_constant"] * E.upper_bound_formula("streaming", n, d, m)


def test_schedule_degenerate_size():
    dag = P.build_attention_dag(1, 1)
    calc = P.blocked_pebbling_schedule(dag, 8)
    res = P.validate_calculation(dag, 8, calc)
    assert res.ok and res.io == 4  # read Q, K, V; write O


def test_schedule_refuses_a_non_integer_cache():
    # 16.0 stopped with a bare TypeError, and True named a "cache of True words"
    dag = P.build_attention_dag(4, 2)
    for m in (16.0, 32.5, True):
        with pytest.raises(ConfigurationError, match=r"^M must be an integer, got "):
            P.blocked_pebbling_schedule(dag, m)
    assert P.blocked_pebbling_schedule(dag, np.int64(32)) == P.blocked_pebbling_schedule(dag, 32)


def test_schedule_halves_with_cache():
    n, d = 8, 2
    dag = P.build_attention_dag(n, d)
    ios = []
    for m in (16, 32):
        res = P.validate_calculation(dag, m, P.blocked_pebbling_schedule(dag, m))
        assert res.ok
        ios.append(res.io)
    # doubling M halves the K/V re-reads up to rounding
    assert 1.4 <= ios[0] / ios[1] <= 2.4


def test_schedule_example_io_bound():
    n, d, m = 4, 2, 32
    dag = P.build_attention_dag(n, d)
    res = P.validate_calculation(dag, m, P.blocked_pebbling_schedule(dag, m))
    assert res.ok
    assert res.io <= 2 * (3 * n * d) + 8 * n * n * d * d / m


@pytest.mark.parametrize("n,d,m,schedule_io,kernel_io",
                         [(8, 4, 64, 320, 192), (8, 2, 32, 160, 128)])
def test_schedule_costs_more_io_than_kernel(n, d, m, schedule_io, kernel_io):
    # scalar pebbles fit only r = 2 resident rows where the kernel keeps 4 or 3
    dag = P.build_attention_dag(n, d)
    res = P.validate_calculation(dag, m, P.blocked_pebbling_schedule(dag, m))
    assert res.ok
    assert res.io == schedule_io == 2 * n * d + 2 * n * d * math.ceil(n / 2)
    kernel = streaming_attention(MemoryHierarchy(m), random_instance(n, d, 0))
    assert kernel.io.total == kernel_io


def test_schedule_rejects_dag_with_renamed_vertex():
    nodes = dict(P.build_attention_dag(2, 2).nodes)
    nodes["OUT[1,1]x"] = nodes.pop("OUT[1,1]")
    with pytest.raises(errors.ConfigurationError):
        P.blocked_pebbling_schedule(P.PebblingDag(nodes), 16)


# The blocked schedule as it stood when it climbed the DAG through
# ``children`` and the kind sets of each tree, with a red set and fresh id
# strings: the reference for ``blocked_pebbling_schedule``, which walks the
# builder's id lists and counts red pebbles.
_SCORE_TREE = frozenset({P.SUM_INTERNAL, P.QKT_ROOT, P.EXP})
_OUTPUT_TREE = frozenset({P.AV_SUM_INTERNAL, P.AV_ROOT})
_ROWSUM_TREE = frozenset({P.ROWSUM_INTERNAL, P.ROWSUM_ROOT, P.INVERSE})


class _BudgetExceeded(Exception):
    pass


def reference_schedule(dag, m):
    n, d = dag.N, dag.d
    best_r = min(max(m // (4 * d), 1), n)
    for r in range(best_r, 0, -1):
        try:
            return _reference_emit(dag, n, d, m, r)
        except _BudgetExceeded:
            continue
    raise errors.RegimeError(f"cache of {m} words cannot hold even a single-row block")


def _reference_emit(dag, n, d, m, r):
    nodes, children = dag.nodes, dag.children
    red = set()
    moves = []
    add, discard, append = red.add, red.discard, moves.append
    q_ids, k_ids, v_ids = ([[f"{name}[{i},{l}]" for l in range(d)] for i in range(n)]
                           for name in "QKV")

    def read(ids):
        red.update(ids)
        moves.extend([("R1", v) for v in ids])
        if len(red) > m:
            raise _BudgetExceeded

    def compute(v):
        add(v)
        append(("R3", v))
        if len(red) > m:
            raise _BudgetExceeded

    def delete(ids):
        red.difference_update(ids)
        moves.extend([("R4", v) for v in ids])

    def fold(v, kinds):
        while True:
            for up in children[v]:
                if nodes[up].kind in kinds:
                    break
            else:
                return
            parents = nodes[up].parents
            if not red.issuperset(parents):
                return
            compute(up)
            for p in parents:
                discard(p)
                append(("R4", p))
            v = up

    for i0 in range(0, n, r):
        rows = range(i0, min(i0 + r, n))
        for i in rows:
            read(q_ids[i])
        for k, (k_row, v_row) in enumerate(zip(k_ids, v_ids)):
            read(k_row)
            for i in rows:
                for l in range(d):
                    leaf = f"L1[{i},{k},{l}]"
                    compute(leaf)
                    fold(leaf, _SCORE_TREE)
            delete(k_row)
            read(v_row)
            for i in rows:
                for j in range(d):
                    leaf = f"L2[{i},{k},{j}]"
                    compute(leaf)
                    fold(leaf, _OUTPUT_TREE)
            delete(v_row)
            for i in rows:
                fold(f"EXP[{i},{k}]", _ROWSUM_TREE)

        for i in rows:
            for j in range(d):
                out = f"OUT[{i},{j}]"
                compute(out)
                append(("R2", out))
                delete((out, f"AV[{i},{j}]"))
            delete([f"INV[{i}]", *q_ids[i]])

    delete(sorted(dag.inputs))
    return moves


# (N, d) -> the M at which the schedule is compared with the reference
SCHEDULE_GRID = {(n, d): range(4, 8 * d + 40, 3) for n in range(1, 13) for d in range(1, 6)}
SCHEDULE_GRID.update({(16, 4): [32], (16, 1): [12], (24, 3): [40]})


def test_schedule_matches_reference_emitter():
    points = refused = 0
    for (n, d), ms in SCHEDULE_GRID.items():
        dag = P.build_attention_dag(n, d)
        for m in ms:
            points += 1
            try:
                want = reference_schedule(dag, m)
            except errors.RegimeError as exc:
                with pytest.raises(errors.RegimeError) as got:
                    P.blocked_pebbling_schedule(dag, m)
                assert str(got.value) == str(exc), (n, d, m)
                refused += 1
                continue
            calc = P.blocked_pebbling_schedule(dag, m)
            assert calc == want, (n, d, m)
            # r is the number of Q rows read before the first K row
            r = next(i for i, (_, v) in enumerate(calc) if v.startswith("K")) // d
            res = P.validate_calculation(dag, m, calc)
            assert res.ok, (n, d, m, res.violation)
            assert res.io == 2 * n * d + 2 * n * d * math.ceil(n / r), (n, d, m)
    assert points == 1227 and 0 < refused < points, refused


@pytest.mark.parametrize("roots", [0, 2])
def test_tree_walk_computes_each_node_once_after_its_operands(roots):
    for leaves in range(1, 65):
        # the roots form a chain above the top of the tree
        internals = len(P._tree_shape(leaves))
        operands = P._tree_shape(leaves) + [(leaves + internals + c - 1,) for c in range(roots)]
        top = leaves + len(operands) - 1
        red, done = set(), []
        for t, moves in enumerate(P._tree_walk(leaves, roots, True)):
            assert moves[0] == ("R3", t)
            for rule, x in moves:
                if rule == "R3":
                    assert x not in red and x not in done
                    assert x < leaves or red.issuperset(operands[x - leaves]), (leaves, x)
                    red.add(x)
                    done.append(x)
                else:  # an operand of the node computed last
                    assert done[-1] >= leaves and x in operands[done[-1] - leaves]
                    red.remove(x)
            assert (top in red) == (t == leaves - 1), (leaves, t)
        # every vertex once, leaves in order and the rest in creation order
        assert sorted(done) == list(range(top + 1)) and red == {top}
        assert [x for x in done if x < leaves] == list(range(leaves))
        assert [x for x in done if x >= leaves] == list(range(leaves, top + 1))
        no_leaves = P._tree_walk(leaves, roots, False)
        assert no_leaves == [[mv for mv in moves if mv != ("R3", t)]
                             for t, moves in enumerate(P._tree_walk(leaves, roots, True))]


# -- brute force ----------------------------------------------------------------

def test_brute_force_single_edge():
    assert P.brute_force_min_io(edge_dag(), 2) == 2


def test_brute_force_path3():
    assert P.brute_force_min_io(path3_dag(), 2) == 2


def test_brute_force_unbounded_cache_reads_inputs_writes_outputs():
    two_in = P.PebblingDag({"a": P.Node(P.INPUT, ()),
                            "b": P.Node(P.INPUT, ()),
                            "c": P.Node(P.SCALE, ("a", "b"))})
    assert P.brute_force_min_io(two_in, 3) == 3
    diamond = P.PebblingDag({
        "a": P.Node(P.INPUT, ()),
        "b": P.Node(P.EXP, ("a",)),
        "c": P.Node(P.INVERSE, ("a",)),
        "d": P.Node(P.SCALE, ("b", "c"))})
    assert P.brute_force_min_io(diamond, 4) == 2


def test_brute_force_cap():
    dag = P.build_attention_dag(2, 2)
    with pytest.raises(errors.EnumerationCapError):
        P.brute_force_min_io(dag, 4)


def test_brute_force_cap_counts_configurations():
    # n lone vertices are inputs and outputs at once: the search ends at
    # its start, so only the refusal costs anything
    for n in range(1, 17):
        dag = P.PebblingDag({f"v{i}": P.Node(P.INPUT, ()) for i in range(n)})
        if n <= 12:
            assert P.brute_force_min_io(dag, 1) == 0
            continue
        with pytest.raises(errors.EnumerationCapError) as exc:
            P.brute_force_min_io(dag, 1)
        assert (exc.value.required, exc.value.cap) == (4 ** n, 4 ** 12)


def test_brute_force_lower_bounds_schedule():
    dag = P.build_attention_dag(1, 1)
    calc = P.blocked_pebbling_schedule(dag, 8)
    res = P.validate_calculation(dag, 8, calc)
    assert P.brute_force_min_io(dag, 8) <= res.io


def random_dag(seed, sizes=(2, 7)):
    """v0, v1, ... (2-7 vertices, or as many as ``sizes`` allows), each
    with at most two earlier parents."""
    rng = random.Random(seed)
    nodes = {}
    for i in range(rng.randint(*sizes)):
        parents = tuple(f"v{j}" for j in sorted(rng.sample(range(i), rng.randint(0, min(i, 2)))))
        nodes[f"v{i}"] = P.Node(P.SCALE if parents else P.INPUT, parents)
    return P.PebblingDag(nodes)


# random_dag(seed) -> minimum I/O at M = 1, 2, 3, 4; None where M < max
# in-degree + 1 raises ConfigurationError
BRUTE_FORCE_PINS = {
    0: (None, 3, 3, 3), 1: (None, 2, 2, 2), 2: (0, 0, 0, 0), 3: (None, None, 2, 2),
    4: (None, None, 3, 3), 5: (None, None, 3, 3), 6: (None, None, 5, 5),
    7: (None, None, 2, 2), 8: (None, 2, 2, 2), 9: (None, None, 3, 3),
    10: (None, None, 4, 4), 11: (None, None, 2, 2), 12: (None, 3, 3, 3),
    13: (None, None, 3, 3), 14: (None, 2, 2, 2), 15: (0, 0, 0, 0), 16: (None, 4, 4, 4),
    17: (None, None, 2, 2), 18: (None, 2, 2, 2), 19: (None, None, 5, 5),
    20: (None, 5, 5, 5), 21: (None, 3, 3, 3), 22: (None, None, 3, 3),
    23: (None, None, 3, 3), 24: (None, None, 3, 3), 25: (None, 4, 4, 4),
    26: (None, None, 6, 6), 27: (None, 6, 6, 6), 28: (0, 0, 0, 0),
    29: (None, None, 4, 4), 30: (None, None, 6, 6), 31: (0, 0, 0, 0), 32: (0, 0, 0, 0),
    33: (None, None, 3, 3), 34: (None, 2, 2, 2), 35: (None, None, 4, 4),
    36: (None, 2, 2, 2), 37: (None, None, 5, 3), 38: (None, None, 6, 6),
    39: (None, 2, 2, 2), 40: (None, 2, 2, 2), 41: (None, None, 2, 2),
    42: (None, None, 7, 7), 43: (0, 0, 0, 0), 44: (None, 3, 3, 3), 45: (None, 2, 2, 2),
    46: (0, 0, 0, 0), 47: (None, None, 2, 2), 48: (None, None, 4, 4),
    49: (None, 2, 2, 2), 50: (None, None, 2, 2), 51: (0, 0, 0, 0), 52: (None, 3, 3, 3),
    53: (None, None, 3, 3), 54: (None, 2, 2, 2), 55: (0, 0, 0, 0),
    56: (None, None, 3, 3), 57: (0, 0, 0, 0), 58: (None, None, 5, 5),
    59: (None, 2, 2, 2),
}


def test_brute_force_pinned_on_random_dags():
    for seed, pins in BRUTE_FORCE_PINS.items():
        dag = random_dag(seed)
        for m, pin in enumerate(pins, 1):
            if pin is None:
                with pytest.raises(errors.ConfigurationError, match="max in-degree"):
                    P.brute_force_min_io(dag, m)
            else:
                assert P.brute_force_min_io(dag, m) == pin, (seed, m)


def test_brute_force_refuses_a_non_integer_red_budget():
    # 3.5 answered for M = 4: 3 on random_dag(37), where M = 3 gives 5
    dag = random_dag(37)
    for m in (3.5, 3.0, True):
        with pytest.raises(ConfigurationError, match=r"^M must be an integer, got "):
            P.brute_force_min_io(dag, m)
    assert P.brute_force_min_io(dag, np.int64(3)) == 5


def test_brute_force_pinned_on_attention_dag():
    dag = P.build_attention_dag(1, 1)
    assert [P.brute_force_min_io(dag, m) for m in range(3, 7)] == [4, 4, 4, 4]


def max_in_degree(dag):
    return max((len(node.parents) for node in dag.nodes.values()), default=0)


def _reference_min_io(dag: P.PebblingDag, m: int,
                      cap: int = P.CONFIGURATION_ENUMERATION_CAP) -> int:
    """Exact Q(G, M) by a 0-1 BFS over every red x blue configuration,
    blue deletions included, to the exact terminal configuration: the
    reference for ``brute_force_min_io``, which searches only monotone
    blue sets and stops at any that holds every output."""
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
        if state == goal:
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
            if state & bbit:
                nxt = state & ~bbit                                  # R4 blue
                if dist.get(nxt, step) > cost:
                    dist[nxt] = cost
                    queue.appendleft((cost, nxt))
        # fall through: unreachable goal would exhaust the queue
    raise RuntimeError("no complete calculation found (malformed DAG?)")


def test_brute_force_matches_reference_search():
    for seed in range(300):
        dag = random_dag(seed)
        for m in (max_in_degree(dag) + 1, max_in_degree(dag) + 2):
            assert P.brute_force_min_io(dag, m) == _reference_min_io(dag, m), (seed, m)


# random_dag(seed, (9, 11)) -> minimum I/O at M = max in-degree + 1 and + 2,
# recorded with _reference_min_io
LARGE_BRUTE_FORCE_PINS = {
    0: (7, 7), 1: (6, 6), 2: (6, 5), 3: (3, 3), 4: (6, 6), 5: (8, 8), 6: (7, 7),
    7: (6, 6), 8: (5, 4), 9: (8, 5), 10: (6, 6), 11: (8, 8), 12: (4, 4), 13: (6, 5),
    14: (5, 5), 15: (3, 3), 16: (6, 6), 17: (7, 7), 18: (7, 7), 19: (6, 6),
}


def test_brute_force_pinned_on_larger_random_dags():
    for seed, pins in LARGE_BRUTE_FORCE_PINS.items():
        dag = random_dag(seed, (9, 11))
        assert 9 <= len(dag.nodes) <= 11
        got = tuple(P.brute_force_min_io(dag, max_in_degree(dag) + k) for k in (1, 2))
        assert got == pins, seed


# -- M-partitions ---------------------------------------------------------------

def test_partition_whole_graph_valid():
    dag = P.build_attention_dag(2, 2)
    part = P.PartSpec(dag.nodes.keys(), dag.inputs)
    assert P.verify_m_partition(dag, 12, [part]) == []


def test_partition_refuses_a_non_integer_cache():
    # 2.5 was compared against dominator sizes as it stood
    dag = P.build_attention_dag(2, 2)
    part = P.PartSpec(dag.nodes.keys(), dag.inputs)
    for m in (2.5, 12.0, True):
        with pytest.raises(ConfigurationError, match=r"^M must be an integer, got "):
            P.verify_m_partition(dag, m, [part])
    assert P.verify_m_partition(dag, np.int64(12), [part]) == []


def test_partition_p1_overlap_and_cover():
    dag = P.build_attention_dag(2, 2)
    whole = P.PartSpec(dag.nodes.keys(), dag.inputs)
    v0 = sorted(dag.nodes)[0]
    violations = P.verify_m_partition(dag, 12, [whole, P.PartSpec({v0}, {v0})])
    assert any(v.rule == "P1" for v in violations)
    partial = P.PartSpec(dag.inputs, dag.inputs)
    violations = P.verify_m_partition(dag, 12, [partial])
    assert any(v.rule == "P1" and "not covered" in v.message for v in violations)


def test_partition_p1_vertices_not_in_the_dag():
    dag = P.build_attention_dag(1, 1)
    ghost = P.PartSpec(set(dag.nodes) | {"ghost"}, dag.inputs)
    assert P.verify_m_partition(dag, 4, [ghost]) == [
        P.Violation(0, "P1", "vertices not in the DAG", ["ghost"])]
    # the witness is sorted and capped at 5; P2 and P3 still run on the
    # known vertices, whose minimum set is the one output
    ghosts = P.PartSpec(set(dag.nodes) | {f"g{i}" for i in range(7)}, dag.inputs)
    assert P.verify_m_partition(dag, 1, [ghosts]) == [
        P.Violation(0, "P1", "vertices not in the DAG", ["g0", "g1", "g2", "g3", "g4"]),
        P.Violation(0, "P2", "dominator has 3 > 1 vertices")]
    # unknown vertices need not be strings, nor of one type
    strays = [P.PartSpec(dag.nodes, dag.inputs), P.PartSpec({0, "ghost"}, ()),
              P.PartSpec({0, "ghost"}, ())]
    assert P.verify_m_partition(dag, 4, strays)[1:] == [
        P.Violation(2, "P1", "parts overlap", [0, "ghost"]),
        P.Violation(2, "P1", "vertices not in the DAG", [0, "ghost"])]


def test_partition_p2_uncovered_path_witness():
    dag = P.build_attention_dag(2, 2)
    dom = set(dag.inputs)
    dropped = sorted(dom)[0]
    dom.discard(dropped)
    violations = P.verify_m_partition(dag, 12, [P.PartSpec(dag.nodes.keys(), dom)])
    witnesses = [v for v in violations if v.rule == "P2" and v.witness]
    assert witnesses and witnesses[0].witness[0] == dropped


def test_partition_p2_p3_size_limits():
    dag = P.build_attention_dag(2, 2)
    violations = P.verify_m_partition(dag, 2, [P.PartSpec(dag.nodes.keys(), dag.inputs)])
    rules = {v.rule for v in violations}
    assert "P2" in rules  # 12 inputs > 2
    assert "P3" in rules  # 4 outputs > 2


def test_partition_p4_cycle_witness():
    dag = P.build_attention_dag(2, 2)
    # split one summation tree so the two parts depend on each other
    rest = set(dag.nodes) - {"L1[0,0,0]", "L1[0,0,1]", "S1[0,0]#0", "QKT[0,0]"}
    parts = [P.PartSpec({"L1[0,0,0]", "QKT[0,0]"}, dag.inputs),
             P.PartSpec({"L1[0,0,1]", "S1[0,0]#0"}, dag.inputs),
             P.PartSpec(rest, dag.inputs)]
    violations = P.verify_m_partition(dag, 12, parts)
    cycle = [v for v in violations if v.rule == "P4"]
    assert cycle and len(cycle[0].witness) >= 3


def test_partition_level1_bound_on_valid_parts():
    # Lemma-style bound: valid whole-graph partitions at M >= d^2 keep
    # every part's level-1 count within 8 (M^2 / d + M d)
    for n, d in [(2, 2), (3, 2)]:
        dag = P.build_attention_dag(n, d)
        m = max(3 * n * d, d * d)
        part = P.PartSpec(dag.nodes.keys(), dag.inputs)
        assert P.verify_m_partition(dag, m, [part]) == []
        assert P.level1_vertex_count(dag, part.vertices) <= 8 * (m * m / d + m * d)


def test_partition_long_path_dag_valid():
    # 1,500 single-vertex parts in a chain: the dependence check must not recurse
    ids = [f"v{i}" for i in range(1500)]
    dag = P.PebblingDag({v: P.Node(P.INPUT if i == 0 else P.EXP, tuple(ids[i - 1:i]))
                         for i, v in enumerate(ids)})
    parts = [P.PartSpec({v}, {v}) for v in ids]
    assert P.verify_m_partition(dag, 1, parts) == []


# The verifier as it stood before P1 and P4 shared one owner map and P2's
# searches shared one visited map: the reference for the tests below.
def verify_m_partition_reference(dag, m, parts):
    violations = []

    seen = set()
    for idx, part in enumerate(parts):
        overlap = seen & part.vertices
        if overlap:
            violations.append(P.Violation(idx, "P1", "parts overlap",
                                          sorted(overlap, key=str)[:5]))
        seen |= part.vertices
        unknown = part.vertices.difference(dag.nodes)
        if unknown:
            violations.append(P.Violation(idx, "P1", "vertices not in the DAG",
                                          sorted(unknown, key=str)[:5]))
    missing = set(dag.nodes) - seen
    if missing:
        violations.append(P.Violation(None, "P1", "vertices not covered", sorted(missing)[:5]))

    for idx, part in enumerate(parts):
        if len(part.dominator) > m:
            violations.append(P.Violation(
                idx, "P2", f"dominator has {len(part.dominator)} > {m} vertices", None))
        path = uncovered_path_reference(dag, part)
        if path is not None:
            violations.append(P.Violation(idx, "P2", "input-to-part path avoids dominator", path))
        msize = len(P.minimum_set(dag, part.vertices.intersection(dag.nodes)))
        if msize > m:
            violations.append(P.Violation(
                idx, "P3", f"minimum set has {msize} > {m} vertices", None))

    cycle = dependence_cycle_reference(dag, parts)
    if cycle is not None:
        violations.append(P.Violation(None, "P4", "cyclic dependence among parts", cycle))
    return violations


def uncovered_path_reference(dag, part):
    """One fresh BFS per unblocked input."""
    target = part.vertices - part.dominator
    blocked = part.dominator
    for src in sorted(dag.inputs):
        if src in blocked:
            continue
        prev = {src: None}
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


def dependence_cycle_reference(dag, parts):
    owner = {}
    for idx, part in enumerate(parts):
        for v in part.vertices:
            owner.setdefault(v, idx)
    preds = {i: set() for i in range(len(parts))}
    for v, node in dag.nodes.items():
        for p in node.parents:
            a, b = owner.get(p), owner.get(v)
            if a is not None and b is not None and a != b:
                preds[b].add(a)
    try:
        graphlib.TopologicalSorter(preds).prepare()
    except graphlib.CycleError as exc:
        return exc.args[1]
    return None


def random_partition(dag, rng):
    """Parts of ``dag`` with in-boundary dominators, then perturbed: parts
    cut from creation order or scattered (cyclic splits), vertices shared
    or dropped, stray non-string vertices, and dominator members dropped
    (often inputs) or added."""
    order = list(dag.nodes)
    k = rng.randint(1, 5)
    if rng.random() < 0.5:
        cuts = sorted(rng.sample(range(1, len(order)), min(k - 1, len(order) - 1)))
        groups = [order[a:b] for a, b in zip([0, *cuts], [*cuts, len(order)])]
    else:
        groups = [[] for _ in range(k)]
        for v in order:
            groups[rng.randrange(k)].append(v)
    parts = []
    for group in groups:
        vertices = set(group)
        if vertices and rng.random() < 0.2:
            vertices -= set(rng.sample(sorted(vertices), min(rng.randint(1, 3), len(vertices))))
        if rng.random() < 0.15:
            vertices |= set(rng.sample(order, rng.randint(1, 4)))
        if rng.random() < 0.1:
            vertices |= set(rng.sample([0, 7, ("Q", 0), "ghost", 2.5], rng.randint(1, 2)))
        dominator = {v for v in vertices if v in dag.inputs}
        dominator |= {p for v in vertices if v in dag.nodes for p in dag.nodes[v].parents
                      if p not in vertices}
        if dominator and rng.random() < 0.4:
            dominator -= set(rng.sample(sorted(dominator), rng.randint(1, min(3, len(dominator)))))
        if rng.random() < 0.1:
            dominator |= set(rng.sample(order, 2))
        parts.append(P.PartSpec(vertices, dominator))
    return parts


def test_partition_verifier_matches_reference_on_random_partitions():
    rng = random.Random(20261019)
    dags = [P.build_attention_dag(n, d) for n in range(1, 5) for d in range(1, 4)]
    fired = Counter()
    for trial in range(2000):
        dag = rng.choice(dags)
        parts = random_partition(dag, rng)
        m = rng.randint(1, 2 * dag.N * dag.d + 4)
        got = P.verify_m_partition(dag, m, parts)
        assert got == verify_m_partition_reference(dag, m, parts), (trial, dag.N, dag.d, m)
        fired.update(v.rule for v in got)
    assert set(fired) == {"P1", "P2", "P3", "P4"}, fired


class CountingLookups(dict):
    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


@pytest.mark.parametrize("n, d", [(4, 2), (8, 4)])
def test_partition_p2_visits_each_vertex_once(n, d):
    # every input is unblocked and none reaches OUT[0,0] past its two parents
    dag = P.build_attention_dag(n, d)
    dag.children = CountingLookups(dag.children)
    part = P.PartSpec({"OUT[0,0]"}, {"AV[0,0]", "INV[0]"})
    assert P.verify_m_partition(dag, 2, [part]) == [
        P.Violation(None, "P1", "vertices not covered", sorted(dag.nodes)[:5])]
    assert dag.children.lookups <= len(dag)


def test_children_are_built_on_first_read():
    dag = P.build_attention_dag(3, 2)
    calc = P.blocked_pebbling_schedule(dag, 24)
    assert P.validate_calculation(dag, 24, calc).ok
    copy = P.PebblingDag(dag.nodes)
    assert P.validate_calculation(copy, 24, calc).ok
    assert "children" not in vars(dag) and "children" not in vars(copy)
    children = {v: [] for v in dag.nodes}
    for v, node in dag.nodes.items():
        for p in node.parents:
            children[p].append(v)
    part = P.PartSpec(dag.nodes.keys(), dag.inputs)
    assert P.verify_m_partition(dag, 24, [part]) == []
    assert vars(dag)["children"] == children
    assert list(dag.children) == list(children)


def test_minimum_set():
    dag = P.build_attention_dag(2, 2)
    assert P.minimum_set(dag, frozenset(dag.nodes)) == dag.outputs


# -- serialization --------------------------------------------------------------

def test_jsonl_round_trip(tmp_path):
    dag = P.build_attention_dag(2, 2)
    path = tmp_path / "dag.jsonl"
    dag.to_jsonl(path)
    back = P.PebblingDag.from_jsonl(path)
    assert back.nodes == dag.nodes
    assert back.inputs == dag.inputs and back.outputs == dag.outputs


def test_index_matches_its_definition_and_survives_jsonl(tmp_path):
    path = tmp_path / "dag.jsonl"
    dags = [random_dag(seed, sizes) for seed in range(100) for sizes in ((2, 7), (9, 30))]
    # parents listed after their children
    dags += [P.PebblingDag(dict(reversed(dag.nodes.items()))) for dag in dags[:20]]
    dags += [P.build_attention_dag(n, d) for n, d in ((1, 1), (2, 3), (3, 2))]
    for dag in dags:
        children = {v: [] for v in dag.nodes}
        for v, node in dag.nodes.items():
            for p in node.parents:
                children[p].append(v)
        assert dag.children == children
        assert list(dag.children) == list(children)
        assert dag.inputs == {v for v, node in dag.nodes.items() if not node.parents}
        assert dag.outputs == {v for v in dag.nodes if not children[v]}
        dag.to_jsonl(path)
        assert P.PebblingDag.from_jsonl(path).nodes == dag.nodes


def test_node_is_a_tuple_whose_level1_follows_its_kind():
    kinds = [P.INPUT, P.L1_PRODUCT, P.SUM_INTERNAL, P.QKT_ROOT, P.EXP, P.ROWSUM_INTERNAL,
             P.ROWSUM_ROOT, P.INVERSE, P.L2_PRODUCT, P.AV_SUM_INTERNAL, P.AV_ROOT, P.SCALE]
    for kind in kinds:
        node = P.Node(kind, ("a", "b"))
        assert node == (kind, ("a", "b")) and node.parents == ("a", "b")
        assert node.level1 == (kind in (P.L1_PRODUCT, P.SUM_INTERNAL, P.QKT_ROOT))
    dag = P.build_attention_dag(2, 2)
    assert all(type(node) is P.Node for node in dag.nodes.values())
    assert P.level1_vertex_count(dag, dag.nodes) == 2 * 2 * 2 * 2


def test_calculation_round_trip_validates_on_a_jsonl_copy(tmp_path):
    dag = P.build_attention_dag(2, 2)
    path = tmp_path / "dag.jsonl"
    dag.to_jsonl(path)
    generic = P.PebblingDag.from_jsonl(path)
    calc = P.blocked_pebbling_schedule(dag, 16)
    cpath = tmp_path / "calc.json"
    P.save_calculation(calc, cpath)
    assert P.load_calculation(cpath) == calc
    assert P.validate_calculation(generic, 16, calc).ok


def test_calculation_with_a_third_item_off_r4_round_trips(tmp_path):
    # the validator ignores a third item on R1-R3; only an R4's is a color
    calc = [("R1", "in", "x"), ("R3", "out"), ("R2", "out"), ("R4", "in", "red"),
            ("R4", "out"), ("R4", "in")]
    before = P.validate_calculation(edge_dag(), 2, calc)
    assert (before.ok, before.reads, before.writes) == (True, 1, 1)
    path = tmp_path / "calc.json"
    P.save_calculation(calc, path)
    loaded = P.load_calculation(path)
    assert loaded == [("R1", "in"), *calc[1:]]
    after = P.validate_calculation(edge_dag(), 2, loaded)
    assert (after.ok, after.reads, after.writes) == (True, 1, 1)


def test_schedule_rejects_non_attention_dag(tmp_path):
    # only the builder's own DAG is scheduled: not an unrelated graph, not
    # even a copy of the builder's nodes
    dag = P.build_attention_dag(2, 2)
    path = tmp_path / "dag.jsonl"
    dag.to_jsonl(path)
    for graph in (path3_dag(), P.PebblingDag(dag.nodes), P.PebblingDag.from_jsonl(path)):
        with pytest.raises(errors.ConfigurationError, match="build_attention_dag's DAG"):
            P.blocked_pebbling_schedule(graph, 16)


def test_jsonl_level1_is_derived_from_kind(tmp_path):
    path = tmp_path / "dag.jsonl"
    records = [{"id": "a", "kind": P.INPUT, "parents": []},
               {"id": "b", "kind": P.L1_PRODUCT, "parents": ["a"], "level1": True}]
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    dag = P.PebblingDag.from_jsonl(path)
    assert not dag.nodes["a"].level1 and dag.nodes["b"].level1
    records[0]["level1"] = True
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    with pytest.raises(errors.ConfigurationError, match="line 1: level1"):
        P.PebblingDag.from_jsonl(path)


# sha256 of the to_jsonl bytes, and of the save_calculation bytes of the
# blocked schedule or else the RegimeError message
GOLDEN_DIGESTS = {
    (1, 1, 8): ("b5b117d5c4e8770dca76de38d786867c80981efe4d7f0aacddf08b3f9d29551f",
                "e70462a07e6977f69f0debf3f4767d0c9ea6e4255a10e1dadba56c7ca752df62"),
    (2, 2, 16): ("49205196c430910c726b63b330424f885bf0ee24ddf5432955e839117f1004be",
                 "21e4dcddbb9d2661606f26dcf3a0f9faed93f03d1dccd25b092675c37670e250"),
    (4, 2, 16): ("3c197e900e770b1ae473c2f18288c7c3616a295100454ee011a07c6ba4312cc6",
                 "d07b678b1614c0391521c13fa70f8106ebc4f68d598c6d137edade39b9a05920"),
    (3, 5, 40): ("4c5c33113188d0e57bda863d6918519eb8b4d1eeccea06aa21737e5a3bdbdcc4",
                 "928413560c95f94a17fbd478617f29f7b2db35436d0be82600d8735917208af7"),
    (16, 4, 32): ("4d9ccfc46e33815e5b2ee93445e48393c6130d8f7c8a0db96ad13a9c9ed58e90",
                  "ffc48431658d286b2fb8cc685a2b64c2a8790b31b10050789a6979084676ba75"),
    (16, 1, 12): ("7771565c6a328ae7b469375eb2ecbade461dd0417ebe30ef38bb6b4da66fa6cc",
                  "cache of 12 words cannot hold even a single-row block"),
}


@pytest.mark.parametrize("n, d, m", list(GOLDEN_DIGESTS))
def test_dag_and_schedule_bytes_pinned(tmp_path, n, d, m):
    dag_digest, calc_digest = GOLDEN_DIGESTS[n, d, m]
    dag = P.build_attention_dag(n, d)
    path = tmp_path / "out"
    dag.to_jsonl(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == dag_digest
    try:
        P.save_calculation(P.blocked_pebbling_schedule(dag, m), path)
    except errors.RegimeError as exc:
        assert str(exc) == calc_digest
    else:
        assert hashlib.sha256(path.read_bytes()).hexdigest() == calc_digest


# (16, 1, 12) has no schedule: it raises RegimeError
@pytest.mark.parametrize("n, d, m", [key for key in GOLDEN_DIGESTS if key != (16, 1, 12)])
def test_validator_matches_reference_on_golden_schedules(n, d, m):
    dag = P.build_attention_dag(n, d)
    calc = P.blocked_pebbling_schedule(dag, m)
    thinned = [tr for k, tr in enumerate(calc) if k % 50 != 49]  # each 50th move deleted
    for moves, budget in ((thinned, m), (calc, m - 1), (thinned, m - 1)):
        assert P.validate_calculation(dag, budget, moves) == _reference_validate(
            dag, budget, moves)


@pytest.mark.parametrize("record, message", [
    ({"rule": "R1", "vertex": ["in"]}, "transition 1: 'rule' and 'vertex' must be strings"),
    ({"rule": 1, "vertex": "in"}, "transition 1: 'rule' and 'vertex' must be strings"),
    ({"rule": "R4", "vertex": "in", "color": ["red"]}, "transition 1: 'color' must be"),
    ({"rule": "R4", "vertex": "in", "color": "green"}, "transition 1: 'color' must be"),
    ({"rule": "R4", "vertex": "in", "color": None}, "transition 1: 'color' must be"),
    ("R1", "transition 1 'R1' needs 'rule' and 'vertex'"),
])
def test_load_calculation_rejects_bad_transition(tmp_path, record, message):
    path = tmp_path / "calc.json"
    path.write_text(json.dumps([{"rule": "R1", "vertex": "in"}, record]))
    with pytest.raises(errors.ConfigurationError, match=f"calc.json: {re.escape(message)}"):
        P.load_calculation(path)


def test_validator_rejects_unknown_r4_color():
    res = P.validate_calculation(edge_dag(), 2, [("R4", "in", "green")])
    assert res.violation == P.Violation(0, "R4", "R4 with unknown color 'green'")


def test_validator_reports_unhashable_vertex():
    calc = [("R1", "Q[0,0]"), ("R1", ["Q[0,0]"])]
    res = P.validate_calculation(P.build_attention_dag(1, 1), 3, calc)
    assert not res.ok and res.reads == 1
    assert res.violation == P.Violation(1, "R1", "unknown vertex ['Q[0,0]']")


@pytest.mark.parametrize("record", [
    {"id": ["a"], "kind": P.INPUT, "parents": []},
    {"id": "a", "kind": [P.INPUT], "parents": []},
    {"id": "a", "kind": P.INPUT, "parents": "ab"},
    {"id": "a", "kind": P.INPUT, "parents": [["x"]]},
    {"id": "a", "kind": P.INPUT, "parents": [1]},
])
def test_jsonl_rejects_bad_id_or_parents(tmp_path, record):
    path = tmp_path / "dag.jsonl"
    path.write_text(json.dumps({"id": "x", "kind": P.INPUT, "parents": []}) + "\n"
                    + json.dumps(record) + "\n")
    with pytest.raises(errors.ConfigurationError, match="dag.jsonl, line 2: 'id' and 'kind'"):
        P.PebblingDag.from_jsonl(path)


@pytest.mark.parametrize("graph, message", [
    # the second o would silently replace the first
    ([("a", P.INPUT, []), ("o", P.SCALE, ["a"]), ("o", P.SCALE, [])],
     "line 3: duplicate id 'o' (first on line 2)"),
    ([("a", P.INPUT, []), ("b", P.EXP, ["a", "c"]), ("c", P.EXP, ["b"]), ("o", P.SCALE, ["c"])],
     "line 2: parents form a cycle b -> c -> b"),
], ids=["duplicate_id", "cycle"])
def test_jsonl_rejects_duplicate_id_and_cycle(tmp_path, graph, message):
    path = tmp_path / "dag.jsonl"
    path.write_text("".join(json.dumps({"id": v, "kind": kind, "parents": parents}) + "\n"
                            for v, kind, parents in graph))
    with pytest.raises(errors.ConfigurationError, match=f"dag.jsonl, {re.escape(message)}$"):
        P.PebblingDag.from_jsonl(path)
