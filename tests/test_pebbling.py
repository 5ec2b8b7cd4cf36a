"""Pebble game: DAG construction, validation, schedules, partitions."""

import json
import math

import pytest

from attnio import errors
from attnio import pebbling as P
from attnio.kernels import streaming_attention
from attnio.matrices import random_instance
from attnio.memory import MemoryHierarchy


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
    assert res.io <= 16 * n * n * d * d / m + 16 * n * d


def test_schedule_degenerate_size():
    dag = P.build_attention_dag(1, 1)
    calc = P.blocked_pebbling_schedule(dag, 8)
    res = P.validate_calculation(dag, 8, calc)
    assert res.ok and res.io == 4  # read Q, K, V; write O


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


def test_brute_force_lower_bounds_schedule():
    dag = P.build_attention_dag(1, 1)
    calc = P.blocked_pebbling_schedule(dag, 8)
    res = P.validate_calculation(dag, 8, calc)
    assert P.brute_force_min_io(dag, 8) <= res.io


# -- M-partitions ---------------------------------------------------------------

def test_partition_whole_graph_valid():
    dag = P.build_attention_dag(2, 2)
    part = P.PartSpec(dag.nodes.keys(), dag.inputs)
    assert P.verify_m_partition(dag, 12, [part]) == []


def test_partition_p1_overlap_and_cover():
    dag = P.build_attention_dag(2, 2)
    whole = P.PartSpec(dag.nodes.keys(), dag.inputs)
    v0 = sorted(dag.nodes)[0]
    violations = P.verify_m_partition(dag, 12, [whole, P.PartSpec({v0}, {v0})])
    assert any(v.rule == "P1" for v in violations)
    partial = P.PartSpec(dag.inputs, dag.inputs)
    violations = P.verify_m_partition(dag, 12, [partial])
    assert any(v.rule == "P1" and "not covered" in v.message for v in violations)


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


def test_calculation_round_trip_and_inferred_dimensions(tmp_path):
    dag = P.build_attention_dag(2, 2)
    path = tmp_path / "dag.jsonl"
    dag.to_jsonl(path)
    generic = P.PebblingDag.from_jsonl(path)
    calc = P.blocked_pebbling_schedule(generic, 16)
    cpath = tmp_path / "calc.json"
    P.save_calculation(calc, cpath)
    assert P.load_calculation(cpath) == calc
    assert P.validate_calculation(generic, 16, calc).ok


def test_schedule_rejects_non_attention_dag():
    with pytest.raises(errors.ConfigurationError):
        P.blocked_pebbling_schedule(path3_dag(), 8)


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
