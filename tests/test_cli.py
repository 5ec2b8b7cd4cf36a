"""Command-line interface: every subcommand, exit codes, enumeration caps."""

import json
import warnings

import numpy as np
import pytest

from attnio import experiments, pebbling
from attnio.cli import main
from attnio.fields import bch_parity_check
from attnio.memory import MemoryHierarchy


def run_cli(*argv):
    return main(list(argv))


def test_attn_run(capsys):
    assert run_cli("attn", "run", "--N", "8", "--d", "2", "--M", "64") == 0
    out = capsys.readouterr().out
    assert "algorithm=streaming" in out
    assert "reads=" in out


def test_attn_run_tolerance_comes_from_bound_config(capsys, monkeypatch):
    argv = ("attn", "run", "--N", "8", "--d", "2", "--M", "64")
    assert run_cli(*argv) == 0
    config = {**experiments.load_bound_config(), "oracle_rel_tolerance": -1.0}
    monkeypatch.setattr(experiments, "load_bound_config", lambda: config)
    assert run_cli(*argv) == 1


def test_attn_run_trace(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    assert run_cli("attn", "run", "--N", "4", "--d", "2", "--M", "4",
                   "--algorithm", "tiling", "--trace", str(trace)) == 0
    assert trace.read_text().startswith("tick,kind,address")


def test_attn_run_regime_error(capsys):
    assert run_cli("attn", "run", "--N", "8", "--d", "4", "--M", "16",
                   "--algorithm", "streaming") == 1
    assert capsys.readouterr() == (
        "", "regime error: streaming needs M >= 8d, got M=16 with d=4; use square_tiling_attention\n")


def test_attn_run_bad_size_exit_code(capsys):
    assert run_cli("attn", "run", "--N", "-1", "--d", "2", "--M", "64") == 2
    assert run_cli("attn", "run", "--N", "4", "--d", "-1", "--M", "64") == 2
    assert capsys.readouterr().err.count("N and d must be >= 1") == 2


@pytest.mark.parametrize("error, line", [
    (MemoryError("Unable to allocate 6.55 PiB for an array with shape (30000000, 30000000)"),
     "error: out of memory: Unable to allocate 6.55 PiB for an array with shape "
     "(30000000, 30000000)\n"),
    (MemoryError(), "error: out of memory\n"),
], ids=["numpy", "bare"])
def test_attn_run_out_of_memory_exit_code(capsys, monkeypatch, error, line):
    # as `attn run --N 30000000 --d 1 --M 16 --algorithm tiling` fails
    # reserving A, without first allocating the hundreds of MB it takes
    def reserve(self, name, shape):
        raise error

    monkeypatch.setattr(MemoryHierarchy, "reserve", reserve)
    assert run_cli("attn", "run", "--N", "4", "--d", "1", "--M", "16",
                   "--algorithm", "tiling") == 2
    assert capsys.readouterr() == ("", line)


def test_attn_sweep(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": [16], "d": [4], "M": [32, 64],
                               "algorithms": ["tiling", "streaming"], "seed": 5}))
    out = tmp_path / "records.csv"
    assert run_cli("attn", "sweep", "--config", str(cfg), "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("algorithm,")
    assert len(lines) == 5


def test_attn_sweep_numeric_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": [16], "d": [4], "M": [16],
                               "algorithms": ["tiling"], "magnitude": 30}))
    out = tmp_path / "records.csv"
    assert run_cli("attn", "sweep", "--config", str(cfg), "--out", str(out)) == 1
    assert "numeric errors: 1" in capsys.readouterr().out
    assert ",numeric_error," in out.read_text()


def test_attn_sweep_output_neg_inf_is_numeric_error(tmp_path, capsys):
    # the overflowed running max leaves -inf in O, which the cache flag
    # (NaN and +inf only) does not catch
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": [4], "d": [1], "M": [16], "algorithms": ["tiling"],
                               "seed": 4, "magnitude": 30}))
    out = tmp_path / "records.csv"
    assert run_cli("attn", "sweep", "--config", str(cfg), "--out", str(out)) == 1
    assert "numeric errors: 1\n" in capsys.readouterr().out
    assert out.read_text().splitlines()[1] == "tiling,4,1,16,numeric_error,44,24,5,8"


def test_attn_sweep_config_missing_key_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": [8]}))
    out = tmp_path / "records.csv"
    assert run_cli("attn", "sweep", "--config", str(cfg), "--out", str(out)) == 2
    assert str(cfg) in capsys.readouterr().err


def test_directory_as_path_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": [8], "d": [2], "M": [32]}))
    idx = tmp_path / "idx.csv"
    idx.write_text("0,0\n")
    folder = str(tmp_path)
    commands = [
        ("attn", "sweep", "--config", str(cfg), "--out", folder),
        ("attn", "sweep", "--config", folder, "--out", str(tmp_path / "r.csv")),
        ("attn", "run", "--N", "4", "--d", "2", "--M", "16", "--trace", folder),
        ("pebble", "build", "--N", "1", "--d", "1", "--out", folder),
        ("pebble", "validate", "--dag", folder, "--calculation", folder, "--M", "3"),
        ("codes", "verify", folder, "2"),
        ("codes", "vandermonde", "5", "2", "7", "--out", folder),
        ("compress", "count", "--q", "3", "--N", "2", "--d", "1",
         "--K", folder, "--indices", str(idx)),
    ]
    for argv in commands:
        assert run_cli(*argv) == 2, argv
        assert capsys.readouterr().err.startswith("error:"), argv


def test_unwritable_output_fails_before_the_run(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": [8], "d": [2], "M": [32]}))
    sweeps = []
    monkeypatch.setattr(experiments, "run_sweep", lambda config: sweeps.append(config) or [])
    assert run_cli("attn", "sweep", "--config", str(cfg), "--out", str(tmp_path)) == 2
    assert sweeps == []
    assert run_cli("attn", "run", "--N", "4", "--d", "2", "--M", "16",
                   "--trace", str(tmp_path)) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("error:") == 2
    # a writable path keeps what it holds when the run gives no trace
    kept = tmp_path / "kept.csv"
    kept.write_text("old\n")
    assert run_cli("attn", "run", "--N", "8", "--d", "4", "--M", "16",
                   "--algorithm", "streaming", "--trace", str(kept)) == 1
    assert capsys.readouterr() == (
        "", "regime error: streaming needs M >= 8d, got M=16 with d=4; use square_tiling_attention\n")
    assert kept.read_text() == "old\n"


def test_pebble_build_validate_search(tmp_path, capsys):
    dag_path = tmp_path / "dag.jsonl"
    assert run_cli("pebble", "build", "--N", "2", "--d", "2",
                   "--out", str(dag_path)) == 0
    assert "58 nodes" in capsys.readouterr().out

    calc_path = tmp_path / "calc.json"
    calc = pebbling.blocked_pebbling_schedule(pebbling.build_attention_dag(2, 2), 16)
    pebbling.save_calculation(calc, calc_path)
    assert run_cli("pebble", "validate", "--dag", str(dag_path),
                   "--calculation", str(calc_path), "--M", "16") == 0
    assert "valid" in capsys.readouterr().out

    # an invalid calculation fails with a nonzero exit
    pebbling.save_calculation([("R2", "OUT[0,0]")], calc_path)
    assert run_cli("pebble", "validate", "--dag", str(dag_path),
                   "--calculation", str(calc_path), "--M", "16") == 1

    edge = pebbling.PebblingDag({"in": pebbling.Node(pebbling.INPUT, ()),
                                 "out": pebbling.Node(pebbling.SCALE, ("in",))})
    edge_path = tmp_path / "edge.jsonl"
    edge.to_jsonl(edge_path)
    assert run_cli("pebble", "search", "--dag", str(edge_path), "--M", "2") == 0
    assert "minimum I/O = 2" in capsys.readouterr().out


def test_pebble_bad_input_exit_code(tmp_path, capsys):
    dag_path = tmp_path / "dag.jsonl"
    pebbling.build_attention_dag(1, 1).to_jsonl(dag_path)
    # M below max in-degree + 1: no complete calculation exists
    assert run_cli("pebble", "search", "--dag", str(dag_path), "--M", "1") == 2
    calc_path = tmp_path / "calc.json"
    for text in ("[{", '[{"vertex": "OUT[0,0]"}]'):
        calc_path.write_text(text)
        assert run_cli("pebble", "validate", "--dag", str(dag_path),
                       "--calculation", str(calc_path), "--M", "8") == 2
    assert capsys.readouterr().err.count("error:") == 3


def test_pebble_malformed_dag_exit_code(tmp_path, capsys):
    dag_path = tmp_path / "dag.jsonl"
    pebbling.build_attention_dag(1, 1).to_jsonl(dag_path)
    calc_path = tmp_path / "calc.json"
    pebbling.save_calculation([], calc_path)
    dag_path.write_text(dag_path.read_text() + "{not json\n")
    assert run_cli("pebble", "search", "--dag", str(dag_path), "--M", "2") == 2
    assert run_cli("pebble", "validate", "--dag", str(dag_path),
                   "--calculation", str(calc_path), "--M", "8") == 2
    err = capsys.readouterr().err
    assert err.count(f"{dag_path}, line 12:") == 2


# Lines appended to the 11-line DAG of N = d = 1, and whole calculation
# files; each must exit 2 with one error naming the file and place.
MALFORMED_DAG_LINES = {
    "parents_nested": {"id": "z", "kind": pebbling.INPUT, "parents": [["x"]]},
    "parents_string": {"id": "z", "kind": pebbling.INPUT, "parents": "ab"},
    "id_not_string": {"id": 5, "kind": pebbling.INPUT, "parents": []},
    "line_not_object": [1, 2],
    "duplicate_id": {"id": "OUT[0,0]", "kind": pebbling.SCALE, "parents": []},
    "self_loop": {"id": "z", "kind": pebbling.EXP, "parents": ["z"]},
    "unknown_parent": {"id": "z", "kind": pebbling.EXP, "parents": ["Q[0,0]", "zz"]},
}
MALFORMED_CALCULATIONS = {
    "vertex_list": [{"rule": "R1", "vertex": ["Q[0,0]"]}],
    "rule_not_string": [{"rule": 1, "vertex": "Q[0,0]"}],
    "color_list": [{"rule": "R4", "vertex": "Q[0,0]", "color": ["red"]}],
    "color_unknown": [{"rule": "R4", "vertex": "Q[0,0]", "color": "green"}],
    "not_a_list": {"rule": "R1", "vertex": "Q[0,0]"},
}


@pytest.mark.parametrize("command, dag_case, calc_case", [
    *((command, case, None) for case in MALFORMED_DAG_LINES
      for command in ("search", "validate")),
    *(("validate", None, case) for case in MALFORMED_CALCULATIONS),
])
def test_pebble_malformed_input_exit_code(tmp_path, capsys, command, dag_case, calc_case):
    dag_path = tmp_path / "dag.jsonl"
    pebbling.build_attention_dag(1, 1).to_jsonl(dag_path)
    where = f"{dag_path}, line 12:"
    if dag_case:
        dag_path.write_text(dag_path.read_text() + json.dumps(MALFORMED_DAG_LINES[dag_case]) + "\n")
    calc_path = tmp_path / "calc.json"
    calc_path.write_text(json.dumps(MALFORMED_CALCULATIONS.get(calc_case, [])))
    if calc_case:
        where = f"{calc_path}: " + ("expected a JSON list" if calc_case == "not_a_list"
                                    else "transition 0")
    argv = ["pebble", command, "--dag", str(dag_path), "--M", "3"]
    if command == "validate":
        argv += ["--calculation", str(calc_path)]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and where in err and "Traceback" not in err


def test_pebble_search_cap_refusal(tmp_path, capsys, monkeypatch):
    dag_path = tmp_path / "dag.jsonl"
    pebbling.build_attention_dag(2, 2).to_jsonl(dag_path)
    assert run_cli("pebble", "search", "--dag", str(dag_path), "--M", "4") == 1
    assert "refused" in capsys.readouterr().err
    # the env var can lift the cap (kept small here; just check plumbing)
    monkeypatch.setenv("ATTNIO_ENUM_CAP", "1")
    edge = pebbling.PebblingDag({"in": pebbling.Node(pebbling.INPUT, ()),
                                 "out": pebbling.Node(pebbling.SCALE, ("in",))})
    edge_path = tmp_path / "edge.jsonl"
    edge.to_jsonl(edge_path)
    assert run_cli("pebble", "search", "--dag", str(edge_path), "--M", "2") == 1
    assert capsys.readouterr().err == (
        "refused: enumeration of 16 configurations exceeds the cap of 1\n")


def test_codes_vandermonde(tmp_path, capsys):
    out = tmp_path / "v.csv"
    assert run_cli("codes", "vandermonde", "8", "3", "17", "--out", str(out)) == 0
    assert "independent: True" in capsys.readouterr().out
    data = np.loadtxt(out, delimiter=",", dtype=np.int64)
    assert data.shape == (8, 3)


def test_codes_bch(capsys):
    assert run_cli("codes", "bch", "4", "5") == 0
    out = capsys.readouterr().out
    assert "min_distance=5" in out


def test_codes_verify(tmp_path, capsys):
    path = tmp_path / "kt.csv"
    bch_parity_check(4, 5).transpose().save_csv(path)
    assert run_cli("codes", "verify", str(path), "4", "--q", "2") == 0
    assert capsys.readouterr().out == "all 4-row subsets independent: True\n"
    dep = tmp_path / "dep.csv"
    dep.write_text("1,0\n1,0\n")
    assert run_cli("codes", "verify", str(dep), "2", "--q", "2") == 1
    assert capsys.readouterr().out == "all 2-row subsets independent: False (witness (0, 1))\n"


@pytest.mark.parametrize("argv", [
    ("codes", "verify", "{matrix}", "-1"),
    ("codes", "vandermonde", "5", "-1", "7"),
    ("codes", "vandermonde", "5", "0", "7"),
    ("compress", "count", "--q", "3", "--N", "2", "--d", "0", "--K", "vandermonde",
     "--indices", "{indices}"),
    ("codes", "bch", "-1", "5"),
])
def test_out_of_domain_code_parameters_exit_code(tmp_path, capsys, argv):
    paths = {"matrix": tmp_path / "m.csv", "indices": tmp_path / "idx.csv"}
    paths["matrix"].write_text("1,0\n0,1\n")
    paths["indices"].write_text("0,0\n")
    assert run_cli(*(arg.format(**paths) for arg in argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error:") == 1 and "Traceback" not in captured.err


def test_codes_verify_non_integer_csv_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("1,x\n0,1\n")
    assert run_cli("codes", "verify", str(path), "1", "--q", "2") == 2
    assert "bad.csv" in capsys.readouterr().err


def test_compress_count_bad_input_exit_code(tmp_path, capsys):
    idx = tmp_path / "idx.csv"
    for text in ("0,a\n", "0,1\n2\n", "0,1,0\n", "0\n1\n", "0,-1\n", "5,0\n"):
        idx.write_text(text)
        assert run_cli("compress", "count", "--q", "3", "--N", "2", "--d", "1",
                       "--K", "vandermonde", "--indices", str(idx)) == 2, text
    err = capsys.readouterr().err
    assert err.count("idx.csv") == 4 and err.count("outside") == 2
    k = tmp_path / "k.csv"
    k.write_text("1\nz\n")
    idx.write_text("0,0\n")
    assert run_cli("compress", "count", "--q", "3", "--N", "2", "--d", "1",
                   "--K", str(k), "--indices", str(idx)) == 2
    assert "k.csv" in capsys.readouterr().err


def test_compress_count_single_column_k(tmp_path, capsys):
    k = tmp_path / "k.csv"
    k.write_text("1\n2\n")
    idx = tmp_path / "idx.csv"
    idx.write_text("0,0\n1,1\n")
    assert run_cli("compress", "count", "--q", "3", "--N", "2", "--d", "1",
                   "--K", str(k), "--indices", str(idx)) == 0
    assert "distinct outputs: 9" in capsys.readouterr().out


def test_compress_count(tmp_path, capsys):
    idx = tmp_path / "idx.csv"
    idx.write_text("0,0\n1,0\n")
    assert run_cli("compress", "count", "--q", "3", "--N", "2", "--d", "1",
                   "--K", "vandermonde", "--indices", str(idx)) == 0
    out = capsys.readouterr().out
    assert "distinct outputs: 9" in out
    assert "2 field symbols" in out


def test_compress_count_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ATTNIO_ENUM_CAP", "2")
    idx = tmp_path / "idx.csv"
    idx.write_text("0,0\n1,0\n")
    assert run_cli("compress", "count", "--q", "3", "--N", "2", "--d", "1",
                   "--K", "vandermonde", "--indices", str(idx)) == 1
    assert "refused" in capsys.readouterr().err


def test_codes_bch_honours_enum_cap(capsys, monkeypatch):
    monkeypatch.setenv("ATTNIO_ENUM_CAP", "1")
    assert run_cli("codes", "bch", "4", "5") == 1
    assert capsys.readouterr().err == "refused: enumeration of 128 codewords exceeds the cap of 1\n"


@pytest.mark.parametrize("argv, line", [
    (("codes", "bch", "10", "3"),
     "refused: enumeration of ≈10^304.9 codewords exceeds the cap of 1048576"),
    (("codes", "vandermonde", "50", "5", "53"),
     "refused: enumeration of 2118760 subsets exceeds the cap of 1000000"),
    (("compress", "count", "--q", str(2 ** 61 - 1), "--N", "400", "--d", "20",
      "--K", "vandermonde"),
     "refused: enumeration of ≈10^146902.6 assignments exceeds the cap of 10000000"),
], ids=["bch", "vandermonde", "compress_count_huge"])
def test_refusal_is_one_line_and_exit_1(tmp_path, capsys, argv, line):
    idx = tmp_path / "idx.csv"
    idx.write_text("".join(f"{i},0\n" for i in range(400)))
    if argv[0] == "compress":
        argv += ("--indices", str(idx))
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err == line + "\n"


def test_enum_cap_not_an_integer_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("ATTNIO_ENUM_CAP", "abc")
    assert run_cli("codes", "vandermonde", "5", "2", "7") == 2
    assert "ATTNIO_ENUM_CAP must be an integer" in capsys.readouterr().err


def test_bad_configuration_exit_code(tmp_path, capsys):
    idx = tmp_path / "idx.csv"
    idx.write_text("0,0\n")
    assert run_cli("compress", "count", "--q", "4", "--N", "2", "--d", "1",
                   "--K", "vandermonde", "--indices", str(idx)) == 2
    assert capsys.readouterr().err == "error: q must be prime, got 4\n"


@pytest.mark.parametrize("fields, named", [
    ({"N": [2.5]}, "N"),
    ({"N": "16"}, "N"),
    ({"seed": -1}, "seed"),
    ({"M": [16, 2]}, "M"),
    ({"algorithms": "tiling"}, "algorithms"),
    ({"algorithms": []}, "algorithms"),
    ({"magnitude": float("nan")}, "magnitude"),
    ({"magnitude": "nan"}, "magnitude"),
    ({"magnitude": 1e308}, "magnitude"),
    ({"magnitude": float("inf")}, "magnitude"),
    ({"magnitude": -1.0}, "magnitude"),
    ({"magnitude": True}, "magnitude"),
], ids=["float_N", "string_N", "negative_seed", "M_below_min", "string_algorithms",
        "empty_algorithms", "nan_magnitude", "string_magnitude", "overflowing_magnitude",
        "infinite_magnitude", "negative_magnitude", "bool_magnitude"])
def test_attn_sweep_bad_config_exit_code(tmp_path, capsys, fields, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": [8], "d": [2], "M": [16], **fields}))
    out = tmp_path / "records.csv"
    assert run_cli("attn", "sweep", "--config", str(cfg), "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith(f"error: {named} must be")
    # rejected before the output is opened, so before any point runs
    assert not out.exists()


def test_attn_run_bad_seed_exit_code(capsys):
    assert run_cli("attn", "run", "--N", "4", "--d", "2", "--M", "16", "--seed", "-1") == 2
    assert capsys.readouterr().err.startswith("error: bad seed -1")


def test_empty_csv_exit_code(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    commands = [("compress", "count", "--q", "3", "--N", "2", "--d", "1",
                 "--K", "vandermonde", "--indices", str(empty)),
                ("codes", "verify", str(empty), "1")]
    for argv in commands:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(*argv) == 2, argv
        assert caught == [], argv
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "empty.csv: empty" in err, argv


def test_codes_vandermonde_q_beyond_int64_exit_code(capsys):
    for q in (2 ** 63, 2 ** 63 + 25):
        assert run_cli("codes", "vandermonde", "5", "2", str(q)) == 2
    assert capsys.readouterr().err.count("2^63") == 2
