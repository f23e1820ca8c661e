import json

import pytest

from satgraph.cli import (
    EXIT_EXHAUSTED,
    EXIT_MALFORMED,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    main,
)
from satgraph.serialize import encode_tower, load_tower
from satgraph.towers import Tower, extend_tower, new_tower
from satgraph.graphs import FiniteGraph
from satgraph import cli, serialize


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def tower_file(tmp_path):
    path = tmp_path / "t.json"
    code = main(["build", "--n", "2", "--depth", "2", "--seed", "42", "--out", str(path)])
    assert code == EXIT_OK
    return str(path)


def test_build_verify_round_trip(tower_file, capsys):
    code, out, err = run(["verify", "--in", tower_file], capsys)
    assert code == EXIT_OK
    assert "tower verified" in out
    assert "ok seed-reconstruction" in out


def test_build_is_byte_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for p in (p1, p2):
        code = main(["build", "--n", "2", "--depth", "2", "--seed", "7", "--out", str(p)])
        assert code == EXIT_OK
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()


def test_extend_matches_direct_build(tmp_path, capsys):
    shallow = tmp_path / "d1.json"
    deep = tmp_path / "d2.json"
    direct = tmp_path / "direct.json"
    assert main(["build", "--n", "2", "--depth", "1", "--seed", "42", "--out", str(shallow)]) == EXIT_OK
    assert main(["extend", "--in", str(shallow), "--out", str(deep), "--depth", "2"]) == EXIT_OK
    assert main(["build", "--n", "2", "--depth", "2", "--seed", "42", "--out", str(direct)]) == EXIT_OK
    capsys.readouterr()
    assert deep.read_bytes() == direct.read_bytes()


def test_extend_not_beyond_is_usage_error(tower_file, tmp_path, capsys):
    code, _, err = run(
        ["extend", "--in", tower_file, "--out", str(tmp_path / "x.json"), "--depth", "2"],
        capsys,
    )
    assert code == EXIT_USAGE


def test_verify_catches_single_edge_deletion(tower_file, tmp_path, capsys):
    tower = load_tower(tower_file)
    top = tower.levels[-1]
    edges = top.edges()
    removed = edges[3]
    mutated_top = FiniteGraph.from_edges(top.vertex_count, [e for e in edges if e != removed])
    mutated = Tower(
        tower.n,
        tower.seed,
        tower.levels[:-1] + (mutated_top,),
        tower.per_level_m,
    )
    path = tmp_path / "mutated.json"
    with open(path, "w") as fp:
        serialize.write_tower(mutated, fp)
    code, out, err = run(["verify", "--in", str(path)], capsys)
    assert code == EXIT_VERIFY


def test_verify_relabelled_top_level_malformed(tower_file, tmp_path, capsys, relabel_top_level):
    with open(tower_file) as fp:
        relabelled = relabel_top_level(json.load(fp))
    path = tmp_path / "relabelled.json"
    path.write_text(json.dumps(relabelled, separators=(",", ":")))
    code, _, err = run(["verify", "--in", str(path)], capsys)
    assert code == EXIT_MALFORMED


def test_verify_truncated_file_malformed(tower_file, tmp_path, capsys):
    text = open(tower_file).read()
    bad = tmp_path / "bad.json"
    bad.write_text(text[: len(text) // 2])
    code, _, err = run(["verify", "--in", str(bad)], capsys)
    assert code == EXIT_MALFORMED


def test_build_exhaustion_exit_code(tmp_path, capsys):
    code, _, err = run(
        [
            "build", "--n", "3", "--depth", "1", "--seed", "0",
            "--m", "1", "--max-attempts", "2",
            "--out", str(tmp_path / "x.json"),
        ],
        capsys,
    )
    assert code == EXIT_EXHAUSTED


def test_build_uses_given_m(tmp_path, capsys):
    one = tmp_path / "m3.json"
    two = tmp_path / "m3m12.json"
    # the certified m would be 6 for the first step and 10 for the second
    assert main(["build", "--n", "2", "--depth", "1", "--m", "3", "--out", str(one)]) == EXIT_OK
    assert load_tower(str(one)).per_level_m == (3,)
    assert run(["verify", "--in", str(one)], capsys)[0] == EXIT_OK
    assert main(["extend", "--in", str(one), "--out", str(two), "--depth", "2", "--m", "12"]) == EXIT_OK
    assert load_tower(str(two)).per_level_m == (3, 12)


def test_usage_errors(capsys):
    assert run(["build", "--n", "2", "--out", "x"], capsys)[0] == EXIT_USAGE  # missing --depth
    assert run(["nonsense"], capsys)[0] == EXIT_USAGE
    assert run(["build", "--n", "0", "--depth", "1", "--out", "x"], capsys)[0] == EXIT_USAGE
    assert run(["build", "--n", "2", "--depth", "1", "--m", "0", "--out", "x"], capsys)[0] == EXIT_USAGE


def test_realize_empty_type_prints_canonical_root(tower_file, tmp_path, capsys):
    payload = tmp_path / "type.json"
    payload.write_text('{"constraints":[]}')
    code, out, _ = run(["realize", "--in", tower_file, "--type", str(payload), "--check"], capsys)
    assert code == EXIT_OK
    result = json.loads(out.strip().splitlines()[-1])
    assert result["entries"] == [0, 0, 0]
    assert result["separation_level"] == 0


def test_realize_positive_constraint_passes_check(tower_file, tmp_path, capsys):
    payload = tmp_path / "type.json"
    payload.write_text(json.dumps({"constraints": [{"bit": 1, "level": 1, "vertex": 3}]}))
    code, out, err = run(["realize", "--in", tower_file, "--type", str(payload), "--check"], capsys)
    assert code == EXIT_OK
    assert "realization verified" in err


def test_realize_entries_form(tower_file, tmp_path, capsys):
    tower = load_tower(tower_file)
    payload = tmp_path / "type.json"
    payload.write_text(json.dumps({"constraints": [{"bit": 0, "entries": [1]}]}))
    code, out, _ = run(["realize", "--in", tower_file, "--type", str(payload), "--check"], capsys)
    assert code == EXIT_OK
    result = json.loads(out.strip().splitlines()[-1])
    lvl = result["separation_level"]
    # non-adjacent to the canonical thread of root 1 at the separation level
    constraint_entry = 1 * (tower.per_level_m[0] + 1) if lvl == 1 else 1
    assert not tower.levels[lvl].adjacent(result["entries"][lvl], constraint_entry)


def test_realize_too_many_constraints_malformed(tower_file, tmp_path, capsys):
    payload = tmp_path / "type.json"
    payload.write_text(
        json.dumps(
            {"constraints": [{"bit": 1, "level": 0, "vertex": 0}, {"bit": 0, "level": 0, "vertex": 1}]}
        )
    )
    code, _, err = run(["realize", "--in", tower_file, "--type", str(payload)], capsys)
    assert code == EXIT_MALFORMED


def test_realize_not_separated_exit(tmp_path, capsys):
    path = tmp_path / "d0.json"
    assert main(["build", "--n", "2", "--depth", "0", "--seed", "1", "--out", str(path)]) == EXIT_OK
    payload = tmp_path / "type.json"
    payload.write_text(json.dumps({"constraints": [{"bit": 0, "level": 0, "vertex": 0}]}))
    code, _, err = run(["realize", "--in", str(path), "--type", str(payload)], capsys)
    assert code == EXIT_VERIFY


def test_realize_malformed_payload(tower_file, tmp_path, capsys):
    payload = tmp_path / "type.json"
    payload.write_text('{"constraints":[{"bit":2,"level":0,"vertex":0}]}')
    assert run(["realize", "--in", tower_file, "--type", str(payload)], capsys)[0] == EXIT_MALFORMED
    payload.write_text("{")
    assert run(["realize", "--in", tower_file, "--type", str(payload)], capsys)[0] == EXIT_MALFORMED


def test_stats_csv_shape_and_bounds(capsys):
    code, out, _ = run(
        ["stats", "--n", "2", "--k", "2", "--m-from", "5", "--m-to", "6", "--trials", "40", "--seed", "3"],
        capsys,
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].startswith("m,trials,saturated_rate,joint_rate")
    assert len(lines) == 3
    row5 = lines[1].split(",")
    assert row5[0] == "5" and row5[4] == "3/4"
    row6 = lines[2].split(",")
    assert row6[6] == "7/16"


def test_stats_deterministic(capsys):
    args = ["stats", "--n", "2", "--k", "2", "--m-from", "6", "--m-to", "6", "--trials", "25"]
    code1, out1, _ = run(args, capsys)
    code2, out2, _ = run(args, capsys)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


# Outputs of the parent implementation, per-pair scan and triple loop included.
STATS_PINNED = [
    (
        "--n 2 --k 2 --m-from 4 --m-to 6 --trials 20 --seed 3",
        """m,trials,saturated_rate,joint_rate,saturation_bound,saturation_bound_float,lifting_bound,lifting_bound_float
4,20,1.000000,0.800000,5/4,1.25,5/4,1.25
5,20,0.950000,0.800000,3/4,0.75,3/4,0.75
6,20,1.000000,0.950000,7/16,0.4375,7/16,0.4375
""",
    ),
    (
        "--n 3 --k 3 --m-from 24 --m-to 27 --trials 8 --seed 2",
        """m,trials,saturated_rate,joint_rate,saturation_bound,saturation_bound_float,lifting_bound,lifting_bound_float
24,8,1.000000,0.000000,783741963734775/70368744177664,11.1376,4766002202990475/281474976710656,16.9322
25,8,1.000000,0.125000,2544407694157329/281474976710656,9.03955,3866179887822681/281474976710656,13.7354
26,8,1.000000,0.125000,1029455660473245/140737488355328,7.31472,50031561406453659/4503599627370496,11.1092
27,8,1.000000,0.250000,13291416416332341/2251799813685248,5.90257,10088667586567017/1125899906842624,8.96054
""",
    ),
    (
        "--n 4 --k 4 --m-from 40 --m-to 41 --trials 2 --seed 1",
        """m,trials,saturated_rate,joint_rate,saturation_bound,saturation_bound_float,lifting_bound,lifting_bound_float
40,2,1.000000,0.000000,1148832798304185918775170297956717964441/41538374868278621028243970633760768,27657.1,438812237537194164756940222992739213561/5192296858534827628530496329220096,84512.2
41,2,1.000000,0.000000,4324264437946041808607739590774410015189/166153499473114484112975882535043072,26025.7,412745338361269866511841197669572867195/5192296858534827628530496329220096,79491.9
""",
    ),
    (
        "--n 3 --k 3 --m-from 6 --m-to 8 --trials 10 --seed 2",
        """m,trials,saturated_rate,joint_rate,saturation_bound,saturation_bound_float,lifting_bound,lifting_bound_float
6,10,0.200000,0.000000,76545/512,149.502,968499/4096,236.45
7,10,0.000000,0.000000,150903/1024,147.366,59193/256,231.223
8,10,0.200000,0.000000,2302911/16384,140.559,14369643/65536,219.263
""",
    ),
]


@pytest.mark.parametrize("args, expected", STATS_PINNED, ids=["n2", "n3", "n4", "n3-small-m"])
def test_stats_csv_pinned(args, expected, capsys, monkeypatch):
    calls = []
    real = cli.check_product_lifting

    def counted(*a, **kw):
        calls.append(a)
        return real(*a, **kw)

    monkeypatch.setattr(cli, "check_product_lifting", counted)
    code, out, _ = run(["stats"] + args.split(), capsys)
    assert code == EXIT_OK
    assert out == expected
    # the lifting check runs only on saturated samples
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(calls) == sum(round(float(r[2]) * int(r[1])) for r in rows)


def test_stats_n1_always_succeeds(capsys):
    code, out, _ = run(
        ["stats", "--n", "1", "--k", "1", "--m-from", "1", "--m-to", "2", "--trials", "10"],
        capsys,
    )
    assert code == EXIT_OK
    for line in out.strip().splitlines()[1:]:
        cells = line.split(",")
        assert cells[2] == "1.000000" and cells[3] == "1.000000"


def test_export_dot_deterministic(tower_file, capsys):
    code1, out1, _ = run(["export", "--in", tower_file, "--level", "1"], capsys)
    code2, out2, _ = run(["export", "--in", tower_file, "--level", "1"], capsys)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    assert out1.startswith("graph {")


def test_build_verify_n3_round_trip(tmp_path, capsys):
    path = tmp_path / "t3.json"
    assert main(["build", "--n", "3", "--depth", "1", "--seed", "2", "--out", str(path)]) == EXIT_OK
    tower = load_tower(str(path))
    assert tower.levels[1].vertex_count == 120
    code, out, _ = run(["verify", "--in", str(path)], capsys)
    assert code == EXIT_OK
    assert "tower verified" in out


def test_export_level0_of_n3(tmp_path, capsys):
    path = tmp_path / "t3.json"
    assert main(["build", "--n", "3", "--depth", "0", "--seed", "0", "--out", str(path)]) == EXIT_OK
    code, out, _ = run(["export", "--in", str(path), "--level", "0"], capsys)
    assert code == EXIT_OK
    nodes = [l for l in out.splitlines() if "label" in l]
    edges = [l for l in out.splitlines() if " -- " in l]
    assert len(nodes) == 3 and len(edges) == 3


def test_export_level_out_of_range(tower_file, capsys):
    assert run(["export", "--in", tower_file, "--level", "9"], capsys)[0] == EXIT_USAGE
