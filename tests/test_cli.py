import hashlib
import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from satgraph.builder import attempt_seed, sample_product_graph
from satgraph.cli import (
    EXIT_EXHAUSTED,
    EXIT_MALFORMED,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    main,
)
from satgraph.serialize import encode_tower, load_tower
from satgraph.towers import Tower, extend_tower, level_build_seed, new_tower
from satgraph.graphs import FiniteGraph
from satgraph import builder, cli, serialize, towers

ROOT = Path(__file__).resolve().parent.parent


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


def test_verify_catches_reseeded_tower(tower_file, tmp_path, capsys):
    # every level still passes verify_tower; only the seeded replay tells them apart
    tower = load_tower(tower_file)
    reseeded = Tower(tower.n, tower.seed + 1, tower.levels, tower.per_level_m)
    path = tmp_path / "reseeded.json"
    with open(path, "w") as fp:
        serialize.write_tower(reseeded, fp)
    code, out, err = run(["verify", "--in", str(path)], capsys)
    assert code == EXIT_VERIFY
    assert "stored tower differs from its seeded reconstruction" in out
    assert "ok seed-reconstruction" not in out


def test_verify_rejects_sample_build_rejects(tmp_path, capsys):
    # attempt 0 of step 0 is 3-saturated and passes the distinct-bases lifting
    # form that verify_tower checks, but fails build's repeats-allowed form, so
    # the seed builds a later attempt instead
    k3 = FiniteGraph.complete(3)
    g = sample_product_graph(k3, 27, attempt_seed(level_build_seed(0, 0), 0))
    path = tmp_path / "rejected.json"
    serialize.save_tower(Tower(3, 0, (k3, g), (27,)), str(path))
    code, out, _ = run(["verify", "--in", str(path)], capsys)
    assert code == EXIT_VERIFY
    assert "ok lifting[bond 0]" in out
    assert "stored tower differs from its seeded reconstruction" in out
    assert "ok seed-reconstruction" not in out


def test_verify_reconstruction_exhausted(tower_file, capsys, monkeypatch):
    def edgeless(base, m, seed):
        return FiniteGraph.from_edges(base.vertex_count * (m + 1), [])

    monkeypatch.setattr(builder, "sample_product_graph", edgeless)
    monkeypatch.setattr(towers, "sample_product_graph", edgeless, raising=False)
    code, out, _ = run(["verify", "--in", tower_file], capsys)
    assert code == EXIT_VERIFY
    assert "seeded reconstruction did not terminate" in out
    assert "ok seed-reconstruction" not in out


def test_verify_scans_each_level_once(tower_file, capsys, monkeypatch):
    scans, liftings = Counter(), Counter()

    def digest(g):
        return hashlib.sha256(g.packed_rows.tobytes()).hexdigest()

    def wrap(module, name):
        real = getattr(module, name)

        def counted(g, *args, **kwargs):
            if name == "is_n_saturated":
                scans[digest(g)] += 1
            else:
                distinct = kwargs.get("distinct_bases", args[3] if len(args) > 3 else False)
                liftings[digest(g), distinct] += 1
            return real(g, *args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module in (builder, towers):
        wrap(module, "is_n_saturated")
        wrap(module, "check_product_lifting")
    code, out, _ = run(["verify", "--in", tower_file], capsys)
    assert code == EXIT_OK and "tower verified" in out
    for level in load_tower(tower_file).levels[1:]:
        assert scans[digest(level)] == 1
        assert liftings[digest(level), True] == 1
        assert liftings[digest(level), False] == 1


def test_cli_runs_as_a_process(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def satgraph(*args):
        return subprocess.run(
            [sys.executable, "-m", "satgraph", *args],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )

    path = tmp_path / "t.json"
    built = satgraph("build", "--n", "2", "--depth", "1", "--seed", "3", "--out", str(path))
    assert built.returncode == EXIT_OK, built.stderr
    verified = satgraph("verify", "--in", str(path))
    assert verified.returncode == EXIT_OK, verified.stderr
    assert "tower verified" in verified.stdout
    missing = satgraph("verify", "--in", str(tmp_path / "missing.json"))
    assert missing.returncode == EXIT_MALFORMED


def test_verify_relabelled_top_level_malformed(tower_file, tmp_path, capsys, relabel_top_level):
    with open(tower_file) as fp:
        relabelled = relabel_top_level(json.load(fp))
    path = tmp_path / "relabelled.json"
    path.write_text(json.dumps(relabelled, separators=(",", ":")) + "\n")
    code, _, err = run(["verify", "--in", str(path)], capsys)
    assert code == EXIT_MALFORMED
    assert "bond 1 is not the division map" in err


def test_verify_truncated_file_malformed(tower_file, tmp_path, capsys):
    text = open(tower_file).read()
    bad = tmp_path / "bad.json"
    bad.write_text(text[: len(text) // 2])
    code, _, err = run(["verify", "--in", str(bad)], capsys)
    assert code == EXIT_MALFORMED


def test_verify_oversized_level_malformed(tmp_path, capsys):
    # one level of 10^7 vertices declares about 11.4 TiB of packed rows
    path = tmp_path / "huge.json"
    path.write_text('{"n":1,"seed":0,"levels":[{"v":10000000,"edges":[]}],"bonds":[],"per_level_m":[]}\n')
    code, _, err = run(["verify", "--in", str(path)], capsys)
    assert code == EXIT_MALFORMED
    assert "malformed input" in err and "physical memory" in err and "Traceback" not in err


def _redump(text: str, **dumps_options) -> str:
    return json.dumps(json.loads(text), **dumps_options)


@pytest.mark.parametrize(
    "rewrite, message",
    [
        (lambda text: _redump(text) + "\n", "n must be a decimal integer"),  # ", " and ": "
        (lambda text: _redump(text, separators=(",", ":"), sort_keys=True) + "\n", "expected"),
        (lambda text: text.replace('{"n":', '{"n":2,"n":', 1), "expected"),
        (lambda text: text + "\n", "bytes after the tower's final newline"),
        (lambda text: text[:-1], "expected"),
        (lambda text: text.replace("[0,", "[ 0,", 1), "edges must be written"),
        (lambda text: text.replace('"seed"', '"s\u00e9ed"', 1), "non-ASCII"),
    ],
    ids=["spaces", "key-order", "duplicate-key", "two-newlines", "no-newline", "space-in-edge", "non-ascii"],
)
def test_verify_non_canonical_file_malformed(tower_file, tmp_path, capsys, rewrite, message):
    with open(tower_file) as fp:
        text = fp.read()
    path = tmp_path / "non-canonical.json"
    path.write_bytes(rewrite(text).encode("utf-8"))
    code, _, err = run(["verify", "--in", str(path)], capsys)
    assert code == EXIT_MALFORMED
    assert message in err and "Traceback" not in err


_WRONG_N = '{{"n":{n},"seed":0,"levels":[{{"v":2,"edges":[[0,1]]}}],"bonds":[],"per_level_m":[]}}\n'

# VmHWM, not ru_maxrss: Linux carries the spawning process's peak over into a
# child's ru_maxrss, so under a long pytest run that would read pytest's peak
_VERIFY_PEAK_PROBE = """
import sys
from satgraph.cli import main
code = main(["verify", "--in", sys.argv[1]])
with open("/proc/self/status") as fp:
    print(code, fp.read().split("VmHWM:")[1].split()[0])
"""


def test_verify_declared_n_above_level0_is_a_verification_failure(tmp_path, capsys):
    # the complete graph on 10^7 vertices would need about 11.4 TiB of packed rows
    path = tmp_path / "n.json"
    path.write_text(_WRONG_N.format(n=10_000_000))
    code, out, err = run(["verify", "--in", str(path)], capsys)
    assert code == EXIT_VERIFY, err
    assert "level 0 must be the complete graph" in out


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_verify_declared_n_above_level0_stays_small(tmp_path):
    # K_60000 is 429 MiB of packed rows; the 2-vertex level 0 tells the mismatch alone
    path = tmp_path / "n.json"
    path.write_text(_WRONG_N.format(n=60_000))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _VERIFY_PEAK_PROBE, str(path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, peak_kib = map(int, proc.stdout.split()[-2:])
    assert code == EXIT_VERIFY
    assert peak_kib < 100 * 1024, peak_kib / 1024


@pytest.mark.parametrize(
    "args",
    [
        ["build", "--n", "10000000", "--depth", "0", "--out", "x.json"],
        ["stats", "--n", "2", "--k", "10000000", "--m-from", "1", "--m-to", "1", "--trials", "1"],
    ],
    ids=["build", "stats"],
)
def test_oversized_size_usage_error(args, tmp_path, capsys, monkeypatch):
    # a complete graph on 10^7 vertices needs about 11.4 TiB of packed rows
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    code, _, err = run(args, capsys)
    assert time.perf_counter() - start < 10
    assert code == EXIT_USAGE
    assert "usage error" in err and "physical memory" in err and "Traceback" not in err
    assert not (tmp_path / "x.json").exists()


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


def test_build_seed_range(tmp_path, capsys):
    too_big, largest = tmp_path / "too_big.json", tmp_path / "largest.json"
    args = ["build", "--n", "2", "--depth", "1", "--out"]
    code, _, err = run(args + [str(too_big), "--seed", str(2**64)], capsys)
    assert code == EXIT_USAGE and "64-bit" in err
    assert not too_big.exists()
    assert run(args + [str(largest), "--seed", str(2**64 - 1)], capsys)[0] == EXIT_OK
    assert run(["verify", "--in", str(largest)], capsys)[0] == EXIT_OK


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
    # 1.0 == 1, but a bit must be an integer like level and vertex
    payload.write_text('{"constraints":[{"bit":1.0,"level":0,"vertex":0}]}')
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
