import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from satgraph import _bits
from satgraph.graphs import FiniteGraph, random_graph
from satgraph.serialize import (
    FormatError,
    decode_graph,
    decode_tower,
    encode_graph,
    encode_tower,
    level_to_dot,
    load_tower,
    save_tower,
)
from satgraph.towers import extend_tower, new_tower, verify_tower
from satgraph import serialize

from reference_loops import GraphMap, is_quotient_map


@pytest.fixture(scope="module")
def tower():
    return extend_tower(extend_tower(new_tower(2, seed=13)), max_attempts=200)


def test_graph_encoding_is_canonical():
    g = FiniteGraph.from_edges(4, [(2, 3), (0, 1)])
    assert encode_graph(g) == '{"v":4,"edges":[[0,1],[2,3]]}'
    lonely = FiniteGraph.complete(1)
    assert encode_graph(lonely) == '{"v":1,"edges":[]}'


def test_graph_round_trip():
    for g in [FiniteGraph.cycle(7), FiniteGraph.complete(5), FiniteGraph.from_edges(3, [])]:
        text = encode_graph(g)
        assert decode_graph(text) == g
        assert encode_graph(decode_graph(text)) == text


def test_graph_decode_rejects_malformed():
    for bad, message in [
        ("not json", "expected '{\"v\":' at byte 0"),
        ('{"v":3}', "expected ',\"edges\":\\[' at byte 6"),
        ('{"v":3,"edges":[[0,0]]}', "not ordered a < b"),
        ('{"v":3,"edges":[[1,0]]}', "not ordered a < b"),
        ('{"v":3,"edges":[[0,3]]}', "out of range"),
        ('{"v":3,"edges":[[0,2],[0,1]]}', "strictly increasing"),
        ('{"v":3,"edges":[[0,1],[0,1]]}', "strictly increasing"),
        ('{"v":0,"edges":[]}', "vertex count must be a positive integer"),
        ('{"v":3,"edges":[[0,1]],"extra":1}', "not terminated"),
        ('{"v":true,"edges":[]}', "vertex count must be a decimal integer"),
        ('{"v":10000000,"edges":[]}', "physical memory"),  # about 11.4 TiB of packed rows
    ]:
        with pytest.raises(FormatError, match=message):
            decode_graph(bad)


@pytest.mark.parametrize(
    "bad, message",
    [
        ('{"v": 3, "edges": [[0, 1]]}', "vertex count must be a decimal integer"),
        ('{"edges":[[0,1]],"v":3}', "expected '{\"v\":'"),
        ('{"v":3,"v":3,"edges":[[0,1]]}', "expected ',\"edges\":\\['"),
        ('{"v":3,"edges":[[0,1]]}\n\n', "unexpected bytes after the graph"),
        ('{"v":3,"edges":[[0,1]]}\n', "unexpected bytes after the graph"),
        ('{"v":3,"edges":[[0,1]]}\u00a0', "non-ASCII"),
        ('{"v":3,"edges":[[01,2]]}', "leading zero"),
        ('{"v":3,"edges":[[+1,2]]}', "edges must be written"),
        ('{"v":3,"edges":[[1.0,2]]}', "edges must be written"),
        ('{"v":3,"edges":[[1e0,2]]}', "edges must be written"),
        ('{"v":3,"edges":[[ 0,1]]}', "edges must be written"),
        ('{"v":3,"edges":[[0,1],]}', "edges must be written"),
        ('{"v":3,"edges":[[0,1][1,2]]}', "edges must be written"),
        ('{"v":3,"edges":[[,1]]}', "edges must be written"),
        ('{"v":3,"edges":[[0,1],2[1,2]]}', "edges must be written"),
        ('{"v":3,"edges":[[0,1]2,[1,2]]}', "edges must be written"),
        ('{"v":11,"edges":[[0,10],[0,010]]}', "leading zero"),
        ('{"v":11,"edges":[[0,100]]}', "out of range"),
    ],
    ids=[
        "spaces", "key-order", "duplicate-key", "two-newlines", "newline", "non-ascii",
        "leading-zero", "plus", "float", "exponent", "space-in-edge", "trailing-comma",
        "missing-comma", "empty-endpoint", "digit-before-edge", "digit-after-edge",
        "leading-zero-late", "too-many-digits",
    ],
)
def test_graph_decode_rejects_non_canonical(bad, message):
    with pytest.raises(FormatError, match=message):
        decode_graph(bad)
    with pytest.raises(FormatError, match=message):
        decode_graph(bad.encode("utf-8"))


def reference_graph_text(g):
    dense = _bits.unpack_rows(g.packed_rows, g.vertex_count)
    pairs = np.argwhere(np.triu(dense, 1))
    return '{"v":%d,"edges":[%s]}' % (g.vertex_count, ",".join(f"[{a},{b}]" for a, b in pairs))


@pytest.mark.parametrize("v", [1, 2, 9, 10, 11, 63, 64, 65, 99, 100, 101, 1000, 1500])
def test_graph_round_trip_random(v):
    # 1500 rows span two encoder blocks, and both large texts span several
    # decoder slices
    dense = random_graph(v, seed=v, edge_prob=0.5 if v < 1000 else 0.1)
    for g in (dense, FiniteGraph.from_edges(v, [])):
        text = encode_graph(g)
        assert text == reference_graph_text(g)
        assert decode_graph(text) == g
        assert encode_graph(decode_graph(text)) == text


@pytest.mark.parametrize("chunk_bytes", [1, 5, 6, 7, 64])
def test_edge_list_chunk_seams(chunk_bytes, monkeypatch):
    monkeypatch.setattr(serialize, "_CHUNK_BYTES", chunk_bytes)
    g = random_graph(40, seed=4)
    text = encode_graph(g)
    assert decode_graph(text) == g
    # at 1 or 5 bytes every edge is a slice of its own, so each bad pair
    # below sits exactly on a seam; at 6, 7 and 64 some pairs share a slice
    for bad in (
        '{"v":5,"edges":[[0,1],[0,2],[0,2],[1,3]]}',
        '{"v":5,"edges":[[0,1],[0,3],[0,2],[1,3]]}',
        '{"v":50,"edges":[[0,12],[1,3],[0,40]]}',
    ):
        with pytest.raises(FormatError, match="strictly increasing"):
            decode_graph(bad)
    for bad in (
        '{"v":5,"edges":[[0,1]][1,3]]}',
        '{"v":5,"edges":[[0,1]:[1,3]]}',
        '{"v":5,"edges":[[0,1],[0,2]5,[1,3]]}',
    ):
        with pytest.raises(FormatError, match="edges must be written"):
            decode_graph(bad)


def test_tower_round_trip_byte_identical(tower):
    text = encode_tower(tower)
    decoded = decode_tower(text)
    assert decoded == tower
    assert encode_tower(decoded) == text
    assert text.endswith("]}\n")


def test_tower_file_round_trip(tower, tmp_path):
    path = tmp_path / "tower.json"
    save_tower(tower, str(path))
    loaded = load_tower(str(path))
    assert loaded == tower
    assert verify_tower(loaded).ok


def test_tower_decode_rejects_malformed(tower, relabel_top_level):
    text = encode_tower(tower)
    obj = json.loads(text)

    def dumps(o):
        return json.dumps(o, separators=(",", ":")) + "\n"

    assert dumps(obj) == text

    truncated = text[: len(text) // 2]
    with pytest.raises(FormatError, match="not terminated"):
        decode_tower(truncated)

    wrong = dict(obj)
    wrong.pop("seed")
    with pytest.raises(FormatError, match="expected ',\"seed\":'"):
        decode_tower(dumps(wrong))

    wrong = dict(obj)
    wrong["per_level_m"] = obj["per_level_m"][:-1]
    with pytest.raises(FormatError, match="lengths disagree"):
        decode_tower(dumps(wrong))

    wrong = dict(obj)
    wrong["per_level_m"] = [0] + obj["per_level_m"][1:]
    with pytest.raises(FormatError, match="per_level_m entries must be integers >= 1"):
        decode_tower(dumps(wrong))

    wrong = json.loads(text)
    wrong["bonds"][0] = wrong["bonds"][0][:-1]
    with pytest.raises(FormatError, match="bond 0 is not the division map"):
        decode_tower(dumps(wrong))

    wrong = json.loads(text)
    wrong["bonds"][0][0] = 99
    with pytest.raises(FormatError, match="bond 0 is not the division map"):
        decode_tower(dumps(wrong))

    wrong = json.loads(text)
    wrong["seed"] = -1
    with pytest.raises(FormatError, match="seed must be a decimal integer"):
        decode_tower(dumps(wrong))

    wrong = json.loads(text)
    wrong["seed"] = 2**64
    with pytest.raises(FormatError, match="seed must be a 64-bit unsigned integer"):
        decode_tower(dumps(wrong))

    # a relabelled top level: its bond is a quotient map, but not the division map
    wrong = relabel_top_level(json.loads(text))
    top = wrong["levels"][-1]
    bond = GraphMap(
        FiniteGraph.from_edges(top["v"], top["edges"]),
        tower.levels[-2],
        np.asarray(wrong["bonds"][-1]),
    )
    assert is_quotient_map(bond)
    assert wrong["bonds"][-1] != obj["bonds"][-1]
    with pytest.raises(FormatError, match="bond 1 is not the division map"):
        decode_tower(dumps(wrong))

    # True == 1 and 1.0 == 1 in Python, but neither is a JSON integer
    first_one = obj["per_level_m"][0] + 1
    for fake_one in (True, 1.0):
        wrong = json.loads(text)
        wrong["bonds"][0][first_one] = fake_one
        assert wrong["bonds"][0] == obj["bonds"][0]
        with pytest.raises(FormatError, match="bond 0 is not the division map"):
            decode_tower(dumps(wrong))


@pytest.mark.parametrize(
    "rewrite, message",
    [
        (lambda text: json.dumps(json.loads(text)) + "\n", "n must be a decimal integer"),
        (
            lambda text: json.dumps(json.loads(text), separators=(",", ":"), sort_keys=True) + "\n",
            "expected '{\"n\":'",
        ),
        (lambda text: text.replace(',"seed":', ',"seed":1,"seed":', 1), "expected ',\"levels\":\\['"),
        (lambda text: text + "\n", "unexpected bytes after the tower's final newline"),
        (lambda text: text[:-1], re.escape(r"expected ']}\n'")),
        (lambda text: text.replace('"seed"', '"s\u00e9ed"', 1), "non-ASCII"),
        (lambda text: text.replace("[0,1]", "[0,01]", 1), "leading zero"),
    ],
    ids=["spaces", "key-order", "duplicate-key", "two-newlines", "no-newline", "non-ascii", "leading-zero"],
)
def test_tower_decode_rejects_non_canonical(tower, rewrite, message):
    text = encode_tower(tower)
    with pytest.raises(FormatError, match=message):
        decode_tower(rewrite(text))


def test_tower_decode_checks_bonds_before_edges(tower, relabel_top_level, monkeypatch):
    relabelled = relabel_top_level(json.loads(encode_tower(tower)))
    text = json.dumps(relabelled, separators=(",", ":")) + "\n"

    def no_edge_parsing(data, span):
        raise AssertionError("edge lists parsed before the bonds were checked")

    monkeypatch.setattr(serialize, "_parse_edges", no_edge_parsing)
    with pytest.raises(FormatError, match="bond"):
        decode_tower(text)


def test_single_byte_mutations_decode_canonically():
    # about 410 bytes; every deletion and substitution either fails or is
    # itself the canonical text of what it decodes to
    text = encode_tower(extend_tower(new_tower(2, seed=3)))
    alphabet = '0123456789[]{},:" \n'
    accepted = 0
    for i in range(len(text)):
        mutants = [text[:i] + text[i + 1 :]]
        mutants += [text[:i] + c + text[i + 1 :] for c in alphabet if c != text[i]]
        for mutant in mutants:
            try:
                decoded = decode_tower(mutant)
            except FormatError:
                continue
            assert encode_tower(decoded) == mutant
            accepted += 1
    assert accepted > 0  # some edge substitutions give another valid level


# VmHWM, not ru_maxrss: Linux carries the spawning process's peak over into a
# child's ru_maxrss, so under a long pytest run that would read pytest's peak
_LOAD_PEAK_PROBE = """
import sys
from satgraph.serialize import load_tower

def peak():
    with open("/proc/self/status") as fp:
        return int(fp.read().split("VmHWM:")[1].split()[0]) * 1024

before = peak()
t = load_tower(sys.argv[1])
print(t.levels[-1].vertex_count, peak() - before)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_load_peak_memory_stays_near_file_size(tmp_path):
    t = new_tower(2, seed=7)
    for _ in range(3):
        t = extend_tower(t)
    path = tmp_path / "n2-depth3.json"
    save_tower(t, str(path))
    size = path.stat().st_size  # about 14 MB
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _LOAD_PEAK_PROBE, str(path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    top, grown = map(int, proc.stdout.split())
    assert top == t.levels[-1].vertex_count
    assert grown <= 1.5 * size, (grown / 2**20, size / 2**20)


def test_missing_file_is_format_error(tmp_path):
    with pytest.raises(FormatError):
        load_tower(str(tmp_path / "nope.json"))


def test_dot_export_deterministic(tower):
    a = level_to_dot(tower, 1)
    b = level_to_dot(tower, 1)
    assert a == b
    assert a.startswith("graph {\n")
    assert '0 [label="(0,0)"]' in a
    # edge lines match the level's cross edge count
    edge_lines = [l for l in a.splitlines() if " -- " in l]
    assert len(edge_lines) == tower.levels[1].edge_count()


def test_dot_level0_plain_labels(tower):
    text = level_to_dot(tower, 0)
    assert '  0 [label="0"];' in text
    assert "  0 -- 1;" in text


def test_dot_level_out_of_range(tower):
    with pytest.raises(ValueError):
        level_to_dot(tower, 3)
