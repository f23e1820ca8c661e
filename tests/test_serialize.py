import json

import numpy as np
import pytest

from satgraph.graphs import FiniteGraph
from satgraph.serialize import (
    FormatError,
    decode_graph,
    decode_tower,
    encode_graph,
    encode_tower,
    graph_from_obj,
    level_to_dot,
    load_tower,
    save_tower,
)
from satgraph.towers import GraphMap, extend_tower, new_tower, verify_tower
from satgraph import serialize

from reference_loops import is_quotient_map


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
    for bad in [
        "not json",
        '{"v":3}',
        '{"v":3,"edges":[[0,0]]}',
        '{"v":3,"edges":[[1,0]]}',
        '{"v":3,"edges":[[0,3]]}',
        '{"v":3,"edges":[[0,2],[0,1]]}',
        '{"v":3,"edges":[[0,1],[0,1]]}',
        '{"v":0,"edges":[]}',
        '{"v":3,"edges":[[0,1]],"extra":1}',
        '{"v":true,"edges":[]}',
        '{"v":10000000,"edges":[]}',  # about 11.4 TiB of packed rows
    ]:
        with pytest.raises(FormatError):
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
        return json.dumps(o, separators=(",", ":"))

    truncated = text[: len(text) // 2]
    with pytest.raises(FormatError):
        decode_tower(truncated)

    wrong = dict(obj)
    wrong.pop("seed")
    with pytest.raises(FormatError):
        decode_tower(dumps(wrong))

    wrong = dict(obj)
    wrong["per_level_m"] = obj["per_level_m"][:-1]
    with pytest.raises(FormatError):
        decode_tower(dumps(wrong))

    wrong = dict(obj)
    wrong["per_level_m"] = [0] + obj["per_level_m"][1:]
    with pytest.raises(FormatError):
        decode_tower(dumps(wrong))

    wrong = json.loads(text)
    wrong["bonds"][0] = wrong["bonds"][0][:-1]
    with pytest.raises(FormatError):
        decode_tower(dumps(wrong))

    wrong = json.loads(text)
    wrong["bonds"][0][0] = 99
    with pytest.raises(FormatError):
        decode_tower(dumps(wrong))

    wrong = json.loads(text)
    wrong["seed"] = -1
    with pytest.raises(FormatError):
        decode_tower(dumps(wrong))

    # a relabelled top level: its bond is a quotient map, but not the division map
    wrong = relabel_top_level(json.loads(text))
    bond = GraphMap(
        graph_from_obj(wrong["levels"][-1]),
        tower.levels[-2],
        np.asarray(wrong["bonds"][-1]),
    )
    assert is_quotient_map(bond)
    assert wrong["bonds"][-1] != obj["bonds"][-1]
    with pytest.raises(FormatError):
        decode_tower(dumps(wrong))

    # True == 1 and 1.0 == 1 in Python, but neither is a JSON integer
    first_one = obj["per_level_m"][0] + 1
    for fake_one in (True, 1.0):
        wrong = json.loads(text)
        wrong["bonds"][0][first_one] = fake_one
        assert wrong["bonds"][0] == obj["bonds"][0]
        with pytest.raises(FormatError):
            decode_tower(dumps(wrong))


def test_tower_decode_checks_bonds_before_edges(tower, relabel_top_level, monkeypatch):
    relabelled = relabel_top_level(json.loads(encode_tower(tower)))

    def no_edge_decoding(obj):
        raise AssertionError("edge lists decoded before the bonds were checked")

    monkeypatch.setattr(serialize, "graph_from_obj", no_edge_decoding)
    with pytest.raises(FormatError, match="bond"):
        serialize.tower_from_obj(relabelled)


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
