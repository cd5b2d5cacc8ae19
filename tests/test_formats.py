import pytest

from eqclus.core import Clustering, InvalidInstanceError, make_instance
from eqclus.formats import (
    FormatError,
    format_clustering,
    format_instance,
    parse_clustering,
    parse_hypergraph,
    parse_instance,
    parse_matching,
    parse_tdm,
)
from eqclus.generators import Hypergraph, TdmInstance, gen_random


def test_instance_round_trip():
    inst = gen_random(n=9, k=3, d=2, coord_bound=7, p=0, B=3, seed=21)
    text = format_instance(inst)
    assert text.splitlines()[0] == "ECL 1"
    assert parse_instance(text) == inst


def test_instance_parse_example():
    text = "ECL 1\n1 2 2 1 5\n0 0\n3 -4\n"
    inst = parse_instance(text)
    assert inst.p == 1 and inst.dim == 2 and inst.n == 2 and inst.k == 1 and inst.B == 5
    assert [pt.coords for pt in inst.points] == [(0, 0), (3, -4)]
    assert [pt.id for pt in inst.points] == [0, 1]


def test_instance_rejects_wrong_header():
    with pytest.raises(FormatError):
        parse_instance("ELC 1\n1 1 1 1 0\n0\n")
    with pytest.raises(FormatError):
        parse_instance("ECL 2\n1 1 1 1 0\n0\n")


def test_instance_rejects_short_and_long_bodies():
    with pytest.raises(FormatError):
        parse_instance("ECL 1\n1 1 2 1 0\n0\n")
    with pytest.raises(FormatError):
        parse_instance("ECL 1\n1 1 1 1 0\n0\n7\n")


def test_instance_rejects_non_integers():
    with pytest.raises(FormatError):
        parse_instance("ECL 1\n1 1 1 1 0\nx\n")


@pytest.mark.parametrize("text, message", [
    ("ECL 1\n1 2 2 1 0\n0 0\nx 1\n", "instance: expected integer, got 'x'"),
    ("ECL 1\n1 2 2 1 0\n0 0\n1 y\n", "instance: expected integer, got 'y'"),
    # a bad token before the cut is reported, not the missing tail
    ("ECL 1\n1 2 3 1 0\n0 0\n1.5\n", "instance: expected integer, got '1.5'"),
    ("ECL 1\n1 2 2 1 0\n0 0\n1\n", "instance: unexpected end of input"),
    ("ECL 1\n1 2 2 1 0\n", "instance: unexpected end of input"),
    ("ECL 1\n1 2 2 1 0\n0 0\n1 1\n7 z\n", "instance: trailing data from token '7'"),
])
def test_instance_body_error_messages(text, message):
    with pytest.raises(FormatError) as exc:
        parse_instance(text)
    assert str(exc.value) == message


def test_instance_indivisible_k_is_not_a_format_error():
    with pytest.raises(InvalidInstanceError):
        parse_instance("ECL 1\n1 1 3 2 0\n0\n1\n2\n")


def test_clustering_round_trip():
    # line i is the cluster of ids[i], whatever the ids and their order
    c = Clustering({5: 1, 7: 2, 2: 1, 9: 2}, 2)
    text = format_clustering(c, [9, 2, 7, 5])
    assert text == "ASSIGN 1 4 2\n2\n1\n2\n1\n"
    assert parse_clustering(text, [9, 2, 7, 5]) == c


def test_clustering_rejects_out_of_range_index():
    with pytest.raises(FormatError) as exc:
        parse_clustering("ASSIGN 1 2 2\n1\n3\n", range(2))
    assert str(exc.value) == "clustering: index 3 out of range 1..2"


def test_clustering_entry_count_is_checked_before_the_entries():
    with pytest.raises(FormatError) as exc:
        parse_clustering("ASSIGN 1 3 2\n1\nx\n", range(2))
    assert str(exc.value) == "clustering: 3 entries for 2 points"


def test_hypergraph_parse_example():
    h = parse_hypergraph("RSM 3 6 4\n1 2 3\n4 5 6\n1 3 5\n2 4 5\n")
    assert h == Hypergraph(3, 6, ((1, 2, 3), (4, 5, 6), (1, 3, 5), (2, 4, 5)))


def test_hypergraph_validation_becomes_format_error():
    with pytest.raises(FormatError):
        parse_hypergraph("RSM 3 6 1\n1 2 2\n")


def test_hypergraph_uniformity_is_checked_before_the_edges():
    # with r = 0 no edge reads a token, so the "x" would count as trailing data
    with pytest.raises(FormatError, match=r"^hypergraph: uniformity r must be >= 3$"):
        parse_hypergraph("RSM 0 1 5\nx")


def test_tdm_parse_example():
    t = parse_tdm("TDM 2 4\n1 1 1\n2 2 2\n1 2 2\n2 1 1\n")
    assert t == TdmInstance(2, ((1, 1, 1), (2, 2, 2), (1, 2, 2), (2, 1, 1)))


def test_tdm_validation_becomes_format_error():
    with pytest.raises(FormatError):
        parse_tdm("TDM 1 4\n1 1 1\n1 1 1\n1 1 1\n1 1 1\n")


def test_matching_parse():
    assert parse_matching("1 2\n4") == [1, 2, 4]
    with pytest.raises(FormatError):
        parse_matching("1 x")
