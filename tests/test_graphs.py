import pytest

from ramsey_pm.graphs import SimpleGraph, bits, complete_graph, mask_of


def test_complete_graph_edge_counts():
    assert complete_graph(1).edge_count() == 0
    assert complete_graph(4).edge_count() == 6
    assert complete_graph(7).edge_count() == 21


def test_complete_graph_rejects_out_of_range():
    for n in (0, -1):
        with pytest.raises(ValueError):
            complete_graph(n)
    # vertex sets are ints of any width: no cap at 64
    for n in (65, 130):
        g = complete_graph(n)
        assert g.edge_count() == n * (n - 1) // 2 and g.has_edge(0, n - 1)


def test_validation_rejects_asymmetry_and_loops():
    with pytest.raises(ValueError):
        SimpleGraph(3, (0b010, 0b000, 0b000))  # 0-1 present only one way
    with pytest.raises(ValueError):
        SimpleGraph(2, (0b01, 0b10))  # self-loop at 0


def test_bits_roundtrip():
    assert list(bits(0b101101)) == [0, 2, 3, 5]
    assert mask_of([0, 2, 3, 5]) == 0b101101
