import json

import numpy as np
import pytest

from arealaw import (
    Marginal,
    ValidationError,
    is_adapted,
    parse_marginal,
)
from arealaw.errors import ParseError

from conftest import (
    black_hole,
    black_hole_counts,
    parse_graph,
    random_marginal,
    single_loop,
)


def test_parse_single_loop():
    g = parse_graph(json.dumps({
        "vertices": ["V"], "edges": [{"u": "V", "v": "V", "d": 1}],
    }))
    assert g.vertices == ("V",)
    assert len(g.edges) == 1
    assert g.n_legs == 2
    assert g.degree("V") == 2


def test_parse_path_graph():
    g = parse_graph(json.dumps({
        "vertices": ["V1", "V2", "V3"],
        "edges": [{"u": "V1", "v": "V2", "d": 2}, {"u": "V2", "v": "V3", "d": 3}],
    }))
    assert len(g.vertices) == 3
    assert g.n_legs == 4
    assert g.degree("V2") == 2
    assert [leg.ratio for leg in g.legs] == [2, 2, 3, 3]


def test_undefined_vertex_named_in_error():
    with pytest.raises(ValidationError, match="V9"):
        parse_graph(json.dumps({
            "vertices": ["V1"], "edges": [{"u": "V1", "v": "V9", "d": 1}],
        }))


def test_degree_zero_vertex_rejected():
    with pytest.raises(ValidationError, match="degree 0"):
        parse_graph(json.dumps({
            "vertices": ["A", "B"], "edges": [{"u": "A", "v": "A", "d": 1}],
        }))


def test_nonpositive_ratio_rejected():
    # a float, however integral, and a boolean are not integer ratios either
    for d, shown in ((1.0, "1.0"), (0, "0"), (-1, "-1"), (True, "True")):
        with pytest.raises(ValidationError) as caught:
            parse_graph(json.dumps({
                "vertices": ["A"], "edges": [{"u": "A", "v": "A", "d": d}],
            }))
        assert str(caught.value) == (
            f"edge 0 has dimension ratio {shown}; it must be a positive integer")


def test_reserved_vertex_names_rejected():
    with pytest.raises(ValidationError, match="reserved"):
        parse_graph(json.dumps({
            "vertices": ["source"], "edges": [{"u": "source", "v": "source"}],
        }))


def test_malformed_document():
    with pytest.raises(ParseError):
        parse_graph("{not json")
    with pytest.raises(ParseError):
        parse_graph(json.dumps({"vertices": ["A"]}))


def test_repeated_traced_leg_rejected():
    # [0, 0, 2] and [0, 0.0] named one leg twice and used to parse as {0, 2}
    # and {0}; a traced set is given without repeats
    for traced in ([0, 0, 2], [0, 0.0]):
        text = json.dumps({
            "vertices": ["V1", "V2", "V3"],
            "edges": [{"u": "V1", "v": "V2"}, {"u": "V2", "v": "V3"}],
            "trace": {"mode": "legs", "traced": traced},
        })
        with pytest.raises(ParseError, match="repeats a leg id"):
            parse_marginal(text)

def test_leg_numbering_deterministic():
    text = json.dumps({
        "vertices": ["A", "B"],
        "edges": [{"u": "A", "v": "B", "d": 1}, {"u": "B", "v": "A", "d": 2}],
    })
    g1, g2 = parse_graph(text), parse_graph(text)
    assert g1.legs == g2.legs
    # edges scanned in list order, first endpoint then second
    assert [(l.vertex, l.edge, l.leg_id % 2) for l in g1.legs] == [
        ("A", 0, 0), ("B", 0, 1), ("B", 1, 0), ("A", 1, 1),
    ]


def test_resolve_single_loop_counts():
    m = single_loop(s=1)
    assert m.s("V") == 1
    assert m.t("V") == 1


def test_resolve_legs_mode_black_hole():
    # tracing V1's leg and V2's first-edge leg
    m = black_hole(traced=[0, 1], d1=1, d2=1)
    assert m.s("V1") == 0
    assert m.s("V2") == 1
    assert m.s("V3") == 1


def test_count_out_of_range():
    g = black_hole_counts(0, 0, 0).graph
    with pytest.raises(ValidationError, match="V2"):
        Marginal.from_counts(g, {"V1": 0, "V2": 3, "V3": 0})


def test_unknown_leg_and_vertex():
    g = single_loop().graph
    with pytest.raises(ValidationError):
        Marginal.from_legs(g, [5])
    with pytest.raises(ValidationError):
        Marginal.from_counts(g, {"V": 1, "W": 0})
    with pytest.raises(ValidationError, match="missing"):
        Marginal.from_counts(g, {})


def test_bare_constructor_refuses_an_unknown_leg():
    # the checks and messages of from_legs, whichever way a marginal is built
    g = single_loop().graph
    with pytest.raises(ValidationError, match="^traced leg id 99 does not exist$"):
        Marginal(g, frozenset({99}))
    with pytest.raises(ValidationError, match="^traced leg id '0' is not an integer$"):
        Marginal(g, frozenset({"0"}))


def test_bare_constructor_refuses_counts_its_legs_do_not_give():
    # a one-loop vertex with nothing traced keeps both legs: s = 2, not 0
    g = single_loop().graph
    with pytest.raises(ValidationError, match=r"^counts \{'V': 0\} are not the "
                                              r"surviving-leg counts \{'V': 2\}"):
        Marginal(g, frozenset(), counts={"V": 0})
    with pytest.raises(ValidationError, match="surviving-leg counts"):
        Marginal(g, frozenset({0}), counts={"V": True})
    assert Marginal(g, frozenset({0}), counts={"V": 1}) == single_loop()


def test_counts_mode_marginals_hash():
    g = black_hole_counts(0, 0, 0).graph
    m = Marginal.from_counts(g, {"V1": 0, "V2": 1, "V3": 1})
    reordered = Marginal.from_counts(g, {"V3": 1, "V2": 1, "V1": 0})
    assert m == reordered and hash(m) == hash(reordered)
    assert len({m, reordered, Marginal.from_legs(g, m.traced)}) == 2


def test_is_adapted_cases():
    assert is_adapted(black_hole(traced=[0, 3]))       # end vertices traced
    assert not is_adapted(black_hole(traced=[1]))      # traces inside V2
    assert is_adapted(black_hole_counts(0, 0, 0))      # everything traced
    assert is_adapted(black_hole_counts(1, 2, 1))      # nothing traced


def test_counts_sum_invariant():
    rng = np.random.default_rng(1)
    for _ in range(50):
        m = random_marginal(rng)
        total = sum(m.s(v) + m.t(v) for v in m.graph.vertices)
        assert total == m.graph.n_legs


def test_legs_counts_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(50):
        m = random_marginal(rng)
        legs_view = Marginal.from_legs(m.graph, m.traced)
        assert legs_view.s_counts == m.s_counts


def test_completed_trace_is_lowest_legs():
    m = black_hole_counts(0, 1, 1)
    # t = (1, 1, 0): lowest legs of V1 and V2
    assert m.traced == frozenset({0, 1})
    assert m.counts == {"V1": 0, "V2": 1, "V3": 1}
    assert Marginal.from_legs(m.graph, [0, 1]).counts is None


def test_crossed_vertices():
    # 0 < s(v) < deg(v): the vertices whose unitary a sample draws
    assert black_hole(traced=[1]).crossed == frozenset({"V2"})
    assert black_hole(traced=[0, 3]).crossed == frozenset()
    assert black_hole_counts(0, 1, 1).crossed == frozenset({"V2"})
    m = black_hole(traced=[1])
    assert m.crossed is m.crossed  # built once per marginal


def test_document_round_trip():
    m = black_hole(traced=[0, 2], d1=1, d2=2)
    again = parse_marginal(json.dumps(m.to_document()))
    assert again.graph == m.graph
    assert again.traced == m.traced
