import itertools
import math
from collections import Counter

import numpy as np
import pytest

from arealaw import (
    Edge,
    Graph,
    Marginal,
    ValidationError,
    build_network,
    is_adapted,
    max_flow,
    min_cut,
    mp_xlogx,
    predict_entropy,
    run_experiment,
)
from arealaw.spectral_predictor import EntropyPrediction, _page_correction

from conftest import (
    adapted_five,
    all_counting_functions,
    black_hole,
    enumerate_small_graphs,
    marginal_from,
    mp_moment_quadrature,
    mp_xlogx_quadrature,
    oxygen,
    page_marginal,
    random_marginal,
    single_loop,
    two_loops,
)
from nc_combinatorics import mp_moment


def test_mp_moment_examples():
    for c in (0.5, 1.3, 4.0):
        assert mp_moment(c, 1) == pytest.approx(c)
    assert mp_moment(1.0, 3) == pytest.approx(5.0)   # Catalan(3)
    assert mp_moment(2.0, 2) == pytest.approx(6.0)   # c + c^2


def test_mp_moment_against_quadrature():
    for c in (0.25, 0.5, 1.0, 2.0, 4.0):
        for p in range(1, 7):
            assert abs(mp_moment(c, p) - mp_moment_quadrature(c, p)) < 1e-6 * max(
                1.0, mp_moment(c, p)
            )


def test_mp_xlogx_values():
    assert mp_xlogx(1.0) == pytest.approx(0.5)
    assert mp_xlogx(2.0) == pytest.approx(0.5 + 2.0 * math.log(2.0))
    assert mp_xlogx(0.5) == pytest.approx(0.125)


def test_mp_xlogx_against_quadrature():
    for c in (0.25, 0.5, 1.0, 2.0, 4.0):
        assert abs(mp_xlogx(c) - mp_xlogx_quadrature(c)) < 1e-6


def page_entropy(a, b):
    """Page's asymptotic mean entropy, ``ln Dmin`` less the predictor's
    correction."""
    return math.log(min(a, b)) - _page_correction(a, b)


def test_page_entropy_forms():
    for n in (8, 64, 500):
        assert page_entropy(n, n) == pytest.approx(math.log(n) - 0.5)
    assert page_entropy(64, 256) == pytest.approx(math.log(64) - 0.125)
    assert abs(page_entropy(2, 10 ** 6) - math.log(2)) < 2e-6
    with pytest.raises(ValidationError):
        _page_correction(0, 10)


def test_page_entropy_symmetric_exactly():
    for a, b in ((8, 64), (64, 256), (17, 17), (2, 10 ** 6)):
        assert _page_correction(a, b) == _page_correction(b, a)


def test_page_entropy_equals_mp_rescaling():
    # ln(c d) - mp_xlogx(c) / c with c the dimension ratio
    for ds, de in ((64, 256), (256, 64), (100, 100)):
        c = de / ds
        via_mp = math.log(c * ds) - mp_xlogx(c) / c
        assert page_entropy(ds, de) == pytest.approx(via_mp, abs=1e-12)


def test_page_entropy_against_monte_carlo():
    # one vertex carrying only loops samples Page's induced ensemble
    report = run_experiment(*page_marginal(64, 256), samples=50, seed=42)
    assert abs(report.mean_H - page_entropy(64, 256)) < 0.02


def test_limit_corrections():
    # each case's correction, with its edge ratios, at any N
    cases = (
        (single_loop(), "single_loop", 0.5),
        (black_hole(traced=[0, 1], d1=1, d2=2), "black_hole_1", 0.125),
        (oxygen(traced=[0, 1], d1=3, d2=3), "oxygen_1", 0.5),
        (black_hole(traced=[0, 2], d1=1, d2=2), "black_hole_2", 0.5),
        (adapted_five(), "adapted", 0.0),
    )
    for m, case, correction in cases:
        for N in (2, 16):
            pred = predict_entropy(m, N)
            assert pred.case == case
            assert pred.correction == pytest.approx(correction)


def test_predict_adapted_five_crossings():
    m = adapted_five()
    for N in (2, 3, 16):
        pred = predict_entropy(m, N)
        assert pred.case == "adapted"
        assert pred.exact
        assert pred.leading_area == 5
        assert pred.value(N) == pytest.approx(5.0 * math.log(N))


def test_predict_adapted_with_ratios():
    m = black_hole(traced=[0, 3], d1=2, d2=3)
    pred = predict_entropy(m, 5)
    assert pred.case == "adapted"
    assert pred.value(5) == pytest.approx(math.log(2 * 5) + math.log(3 * 5))


def test_predict_single_loop():
    pred = predict_entropy(single_loop(s=1), 64)
    assert pred.case == "single_loop"
    assert pred.value(64) == pytest.approx(math.log(64) - 0.5)


@pytest.mark.parametrize("bad", [1, 2.5, 16.0, True, "16"])
def test_predict_needs_an_integer_dimension(bad):
    with pytest.raises(ValidationError) as info:
        predict_entropy(single_loop(s=1), bad)
    assert str(info.value) == "N must be at least 2"


def test_predict_two_loops_equal_case():
    pred = predict_entropy(two_loops(s=2), 8)
    assert pred.case == "one_vertex"
    assert pred.leading_area == 2
    assert pred.correction == pytest.approx(0.5)
    assert pred.value(8) == pytest.approx(2.0 * math.log(8) - 0.5)


def test_predict_one_vertex_strict_cases():
    # two loops, one surviving leg: 1 < traced count 3
    m = two_loops(s=1)
    pred = predict_entropy(m, 8)
    assert pred.case == "one_vertex"
    assert pred.leading_area == 1
    assert pred.correction == 0.0


def test_predict_black_hole_cases():
    pred2 = predict_entropy(black_hole(traced=[0, 2]), 16)
    assert pred2.case == "black_hole_2"
    assert pred2.value(16) == pytest.approx(2.0 * math.log(16) - 0.5)
    pred1 = predict_entropy(black_hole(traced=[0, 1], d1=1, d2=2), 12)
    assert pred1.case == "black_hole_1"
    assert pred1.correction == pytest.approx(0.125)
    assert pred1.value(12) == pytest.approx(math.log(12 ** 2) - 0.125)


def test_black_hole_oxygen_coherence():
    for d1, d2 in ((1, 2), (2, 2), (3, 1)):
        bh1 = predict_entropy(black_hole(traced=[0, 1], d1=d1, d2=d2), 12)
        ox1 = predict_entropy(oxygen(traced=[0, 1], d1=d1, d2=d2), 12)
        assert bh1.value(12) == pytest.approx(ox1.value(12))
        bh2 = predict_entropy(black_hole(traced=[0, 2], d1=d1, d2=d2), 12)
        ox2 = predict_entropy(oxygen(traced=[0, 3], d1=d1, d2=d2), 12)
        assert bh2.value(12) == pytest.approx(ox2.value(12))
        if d1 == d2:
            assert bh1.value(12) == pytest.approx(bh2.value(12))


def test_generic_fallback():
    # a square of four vertices with mixed tracing has no template
    m = None
    rng = np.random.default_rng(10)
    count_generic = 0
    for _ in range(200):
        m = random_marginal(rng, max_vertices=4, max_edges=5)
        pred = predict_entropy(m, 4)
        X = max_flow(build_network(m)).value
        assert pred.leading_area == X
        if pred.case == "generic":
            count_generic += 1
            assert pred.correction is None
            assert not pred.exact
        else:
            assert pred.correction is not None
    assert count_generic > 0



def test_generic_bound_caps_every_sample_rank():
    # the generic leading term is the log-dimension of the flow's min cut,
    # which bounds the rank of every sampled marginal, whatever the ratios
    from arealaw.mc_simulator import run_experiment

    rng = np.random.default_rng(12)
    checked = with_ratios = 0
    while checked < 6:
        m = random_marginal(rng, max_vertices=3, max_edges=3, dims=(1, 2, 3))
        pred = predict_entropy(m, 2)
        if pred.case != "generic":
            continue
        mc = run_experiment(m, 2, 2, checked, q_list=(0.0,))
        assert math.log(max(mc.ranks)) <= pred.value(2) + 1e-9
        checked += 1
        with_ratios += pred.leading_offset > 0
    assert with_ratios > 0

def test_prediction_serialization():
    pred = predict_entropy(black_hole(traced=[0, 2]), 16)
    doc = pred.to_document()
    assert doc["case"] == "black_hole_2"
    assert doc["leading_area"] == 2
    assert doc["exact"] is False


# -- oracle: the per-case arithmetic the cut rule replaced -------------------


def _reference_template(marginal):
    """The path and double-edge templates with the dimensions of the traced
    side's edge and of the other one; (case, d_traced_side, d_other) or None."""
    g = marginal.graph
    traced = marginal.traced
    if len(g.edges) != 2 or len(traced) != 2:
        return None
    if any(e.u == e.v for e in g.edges):
        return None
    if len(g.vertices) == 3:
        if sorted(g.degree(v) for v in g.vertices) != [1, 1, 2]:
            return None
        middle = next(v for v in g.vertices if g.degree(v) == 2)
        end_legs = [l for l in traced if g.leg(l).vertex != middle]
        middle_legs = [l for l in traced if g.leg(l).vertex == middle]
        if len(end_legs) != 1 or len(middle_legs) != 1:
            return None
        end_edge = g.leg(end_legs[0]).edge
        middle_edge = g.leg(middle_legs[0]).edge
        d_end = g.edges[end_edge].d
        d_other = g.edges[1 - end_edge].d
        if middle_edge == end_edge:
            return ("black_hole_1", d_end, d_other)
        return ("black_hole_2", d_end, d_other)
    if len(g.vertices) == 2:
        if sum({e.u, e.v} == set(g.vertices) for e in g.edges) != 2:
            return None
        per_vertex = {v: [l for l in traced if g.leg(l).vertex == v]
                      for v in g.vertices}
        if any(len(legs) != 1 for legs in per_vertex.values()):
            return None
        edges_hit = {g.leg(l).edge for l in traced}
        d = [g.edges[0].d, g.edges[1].d]
        if len(edges_hit) == 1:
            hit = edges_hit.pop()
            return ("oxygen_1", d[hit], d[1 - hit])
        return ("oxygen_2", d[0], d[1])
    return None


def reference_prediction(marginal, N):
    """Each case by its own arithmetic: crossing edges for adapted
    marginals, the ``n_s`` vs ``n_t + n_g`` count for one surviving vertex,
    the template's edge dimensions, and the log ratio of the smallest min
    cut for the generic case."""
    g = marginal.graph
    traced = marginal.traced
    if is_adapted(marginal):
        fully_traced = {v for v in g.vertices if marginal.s(v) == 0}
        fully_surviving = {v for v in g.vertices if marginal.t(v) == 0}
        edges = [e for e in g.edges
                 if (e.u in fully_traced and e.v in fully_surviving)
                 or (e.u in fully_surviving and e.v in fully_traced)]
        return EntropyPrediction(
            "adapted", len(edges), math.fsum(math.log(e.d) for e in edges),
            0.0, True)
    if len(g.vertices) == 1 and len(g.edges) == 1 and marginal.s(g.vertices[0]) == 1:
        return EntropyPrediction("single_loop", 1, math.log(g.edges[0].d),
                                 _page_correction(1.0, 1.0), False)
    surviving_vertices = [v for v in g.vertices if marginal.s(v) > 0]
    if len(surviving_vertices) == 1:
        v = surviving_vertices[0]
        n_s, n_t = marginal.s(v), marginal.t(v)
        external = [l for l in g.legs_of(v) if g.leg(l).edge not in g.loop_indices(v)]
        n_g = len(external)
        d_s = math.prod(g.leg(l).ratio for l in g.legs_of(v) if l not in traced)
        d_t = math.prod(g.leg(l).ratio for l in g.legs_of(v) if l in traced)
        d_g = math.prod(g.leg(l).ratio for l in external)
        if n_s < n_t + n_g:
            area, offset, corr = n_s, math.log(d_s), 0.0
        elif n_s > n_t + n_g:
            area, offset, corr = n_t + n_g, math.log(d_t * d_g), 0.0
        else:
            area = n_s
            offset = math.log(min(d_s, d_t * d_g))
            corr = _page_correction(d_s, d_t * d_g)
        return EntropyPrediction("one_vertex", area, offset, corr, False)
    template = _reference_template(marginal)
    if template is not None:
        case, da, db = template
        if case.endswith("_1"):
            offset = 2.0 * math.log(min(da, db))
            corr = _page_correction(da * da, db * db)
        else:
            offset = math.log(da * db)
            corr = _page_correction(1.0, 1.0)
        return EntropyPrediction(case, 2, offset, corr, False)
    cut = min_cut(build_network(marginal))
    side = set(cut.source_side)
    offset = math.fsum(
        [math.log(leg.ratio) for leg in g.legs
         if (leg.vertex in side) != (leg.leg_id in traced)]
        + [math.log(e.d) for e in g.edges if (e.u in side) != (e.v in side)])
    return EntropyPrediction("generic", cut.capacity, offset, None, False)


def _census_marginals(max_legs_edges: int):
    """Every census-family marginal with at most 3 vertices in counts mode,
    and every legs-mode trace of those with at most ``max_legs_edges``
    edges, each with unit ratios and with the ratios ``1 + i % 3``."""
    for g in enumerate_small_graphs(max_vertices=3, max_edges=5):
        ratioed = Graph(g.vertices, tuple(Edge(e.u, e.v, 1 + i % 3)
                                          for i, e in enumerate(g.edges)))
        for graph in (g, ratioed):
            for s in all_counting_functions(g):
                yield Marginal.from_counts(graph, s)
            if len(g.edges) <= max_legs_edges:
                for k in range(g.n_legs + 1):
                    for t in itertools.combinations(range(g.n_legs), k):
                        yield Marginal.from_legs(graph, t)


def test_cut_rule_matches_reference_prediction():
    # the one cut rule reproduces every closed-form case exactly; on the
    # generic case it keeps the area and never loosens the offset
    lowered = Counter()
    for m in _census_marginals(max_legs_edges=4):
        for N in (2, 16):
            pred, ref = predict_entropy(m, N), reference_prediction(m, N)
            if ref.case != "generic":
                assert pred == ref
                continue
            assert (pred.case, pred.leading_area, pred.correction, pred.exact) \
                == ("generic", ref.leading_area, None, False)
            assert pred.leading_offset <= ref.leading_offset
            lowered[pred.leading_offset < ref.leading_offset] += 1
    assert lowered[True] > 0 and lowered[False] > lowered[True]


def test_generic_offset_is_the_tighter_cut():
    # V0 carries loops of ratio 1 and 2 and an edge of ratio 3 to V1: the
    # smallest min cut counts 27 = 3^3, the largest only 3, and the sampled
    # rank meets the largest cut's bound 3 N^3 exactly
    m = marginal_from(["V0", "V1"],
                      [("V0", "V0", 1), ("V0", "V0", 2), ("V0", "V1", 3),
                       ("V1", "V1", 1)],
                      {"mode": "counts", "s": {"V0": 1, "V1": 2}})
    for N in (2, 3):
        pred = predict_entropy(m, N)
        assert (pred.case, pred.leading_area) == ("generic", 3)
        assert pred.leading_offset == math.log(3)
        assert reference_prediction(m, N).leading_offset == pytest.approx(math.log(27))
        mc = run_experiment(m, N, 2, 1, q_list=(0.0,))
        assert max(mc.ranks) == 3 * N ** 3
        assert math.exp(pred.value(N)) == pytest.approx(3 * N ** 3)
