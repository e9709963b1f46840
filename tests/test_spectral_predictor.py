import math

import numpy as np
import pytest

from arealaw import (
    ValidationError,
    build_network,
    max_flow,
    mp_moment,
    mp_xlogx,
    predict_entropy,
    run_experiment,
)
from arealaw.spectral_predictor import _page_correction

from conftest import (
    adapted_five,
    black_hole,
    mp_moment_quadrature,
    mp_xlogx_quadrature,
    oxygen,
    page_marginal,
    random_marginal,
    single_loop,
    two_loops,
)


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
