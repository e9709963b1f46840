import json
import math

import numpy as np
import pytest

from arealaw import (
    InfeasibleError,
    ParseError,
    TransportInstance,
    ValidationError,
    certify,
    parse_instance,
    routing,
    scenarios,
    to_marginal,
)

from conftest import random_transport_instance


def single_edge_instance(N=2):
    return TransportInstance.build(
        ["P1", "P2"], {("P1", "P2"): 1}, {"P1": (1, 0), "P2": (0, 1)}, N=N)


def doubled_edge_instance(N=2):
    return TransportInstance.build(
        ["P1", "P2"], {("P1", "P2"): 2}, {"P1": (1, 1), "P2": (1, 1)}, N=N)


def isolated_pads_instance(N=2):
    return TransportInstance.build(
        ["P1", "P2"], {}, {"P1": (2, 0), "P2": (0, 2)}, N=N)


def path_instance(N=2):
    # three sites in a path, middle site ships both particles to A
    return TransportInstance.build(
        ["P1", "P2", "P3"], {("P1", "P2"): 1, ("P2", "P3"): 1},
        {"P1": (0, 1), "P2": (2, 0), "P3": (0, 1)}, N=N)


def test_to_marginal_single_edge():
    m = to_marginal(single_edge_instance())
    assert len(m.graph.edges) == 1
    assert m.s("P1") == 1 and m.s("P2") == 0


def test_to_marginal_pad_loop():
    instance = TransportInstance.build(["P1"], {}, {"P1": (1, 1)})
    m = to_marginal(instance)
    assert len(m.graph.edges) == 1
    e = m.graph.edges[0]
    assert e.u == e.v == "P1"
    assert m.s("P1") == 1


def test_to_marginal_odd_deficit():
    instance = TransportInstance.build(
        ["P1", "P2"], {("P1", "P2"): 1}, {"P1": (1, 1), "P2": (1, 0)})
    with pytest.raises(InfeasibleError, match="P1"):
        to_marginal(instance)


def test_to_marginal_underfull_site():
    instance = TransportInstance.build(
        ["P1", "P2"], {("P1", "P2"): 2}, {"P1": (1, 0), "P2": (1, 1)})
    with pytest.raises(InfeasibleError, match="P1"):
        to_marginal(instance)


def test_inert_sites_dropped():
    instance = TransportInstance.build(
        ["P1", "P2", "P3"], {("P1", "P2"): 1},
        {"P1": (1, 0), "P2": (0, 1), "P3": (0, 0)})
    m = to_marginal(instance)
    assert m.graph.vertices == ("P1", "P2")


def test_scenarios():
    assert scenarios(single_edge_instance()) == (0, 1, 1)
    assert scenarios(isolated_pads_instance()) == (0, 2, 0)
    assert scenarios(doubled_edge_instance()) == (2, 2, 2)


def test_scenarios_empty_instance():
    instance = TransportInstance.build(["P1"], {}, {"P1": (0, 0)})
    assert scenarios(instance) == (0, 0, 0)


def test_routing_single_edge():
    plan = routing(single_edge_instance())
    assert plan.to_A["P1"] == (0,)
    assert plan.to_B["P2"] == (1,)


def test_routing_pad_loop():
    instance = TransportInstance.build(["P1"], {}, {"P1": (1, 1)})
    plan = routing(instance)
    assert len(plan.to_A["P1"]) == 1 and len(plan.to_B["P1"]) == 1
    assert set(plan.to_A["P1"]) | set(plan.to_B["P1"]) == {0, 1}


def test_routing_path_instance():
    plan = routing(path_instance())
    middle_legs = set(to_marginal(path_instance()).graph.legs_of("P2"))
    assert set(plan.to_A["P2"]) == middle_legs  # both halves go to A


def test_routing_respects_quotas():
    rng = np.random.default_rng(31)
    for _ in range(100):
        instance = random_transport_instance(rng)
        try:
            plan = routing(instance)
        except ValidationError:
            continue
        for site in plan.to_A:
            s_i, t_i = instance.quotas[site]
            assert len(plan.to_A[site]) == s_i
            assert len(plan.to_B[site]) == t_i


def test_scenario_ordering_random():
    rng = np.random.default_rng(37)
    for _ in range(100):
        y1, y2, y3 = scenarios(random_transport_instance(rng))
        assert y1 <= y3 <= y2


def test_certificates_at_n2():
    for instance, y3 in ((single_edge_instance(), 1),
                         (doubled_edge_instance(), 2),
                         (path_instance(), 2)):
        cert = certify(instance, 2, haar_samples=20, seed=0)
        assert cert.Y3 == y3
        assert cert.rank == 2 ** y3
        assert cert.eigenvalue_deviation < 1e-9
        for q in (0.0, 1.0, 2.0):
            assert cert.renyi[q] == pytest.approx(y3 * math.log(2), abs=1e-9)
        assert cert.haar_rank_max <= 2 ** y3


def test_certificate_zero_flow():
    cert = certify(isolated_pads_instance(), 2, haar_samples=5, seed=0)
    assert cert.Y3 == 0
    assert cert.rank == 1
    assert cert.renyi[1.0] == pytest.approx(0.0, abs=1e-9)


def test_random_near_optimality():
    # random unitaries lose at most about half a nat on the doubled edge
    cert = certify(doubled_edge_instance(8), 8, haar_samples=20, seed=2)
    target = 2.0 * math.log(8)
    assert cert.haar_mean_H <= target + 1e-9
    assert cert.haar_mean_H >= target - 1.0


def test_instance_validation():
    for facilities in ([], ["P1", "P1"]):
        with pytest.raises(ValidationError,
                           match="^facilities must be non-empty and unique$"):
            TransportInstance.build(facilities, {}, {"P1": (1, 1)})
    with pytest.raises(ValidationError, match="self-pair"):
        TransportInstance.build(["P1"], {("P1", "P1"): 1}, {"P1": (1, 1)})
    with pytest.raises(ValidationError, match="unknown site"):
        TransportInstance.build(["P1"], {("P1", "P9"): 1}, {"P1": (1, 1)})
    with pytest.raises(ValidationError, match="unknown site 'P9'"):
        TransportInstance.build(["P1"], {}, {"P1": (1, 1), "P9": (5, 5)})
    with pytest.raises(ValidationError, match="missing quotas"):
        TransportInstance.build(["P1", "P2"], {("P1", "P2"): 1}, {"P1": (1, 0)})
    with pytest.raises(ValidationError, match="negative"):
        TransportInstance.build(["P1"], {}, {"P1": (-1, 1)})
    for bad in (1.7, 1.0, True, "1"):
        with pytest.raises(ValidationError, match="integers"):
            TransportInstance.build(["P1"], {}, {"P1": (bad, 1)})
        with pytest.raises(ValidationError, match="pair count"):
            TransportInstance.build(["P1", "P2"], {("P1", "P2"): bad},
                                    {"P1": (1, 0), "P2": (0, 1)})
    for bad in (2.5, 2.0, True, "3", None):
        with pytest.raises(ValidationError, match="local dimension"):
            TransportInstance.build(["P1"], {}, {"P1": (1, 1)}, N=bad)
    # counts of one pair add up only after each one is checked
    with pytest.raises(ValidationError, match="pair count"):
        TransportInstance.build(["P1", "P2"], [(("P1", "P2"), -1), (("P1", "P2"), 2)],
                                {"P1": (1, 0), "P2": (0, 1)})
    summed = TransportInstance.build(
        ["P1", "P2"], [(("P1", "P2"), 1), (("P2", "P1"), 1)],
        {"P1": (1, 1), "P2": (1, 1)})
    assert summed.pairs == {("P1", "P2"): 2}


@pytest.mark.parametrize("change, message", [
    ({"facilities": "P1"}, "'facilities' must be a JSON array"),
    ({"facilities": [["P1"], "P2"]}, "facilities must be strings"),
    ({"pairs": {"a": "P1", "b": "P2", "count": 1}}, "'pairs' must be a JSON array"),
    ({"pairs": [{"a": ["P1"], "b": "P2", "count": 1}]}, "pair 0 must name"),
    ({"quotas": [1, 2]}, "'quotas' must be a JSON object"),
    ({"facilities": None}, "^instance document needs 'facilities'$"),
    ({"pairs": None}, "^instance document needs 'pairs'$"),
    ({"quotas": None}, "^instance document needs 'quotas'$"),
    ({"pairs": ["P1"]}, "^pair 0 must be an object with 'a', 'b', 'count'$"),
    ({"pairs": [{"a": "P1", "b": "P2"}]},
     "^pair 0 must be an object with 'a', 'b', 'count'$"),
    ({"quotas": {"P1": {"A": 1}, "P2": {"A": 0, "B": 1}}},
     "^quotas for 'P1' must carry 'A' and 'B'$"),
    ({"quotas": {"P1": [1, 0], "P2": {"A": 0, "B": 1}}},
     "^quotas for 'P1' must carry 'A' and 'B'$"),
])
def test_parse_instance_rejects_wrong_shapes(change, message):
    # a key changed to None is left out of the document
    payload = {key: value for key, value in
               dict(single_edge_instance().to_document(), **change).items()
               if value is not None}
    with pytest.raises(ParseError, match=message):
        parse_instance(json.dumps(payload))


def test_certify_solves_once(transport_calls):
    cert = certify(path_instance(), 2, haar_samples=2, seed=0)
    assert cert.Y3 == 2
    assert transport_calls == {"to_marginal": 1, "max_flow": 1,
                               "marking_from_flow": 1}


def test_instance_solves_once(transport_calls, solves):
    # scenarios, routing and certify all read the instance's kept solution:
    # one max flow and the marking's one assignment flow
    instance = path_instance()
    assert scenarios(instance) == (0, 2, 2)
    plan = routing(instance)
    for _ in range(2):
        assert certify(instance, 2, haar_samples=2, seed=0).plan is plan
    assert transport_calls == {"to_marginal": 1, "max_flow": 1,
                               "marking_from_flow": 1}
    assert len(solves) == 2
    assert routing(instance) is routing(instance)


def test_parse_instance_round_trip():
    instance = doubled_edge_instance()
    again = parse_instance(json.dumps(instance.to_document()))
    assert again == instance
    assert scenarios(again) == (2, 2, 2)


def test_equal_instances_hash_equal():
    # build stores the pairs in facility order, whatever order they are
    # given in; the hash reads the mappings as sets of items, so a directly
    # constructed instance holding them in another order hashes equal too
    assert isinstance(hash(TransportInstance.build(["P1"], {}, {"P1": (1, 1)})), int)
    sites = ["P1", "P2", "P3"]
    quotas = {"P1": (0, 1), "P2": (2, 0), "P3": (0, 1)}
    forward = TransportInstance.build(
        sites, [(("P1", "P2"), 1), (("P2", "P3"), 1)], quotas)
    backward = TransportInstance.build(
        sites, [(("P3", "P2"), 1), (("P2", "P1"), 1)], dict(reversed(quotas.items())))
    assert list(forward.pairs) == list(backward.pairs) == [("P1", "P2"), ("P2", "P3")]
    assert forward == backward and hash(forward) == hash(backward)
    assert len({forward, backward}) == 1
    direct = TransportInstance(
        facilities=forward.facilities, pairs=dict(reversed(forward.pairs.items())),
        quotas=dict(reversed(forward.quotas.items())), N=forward.N)
    assert list(direct.pairs) != list(forward.pairs)
    assert direct == forward and hash(direct) == hash(forward)
    assert len({forward, direct}) == 1


def test_certify_mismatched_unitary_bound_is_hard():
    # sanity: the certificate never reports a rank above N^Y3
    cert = certify(path_instance(), 3, haar_samples=10, seed=5)
    assert cert.haar_rank_max <= 3 ** cert.Y3


@pytest.mark.parametrize("pairs, quotas, message", [
    ({"P12": 1}, {"P1": (1, 0), "P2": (0, 1)},
     r"^pairs must hold \(\(a, b\), count\) items$"),
    ([("P1",)], {"P1": (1, 0), "P2": (0, 1)},
     r"^pairs must hold \(\(a, b\), count\) items$"),
    (5, {"P1": (1, 0), "P2": (0, 1)}, r"^pairs must hold \(\(a, b\), count\) items$"),
    ({}, {"P1": (1, 1, 1), "P2": (0, 1)},
     r"^quotas at site 'P1' must be a pair \(to A, to B\)$"),
    ({}, {"P1": None, "P2": (0, 1)},
     r"^quotas at site 'P1' must be a pair \(to A, to B\)$"),
    ({}, None, r"^quotas must map each site to \(to A, to B\)$"),
], ids=["pair-key-string", "pair-item-short", "pairs-integer",
        "quota-triple", "quota-none", "quotas-none"])
def test_build_refuses_wrong_shapes(pairs, quotas, message):
    with pytest.raises(ValidationError, match=message):
        TransportInstance.build(["P1", "P2"], pairs, quotas)


def test_build_reads_N_by_the_integer_rule():
    # a numpy integer is an integer, as certify reads it; it is stored as int
    instance = TransportInstance.build(["P1"], {}, {"P1": (1, 1)}, N=np.int64(3))
    assert instance.N == 3 and type(instance.N) is int
    assert instance == TransportInstance.build(["P1"], {}, {"P1": (1, 1)}, N=3)


def test_build_reads_counts_and_quotas_by_the_integer_rule():
    # the rule N is read by: a numpy integer is accepted and stored as int
    instance = TransportInstance.build(["P1", "P2"], {("P1", "P2"): np.int64(1)},
                                       {"P1": (np.int64(1), 0), "P2": (0, np.int64(1))})
    assert instance == single_edge_instance()
    assert type(instance.pairs["P1", "P2"]) is int
    assert all(type(q) is int for quota in instance.quotas.values() for q in quota)
    with pytest.raises(ValidationError, match="^negative quota at site 'P1'$"):
        TransportInstance.build(["P1"], {}, {"P1": (np.int64(-1), 1)})


@pytest.mark.parametrize("facilities, pairs, message", [
    (5, {}, "^facilities must be a sequence of site names$"),
    ([["P1"]], {}, "^facilities must be a sequence of site names$"),
    (["P1", "P2"], [((["P1"], "P2"), 1)],
     r"^pair \(\['P1'\], 'P2'\) names an unknown site$"),
], ids=["facilities-integer", "facility-list", "pair-site-list"])
def test_build_refuses_unhashable_or_non_iterable_names(facilities, pairs, message):
    # a ValidationError of one line, where a bare TypeError escaped before
    with pytest.raises(ValidationError, match=message):
        TransportInstance.build(facilities, pairs, {})
