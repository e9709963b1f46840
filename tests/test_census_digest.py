"""One digest over the exact outputs of every census marginal and of a
fixed family of transport instances.

The census is every counting function of every small multigraph (at most 4
vertices and 5 edges, up to relabeling): 14,745 marginals.  For each, in a
fixed order, the digest reads its document, its traced legs, its flow
document and largest minimum cut, the marking read off the flow and the
prediction at N = 16, floats by ``repr``.  It then reads the scenario
values and the routing, or the refusal, of each transport instance.  These
paths are pure Python, so the bits depend only on the libm behind
``math.log``: the digest is pinned to Linux.  A change that alters one of
these outputs on purpose updates ``CENSUS_DIGEST`` and says why.
"""

import hashlib
import itertools
import sys

import pytest

from arealaw import (AreaLawError, Marginal, TransportInstance, build_network,
                     marking_from_flow, max_flow, predict_entropy, routing,
                     scenarios)

from conftest import all_counting_functions, enumerate_small_graphs

CENSUS_DIGEST = "7b0167548f6311df5e5b82abaf698e7f41901b25221bb15da3f7246bc726e68b"


def census_records():
    """The census outputs, one ``repr`` line a marginal."""
    for g in enumerate_small_graphs(max_vertices=4, max_edges=5):
        for s in all_counting_functions(g):
            m = Marginal.from_counts(g, s)
            flow = max_flow(build_network(m))
            yield repr((m.to_document(), sorted(m.traced), flow.to_document(),
                        flow.cut_max, marking_from_flow(m, flow).to_document(),
                        predict_entropy(m, 16).to_document()))


def transport_records():
    """Three sites in a triangle with 0 to 2 pairs on each side, each site
    shipping 0 to 2 particles to A and the rest to B, the last site with
    and without one locally created pair: the outputs, or the refusal."""
    sites = ("P1", "P2", "P3")
    sides = (("P1", "P2"), ("P2", "P3"), ("P1", "P3"))
    for counts in itertools.product(range(3), repeat=3):
        degree = {s: sum(c for side, c in zip(sides, counts) if s in side)
                  for s in sites}
        for to_a, pad in itertools.product(
                itertools.product(range(3), repeat=3), (0, 2)):
            total = dict(degree, P3=degree["P3"] + pad)
            quotas = {s: (min(a, total[s]), total[s] - min(a, total[s]))
                      for s, a in zip(sites, to_a)}
            instance = TransportInstance.build(sites, dict(zip(sides, counts)),
                                               quotas)
            try:
                yield repr((scenarios(instance), routing(instance).to_document()))
            except AreaLawError as exc:
                yield repr((type(exc).__name__, str(exc)))


@pytest.mark.skipif(sys.platform != "linux",
                    reason="math.log may differ in the last bit on another libm")
def test_census_and_transport_outputs_match_the_digest():
    digest = hashlib.sha256()
    count = 0
    for record in itertools.chain(census_records(), transport_records()):
        digest.update(record.encode() + b"\n")
        count += 1
    assert count == 14_745 + 27 * 27 * 2
    assert digest.hexdigest() == CENSUS_DIGEST
