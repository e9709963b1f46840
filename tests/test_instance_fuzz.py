"""Property tests over transport instance documents: a built instance is
canonical, whatever order its document lists the pairs in and whichever
way round it names their sites."""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from arealaw import ValidationError, parse_instance, routing, scenarios


@st.composite
def instance_documents(draw):
    """A valid instance document as drawn, the same document with its pairs
    shuffled, each named either way round, and its quotas reordered, and
    the canonical document both build to: pairs of one site pair summed,
    named (earlier, later) and sorted by their sites' positions, quotas in
    facility order, ``N`` given."""
    k = draw(st.integers(1, 4))
    facilities = [f"P{i}" for i in draw(st.permutations(range(k)))]
    pairs = []
    if k > 1:
        ends = st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True)
        pairs = draw(st.lists(st.tuples(ends, st.integers(0, 3)), max_size=6))
    degree = [0] * k
    counts = {}
    for (i, j), count in pairs:
        degree[i] += count
        degree[j] += count
        key = (min(i, j), max(i, j))
        counts[key] = counts.get(key, 0) + count
    quotas = {}
    for i, f in enumerate(facilities):
        if draw(st.booleans()):  # feasible: the pads fill an even deficit
            total = degree[i] + 2 * draw(st.integers(0, 2))
            to_a = draw(st.integers(0, total))
            quotas[f] = {"A": to_a, "B": total - to_a}
        else:
            quotas[f] = {"A": draw(st.integers(0, 4)), "B": draw(st.integers(0, 4))}
    N = draw(st.none() | st.integers(2, 5))
    drawn = {"facilities": facilities,
             "pairs": [{"a": facilities[i], "b": facilities[j], "count": c}
                       for (i, j), c in pairs],
             "quotas": quotas}
    if N is not None:
        drawn["N"] = N
    shuffled = dict(drawn, pairs=[
        {"a": rec["b"], "b": rec["a"], "count": rec["count"]}
        if draw(st.booleans()) else rec
        for rec in draw(st.permutations(drawn["pairs"]))
    ], quotas={f: quotas[f] for f in draw(st.permutations(facilities))})
    canonical = {"facilities": facilities,
                 "pairs": [{"a": facilities[i], "b": facilities[j], "count": counts[i, j]}
                           for i, j in sorted(counts)],
                 "quotas": quotas,
                 "N": 2 if N is None else N}
    return drawn, shuffled, canonical


def _outcome(instance):
    """The scenario values and the routing's document, or the refusal."""
    try:
        return scenarios(instance), routing(instance).to_document()
    except ValidationError as exc:
        return type(exc), str(exc)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(instance_documents())
def test_instance_documents_are_canonical_once_built(documents):
    drawn, shuffled, canonical = documents
    instances = [parse_instance(json.dumps(d)) for d in documents]
    for instance in instances:  # in key order too
        assert json.dumps(instance.to_document()) == json.dumps(canonical)
        assert parse_instance(json.dumps(instance.to_document())) == instance
    outcomes = [_outcome(instance) for instance in instances]
    assert outcomes[0] == outcomes[1] == outcomes[2]
