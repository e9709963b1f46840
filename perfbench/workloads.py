"""Workload inputs, operations and output checks.

Every input is derived from the workload seed.  Operations call the library
through its module attributes (``boundary_flow.max_flow``, not a name bound
at import), so the tracer's wrappers see the benchmark's own calls too.
Each operation returns whether its output passed the check; an exception
counts as a failed check in the caller.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import time
from collections import Counter

import numpy as np

from arealaw import boundary_flow, cli, graph_model, marking, spectral_predictor, transport

CENSUS_SIZE = 14745
PREDICT_N = 16
CERTIFY_N = 2
HAAR_SAMPLES = 50
MAX_TRANSPORT_LEGS = 12          # routed state fits 2^12 at N = 2
TRANSPORT_POOL = 2000            # reference pool for the target profiles
TRANSPORT_INSTANCES = 64
ENTROPY_TOLERANCE = 1e-9


# -- census: every small marginal ------------------------------------------


def small_graphs(max_vertices: int = 4, max_edges: int = 5):
    """Multigraphs with loops and minimum degree one, up to relabeling, as
    (vertex names, edge endpoint pairs); the family the test suite's
    ``enumerate_small_graphs`` builds."""
    for k in range(1, max_vertices + 1):
        names = [f"V{i}" for i in range(k)]
        pair_types = [(i, j) for i in range(k) for j in range(i, k)]
        perms = list(itertools.permutations(range(k)))
        seen = set()
        for m in range(1, max_edges + 1):
            for combo in itertools.combinations_with_replacement(
                    range(len(pair_types)), m):
                edges = [pair_types[c] for c in combo]
                degree = [0] * k
                for a, b in edges:
                    degree[a] += 1
                    degree[b] += 1
                if min(degree) == 0:
                    continue
                canon = min(
                    tuple(sorted((min(p[a], p[b]), max(p[a], p[b]))
                                 for a, b in edges))
                    for p in perms
                )
                if canon not in seen:
                    seen.add(canon)
                    yield names, canon


def census_documents() -> list[str]:
    """One counts-mode graph document per small graph and counting
    function, in enumeration order."""
    docs = []
    for names, edges in small_graphs():
        degree = {v: 0 for v in names}
        for a, b in edges:
            degree[names[a]] += 1
            degree[names[b]] += 1
        edge_docs = [{"u": names[a], "v": names[b], "d": 1} for a, b in edges]
        for combo in itertools.product(*(range(degree[v] + 1) for v in names)):
            docs.append(json.dumps({
                "vertices": names,
                "edges": edge_docs,
                "trace": {"mode": "counts", "s": dict(zip(names, combo))},
            }))
    return docs


def marginal_op(text: str) -> bool:
    """What ``area``, ``predict`` and routing compute for one marginal; the
    flow, the brute-force area and the crossings of the flow's marking must
    agree, and the min cut must certify the flow."""
    m = graph_model.parse_marginal(text)
    network = boundary_flow.build_network(m)
    flow = boundary_flow.max_flow(network)
    cut = boundary_flow.min_cut(network)
    brute = marking.area_bruteforce(m)
    marked = marking.marking_from_flow(m, flow).marked
    spectral_predictor.predict_entropy(m, PREDICT_N)
    crossed = sum(1 for i in range(len(m.graph.edges))
                  if (2 * i in marked) != (2 * i + 1 in marked))
    return flow.value == brute.area == crossed and cut.capacity == flow.value


# -- census: transport instances -------------------------------------------


def _random_quotas(rng: np.random.Generator):
    """A feasible instance with the test suite's ``random_transport_instance``
    distribution: at most 4 sites, 3 pairs per site pair, quotas <= 4."""
    while True:
        k = int(rng.integers(1, 5))
        sites = [f"P{i}" for i in range(k)]
        pairs = {}
        for i in range(k):
            for j in range(i + 1, k):
                count = int(rng.integers(0, 4))
                if count:
                    pairs[(sites[i], sites[j])] = count
        degree = {s: 0 for s in sites}
        for (a, b), c in pairs.items():
            degree[a] += c
            degree[b] += c
        if any(d > 8 for d in degree.values()):
            continue
        quotas = {}
        for s in sites:
            total = degree[s] + int(rng.integers(0, 3)) * 2
            if total > 8:
                total = degree[s]
            lo, hi = max(0, total - 4), min(4, total)
            if lo > hi:
                break
            to_a = int(rng.integers(lo, hi + 1))
            quotas[s] = (to_a, total - to_a)
        else:
            return sites, pairs, quotas


def _profile(quotas) -> tuple[int, int, int, int]:
    """What sets the cost and memory of one certificate: the work of one
    Monte Carlo sample in complex multiply-adds (the Haar QR at each mixed
    site, plus the reduced state of surviving dimension ``2^a`` against
    ``2^(legs - a)`` and its density matrix, formed while it has at most
    4096 rows), then legs, ``a`` and the Haar part on their own."""
    legs = sum(a + b for a, b in quotas.values())
    surviving = sum(a for a, _ in quotas.values())
    haar = sum(8 ** (a + b) for a, b in quotas.values() if a and b)
    return haar + 2 ** (legs + surviving) + 4 ** surviving, legs, surviving, haar


def _draws(rng: np.random.Generator):
    """Feasible instances with particles and at most 12 legs."""
    while True:
        sites, pairs, quotas = _random_quotas(rng)
        if 0 < sum(a + b for a, b in quotas.values()) <= MAX_TRANSPORT_LEGS:
            yield sites, pairs, quotas


def target_profiles(count: int = TRANSPORT_INSTANCES) -> list[tuple]:
    """Cost profiles at ``count`` evenly spaced quantiles of a fixed
    reference pool drawn from the generator's own distribution."""
    draws = _draws(np.random.default_rng([0, 2]))
    pool = sorted(_profile(next(draws)[2]) for _ in range(TRANSPORT_POOL))
    return [pool[int((i + 0.5) * len(pool) / count)] for i in range(count)]


def transport_instances(seed: int, count: int = TRANSPORT_INSTANCES):
    """``count`` instances drawn from the seed's stream, one per target
    profile: every seed certifies different instances with the same cost
    and memory profile, so the rates compare across seeds."""
    wanted = Counter(target_profiles(count))
    picks = []
    for sites, pairs, quotas in _draws(np.random.default_rng([seed, 1])):
        profile = _profile(quotas)
        if wanted[profile] > 0:
            wanted[profile] -= 1
            picks.append(transport.TransportInstance.build(
                sites, pairs, quotas, N=CERTIFY_N))
            if len(picks) == count:
                return picks


def transport_op(instance, seed: int, certify_walls: list) -> bool:
    """Scenario values, routing and the rank certificate of one instance:
    ``Y1 <= Y3 <= Y2`` and the routed rank is ``N^Y3``."""
    y1, y2, y3 = transport.scenarios(instance)
    transport.routing(instance)
    start = time.perf_counter()
    cert = transport.certify(instance, CERTIFY_N, haar_samples=HAAR_SAMPLES,
                             seed=seed)
    certify_walls.append(time.perf_counter() - start)
    return y1 <= y3 <= y2 and cert.Y3 == y3 and cert.rank == CERTIFY_N ** y3


# -- Monte Carlo verification ----------------------------------------------


def black_hole_document() -> dict:
    """Black-hole case 2: the path V1-V2-V3 with unit ratios, legs 0 and 2
    traced."""
    return {
        "vertices": ["V1", "V2", "V3"],
        "edges": [{"u": "V1", "v": "V2", "d": 1}, {"u": "V2", "v": "V3", "d": 1}],
        "trace": {"mode": "legs", "traced": [0, 2]},
    }


def lattice_document(rows: int = 2, cols: int = 4) -> dict:
    """The rows x cols grid with unit edges; every vertex keeps one leg
    except two opposite corners, which keep none."""
    names = [f"R{r}C{c}" for r in range(rows) for c in range(cols)]
    edges = [{"u": f"R{r}C{c}", "v": f"R{r}C{c + 1}", "d": 1}
             for r in range(rows) for c in range(cols - 1)]
    edges += [{"u": f"R{r}C{c}", "v": f"R{r + 1}C{c}", "d": 1}
              for r in range(rows - 1) for c in range(cols)]
    s = {v: 1 for v in names}
    s[names[0]] = s[names[-1]] = 0
    return {"vertices": names, "edges": edges,
            "trace": {"mode": "counts", "s": s}}


def surviving_dimension(doc: dict, n: int) -> int:
    """Dimension of the surviving legs, computed from the document alone."""
    edges = doc["edges"]
    trace = doc["trace"]
    if trace["mode"] == "legs":
        traced = set(trace["traced"])
        return math.prod(edges[leg // 2]["d"] * n
                         for leg in range(2 * len(edges)) if leg not in traced)
    if any(e["d"] != 1 for e in edges):
        raise ValueError("counts-mode documents here have unit edges only")
    return n ** sum(trace["s"].values())


def verify_op(graph_path: str, report_path: str, n: int, samples: int,
              seed: int, ds: int) -> bool:
    """One in-process, serial ``arealaw verify`` call: exit 0 and every
    per-sample entropy within ``[0, ln ds]``."""
    argv = ["verify", "-g", graph_path, "-N", str(n), "-n", str(samples),
            "--seed", str(seed), "--jobs", "1", "--out", report_path]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        return False
    with open(report_path, encoding="utf-8") as fh:
        entropies = json.load(fh)["mc"]["per_sample_H"]
    top = math.log(ds) + ENTROPY_TOLERANCE
    return (len(entropies) == samples
            and all(-ENTROPY_TOLERANCE <= h <= top for h in entropies))


def shuffled(items: list, seed: int) -> list:
    out = list(items)
    random.Random(seed).shuffle(out)
    return out
