"""Shared fixture builders and test oracles: canonical graphs, marginals,
graph families, the Marchenko-Pastur quadrature and spectral moments, a
Wishart spectrum, the fattened graph with its crossings and compatible
markings, and the name-keyed flow oracles (a network built by node names,
capacity lookup, cut capacity and path replay).  The non-crossing oracles
live in ``nc_combinatorics``."""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Hashable, Mapping

import numpy as np
import pytest

from arealaw import (Edge, Graph, InconsistencyError, Marginal, Marking,
                     ValidationError, parse_marginal)
from arealaw.boundary_flow import SINK, SOURCE, FlowNetwork
from arealaw.graph_model import _load_document, graph_from_document
from nc_combinatorics import mp_moment


@pytest.fixture
def transport_calls(monkeypatch) -> Counter:
    """Counts the marginals, max flows and markings that ``arealaw.transport``
    computes while the test runs."""
    from arealaw import transport

    counts = Counter()
    for name in ("to_marginal", "max_flow", "marking_from_flow"):
        def counted(*args, _fn=getattr(transport, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(transport, name, counted)
    return counts


@pytest.fixture
def solves(monkeypatch) -> list:
    """The arc maps the Edmonds-Karp engine solves while the test runs, one
    entry per solve, the marking's assignment flows included: a network's
    solve records its ``arcs``."""
    from arealaw import boundary_flow, marking

    solved = []
    augment = boundary_flow._augment

    def counted(arcs):
        solved.append(arcs)
        return augment(arcs)
    monkeypatch.setattr(boundary_flow, "_augment", counted)
    monkeypatch.setattr(marking, "_augment", counted)
    return solved


# -- test oracles ------------------------------------------------------------


def _mp_quadrature(c: float, f) -> float:
    """Integrate ``f`` against the continuous part of ``pi_c`` using the
    edge-singularity-aware substitution ``x = 1 + c + 2 sqrt(c) cos(theta)``;
    the atom at zero contributes nothing for the integrands used here."""
    from scipy.integrate import quad

    root = math.sqrt(c)

    def integrand(theta: float) -> float:
        x = 1.0 + c + 2.0 * root * math.cos(theta)
        if x <= 1e-300:
            return 0.0
        return (2.0 * c / math.pi) * f(x) * math.sin(theta) ** 2 / x

    value, _ = quad(integrand, 0.0, math.pi, limit=200)
    return value


def mp_moment_quadrature(c: float, p: int) -> float:
    """Independent quadrature route for ``mp_moment``."""
    return _mp_quadrature(c, lambda x: x ** p)


def mp_xlogx_quadrature(c: float) -> float:
    """Independent quadrature route for ``mp_xlogx``."""
    return _mp_quadrature(c, lambda x: x * math.log(x))


@dataclass(frozen=True)
class MomentDistances:
    empirical: tuple[float, ...]
    theoretical: tuple[float, ...]
    distances: tuple[float, ...]


def empirical_vs_mp(report, c: float, rescale: float,
                    max_p: int = 4) -> MomentDistances:
    """Distance between the empirical rescaled spectral moments of a Monte
    Carlo report and the Marchenko-Pastur moments of parameter ``c``.

    The empirical measure of each sample puts mass ``1/report.dim`` on every
    rescaled eigenvalue, the structural zeros the spectrum does not store
    included (they carry the atom); ``rescale`` is the case-prescribed power
    of ``N``.
    """
    orders = tuple(range(1, max_p + 1))
    empirical = tuple(
        math.fsum(float(np.sum((rescale * spec) ** p)) / report.dim
                  for spec in report.spectra) / len(report.spectra)
        for p in orders)
    theoretical = tuple(float(mp_moment(c, p)) for p in orders)
    return MomentDistances(
        empirical=empirical, theoretical=theoretical,
        distances=tuple(abs(e - t) for e, t in zip(empirical, theoretical)),
    )


def wishart_spectrum(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Spectrum of ``G G^dagger / Tr`` for a ``rows x cols`` Ginibre matrix
    ``G``, the marginal of a uniformly random pure state of those two
    dimensions: ``min(rows, cols)`` eigenvalues, descending."""
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    gram = g @ g.conj().T if rows <= cols else g.conj().T @ g
    eig = np.linalg.eigvalsh(gram)[::-1]
    return eig / eig.sum()


@dataclass(frozen=True)
class FattenedGraph:
    """Every edge made disjoint; fat vertices are the legs."""

    fat_vertices: tuple[int, ...]              # leg ids
    fat_edges: tuple[tuple[int, int], ...]     # one per graph edge
    projection: dict[int, str]                 # leg id -> graph vertex


def fatten(graph: Graph) -> FattenedGraph:
    fat_edges = tuple((2 * i, 2 * i + 1) for i in range(len(graph.edges)))
    projection = {leg.leg_id: leg.vertex for leg in graph.legs}
    return FattenedGraph(
        fat_vertices=tuple(range(graph.n_legs)),
        fat_edges=fat_edges,
        projection=projection,
    )


def crossings(fat: FattenedGraph, marking: Marking) -> int:
    """Number of fat edges with exactly one marked endpoint."""
    m = marking.marked
    return sum(1 for a, b in fat.fat_edges if (a in m) != (b in m))


def iter_compatible_markings(marginal: Marginal):
    """Every compatible marking, built from leg sets rather than bitmasks:
    per-vertex leg combinations in ascending order, vertices in document
    order."""
    g = marginal.graph
    per_vertex = [itertools.combinations(g.legs_of(v), marginal.s(v))
                  for v in g.vertices]
    for choice in itertools.product(*per_vertex):
        yield Marking(marked=frozenset(itertools.chain.from_iterable(choice)))


def is_compatible(marginal: Marginal, marking: Marking) -> bool:
    g = marginal.graph
    if not marking.marked <= set(range(g.n_legs)):
        return False
    return all(
        sum(1 for leg in g.legs_of(v) if leg in marking.marked) == marginal.s(v)
        for v in g.vertices
    )


@dataclass(frozen=True)
class NamedNetwork:
    """A flow network keyed by node names: integer capacities on directed
    arcs, an undirected edge being two arcs.  The flow oracles read it, and
    :meth:`flow_network` lays it out as the engine's arc maps."""

    nodes: tuple[Hashable, ...]  # (source, inner nodes, sink)
    capacities: Mapping[tuple[Hashable, Hashable], int]  # (tail, head) -> cap

    def flow_network(self) -> FlowNetwork:
        """Per node position, the positions joined to it by an arc either
        way, ascending, each mapped to the capacity of the arc to it (0 for
        an arc that only runs the other way)."""
        index = {node: i for i, node in enumerate(self.nodes)}
        arcs = [{} for _ in self.nodes]
        for (a, b), c in self.capacities.items():
            arcs[index[a]][index[b]] = c
            arcs[index[b]].setdefault(index[a], 0)
        return FlowNetwork(self.nodes, [dict(sorted(row.items())) for row in arcs])


def named_network(marginal: Marginal) -> NamedNetwork:
    """A marginal's flow network built by node names: ``t(v)`` from the
    source to each vertex, ``s(v)`` from each vertex to the sink, and the
    number of edges between two distinct vertices both ways."""
    g = marginal.graph
    caps: dict[tuple[str, str], int] = {}
    for v in g.vertices:
        if t := marginal.t(v):
            caps[(SOURCE, v)] = t
        if s := marginal.s(v):
            caps[(v, SINK)] = s
    for e in g.edges:
        if e.u != e.v:
            caps[(e.u, e.v)] = caps[(e.v, e.u)] = caps.get((e.u, e.v), 0) + 1
    return NamedNetwork(nodes=(SOURCE, *g.vertices, SINK), capacities=caps)


def named(network: FlowNetwork) -> NamedNetwork:
    """A built network read back by node names (its zero arcs left out)."""
    nodes = network.nodes
    return NamedNetwork(nodes, {(nodes[i], nodes[j]): c
                                for i, row in enumerate(network.arcs)
                                for j, c in row.items() if c})


def cap(network: NamedNetwork, a, b) -> int:
    """The capacity of the arc ``a -> b`` (0 if there is none)."""
    return network.capacities.get((a, b), 0)


def cut_capacity(network: NamedNetwork, source_side) -> int:
    """Capacity of the arcs leaving ``source_side``."""
    side = set(source_side)
    if SOURCE not in side or SINK in side:
        raise ValidationError("cut must contain the source and not the sink")
    return sum(c for (a, b), c in network.capacities.items()
               if a in side and b not in side)


def replay_paths(network: NamedNetwork, paths) -> int:
    """Push unit paths through a fresh copy of the network; returns the total
    flow and raises if any capacity or endpoint rule is violated."""
    usage: dict[tuple, int] = defaultdict(int)
    paths = tuple(paths)
    for path in paths:
        if len(path) < 2 or path[0] != SOURCE or path[-1] != SINK:
            raise InconsistencyError(f"path {path} must run source -> sink")
        for node in path[1:-1]:
            if node not in network.nodes[1:-1]:
                raise InconsistencyError(f"path interior node {node!r} is not a graph vertex")
        for a, b in zip(path, path[1:]):
            usage[(a, b)] += 1
    for (a, b), used in usage.items():
        if used + usage.get((b, a), 0) > cap(network, a, b):
            raise InconsistencyError(f"capacity exceeded on ({a}, {b})")
    return len(paths)


# -- canonical marginals -----------------------------------------------------


def parse_graph(text: str) -> Graph:
    """Parse a serialized graph document (the 'trace' section is ignored)."""
    return graph_from_document(_load_document(text))


def doc(vertices, edges, trace) -> dict:
    return {
        "vertices": vertices,
        "edges": [{"u": u, "v": v, "d": d} for (u, v, d) in edges],
        "trace": trace,
    }


def marginal_from(vertices, edges, trace) -> Marginal:
    return parse_marginal(json.dumps(doc(vertices, edges, trace)))


def single_loop(s: int = 1, d: int = 1) -> Marginal:
    return marginal_from(["V"], [("V", "V", d)],
                         {"mode": "counts", "s": {"V": s}})


def two_loops(s: int = 2) -> Marginal:
    return marginal_from(["V"], [("V", "V", 1), ("V", "V", 1)],
                         {"mode": "counts", "s": {"V": s}})


def page_marginal(ds: int, dt: int) -> tuple[Marginal, int]:
    """A vertex carrying only loops, with surviving and traced dimensions
    ``(64, 64)`` or ``(64, 256)``, and the N that gives them.  Its isometry
    is one Haar column, so its marginal is Page's induced ensemble of those
    dimensions."""
    ratios, traced, N = {(64, 64): ((1,), [1], 64),
                         (64, 256): ((2, 4), [2, 3], 4)}[ds, dt]
    return marginal_from(["V"], [("V", "V", d) for d in ratios],
                         {"mode": "legs", "traced": traced}), N


def black_hole(traced, d1: int = 1, d2: int = 1) -> Marginal:
    """Two edges joined in a path; legs 0/1 on the first edge, 2/3 on the
    second.  Case 1 traces [0, 1], case 2 traces [0, 2], the adapted
    marginal traces [0, 3]."""
    return marginal_from(
        ["V1", "V2", "V3"], [("V1", "V2", d1), ("V2", "V3", d2)],
        {"mode": "legs", "traced": list(traced)},
    )


def black_hole_counts(s1, s2, s3, d1: int = 1, d2: int = 1) -> Marginal:
    return marginal_from(
        ["V1", "V2", "V3"], [("V1", "V2", d1), ("V2", "V3", d2)],
        {"mode": "counts", "s": {"V1": s1, "V2": s2, "V3": s3}},
    )


def oxygen(traced, d1: int = 1, d2: int = 1) -> Marginal:
    """Double edge between two vertices; legs 0/2 at V1, legs 1/3 at V2.
    Case 1 traces [0, 1] (one edge entirely), case 2 traces [0, 3]."""
    return marginal_from(
        ["V1", "V2"], [("V1", "V2", d1), ("V1", "V2", d2)],
        {"mode": "legs", "traced": list(traced)},
    )


def lattice_doc(rows: int, cols: int) -> dict:
    """The rows x cols grid with unit edges; every vertex keeps one leg
    except two opposite corners, which keep none."""
    names = [f"R{r}C{c}" for r in range(rows) for c in range(cols)]
    edges = [(f"R{r}C{c}", f"R{r}C{c + 1}", 1)
             for r in range(rows) for c in range(cols - 1)]
    edges += [(f"R{r}C{c}", f"R{r + 1}C{c}", 1)
              for r in range(rows - 1) for c in range(cols)]
    s = {v: 1 for v in names}
    s[names[0]] = s[names[-1]] = 0
    return doc(names, edges, {"mode": "counts", "s": s})


def adapted_five(N_ratio: int = 1) -> Marginal:
    """Five parallel unit-ratio edges, one side fully traced: a 5-crossing
    adapted partition."""
    edges = [("A", "B", N_ratio)] * 5
    return marginal_from(["A", "B"], edges,
                         {"mode": "counts", "s": {"A": 0, "B": 5}})


# -- random families ---------------------------------------------------------


def random_graph(rng: np.random.Generator, max_vertices: int = 4,
                 max_edges: int = 5, dims=(1,)) -> Graph:
    """A random multigraph with loops, minimum degree one."""
    while True:
        k = int(rng.integers(1, max_vertices + 1))
        m = int(rng.integers(1, max_edges + 1))
        names = [f"V{i}" for i in range(k)]
        edges = []
        for _ in range(m):
            u, v = rng.integers(0, k, size=2)
            d = int(dims[rng.integers(0, len(dims))])
            edges.append(Edge(u=names[u], v=names[v], d=d))
        degree = {n: 0 for n in names}
        for e in edges:
            degree[e.u] += 1
            degree[e.v] += 1
        if min(degree.values()) >= 1:
            return Graph(vertices=tuple(names), edges=tuple(edges))


def random_marginal(rng: np.random.Generator, max_vertices: int = 4,
                    max_edges: int = 5, dims=(1,)) -> Marginal:
    g = random_graph(rng, max_vertices, max_edges, dims)
    s = {v: int(rng.integers(0, g.degree(v) + 1)) for v in g.vertices}
    return Marginal.from_counts(g, s)


def random_adapted_marginal(rng: np.random.Generator, max_vertices: int = 4,
                            max_edges: int = 3, dims=(1, 2, 3),
                            max_vertex_dim: int = 1000,
                            max_total_dim: int = 2 ** 18,
                            N: int = 3) -> Marginal:
    """An adapted marginal small enough for full (no-skip) simulation."""
    while True:
        g = random_graph(rng, max_vertices, max_edges, dims)
        leg_dims = [leg.ratio * N for leg in g.legs]
        if math.prod(leg_dims) > max_total_dim:
            continue
        if any(
            math.prod(leg_dims[l] for l in g.legs_of(v)) > max_vertex_dim
            for v in g.vertices
        ):
            continue
        traced_vertices = {v for v in g.vertices if rng.random() < 0.5}
        s = {
            v: 0 if v in traced_vertices else g.degree(v) for v in g.vertices
        }
        return Marginal.from_counts(g, s)


def random_transport_instance(rng: np.random.Generator):
    """Feasible by construction: quotas cover the edge degree with an even
    deficit; every quota stays <= 4."""
    from arealaw import TransportInstance

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
        ok = True
        for s in sites:
            pad = int(rng.integers(0, 3)) * 2
            total = degree[s] + pad
            if total > 8:
                total = degree[s]
            lo = max(0, total - 4)
            hi = min(4, total)
            if lo > hi:
                ok = False
                break
            to_a = int(rng.integers(lo, hi + 1))
            quotas[s] = (to_a, total - to_a)
        if not ok:
            continue
        return TransportInstance.build(sites, pairs, quotas, N=2)


def all_counting_functions(g: Graph):
    ranges = [range(g.degree(v) + 1) for v in g.vertices]
    for combo in itertools.product(*ranges):
        yield dict(zip(g.vertices, combo))


def enumerate_small_graphs(max_vertices: int = 4, max_edges: int = 5):
    """All multigraphs (loops and multi-edges included) with minimum degree
    one, up to vertex relabeling."""
    out = []
    for k in range(1, max_vertices + 1):
        names = tuple(f"V{i}" for i in range(k))
        pair_types = [(i, j) for i in range(k) for j in range(i, k)]
        perms = list(itertools.permutations(range(k)))
        seen = set()
        for m in range(1, max_edges + 1):
            for combo in itertools.combinations_with_replacement(
                range(len(pair_types)), m
            ):
                edges = [pair_types[c] for c in combo]
                degree = [0] * k
                for a, b in edges:
                    degree[a] += 1
                    degree[b] += 1
                if min(degree) == 0:
                    continue
                canon = min(
                    tuple(sorted(
                        (min(p[a], p[b]), max(p[a], p[b])) for a, b in edges
                    ))
                    for p in perms
                )
                if canon in seen:
                    continue
                seen.add(canon)
                out.append(Graph(
                    vertices=names,
                    edges=tuple(Edge(u=names[a], v=names[b], d=1)
                                for a, b in canon),
                ))
    return out
