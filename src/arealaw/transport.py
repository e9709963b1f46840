"""Entanglement transport between two consumers over a fixed network.

Facilities share singlet states pairwise and may create extra ones locally;
every particle is shipped to consumer A or consumer B under per-site quotas.
The three scenario values are the ebit counts (units of ``ln N``) achievable
with no pre-shared entanglement (Y1), with global operations (Y2), and with
local unitaries only (Y3); the last one equals the maximal flow of the
induced graph marginal, is achieved by permutation routing, and is certified
by an exact rank/spectrum computation.  An instance solves once: it keeps
its marginal, flow value and routing, which :func:`scenarios`,
:func:`routing` and :func:`certify` all read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .boundary_flow import build_network, max_flow
from .errors import (
    CertificateError,
    InfeasibleError,
    ParseError,
    ValidationError,
)
from .graph_model import Edge, Graph, Marginal, _load_document, check_integer
from .marking import Marking, marking_from_flow

CERTIFICATE_CAVEAT = (
    "random-unitary rank equality holds with probability one; checked "
    "here at fixed small N"
)


@dataclass(frozen=True)
class TransportInstance:
    """Shared pairs, per-site shipping quotas and the local dimension.

    :meth:`build` stores the pairs sorted by their sites' positions.  The
    instance keeps its solution once solved; that assumes its mappings are
    not mutated after :meth:`build`, as a ``Marginal`` assumes of its trace."""

    facilities: tuple[str, ...]
    pairs: Mapping[tuple[str, str], int]   # (earlier, later) keys, in facility order
    quotas: Mapping[str, tuple[int, int]]  # site -> (to A, to B)
    N: int = 2

    @classmethod
    def build(cls, facilities, pairs, quotas, N=2) -> "TransportInstance":
        """Validate and canonicalize.  ``pairs`` maps ``(a, b)`` to a count,
        or lists ``((a, b), count)`` items; counts of one pair add up."""
        try:
            facilities = tuple(facilities)
            index = {f: i for i, f in enumerate(facilities)}
        except TypeError:  # not iterable, or a name that cannot be hashed
            raise ValidationError("facilities must be a sequence of site names") from None
        if len(index) != len(facilities) or not facilities:
            raise ValidationError("facilities must be non-empty and unique")
        try:
            items = [((a, b), count) for (a, b), count in
                     (pairs.items() if isinstance(pairs, Mapping) else pairs)]
        except (TypeError, ValueError):
            raise ValidationError("pairs must hold ((a, b), count) items") from None
        counts: dict[tuple[int, int], int] = {}
        for (a, b), count in items:
            try:
                key = tuple(sorted((index[a], index[b])))
            except (KeyError, TypeError):  # TypeError: a name that cannot be hashed
                raise ValidationError(
                    f"pair ({a!r}, {b!r}) names an unknown site") from None
            if a == b:
                raise ValidationError(
                    f"self-pair at {a!r}: local singlets come from quota padding"
                )
            count = check_integer(
                count, 0, f"pair count for ({a!r}, {b!r}) must be an integer >= 0")
            counts[key] = counts.get(key, 0) + count
        if not isinstance(quotas, Mapping):
            raise ValidationError("quotas must map each site to (to A, to B)")
        for site in quotas:
            if site not in index:
                raise ValidationError(f"quotas name an unknown site {site!r}")
        clean_quotas = {}
        for f in facilities:
            if f not in quotas:
                raise ValidationError(f"missing quotas for site {f!r}")
            try:
                to_a, to_b = quotas[f]
            except (TypeError, ValueError):
                raise ValidationError(
                    f"quotas at site {f!r} must be a pair (to A, to B)") from None
            message = f"quotas at site {f!r} must be integers"  # the sign comes next
            to_a, to_b = (check_integer(q, -math.inf, message) for q in (to_a, to_b))
            if to_a < 0 or to_b < 0:
                raise ValidationError(f"negative quota at site {f!r}")
            clean_quotas[f] = (to_a, to_b)
        N = check_integer(
            N, 2, f"local dimension N must be an integer >= 2, got {N!r}")
        pairs = {(facilities[i], facilities[j]): counts[i, j] for i, j in sorted(counts)}
        return cls(facilities=facilities, pairs=pairs, quotas=clean_quotas, N=N)

    def __hash__(self) -> int:
        """A hash over the fields equality compares, the mappings read as
        sets of items, so their order does not matter."""
        return hash((self.facilities, frozenset(self.pairs.items()),
                     frozenset(self.quotas.items()), self.N))

    @property
    def has_particles(self) -> bool:
        """Whether some site holds a singlet half or ships a particle."""
        return any(self.pairs.values()) or any(map(any, self.quotas.values()))

    @cached_property
    def _solution(self) -> tuple[Marginal, int, RoutingPlan]:
        """The marginal, its flow value (Y3) and the optimal routing, from
        one marginal, one max flow and one marking, kept once solved."""
        marginal = to_marginal(self)
        flow = max_flow(build_network(marginal))
        marking = marking_from_flow(marginal, flow)
        marked = marking.marked
        legs = {v: marginal.graph.legs_of(v) for v in marginal.graph.vertices}
        to_a = {v: tuple(l for l in ls if l in marked) for v, ls in legs.items()}
        to_b = {v: tuple(l for l in ls if l not in marked) for v, ls in legs.items()}
        plan = RoutingPlan(to_A=to_a, to_B=to_b, marking=marking,
                           permutation={v: to_a[v] + to_b[v] for v in legs})
        return marginal, flow.value, plan

    def to_document(self) -> dict:
        return {
            "facilities": list(self.facilities),
            "pairs": [
                {"a": a, "b": b, "count": c} for (a, b), c in self.pairs.items()
            ],
            "quotas": {
                f: {"A": q[0], "B": q[1]} for f, q in self.quotas.items()
            },
            "N": self.N,
        }


def parse_instance(text: str) -> TransportInstance:
    doc = _load_document(text, "instance")
    for key, kind, name in (("facilities", list, "array"),
                            ("pairs", list, "array"),
                            ("quotas", dict, "object")):
        if key not in doc:
            raise ParseError(f"instance document needs '{key}'")
        if not isinstance(doc[key], kind):
            raise ParseError(f"'{key}' must be a JSON {name}")
    if not all(isinstance(f, str) for f in doc["facilities"]):
        raise ParseError("facilities must be strings")
    pairs = []
    for i, rec in enumerate(doc["pairs"]):
        if not isinstance(rec, dict) or not {"a", "b", "count"} <= set(rec):
            raise ParseError(f"pair {i} must be an object with 'a', 'b', 'count'")
        if not (isinstance(rec["a"], str) and isinstance(rec["b"], str)):
            raise ParseError(f"pair {i} must name its sites with strings")
        pairs.append(((rec["a"], rec["b"]), rec["count"]))
    quotas = {}
    for site, rec in doc["quotas"].items():
        if not isinstance(rec, dict) or "A" not in rec or "B" not in rec:
            raise ParseError(f"quotas for {site!r} must carry 'A' and 'B'")
        quotas[site] = (rec["A"], rec["B"])
    return TransportInstance.build(
        doc["facilities"], pairs, quotas, doc.get("N", 2)
    )


@dataclass(frozen=True)
class RoutingPlan:
    """Per-site destination of every leg plus the tensor-factor relabeling
    realizing it (legs to A first, then legs to B)."""

    to_A: Mapping[str, tuple[int, ...]]
    to_B: Mapping[str, tuple[int, ...]]
    permutation: Mapping[str, tuple[int, ...]]
    marking: Marking

    def to_document(self) -> dict:
        return {
            "sites": [
                {
                    "site": site,
                    "to_A": list(self.to_A[site]),
                    "to_B": list(self.to_B[site]),
                    "permutation": list(self.permutation[site]),
                }
                for site in self.to_A
            ],
            "marking": self.marking.to_document(),
        }


def to_marginal(instance: TransportInstance) -> Marginal:
    """Reduce the instance to a graph marginal: one vertex per active site,
    parallel edges for shared pairs, one pad loop per locally created
    singlet; legs shipped to A survive, legs shipped to B are traced."""
    degree = dict.fromkeys(instance.facilities, 0)
    for (a, b), count in instance.pairs.items():
        degree[a] += count
        degree[b] += count
    deficit = {  # active sites only: those holding or shipping a particle
        f: sum(instance.quotas[f]) - degree[f] for f in instance.facilities
        if degree[f] or any(instance.quotas[f])
    }
    if not deficit:
        raise ValidationError("instance has no particles to route")
    for f, missing in deficit.items():
        if missing < 0:
            raise InfeasibleError(
                f"site {f!r} ships {degree[f] + missing} particles but holds "
                f"{degree[f]} singlet halves"
            )
        if missing % 2 == 1:
            raise InfeasibleError(
                f"site {f!r} has an odd particle deficit of {missing}; local "
                "pair creation cannot provide an unpaired particle"
            )
    edges = []
    for (a, b), count in instance.pairs.items():
        edges.extend([Edge(u=a, v=b, d=1)] * count)
    for f, missing in deficit.items():
        edges.extend([Edge(u=f, v=f, d=1)] * (missing // 2))
    graph = Graph(vertices=tuple(deficit), edges=tuple(edges))
    counts = {f: instance.quotas[f][0] for f in deficit}
    return Marginal.from_counts(graph, counts)


def scenarios(instance: TransportInstance) -> tuple[int, int, int]:
    """The scenario values (Y1, Y2, Y3) in ebits; Y1 and Y2 read the quotas."""
    quotas = instance.quotas.values()
    y1 = sum(min(a, b) for a, b in quotas)
    y2 = min(sum(a for a, _ in quotas), sum(b for _, b in quotas))
    y3 = instance._solution[1] if instance.has_particles else 0
    return y1, y2, y3


def routing(instance: TransportInstance) -> RoutingPlan:
    """Optimal local routing: marked legs ship to A, unmarked to B."""
    return instance._solution[2]


@dataclass(frozen=True)
class TransportCertificate:
    Y1: int
    Y2: int
    Y3: int
    N: int
    rank: int
    eigenvalue_deviation: float
    renyi: dict[float, float]
    haar_samples: int
    haar_rank_max: int
    haar_ranks_all_equal: bool
    haar_mean_H: float
    plan: RoutingPlan

    def to_document(self) -> dict:
        return {
            "Y": [self.Y1, self.Y2, self.Y3],
            "N": self.N,
            "rank": self.rank,
            "eigenvalue_deviation": self.eigenvalue_deviation,
            "renyi": {str(q): v for q, v in self.renyi.items()},
            "haar_samples": self.haar_samples,
            "haar_rank_max": self.haar_rank_max,
            "haar_ranks_all_equal": self.haar_ranks_all_equal,
            "haar_mean_H": self.haar_mean_H,
            "plan": self.plan.to_document(),
            "caveat": CERTIFICATE_CAVEAT,
        }


def certify(instance: TransportInstance, N: int | None = None,
            haar_samples: int = 50, seed: int = 0) -> TransportCertificate:
    """Build the routed state and certify the maximal-rank claim.

    With the plan's permutation routing (realized as a leg-level trace equal
    to the marking) the shared state splits into crossing singlet halves and
    internal singlets, so the reduced state must have rank ``N**Y3`` with a
    uniform spectrum and ``H_q = Y3 ln N``.  Haar-random unitaries are then
    sampled to confirm that randomness never beats the flow bound.  Both
    states come from :func:`~arealaw.mc_simulator.run_experiment`, the
    routed one as its single identity sample.  When the routed marginal
    crosses no vertex, the Haar run skips every unitary (none can change
    the spectrum): its "Haar samples" are the routed state itself.
    """
    from .mc_simulator import run_experiment

    N = check_integer(instance.N if N is None else N, 2, "N must be at least 2")
    marginal, _, plan = instance._solution
    y1, y2, y3 = scenarios(instance)
    g = marginal.graph

    routed = Marginal.from_legs(
        g, (l for l in range(g.n_legs) if l not in plan.marking.marked))
    exact = run_experiment(routed, N, 1, seed, unitaries="identity")
    rank = exact.ranks[0]

    expected_rank = N ** y3
    if rank != expected_rank:
        raise CertificateError(
            f"routed state has rank {rank}, expected {expected_rank}"
        )
    nonzero = exact.spectra[0][: expected_rank]
    deviation = float(abs(nonzero - 1.0 / expected_rank).max())
    if deviation > 1e-9:
        raise CertificateError(
            f"routed spectrum deviates from uniform by {deviation}"
        )
    target = y3 * math.log(N)
    for q, value in exact.renyi_mean.items():
        if abs(value - target) > 1e-9 * max(1.0, abs(target)):
            raise CertificateError(
                f"H_{q} = {value} differs from Y3 ln N = {target}"
            )

    mc = run_experiment(routed, N, haar_samples, seed, q_list=(0.0, 1.0))
    rank_max = max(mc.ranks)
    if rank_max > expected_rank:
        raise CertificateError(
            f"a Haar sample reached rank {rank_max} above the bound {expected_rank}"
        )
    return TransportCertificate(
        Y1=y1, Y2=y2, Y3=y3, N=N,
        rank=rank, eigenvalue_deviation=deviation,
        renyi=exact.renyi_mean,
        haar_samples=haar_samples, haar_rank_max=rank_max,
        haar_ranks_all_equal=all(r == expected_rank for r in mc.ranks),
        haar_mean_H=mc.mean_H, plan=plan,
    )
