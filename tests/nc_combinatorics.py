"""Test oracles: geodesic permutations, the non-crossing partition lattice,
Marchenko-Pastur moments and asymptotic moment coefficients.

No command reads these; the tests check the predictor and the sampler
against them.

Permutations are tuples in one-line notation on ``{0, .., p-1}`` (images of
0..p-1).  A permutation is geodesic when ``#(b) + #(b^-1 g) = p + 1`` with
``g`` the full cycle; geodesic permutations are in bijection with
non-crossing partitions (cycles = blocks), and the refinement order on those
partitions underlies the multichain counts used by the worked moment cases.

Moment coefficients are evaluated exactly (``fractions.Fraction``); floating
point enters only at the predictor boundary.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from arealaw.errors import CombinatorialLimitError, ValidationError
from arealaw.graph_model import Graph, Marginal

#: Exact enumeration guard; Catalan(8) = 1430 keeps every cross-check fast.
MAX_P = 8

Permutation = tuple  # one-line notation, images of 0..p-1


def identity(p: int) -> Permutation:
    return tuple(range(p))


def full_cycle(p: int) -> Permutation:
    """The cycle 0 -> 1 -> ... -> p-1 -> 0."""
    return tuple((i + 1) % p for i in range(p))


def compose(a: Permutation, b: Permutation) -> Permutation:
    """(a o b)(i) = a(b(i))."""
    return tuple(a[b[i]] for i in range(len(a)))


def inverse(a: Permutation) -> Permutation:
    inv = [0] * len(a)
    for i, img in enumerate(a):
        inv[img] = i
    return tuple(inv)


def _cycles(a: Permutation) -> list[list[int]]:
    """The cycles of ``a``, each listed from its smallest element."""
    seen = [False] * len(a)
    cycles = []
    for start in range(len(a)):
        if seen[start]:
            continue
        cycle = []
        j = start
        while not seen[j]:
            seen[j] = True
            cycle.append(j)
            j = a[j]
        cycles.append(cycle)
    return cycles


def cycle_count(a: Permutation) -> int:
    return len(_cycles(a))


def is_geodesic(a: Permutation) -> bool:
    p = len(a)
    gamma = full_cycle(p)
    return cycle_count(a) + cycle_count(compose(inverse(a), gamma)) == p + 1


def _check_p(p: int) -> None:
    if not 1 <= p <= MAX_P:
        raise CombinatorialLimitError(f"p={p} outside the enumeration guard [1, {MAX_P}]")


@lru_cache(maxsize=None)
def enumerate_nc(p: int) -> tuple[Permutation, ...]:
    """All geodesic permutations of ``{0..p-1}``, lexicographic one-line order.

    The count equals ``catalan(p)``.
    """
    _check_p(p)
    return tuple(
        perm for perm in itertools.permutations(range(p)) if is_geodesic(perm)
    )


def catalan(p: int) -> int:
    return math.comb(2 * p, p) // (p + 1)


def catalan_bound(p: int, k: int) -> int:
    """Ceiling ``catalan(p) ** k`` for the size of any moment coefficient set."""
    if p < 1 or k < 1:
        raise ValidationError("p and k must be positive")
    return catalan(p) ** k


def narayana(p: int, k: int) -> int:
    """Number of non-crossing partitions of {1..p} with k blocks."""
    return math.comb(p, k) * math.comb(p, k - 1) // p


def fuss_catalan(p: int, length: int) -> int:
    """Closed form for the number of length-``length`` multichains in the
    non-crossing lattice: binom((length+1) p, p) / (length p + 1)."""
    return math.comb((length + 1) * p, p) // (length * p + 1)


def mp_moment(c, p: int):
    """p-th moment of the Marchenko-Pastur distribution.

    Evaluates ``sum_k narayana(p, k) c^k`` (the non-crossing partition sum),
    which keeps exact types exact: a ``Fraction`` argument yields a
    ``Fraction``.
    """
    if not 1 <= p <= MAX_P:
        raise ValidationError(f"moment order p={p} outside [1, {MAX_P}]")
    return sum(narayana(p, k) * c ** k for k in range(1, p + 1))


def to_partition(a: Permutation) -> frozenset[frozenset[int]]:
    """Cycle supports of a geodesic permutation, i.e. its blocks."""
    return frozenset(frozenset(c) for c in _cycles(a))


def refines(a: Permutation, b: Permutation) -> bool:
    """True iff the partition of ``a`` refines the partition of ``b``."""
    owner = {}
    for idx, block in enumerate(to_partition(b)):
        for x in block:
            owner[x] = idx
    for block in to_partition(a):
        owners = {owner[x] for x in block}
        if len(owners) != 1:
            return False
    return True


@lru_cache(maxsize=None)
def _leq_matrix(p: int) -> tuple[tuple[bool, ...], ...]:
    elements = enumerate_nc(p)
    return tuple(
        tuple(refines(a, b) for b in elements) for a in elements
    )


def count_multichains(p: int, length: int) -> int:
    """Number of multichains ``x_1 <= ... <= x_length`` in the non-crossing
    lattice, counted directly over the enumerated order.

    The closed form :func:`fuss_catalan` is kept as an independent route and
    cross-checked in the test suite.
    """
    _check_p(p)
    if length < 1:
        raise ValidationError("multichain length must be >= 1")
    leq = _leq_matrix(p)
    n = len(leq)
    counts = [1] * n
    for _ in range(length - 1):
        counts = [
            sum(counts[i] for i in range(n) if leq[i][j]) for j in range(n)
        ]
    return sum(counts)


# -- moment coefficients for the worked cases --------------------------------


def edges_between(g: Graph, v: str, w: str) -> tuple[int, ...]:
    """Indices of non-loop edges joining two distinct vertices."""
    if v == w:
        return ()
    pair = {v, w}
    return tuple(i for i, e in enumerate(g.edges) if {e.u, e.v} == pair)


def case_B(case: str, p: int) -> list[tuple[Permutation, ...]]:
    """Explicit permutation tuples (one per graph vertex, document order)
    for the supported worked cases.

    ``single_loop`` has one free geodesic element; ``black_hole`` pins the
    fully traced end to the identity and the fully surviving end to the full
    cycle around a free middle element; ``oxygen`` forces both vertices to
    share one free element.  All three sets have ``catalan(p)`` tuples.
    """
    _check_p(p)
    free = enumerate_nc(p)
    if case == "single_loop":
        return [(beta,) for beta in free]
    if case == "black_hole":
        e, g = identity(p), full_cycle(p)
        return [(e, beta, g) for beta in free]
    if case == "oxygen":
        return [(beta, beta) for beta in free]
    raise ValidationError(f"unsupported case label {case!r}")


def moment_from_B(B: Iterable[Sequence[Permutation]], marginal: Marginal,
                  p: int) -> Fraction:
    """Leading moment coefficient for an explicit permutation set.

    For each tuple ``(b_1 .. b_k)`` (one permutation per vertex, document
    order) the contribution is::

        prod_i dS_i^#(g^-1 b_i) * prod_i dT_i^#(b_i)
        * prod_{i<j} dE_ij^(#(b_i^-1 b_j) - p) * prod_i dC_i^-p

    where ``dS_i``/``dT_i`` are the products of leg ratios over surviving
    and traced legs of vertex ``i``, ``dE_ij`` the product of edge ratios
    between vertices ``i`` and ``j``, and ``dC_i = dS_i * dT_i``.  The sum
    over the tuples is the coefficient of ``N^(-X (p-1))`` in the asymptotic
    moment, as an exact rational.
    """
    _check_p(p)
    g = marginal.graph
    k = len(g.vertices)
    traced = marginal.traced

    d_s = []
    d_t = []
    for v in g.vertices:
        s_prod = t_prod = 1
        for leg_id in g.legs_of(v):
            if leg_id in traced:
                t_prod *= g.leg(leg_id).ratio
            else:
                s_prod *= g.leg(leg_id).ratio
        d_s.append(s_prod)
        d_t.append(t_prod)
    d_c = [a * b for a, b in zip(d_s, d_t)]
    d_e = {}
    for i, v in enumerate(g.vertices):
        for j in range(i + 1, k):
            prod = 1
            for edge_index in edges_between(g, v, g.vertices[j]):
                prod *= g.edges[edge_index].d
            d_e[(i, j)] = prod

    gamma = full_cycle(p)
    total = Fraction(0)
    for tup in B:
        if len(tup) != k:
            raise ValidationError(
                f"tuple arity {len(tup)} does not match vertex count {k}"
            )
        for beta in tup:
            if len(beta) != p or sorted(beta) != list(range(p)):
                raise ValidationError(f"{beta!r} is not a permutation of 0..{p - 1}")
        term = Fraction(1)
        for i, beta in enumerate(tup):
            term *= Fraction(d_s[i]) ** cycle_count(compose(inverse(gamma), beta))
            term *= Fraction(d_t[i]) ** cycle_count(beta)
            term *= Fraction(d_c[i]) ** (-p)
        for (i, j), ratio in d_e.items():
            exponent = cycle_count(compose(inverse(tup[i]), tup[j])) - p
            term *= Fraction(ratio) ** exponent
        total += term
    return total
