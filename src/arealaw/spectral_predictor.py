"""Closed-form and numerical entropy predictions.

The Marchenko-Pastur family drives every known correction: ``mp_moment``
gives its moments (the tests check them against quadrature), ``mp_xlogx``
the value of ``integral x ln x dpi_c``, and ``_page_correction`` the O(1)
deficit ``Dmin / (2 Dmax)`` of Page's mean entropy of an induced random
state, ``ln(Dmin) - Dmin / (2 Dmax)``, from which every case takes its
correction.

``predict_entropy`` dispatches a marginal to its most specific known case:
adapted partitions are exact and deterministic; a unique surviving vertex,
the two-edge path and the double-edge topologies have closed corrections;
everything else falls back to the generic leading term, the log of the
minimum cut's dimension (boundary area times ``ln N`` plus the ``ln d`` of
the cut's legs and edges), with an unknown constant below it.  All stored
entropies are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .boundary_flow import build_network, min_cut
from .errors import ValidationError
from .graph_model import Marginal, is_adapted


def mp_moment(c, p: int):
    """p-th moment of the Marchenko-Pastur distribution.

    Evaluates ``sum_k narayana(p, k) c^k`` (the non-crossing partition sum),
    which keeps exact types exact: a ``Fraction`` argument yields a
    ``Fraction``.  No command calls it, so :mod:`arealaw.nc_combinatorics`
    loads only here.
    """
    from .nc_combinatorics import MAX_P, narayana

    if not 1 <= p <= MAX_P:
        raise ValidationError(f"moment order p={p} outside [1, {MAX_P}]")
    return sum(narayana(p, k) * c ** k for k in range(1, p + 1))


def mp_xlogx(c: float) -> float:
    """Closed form of ``integral x ln x dpi_c(x)`` (natural log):
    ``1/2 + c ln c`` for ``c >= 1`` and ``c^2 / 2`` for ``0 < c < 1``."""
    if c <= 0:
        raise ValidationError("Marchenko-Pastur parameter must be positive")
    if c >= 1:
        return 0.5 + c * math.log(c)
    return 0.5 * c * c


def _page_correction(scale_a: float, scale_b: float) -> float:
    """O(1) entropy deficit for two effective dimensions growing at the same
    rate in N with constant prefactors ``scale_a``/``scale_b``: routed
    through :func:`mp_xlogx` with the ratio as the parameter."""
    c = min(scale_a, scale_b) / max(scale_a, scale_b)
    return mp_xlogx(c) / c


@dataclass(frozen=True)
class EntropyPrediction:
    """Mean-entropy prediction ``area * ln N + offset - correction``.

    ``correction`` is ``None`` when only the leading term is known;
    ``exact`` marks predictions that hold deterministically at every N.
    """

    case: str
    leading_area: int
    leading_offset: float  # nats
    correction: float | None  # nats, None = unknown
    exact: bool

    def value(self, N: int) -> float:
        """Predicted mean entropy in nats (leading term only if the
        correction is unknown)."""
        base = self.leading_area * math.log(N) + self.leading_offset
        return base - (self.correction or 0.0)

    def to_document(self) -> dict:
        return {
            "case": self.case,
            "leading_area": self.leading_area,
            "leading_offset_nats": self.leading_offset,
            "correction_nats": self.correction,
            "exact": self.exact,
        }


def crossing_edges(marginal: Marginal) -> tuple[int, ...]:
    """Edges joining a fully traced vertex to a fully surviving one."""
    g = marginal.graph
    fully_traced = {v for v in g.vertices if marginal.s(v) == 0}
    fully_surviving = {v for v in g.vertices if marginal.t(v) == 0}
    return tuple(
        i for i, e in enumerate(g.edges)
        if (e.u in fully_traced and e.v in fully_surviving)
        or (e.u in fully_surviving and e.v in fully_traced)
    )


def _detect_template(marginal: Marginal):
    """Structural match for the two-edge path and double-edge topologies
    with their two-leg trace patterns; returns (case, d_traced_side, d_other)
    or None."""
    g = marginal.graph
    traced = marginal.completed_traced_legs()
    if len(g.edges) != 2 or len(traced) != 2:
        return None
    if any(e.u == e.v for e in g.edges):
        return None

    if len(g.vertices) == 3:
        degrees = sorted(g.degree(v) for v in g.vertices)
        if degrees != [1, 1, 2]:
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
        if g.multiplicity(*g.vertices) != 2:
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


def _cut_log_ratio(marginal: Marginal, cut) -> float:
    """Sum of ``ln d`` over what a flow's cut counts: the surviving legs on
    its source side, the traced legs off it and the edges leaving it.  With
    the cut's ``X ln N`` this is the log of the cut's dimension, which
    bounds the rank of the marginal."""
    g = marginal.graph
    side = set(cut)
    traced = marginal.completed_traced_legs()
    return math.fsum(
        [math.log(leg.ratio) for leg in g.legs
         if (leg.vertex in side) != (leg.leg_id in traced)]
        + [math.log(e.d) for e in g.edges if (e.u in side) != (e.v in side)])


def predict_entropy(marginal: Marginal, N: int) -> EntropyPrediction:
    """Dispatch a marginal to its most specific known prediction.

    Case priority: adapted, single loop, unique surviving vertex, path /
    double-edge template, generic.  The leading area always equals the
    maximal flow of the marginal's network; the generic case reads the
    minimum cut of the network the marginal keeps, so it reuses a flow
    already solved for the same marginal.  Its offset is the log of the
    ratios that cut counts, so the generic leading term is the rank bound of
    the cut (the offset is 0 when every ratio is 1).
    """
    if N < 2:
        raise ValidationError("N must be at least 2")
    g = marginal.graph

    if is_adapted(marginal):
        edges = crossing_edges(marginal)
        offset = math.fsum(math.log(g.edges[i].d) for i in edges)
        return EntropyPrediction(
            case="adapted", leading_area=len(edges), leading_offset=offset,
            correction=0.0, exact=True,
        )

    if len(g.vertices) == 1 and len(g.edges) == 1 and marginal.s(g.vertices[0]) == 1:
        d = g.edges[0].d
        return EntropyPrediction(
            case="single_loop", leading_area=1, leading_offset=math.log(d),
            correction=_page_correction(1.0, 1.0), exact=False,
        )

    surviving_vertices = [v for v in g.vertices if marginal.s(v) > 0]
    if len(surviving_vertices) == 1:
        v = surviving_vertices[0]
        traced = marginal.completed_traced_legs()
        n_s = marginal.s(v)
        n_t = marginal.t(v)
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
        return EntropyPrediction(
            case="one_vertex", leading_area=area, leading_offset=offset,
            correction=corr, exact=False,
        )

    template = _detect_template(marginal)
    if template is not None:
        case, da, db = template
        if case.endswith("_1"):
            offset = 2.0 * math.log(min(da, db))
            corr = _page_correction(da * da, db * db)  # min^2 / (2 max^2)
        else:
            offset = math.log(da * db)
            corr = _page_correction(1.0, 1.0)
        return EntropyPrediction(
            case=case, leading_area=2, leading_offset=offset,
            correction=corr, exact=False,
        )

    cut = min_cut(build_network(marginal))
    return EntropyPrediction(
        case="generic", leading_area=cut.capacity,
        leading_offset=_cut_log_ratio(marginal, cut.source_side),
        correction=None, exact=False,
    )
