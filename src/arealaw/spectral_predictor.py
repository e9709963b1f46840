"""Closed-form and numerical entropy predictions.

The Marchenko-Pastur family drives every known correction: ``mp_xlogx``
gives ``integral x ln x dpi_c``, and ``_page_correction`` the O(1) deficit
``Dmin / (2 Dmax)`` of Page's mean entropy of an induced random state,
``ln(Dmin) - Dmin / (2 Dmax)``, from which every case takes its correction.

``predict_entropy`` reads every case off the marginal's kept flow, as in the
domain-wall picture of random tensor networks (Hayden et al.,
arXiv:1601.01694): the leading term ``X ln N + ln min(a, b)`` is the rank
bound of the tighter of the two extremal minimum cuts, ``a`` and ``b`` being
their ratio products, and the O(1) correction is ``_page_correction(a, b)``
when the two cuts compete through an acted vertex, 0 otherwise.  The
dispatch only names the case: adapted partitions are exact and
deterministic; a single loop, a unique surviving vertex, the two-edge path
and the double-edge topologies have known corrections; everything else is
generic, with an unknown constant below its leading term.  All stored
entropies are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .boundary_flow import build_network, max_flow
from .errors import ValidationError
from .graph_model import Marginal, check_integer, is_adapted


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


def _detect_template(marginal: Marginal) -> str | None:
    """The two-edge path with one traced leg at its middle vertex and one at
    an end, or the double edge with one traced leg at each vertex; returns
    the case name or None."""
    g = marginal.graph
    if len(g.edges) != 2 or any(e.u == e.v for e in g.edges):
        return None
    traced = [g.leg(l) for l in marginal.traced]
    if len(traced) != 2:
        return None
    same_edge = traced[0].edge == traced[1].edge
    if len(g.vertices) == 3 and sorted(g.degree(l.vertex) for l in traced) == [1, 2]:
        return "black_hole_1" if same_edge else "black_hole_2"
    if len(g.vertices) == 2 and traced[0].vertex != traced[1].vertex:
        return "oxygen_1" if same_edge else "oxygen_2"
    return None


def _case(marginal: Marginal) -> str:
    """The most specific known case: adapted, single loop, unique surviving
    vertex, path / double-edge template, generic."""
    g = marginal.graph
    if is_adapted(marginal):
        return "adapted"
    if len(g.vertices) == 1 and len(g.edges) == 1 and marginal.s(g.vertices[0]) == 1:
        return "single_loop"
    if sum(1 for v in g.vertices if marginal.s(v) > 0) == 1:
        return "one_vertex"
    return _detect_template(marginal) or "generic"


def _cut_reading(marginal: Marginal) -> tuple[int, int, int, bool]:
    """What the marginal's kept flow says: its value, the ratio products of
    its smallest and its largest minimum cut, and whether an acted vertex
    (one the partition crosses, whose unitary a sample does not skip) lies
    between the two cuts.

    A cut's product runs over what the cut counts: the surviving legs on its
    source side, the traced legs off it and the edges leaving it.  With the
    cut's ``X ln N`` its log is the log of the cut's dimension, which bounds
    the rank of the marginal.
    """
    g = marginal.graph
    flow = max_flow(build_network(marginal))
    traced = marginal.traced

    def product(cut) -> int:
        side = set(cut)
        return math.prod(
            [leg.ratio for leg in g.legs
             if (leg.vertex in side) != (leg.leg_id in traced)]
            + [e.d for e in g.edges if (e.u in side) != (e.v in side)])

    if not flow.cut_tied:
        a = product(flow.cut)
        return flow.value, a, a, False
    between = set(flow.cut_max).difference(flow.cut)
    acted = not marginal.crossed.isdisjoint(between)
    return flow.value, product(flow.cut), product(flow.cut_max), acted


def predict_entropy(marginal: Marginal, N: int) -> EntropyPrediction:
    """Predict a marginal's mean entropy by the one cut rule of the module
    docstring; the generic case leaves the correction unknown (``None``),
    and only the adapted case is exact."""
    check_integer(N, 2, "N must be at least 2")
    case = _case(marginal)
    area, a, b, acted = _cut_reading(marginal)
    if case == "generic":
        correction = None
    else:
        correction = _page_correction(a, b) if acted else 0.0
    return EntropyPrediction(
        case=case, leading_area=area, leading_offset=math.log(min(a, b)),
        correction=correction, exact=case == "adapted",
    )
