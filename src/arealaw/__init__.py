"""Boundary areas, entropy predictions and Monte Carlo checks for random
graph states.

The combinatorial layers (flow, markings, predictor, transport) load with the
package and need only the standard library.  The Monte Carlo names below
live in ``mc_simulator``, which needs numpy; they load on first access, so
``area``, ``predict`` and plain ``transport`` never import numpy.
"""

from importlib import import_module

from .boundary_flow import (
    FlowNetwork,
    FlowResult,
    MinCut,
    build_network,
    max_flow,
    min_cut,
)
from .errors import (
    AreaLawError,
    CertificateError,
    CombinatorialLimitError,
    InconsistencyError,
    InfeasibleError,
    ParseError,
    ResourceGuardError,
    UnknownCaseError,
    ValidationError,
)
from .graph_model import (
    Edge,
    Graph,
    Leg,
    Marginal,
    TraceSpec,
    is_adapted,
    parse_graph,
    parse_marginal,
    resolve_trace,
)
from .marking import (
    BruteForceArea,
    FattenedGraph,
    Marking,
    area_bruteforce,
    crossings,
    fatten,
    marking_from_flow,
)
from .nc_combinatorics import (
    case_B,
    catalan,
    catalan_bound,
    count_multichains,
    enumerate_nc,
    fuss_catalan,
    moment_from_B,
)
from .spectral_predictor import (
    EntropyPrediction,
    MPParams,
    limit_correction,
    mp_moment,
    mp_xlogx,
    page_entropy,
    predict_entropy,
)
from .transport import (
    RoutingPlan,
    TransportCertificate,
    TransportInstance,
    certify,
    parse_instance,
    routing,
    scenarios,
    to_marginal,
)

__version__ = "0.1.0"

_MONTE_CARLO = frozenset({
    "MCReport",
    "ReducedState",
    "SpectralReport",
    "build_reduced_state",
    "empirical_vs_mp",
    "haar_unitary",
    "run_experiment",
    "spectral_report",
    "wishart_experiment",
})


def __getattr__(name: str):
    """The Monte Carlo names and ``mc_simulator`` itself, imported on first
    access and read from the module each time (so a patched function is
    seen)."""
    if name == "mc_simulator" or name in _MONTE_CARLO:
        module = import_module(".mc_simulator", __name__)
        return module if name == "mc_simulator" else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), "mc_simulator", *_MONTE_CARLO})
