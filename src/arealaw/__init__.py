"""Boundary areas, entropy predictions and Monte Carlo checks for random
graph states."""

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
from .mc_simulator import (
    MCReport,
    ReducedState,
    SpectralReport,
    build_reduced_state,
    empirical_vs_mp,
    haar_unitary,
    run_experiment,
    spectral_report,
    wishart_experiment,
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
