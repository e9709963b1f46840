"""Boundary areas, entropy predictions and Monte Carlo checks for random
graph states.

Importing the package loads none of its layers.  Every export below, and
every submodule, is resolved through ``_EXPORTS`` on first access and read
from its module each time (so a patched function is seen).  The CLI imports
the layers each command runs when the command runs: ``area``, ``predict``
and plain ``transport`` need only the standard library, and only
``simulate``, ``verify`` and ``transport --certify`` load numpy (through
``mc_simulator``).
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "boundary_flow": (
        "FlowResult", "MinCut", "build_network", "max_flow", "min_cut",
    ),
    "cli": (),
    "errors": (
        "AreaLawError", "CertificateError", "CombinatorialLimitError",
        "InconsistencyError", "InfeasibleError", "ParseError",
        "ResourceGuardError", "ValidationError",
    ),
    "graph_model": (
        "Edge", "Graph", "Leg", "Marginal", "is_adapted", "parse_marginal",
    ),
    "marking": (
        "BruteForceArea", "Marking", "area_bruteforce", "marking_from_flow",
    ),
    "mc_simulator": (
        "MCReport", "run_experiment",
    ),
    "spectral_predictor": (
        "EntropyPrediction", "mp_xlogx", "predict_entropy",
    ),
    "transport": (
        "RoutingPlan", "TransportCertificate", "TransportInstance", "certify",
        "parse_instance", "routing", "scenarios", "to_marginal",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """An export, or a submodule, imported on first access."""
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_HOME})
