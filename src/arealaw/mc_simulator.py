"""Monte Carlo realization of the random graph-state ensemble.

A state is the tensor product of one maximally entangled pair per edge with
an independent Haar-random unitary applied at each vertex; a marginal traces
out the selected legs.  The state is a tensor network shaped like the graph,
built by one ``einsum`` contraction of the vertex unitaries along the edges
straight into its (surviving x traced) factor; the greedy contraction order
keeps every intermediate within the size of the state or of the largest
unitary.  The reduced density matrix is never formed: every spectrum is
``eigvalsh`` of the smaller Gram matrix of the factor, the only
min(ds, dt)^2 matrix built.  One routine summarises a spectrum and one
builds the ``MCReport`` from the summaries.

Determinism contract: every sample derives its own generator from
``(seed, sample_index)`` and every vertex from ``(seed, sample_index,
vertex_slot)``, so results do not depend on execution order, parallelism or
which vertices are skipped.  Aggregation uses exact summation in sample
order.  Cross-platform bit-equality is not promised (eigensolvers).
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AreaLawError, ResourceGuardError, ValidationError
from .graph_model import Marginal
from .spectral_predictor import mp_moment

DEFAULT_STATE_DIM_LIMIT = 2 ** 24
DEFAULT_HAAR_DIM_LIMIT = 4096

#: Normative numeric thresholds for spectra.
EIGENVALUE_CLIP_REL = 1e-12
RANK_THRESHOLD_REL = 1e-9

NUMERICS_DISCLAIMER = (
    "deterministic for fixed (seed, inputs, build); floating-point "
    "eigensolvers may differ across platforms or BLAS builds"
)


def _env_limit(name: str, default: int) -> int:
    """Positive integer guard from the environment, read at call time."""
    raw = os.environ.get(name, str(default))
    if not (raw.isdecimal() and int(raw) >= 1):
        raise ValidationError(f"{name} must be a positive integer, got {raw!r}")
    return int(raw)


def state_dim_limit() -> int:
    return _env_limit("AREALAW_STATE_DIM_LIMIT", DEFAULT_STATE_DIM_LIMIT)


def haar_dim_limit() -> int:
    return _env_limit("AREALAW_HAAR_DIM_LIMIT", DEFAULT_HAAR_DIM_LIMIT)


def _check_haar_dim(dim: int, what: str = "Haar dimension") -> None:
    limit = haar_dim_limit()
    if dim > limit:
        raise ResourceGuardError(
            f"{what} {dim} exceeds the guard {limit} "
            "(set AREALAW_HAAR_DIM_LIMIT to override)"
        )


def _state_dims(marginal: Marginal, N: int) -> tuple[int, ...]:
    """Leg dimensions of the dense state, once ``N`` and the total state
    dimension have passed their guards."""
    if N < 2:
        raise ValidationError("N must be at least 2")
    dims = leg_dimensions(marginal, N)
    total = math.prod(dims)
    limit = state_dim_limit()
    if total > limit:
        raise ResourceGuardError(
            f"state dimension {total} exceeds the guard {limit} "
            "(set AREALAW_STATE_DIM_LIMIT to override)"
        )
    return dims


def _renyi_orders(q_list: Sequence[float]) -> tuple[float, ...]:
    orders = tuple(float(q) for q in q_list)
    if not all(0.0 <= q < math.inf for q in orders):
        raise ValidationError("Renyi orders must be finite and non-negative")
    return orders


def _check_seed(seed: int) -> None:
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValidationError(f"seed must be an integer >= 0, got {seed!r}")


def ginibre(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Matrix of i.i.d. standard complex Gaussian entries."""
    return (rng.standard_normal((rows, cols))
            + 1j * rng.standard_normal((rows, cols))) / math.sqrt(2.0)


def haar_unitary(dim: int, rng: np.random.Generator,
                 size: int | None = None) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix.

    The triangular factor's diagonal is normalized to positive reals (phase
    correction); without it the factorization is not measure-correct.
    ``size`` stacks independent samples along a leading axis.
    """
    if dim < 1:
        raise ValidationError("unitary dimension must be positive")
    _check_haar_dim(dim)
    shape = (dim, dim) if size is None else (size, dim, dim)
    z = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.einsum("...ii->...i", r)
    phases = diag / np.abs(diag)
    return q * phases[..., None, :]


def leg_dimensions(marginal: Marginal, N: int) -> tuple[int, ...]:
    """Per-leg Hilbert space dimensions ``d_e * N`` in leg order."""
    return tuple(leg.ratio * N for leg in marginal.graph.legs)


@dataclass(frozen=True, eq=False)
class ReducedState:
    """Reduced density operator of a pure graph state.

    ``factor`` is the pure state contracted straight into (surviving x
    traced) shape; the density matrix is ``factor @ factor^dagger`` and is
    never formed, since the smaller Gram matrix of the factor carries its
    whole nonzero spectrum.
    """

    factor: np.ndarray
    surviving_legs: tuple[int, ...]
    flags: tuple[str, ...]

    @property
    def dim(self) -> int:
        return self.factor.shape[0]


@dataclass(frozen=True, eq=False)
class SpectralReport:
    eigenvalues: np.ndarray           # descending, length = surviving dim
    entropy: float                    # von Neumann, nats
    renyi: dict[float, float]
    rank: int


@dataclass(frozen=True, eq=False)
class MCReport:
    samples: int
    mean_H: float
    stderr_H: float
    per_sample_H: tuple[float, ...]
    renyi_mean: dict[float, float]
    ranks: tuple[int, ...]
    spectra: tuple[np.ndarray, ...]
    seed: int
    N: int
    flags: tuple[str, ...]
    disclaimer: str = NUMERICS_DISCLAIMER

    def to_document(self) -> dict:
        return {
            "samples": self.samples,
            "seed": self.seed,
            "N": self.N,
            "mean_H_nats": self.mean_H,
            "stderr_H": self.stderr_H,
            "per_sample_H": list(self.per_sample_H),
            "renyi_mean": {str(q): v for q, v in self.renyi_mean.items()},
            "flags": list(self.flags),
            "numerics": self.disclaimer,
        }


def _resolve_unitary_spec(marginal: Marginal, unitaries) -> dict[str, object]:
    vertices = marginal.graph.vertices
    if unitaries is None:
        return {v: "sample" for v in vertices}
    if isinstance(unitaries, str):
        if unitaries not in ("sample", "identity"):
            raise ValidationError(f"unknown unitary mode {unitaries!r}")
        return {v: unitaries for v in vertices}
    resolved = {}
    for v in vertices:
        resolved[v] = unitaries.get(v, "sample")
    for v in unitaries:
        if v not in resolved:
            raise ValidationError(f"unitary given for unknown vertex {v!r}")
    return resolved


def build_reduced_state(marginal: Marginal, N: int, unitaries=None,
                        rng: np.random.Generator | None = None, *,
                        skip_traced: bool = True, skip_surviving: bool = True,
                        vector_fast_path: bool = True) -> ReducedState:
    """Build the pure graph state and trace out the traced legs.

    ``unitaries`` is ``"sample"`` (default), ``"identity"``, or a mapping
    from vertex to a matrix or one of those strings.  Sampled unitaries on
    fully traced vertices are skipped (the partial trace absorbs them
    exactly); on fully surviving vertices they are skipped when
    ``skip_surviving`` is set (spectrum-invariant).  Both skips are recorded
    in the flags, as is the single-vertex fast path, which replaces
    "fixed state + Haar unitary" by a uniformly random state vector.

    Otherwise the state is one ``einsum`` contraction of the vertex
    unitaries, each reshaped to (out legs..., in legs...), along the edges:
    both in-slots of an edge share one label (a loop takes the diagonal),
    a leg whose vertex has no unitary is its edge's in-slot itself, and an
    edge with neither endpoint acted on is an identity.  Output labels come
    in (surviving, traced) order, so the result reshapes to the factor.
    """
    g = marginal.graph
    dims = _state_dims(marginal, N)
    spec = _resolve_unitary_spec(marginal, unitaries)
    traced = sorted(marginal.completed_traced_legs())
    surviving = [l for l in range(g.n_legs) if l not in set(traced)]
    ds = math.prod(dims[l] for l in surviving)
    dt = math.prod(dims[l] for l in traced)
    if rng is None:
        rng = np.random.default_rng()
    streams = rng.spawn(len(g.vertices) + 1)

    flags: list[str] = []
    needs_sampling = [
        v for v in g.vertices if isinstance(spec[v], str) and spec[v] == "sample"
    ]
    if (vector_fast_path and len(g.vertices) == 1
            and needs_sampling == list(g.vertices)):
        # a Haar unitary applied to any fixed vector is a uniform vector
        vec = ginibre(ds * dt, 1, streams[-1])[:, 0]
        psi = (vec / np.linalg.norm(vec)).reshape(dims)
        factor = psi.transpose(surviving + traced).reshape(ds, dt)
        flags.append("vector_path")
    else:
        acted: dict[str, np.ndarray] = {}
        for slot, v in enumerate(g.vertices):
            action = spec[v]
            vdim = math.prod(dims[l] for l in g.legs_of(v))
            if isinstance(action, str):
                if action == "identity":
                    flags.append(f"identity:{v}")
                    continue
                all_traced = marginal.s(v) == 0
                all_surviving = marginal.t(v) == 0
                if all_traced and skip_traced:
                    flags.append(f"skipped_traced:{v}")
                    continue
                if all_surviving and skip_surviving:
                    flags.append(f"skipped_surviving:{v}")
                    continue
                acted[v] = haar_unitary(vdim, streams[slot])
            else:
                matrix = np.asarray(action, dtype=complex)
                if matrix.shape != (vdim, vdim):
                    raise ValidationError(
                        f"unitary for vertex {v!r} has shape {matrix.shape}, "
                        f"expected {(vdim, vdim)}"
                    )
                defect = np.abs(matrix.conj().T @ matrix - np.eye(vdim)).max()
                if defect > 1e-8:
                    raise ValidationError(f"matrix for vertex {v!r} is not unitary")
                acted[v] = matrix
        # labels: leg l's output is l, edge e's shared in-slot is n_legs + e
        operands: list = []
        for v, matrix in acted.items():
            legs = g.legs_of(v)
            operands += [
                matrix.reshape([dims[l] for l in legs] * 2),
                list(legs) + [g.n_legs + g.legs[l].edge for l in legs],
            ]
        label = [leg.leg_id if leg.vertex in acted else g.n_legs + leg.edge
                 for leg in g.legs]
        for e, edge in enumerate(g.edges):
            if edge.u not in acted and edge.v not in acted:
                label[2 * e], label[2 * e + 1] = 2 * e, 2 * e + 1
                operands += [np.eye(dims[2 * e]), [2 * e, 2 * e + 1]]
        psi = np.einsum(*operands, [label[l] for l in surviving + traced],
                        optimize=True)
        factor = psi.reshape(ds, dt)
        factor *= math.prod(dims[::2]) ** -0.5

    norm = np.linalg.norm(factor) ** 2
    if abs(norm - 1.0) > 1e-10:
        raise ValidationError(f"state normalization drifted to {norm}")
    return ReducedState(
        factor=factor, surviving_legs=tuple(surviving), flags=tuple(flags),
    )


def _spectrum_from_factor(factor: np.ndarray) -> np.ndarray:
    """Eigenvalues of ``factor factor^dagger`` padded with the structural
    zeros, descending.

    ``eigvalsh`` runs on the smaller Gram matrix, ``F F^dagger`` or
    ``F^dagger F``; both share the nonzero spectrum.
    """
    ds, dt = factor.shape
    gram = factor @ factor.conj().T if ds <= dt else factor.conj().T @ factor
    try:
        values = np.linalg.eigvalsh(gram)
    except np.linalg.LinAlgError as exc:
        scale = float(np.abs(factor).max())
        raise AreaLawError(
            f"eigensolver failed on a {factor.shape} factor "
            f"(max magnitude {scale:.3e}): {exc}"
        ) from exc
    eig = np.zeros(ds)
    eig[: values.shape[0]] = values
    eig[::-1].sort()
    return eig


def spectral_report(state: ReducedState,
                    q_list: Sequence[float] = (0.0, 1.0, 2.0)) -> SpectralReport:
    """Spectrum, von Neumann and Renyi entropies of a reduced state."""
    return _summarize_spectrum(_spectrum_from_factor(state.factor), q_list)


def _summarize_spectrum(eig: np.ndarray,
                        q_list: Sequence[float]) -> SpectralReport:
    """Entropies and rank of a descending spectrum of unit trace.

    Eigenvalues below ``EIGENVALUE_CLIP_REL`` (relative to the largest) are
    clamped to zero in place; the numerical rank uses ``RANK_THRESHOLD_REL``.
    ``q = 1`` is the von Neumann entropy, ``q = 0`` is ``ln rank``.
    """
    q_list = _renyi_orders(q_list)
    top = eig[0] if eig.size else 0.0
    eig[eig < EIGENVALUE_CLIP_REL * top] = 0.0
    rank = int(np.count_nonzero(eig > RANK_THRESHOLD_REL * top))
    positive = eig[eig > 0]
    entropy = float(-np.sum(positive * np.log(positive))) if positive.size else 0.0
    renyi: dict[float, float] = {}
    for q in q_list:
        if q == 0.0:
            renyi[q] = math.log(rank) if rank else 0.0
        elif q == 1.0:
            renyi[q] = entropy
        else:
            renyi[q] = float(np.log(np.sum(positive ** q)) / (1.0 - q))
    return SpectralReport(eigenvalues=eig, entropy=entropy, renyi=renyi, rank=rank)


def _experiment_sample(payload):
    """One Monte Carlo sample; top level so process pools can pickle it."""
    marginal, N, seed, index, q_list, skip_traced, skip_surviving = payload
    rng = np.random.default_rng([seed, index])
    state = build_reduced_state(
        marginal, N, None, rng,
        skip_traced=skip_traced, skip_surviving=skip_surviving,
    )
    return spectral_report(state, q_list), state.flags


def _mc_report(reports: Sequence[SpectralReport], flags: tuple[str, ...],
               seed: int, N: int, q_list: tuple[float, ...]) -> MCReport:
    """Aggregate per-sample summaries, in sample order, with exact sums."""
    samples = len(reports)
    entropies = tuple(r.entropy for r in reports)
    mean = math.fsum(entropies) / samples
    if samples > 1:
        var = math.fsum((h - mean) ** 2 for h in entropies) / (samples - 1)
        stderr = math.sqrt(var / samples)
    else:
        stderr = 0.0
    return MCReport(
        samples=samples, mean_H=mean, stderr_H=stderr, per_sample_H=entropies,
        renyi_mean={
            q: math.fsum(r.renyi[q] for r in reports) / samples for q in q_list
        },
        ranks=tuple(r.rank for r in reports),
        spectra=tuple(r.eigenvalues for r in reports),
        seed=seed, N=N, flags=flags,
    )


def run_experiment(marginal: Marginal, N: int, samples: int, seed: int,
                   q_list: Sequence[float] = (0.0, 1.0, 2.0), *,
                   jobs: int = 1, skip_traced: bool = True,
                   skip_surviving: bool = True) -> MCReport:
    """Estimate the mean entanglement entropy of a marginal.

    Per-sample generators derive from ``(seed, sample_index)``, so reports
    are reproducible and independent of ``jobs``.  Inputs and guards are
    checked before any sampling starts.
    """
    if samples < 1:
        raise ValidationError("need at least one sample")
    if jobs < 1:
        raise ValidationError(f"jobs must be at least 1, got {jobs}")
    _check_seed(seed)
    q_list = _renyi_orders(q_list)
    _check_guards(marginal, N)
    payloads = [
        (marginal, N, seed, i, q_list, skip_traced, skip_surviving)
        for i in range(samples)
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            raw = list(pool.map(_experiment_sample, payloads))
    else:
        raw = [_experiment_sample(p) for p in payloads]
    flags = tuple(sorted(set(flag for _, sample_flags in raw
                             for flag in sample_flags)))
    return _mc_report([report for report, _ in raw], flags, seed, N, q_list)


def _check_guards(marginal: Marginal, N: int) -> None:
    dims = _state_dims(marginal, N)
    g = marginal.graph
    if len(g.vertices) == 1:
        return  # the single-vertex fast path samples a vector, not a unitary
    for v in g.vertices:
        if marginal.s(v) == 0 or marginal.t(v) == 0:
            continue  # skipped vertices never sample a unitary
        vdim = math.prod(dims[l] for l in g.legs_of(v))
        _check_haar_dim(vdim, f"vertex {v!r} Haar dimension")


@dataclass(frozen=True)
class MomentDistances:
    orders: tuple[int, ...]
    empirical: tuple[float, ...]
    theoretical: tuple[float, ...]
    distances: tuple[float, ...]


def empirical_vs_mp(report: MCReport, c: float, rescale: float,
                    max_p: int = 4) -> MomentDistances:
    """Distance between the empirical rescaled spectral moments and the
    Marchenko-Pastur moments of parameter ``c``.

    The empirical measure of each sample puts mass ``1/dim`` on every
    rescaled eigenvalue (zeros included, carrying the atom); ``rescale`` is
    the case-prescribed power of ``N``.
    """
    orders = tuple(range(1, max_p + 1))
    empirical = []
    theoretical = []
    for p in orders:
        per_sample = [
            float(np.mean((rescale * spec) ** p)) for spec in report.spectra
        ]
        empirical.append(math.fsum(per_sample) / len(per_sample))
        theoretical.append(float(mp_moment(c, p)))
    distances = tuple(abs(e - t) for e, t in zip(empirical, theoretical))
    return MomentDistances(
        orders=orders, empirical=tuple(empirical),
        theoretical=tuple(theoretical), distances=distances,
    )


def sample_wishart_spectrum(dim_system: int, dim_environment: int,
                            rng: np.random.Generator) -> np.ndarray:
    """Spectrum of a trace-normalized Wishart state ``G G^dag / Tr``.

    Identical in distribution to the marginal of a uniformly random
    bipartite pure state with these two dimensions.
    """
    eig = _spectrum_from_factor(ginibre(dim_system, dim_environment, rng))
    eig /= eig.sum()
    return eig


def wishart_experiment(dim_system: int, dim_environment: int, samples: int,
                       seed: int,
                       q_list: Sequence[float] = (0.0, 1.0, 2.0)) -> MCReport:
    """Monte Carlo over Wishart-normalized states; the fast route for
    bipartite (single-edge) marginals with arbitrary dimensions."""
    if dim_system < 2 or dim_environment < 2:
        raise ValidationError("both dimensions must be at least 2")
    if samples < 1:
        raise ValidationError("need at least one sample")
    _check_seed(seed)
    q_list = _renyi_orders(q_list)
    reports = [
        _summarize_spectrum(sample_wishart_spectrum(
            dim_system, dim_environment, np.random.default_rng([seed, i])), q_list)
        for i in range(samples)
    ]
    return _mc_report(reports, ("wishart_path",), seed, dim_system, q_list)
