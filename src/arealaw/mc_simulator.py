"""Monte Carlo realization of the random graph-state ensemble.

A state is the tensor product of one maximally entangled pair per edge with
an independent Haar-random unitary applied at each vertex; a marginal traces
out the selected legs.  At a loop the unitary meets only the fixed pair, so
each acted vertex enters as the Haar isometry ``U_v (|Phi>_loops x 1)``, of
size ``vdim x r_v`` with ``r_v`` the product of its non-loop leg dimensions
(a vertex with no loop draws its full unitary).  Neither the state nor the
reduced density matrix is formed: a contraction of the doubled network
(the isometries on the ket, their conjugates on the bra, the legs of the
larger side shared, those of the smaller side left open) lands straight on
the min(ds, dt)-sided Gram matrix, whose nonzero spectrum is that of the
reduced state.  The labels, reshapes and greedy contraction path depend
only on the graph, the traced legs, ``N`` and which vertices act, so they
form a plan built once and memoised, with the path planned here on integer
labels and compiled into pairwise ``matmul`` steps.  The plan holds only
sizes and steps, no array (an identity edge is its dimension), so the
state-dimension guard, the one size refusal, bounds the largest array a
sample takes or builds (each isometry among them) before anything is
allocated.  A run resolves its plan and checks the guard once, then ships
the plan to its samples in contiguous chunks: a chunk draws, contracts and
diagonalises its samples together on a leading sample axis, each sample
meeting the same matrix products as it would alone.  Every
spectrum, sampled or of the identity state a transport certificate checks,
comes from :func:`run_experiment` on that one route, a vertex carrying only
loops included (its isometry is one Haar column, so its marginal is Page's
induced ensemble).  A spectrum keeps the ``min(ds, dt)`` eigenvalues of the
Gram side it is computed at; the ``ds - min(ds, dt)`` structural zeros of
the reduced state are not stored, and ``MCReport.dim`` records ``ds``.  One
routine summarises a spectrum and one builds the ``MCReport`` from the
summaries.

Determinism contract: every sample derives its own generator from
``(seed, sample_index)`` and every vertex from ``(seed, sample_index,
vertex_slot)``, so results do not depend on execution order, chunking,
parallelism or which vertices are skipped.  Aggregation uses exact
summation in sample order.  Cross-platform bit-equality is not promised
(eigensolvers).
"""
from __future__ import annotations

import math
import numbers
import os
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain, combinations
from typing import Sequence

import numpy as np

from .errors import (AreaLawError, InconsistencyError, ResourceGuardError,
                     ValidationError)
from .graph_model import Graph, Marginal

DEFAULT_STATE_DIM_LIMIT = 2 ** 24
#: Elements a Monte Carlo chunk stacks: it holds
#: ``max(1, CHUNK_ELEMENTS // largest)`` samples.
CHUNK_ELEMENTS = 2 ** 14

#: Normative numeric thresholds for spectra.
EIGENVALUE_CLIP_REL = 1e-12
RANK_THRESHOLD_REL = 1e-9

NUMERICS_DISCLAIMER = (
    "deterministic for fixed (seed, inputs, build); floating-point "
    "eigensolvers may differ across platforms or BLAS builds"
)


def _check_size(size: int, what: str) -> None:
    """Refuse ``size`` elements above the state guard, the positive integer
    ``AREALAW_STATE_DIM_LIMIT`` read from the environment at call time."""
    raw = os.environ.get("AREALAW_STATE_DIM_LIMIT", str(DEFAULT_STATE_DIM_LIMIT))
    if not (raw.isdecimal() and int(raw) >= 1):
        raise ValidationError(
            f"AREALAW_STATE_DIM_LIMIT must be a positive integer, got {raw!r}")
    limit = int(raw)
    if size > limit:
        raise ResourceGuardError(
            f"{what} {size} exceeds the guard {limit} "
            "(set AREALAW_STATE_DIM_LIMIT to override)"
        )


def _renyi_orders(q_list: Sequence[float]) -> tuple[float, ...]:
    orders = tuple(float(q) for q in q_list)
    if not all(0.0 <= q < math.inf for q in orders):
        raise ValidationError("Renyi orders must be finite and non-negative")
    return orders


def _check_seed(seed: int) -> None:
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValidationError(f"seed must be an integer >= 0, got {seed!r}")


def ginibre(rows: int, cols: int, rng: np.random.Generator,
            out: np.ndarray | None = None) -> np.ndarray:
    """Matrix of i.i.d. standard complex Gaussian entries, written into
    ``out`` when given.  One draw gives the real parts, then the imaginary
    parts, in the stream order of two separate draws."""
    parts = rng.standard_normal((2, rows, cols))
    z = np.empty((rows, cols), complex) if out is None else out
    z.real = parts[0]
    z.imag = parts[1]
    z /= math.sqrt(2.0)
    return z


def haar_unitary(dim: int, rng: np.random.Generator,
                 size: int | None = None, cols: int | None = None) -> np.ndarray:
    """Haar-distributed unitary, or its first ``cols`` columns (a Haar
    isometry), via QR of a ``dim x cols`` Ginibre matrix.

    The triangular factor's diagonal is normalized to positive reals (phase
    correction); without it the factorization is not measure-correct.
    ``cols`` defaults to ``dim``; the state guard bounds the ``dim * cols``
    entries of one draw, and with them the QR's ``dim * cols^2`` cost.
    ``size`` stacks independent samples along a leading axis.
    """
    cols = dim if cols is None else cols
    if not 1 <= cols <= dim:
        raise ValidationError(
            f"an isometry needs 1 <= cols <= dim, got dim {dim}, cols {cols}")
    _check_size(dim * cols, "Haar isometry entries")
    shape = (dim, cols) if size is None else (size, dim, cols)
    stack = 1 if size is None else size
    return _isometry(ginibre(stack * dim, cols, rng).reshape(shape))


def _isometry(z: np.ndarray) -> np.ndarray:
    """The phase-fixed Q factor of a (stack of) Ginibre matrices."""
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


@dataclass(frozen=True, eq=False)
class SpectralReport:
    """One sample's spectrum summary (:func:`_summarize_spectrum`)."""

    eigenvalues: np.ndarray           # descending, length = Gram side
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
    spectra: tuple[np.ndarray, ...]   # each of length min(ds, dt)
    dim: int                          # ds; the other ds - min(ds, dt)
                                      # eigenvalues are structural zeros
    seed: int
    N: int
    flags: tuple[str, ...]

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
            "numerics": NUMERICS_DISCLAIMER,
        }


@dataclass(frozen=True, eq=False)
class _GramPlan:
    """What every sample of one doubled-network contraction shares."""

    # per acted vertex: (stream slot, vertex dimension, isometry columns,
    # shape (out legs..., non-loop in-slots...))
    vertices: tuple[tuple, ...]
    eyes: tuple[int, ...]    # dimension of each identity edge, whose ket and
                             # bra copies follow the vertices' operands
    side: int                # min(ds, dt)
    dim: int                 # ds, the surviving dimension
    scale: float             # ket and bra normalisation of the edges outside
                             # the isometries: prod (d_e N)^-1
    steps: tuple             # the greedy path (:func:`_greedy_path`),
                             # compiled by :func:`_compile`
    largest: int             # elements of the largest array one sample
                             # takes or builds


def _greedy_path(inputs: Sequence[Sequence[int]], output: Sequence[int],
                 size: dict[int, int]) -> tuple[tuple[int, int], ...]:
    """numpy's greedy ``einsum_path`` order on integer labels of any number.

    Each step contracts the pair that removes the most elements, then the
    one with the fewest multiply-adds; a tie goes to the first candidate in
    numpy's order (the pairs sharing a label, each step's new ones appended;
    every pair only once none shares one).  No pair is skipped for its size:
    the state guard bounds the largest array of the path.
    """
    terms = [frozenset(t) for t in inputs]

    def numel(labels):
        return math.prod(size[x] for x in labels)

    def joined(a, b):  # the labels another term or the output still needs
        return frozenset(x for x in a | b if count[x] > (x in a) + (x in b))

    def cost(pair):
        a, b = (terms[i] for i in pair)
        result, both = joined(a, b), a | b
        return (numel(result) - numel(a) - numel(b),
                numel(both) * (1 + (result != both)))

    pairs = [(i, j) for i, j in combinations(range(len(terms)), 2)
             if terms[i] & terms[j]]
    path = []
    while len(terms) > 1:
        count = Counter(chain(output, *terms))  # holders of each label, for joined
        pairs = pairs or list(combinations(range(len(terms)), 2))
        i, j = best = min(pairs, key=cost)
        terms.append(joined(terms.pop(j), terms.pop(i)))
        path.append(best)
        pairs = [(k - (k > i) - (k > j), m - (m > i) - (m > j))
                 for k, m in pairs if k not in best and m not in best]
        pairs += [(k, len(terms) - 1) for k in range(len(terms) - 1)
                  if terms[k] & terms[-1]]
    return tuple(path)


def _compile(path: Sequence, inputs: Sequence[Sequence[int]],
             output: Sequence[int], size: dict[int, int]) -> tuple[tuple, int]:
    """A pairwise path as array steps over a leading sample axis, and the
    elements of the largest array it takes or builds per sample.

    Each step pops its operands (highest position first), contracts them
    into the labels that another operand or the output still needs (sorted
    by size, then label; the last step gives the output order) and appends
    the result.  A pair is laid out as numpy's own pairwise einsum lays it
    out: batch, kept and contracted labels in term order, one ``matmul`` of
    the fused matrices (``multiply`` when nothing is contracted), then the
    result reshaped and transposed.  The sample axis leads every operand as
    the first batch axis, so each sample meets the same matrix products as a
    contraction of that sample alone.
    """
    terms = [tuple(labels) for labels in inputs]
    largest = max(math.prod(size[x] for x in labels) for labels in terms)
    steps = []
    for n, take in enumerate(path, 1):
        take = tuple(sorted(take, reverse=True))
        taken = [terms.pop(i) for i in take]
        if n == len(path):
            result = tuple(output)
        else:
            needed = set(output).union(*terms)
            result = tuple(sorted({x for t in taken for x in t if x in needed},
                                  key=lambda x: (size[x], x)))
        terms.append(result)
        largest = max(largest, math.prod(size[x] for x in result))
        steps.append((take, *_step_layout(taken, result, size)))
    return tuple(steps), largest


def _step_layout(taken, result, size):
    """(per operand (transpose, reshape), product, result reshape,
    result transpose) of one step; see :func:`_compile`."""

    def axes(term, order):
        return (0, *(1 + term.index(x) for x in order))

    a, b = taken
    batch = [x for x in a if x in b and x in result]
    contracted = [x for x in a if x in b and x not in result]
    a_keep = [x for x in a if x not in b]
    b_keep = [x for x in b if x not in a]
    if not contracted:
        prep = tuple(
            (axes(t, [x for x in result if x in t]),
             (-1, *(size[x] if x in t else 1 for x in result)))
            for t in taken)
        return prep, np.multiply, None, None

    def fused(*groups):
        return (-1, *(math.prod(size[x] for x in g) for g in groups))

    lead = [batch] if batch else []  # a batch axis only for batch labels
    produced = batch + a_keep + b_keep
    return (
        ((axes(a, batch + a_keep + contracted), fused(*lead, a_keep, contracted)),
         (axes(b, batch + contracted + b_keep), fused(*lead, contracted, b_keep))),
        np.matmul,
        (-1, *(size[x] for x in produced)),
        axes(produced, result),
    )


def _contract(steps: tuple, operands: list) -> np.ndarray:
    """Run compiled steps on operands that carry a leading sample axis."""
    for take, *layout in steps:
        operands.append(_run_step(layout, [operands.pop(i) for i in take]))
    return operands[0]


def _run_step(layout, arrays: list) -> np.ndarray:
    """One compiled step; its reshaped copies die when it returns."""
    prep, product, shape, order = layout
    args = [a.transpose(axes).reshape(fused) for a, (axes, fused) in zip(arrays, prep)]
    out = product(*args)
    return out.reshape(shape).transpose(order) if shape else out


def _side_dims(graph: Graph, traced, N: int) -> tuple[int, int]:
    """``(ds, dt)``: the products of ``d_e N`` over the surviving and over
    the ``traced`` legs."""
    if N < 2:
        raise ValidationError("N must be at least 2")
    ds = math.prod(leg.ratio * N for leg in graph.legs if leg.leg_id not in traced)
    dt = math.prod(leg.ratio * N for leg in graph.legs if leg.leg_id in traced)
    return ds, dt


@lru_cache(maxsize=256)
def _gram_plan(graph: Graph, traced: tuple[int, ...], N: int,
               acted: tuple[str, ...]) -> _GramPlan:
    """Labels, reshapes, path and size of the Gram contraction.

    Ket labels: an acted leg's output is its id and edge e's in-slot is
    ``n_legs + e``, shared by both endpoints; an acted vertex's isometry
    has no in-slot for its loops, whose pair it already holds, so their
    ``(d_e N)^-1`` leaves ``scale``.  A leg at a vertex with no unitary is
    its edge's in-slot itself; an edge with neither endpoint acted is an
    identity on its own two labels.  The bra shares the labels of the larger
    side's legs, which are summed, and primes every other label; the smaller
    side's legs stay open on both.  The greedy path over these labels
    (:func:`_greedy_path`, any number of them) is compiled once into matmul
    steps (:func:`_compile`).
    """
    n = graph.n_legs
    dims = [leg.ratio * N for leg in graph.legs]
    surviving = tuple(l for l in range(n) if l not in traced)
    ds, dt = _side_dims(graph, traced, N)
    kept, summed = (surviving, traced) if ds <= dt else (traced, surviving)
    label = [leg.leg_id if leg.vertex in acted else n + leg.edge
             for leg in graph.legs]
    terms = []  # (shape, ket labels) per ket operand
    held = set()  # loops inside an isometry
    for v in acted:
        legs = graph.legs_of(v)
        loops = graph.loop_indices(v)
        held.update(loops)
        inputs = [l for l in legs if graph.legs[l].edge not in loops]
        terms.append(([dims[l] for l in legs] + [dims[l] for l in inputs],
                      list(legs) + [n + graph.legs[l].edge for l in inputs]))
    eyes = [e for e, edge in enumerate(graph.edges)
            if edge.u not in acted and edge.v not in acted]
    for e in eyes:
        label[2 * e], label[2 * e + 1] = 2 * e, 2 * e + 1
        terms.append(([dims[2 * e]] * 2, [2 * e, 2 * e + 1]))
    shared = {label[l] for l in summed}

    def prime(labels):
        return [x if x in shared else x + 2 * n for x in labels]

    kept_labels = [label[l] for l in kept]
    output = tuple(kept_labels + prime(kept_labels))
    inputs = tuple(tuple(copy(ket)) for _, ket in terms for copy in (list, prime))
    size = {x: d for shape, ket in terms for x, d in zip(ket + prime(ket), shape * 2)}
    steps, largest = _compile(_greedy_path(inputs, output, size), inputs,
                              output, size)
    vertices = []
    for v, (shape, _) in zip(acted, terms):
        out = len(graph.legs_of(v))
        vertices.append((graph.vertices.index(v), math.prod(shape[:out]),
                         math.prod(shape[out:]), tuple(shape)))
    return _GramPlan(
        vertices=tuple(vertices), eyes=tuple(dims[2 * e] for e in eyes),
        side=min(ds, dt), dim=ds,
        scale=1.0 / math.prod(dims[2 * e] for e in range(len(graph.edges))
                              if e not in held),
        steps=steps, largest=largest,
    )


def _route(marginal: Marginal, N: int, unitaries: str, skip_traced: bool,
           skip_surviving: bool) -> tuple[tuple[str, ...], _GramPlan]:
    """The flags of a state and its Gram plan, once the inputs and the
    state guard have passed; nothing is sampled or allocated."""
    if unitaries not in ("sample", "identity"):
        raise ValidationError(f"unknown unitary mode {unitaries!r}")
    g = marginal.graph
    flags: list[str] = []
    acted: list[str] = []
    for v in g.vertices:
        if unitaries == "identity":
            flags.append(f"identity:{v}")
        elif marginal.s(v) == 0 and skip_traced:
            flags.append(f"skipped_traced:{v}")
        elif marginal.t(v) == 0 and skip_surviving:
            flags.append(f"skipped_surviving:{v}")
        else:
            acted.append(v)
    plan = _gram_plan(g, tuple(sorted(marginal.completed_traced_legs())), N,
                      tuple(acted))
    _check_size(plan.largest, "largest contraction array")
    return tuple(flags), plan


def _vertex_stream(seed: int, index: int, slot: int) -> np.random.Generator:
    """Sample ``index``'s generator at a vertex slot: the one
    ``default_rng([seed, index]).spawn(n)[slot]`` gives, built alone."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([seed, index], spawn_key=(slot,))))


def _ginibre_stack(streams: Sequence, slot: int, rows: int,
                   cols: int) -> np.ndarray:
    """One Ginibre matrix per sample, each drawn from its own sample's
    stream at a vertex slot, written into one ``(samples, rows, cols)``
    stack."""
    z = np.empty((len(streams), rows, cols), dtype=complex)
    for k, stream in enumerate(streams):
        ginibre(rows, cols, stream(slot), out=z[k])
    return z


def _gram_stack(plan: _GramPlan, streams: Sequence) -> np.ndarray:
    """The Gram matrices of ``len(streams)`` samples, stacked on a leading
    axis; ``streams[k](slot)`` is sample k's generator at a vertex slot.

    Each acted vertex takes one QR of its Ginibre stack; the plan's compiled
    steps then contract the isometries, reshaped to (out legs..., non-loop
    in-slots...), on the ket and their conjugates on the bra, with the
    identity edges built here, for every sample at once.  Each sample's trace must be within 1e-10 of one; a
    drifted or NaN trace is a defect, :class:`InconsistencyError`.
    """
    count = len(streams)
    operands = []
    for slot, vdim, cols, shape in plan.vertices:
        tensor = _isometry(_ginibre_stack(streams, slot, vdim, cols))
        tensor = tensor.reshape(count, *shape)
        operands += [tensor, tensor.conj()]
    for dim in plan.eyes:
        eye = np.eye(dim)[None]
        operands += [eye, eye]
    out = _contract(plan.steps, operands)
    out = np.broadcast_to(out, (count, *out.shape[1:]))  # nothing acted
    gram = out.reshape(count, plan.side, plan.side) * plan.scale
    norms = np.trace(gram, axis1=1, axis2=2).real
    drifted = ~(np.abs(norms - 1.0) <= 1e-10)  # NaN drifts too
    if drifted.any():
        norm = norms[drifted.argmax()]
        raise InconsistencyError(f"state normalization drifted to {norm}")
    return gram


def _spectrum(gram: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Gram matrix (or of each in a stack), descending."""
    try:
        values = np.linalg.eigvalsh(gram)
    except np.linalg.LinAlgError as exc:
        scale = float(np.abs(gram).max())
        raise AreaLawError(
            f"eigensolver failed on a {gram.shape[-2:]} Gram matrix "
            f"(max magnitude {scale:.3e}): {exc}"
        ) from exc
    return values[..., ::-1]  # eigvalsh returns them ascending


def _summarize_spectrum(eig: np.ndarray,
                        q_list: tuple[float, ...]) -> SpectralReport:
    """Entropies and rank of a descending spectrum of unit trace, at orders
    already validated by :func:`_renyi_orders`.

    Eigenvalues below ``EIGENVALUE_CLIP_REL`` (relative to the largest) are
    clamped to zero in place; the numerical rank uses ``RANK_THRESHOLD_REL``.
    ``q = 1`` is the von Neumann entropy, ``q = 0`` is ``ln rank``.
    """
    top = eig[0] if eig.size else 0.0
    eig[eig < EIGENVALUE_CLIP_REL * top] = 0.0
    rank = int(np.count_nonzero(eig > RANK_THRESHOLD_REL * top))
    positive = eig[eig > 0]
    # ``0.0 - x`` and ``x + 0.0`` turn a zero of either sign into +0.0
    entropy = 0.0 - float(np.sum(positive * np.log(positive)))
    renyi: dict[float, float] = {}
    for q in q_list:
        if q == 0.0:
            renyi[q] = math.log(rank) if rank else 0.0
        elif q == 1.0:
            renyi[q] = entropy
        else:
            # factor out the largest eigenvalue so that a large q cannot
            # underflow the sum to zero
            log_sum = q * math.log(top) + math.log(float(np.sum((positive / top) ** q)))
            renyi[q] = log_sum / (1.0 - q) + 0.0
    return SpectralReport(eigenvalues=eig, entropy=entropy, renyi=renyi, rank=rank)


def _sample_chunk(payload) -> list[SpectralReport]:
    """Reports of samples ``start, ..., stop - 1`` under a run's plan, built
    and diagonalised together; top level so process pools can pickle it."""
    plan, seed, start, stop, q_list = payload
    grams = _gram_stack(plan, [partial(_vertex_stream, seed, i)
                               for i in range(start, stop)])
    return [_summarize_spectrum(eig, q_list) for eig in _spectrum(grams)]


def _mc_report(reports: Sequence[SpectralReport], flags: tuple[str, ...],
               seed: int, N: int, q_list: tuple[float, ...],
               dim: int) -> MCReport:
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
        spectra=tuple(r.eigenvalues for r in reports), dim=dim,
        seed=seed, N=N, flags=flags,
    )


def run_experiment(marginal: Marginal, N: int, samples: int, seed: int,
                   q_list: Sequence[float] = (0.0, 1.0, 2.0), *,
                   jobs: int = 1, unitaries: str = "sample",
                   skip_traced: bool = True,
                   skip_surviving: bool = True) -> MCReport:
    """Estimate the mean entanglement entropy of a marginal.

    With ``unitaries="identity"`` no vertex acts.  A sampled unitary is
    skipped on a fully traced vertex if ``skip_traced`` and on a fully
    surviving one if ``skip_surviving`` (both spectrum-invariant); the
    flags record every skip.  Per-sample generators derive from
    ``(seed, sample_index)``, so reports are reproducible and independent
    of ``jobs`` and of chunking.  Inputs and guards are checked before any
    sampling starts.  Samples run in contiguous chunks of
    ``max(1, CHUNK_ELEMENTS // largest)``, where ``largest`` is the largest
    array one sample takes or builds; with ``jobs > 1`` a process pool of at
    most one worker per chunk runs them.
    """
    if samples < 1:
        raise ValidationError("need at least one sample")
    if jobs < 1:
        raise ValidationError(f"jobs must be at least 1, got {jobs}")
    _check_seed(seed)
    q_list = _renyi_orders(q_list)
    flags, plan = _route(marginal, N, unitaries, skip_traced, skip_surviving)
    size = max(1, CHUNK_ELEMENTS // plan.largest)
    payloads = [(plan, seed, start, min(start + size, samples), q_list)
                for start in range(0, samples, size)]
    workers = min(jobs, len(payloads))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_sample_chunk, payloads))
    else:
        chunks = [_sample_chunk(p) for p in payloads]
    return _mc_report([report for chunk in chunks for report in chunk],
                      tuple(sorted(flags)), seed, N, q_list, plan.dim)
