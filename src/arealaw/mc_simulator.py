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
labels, in one pass, as pairwise ``matmul`` steps.  The plan holds only
sizes and steps, no array (an identity edge is its dimension), so the
state-dimension guard, the one size refusal, bounds the largest array a
sample takes or builds (each isometry among them), and the run's spectra
array, before anything is allocated (the Gram matrix, the plan's output,
before the plan is made).  A run resolves its plan and checks the guard
once, then ships the plan to its samples in contiguous chunks: a chunk
derives its samples' seed words in one pass, draws, contracts and
diagonalises its samples together on a leading sample axis, each sample
meeting the same matrix products as it would alone; when no vertex acts,
it diagonalises its one state once and repeats the spectrum.  The chunks
fill one ``(samples, min(ds, dt))`` spectrum array in sample order, and
:func:`_mc_report` summarises that array once, in array passes, into the
``MCReport``.  Every spectrum, sampled or of the identity state a
transport certificate checks, comes from :func:`run_experiment` on that
one route, a vertex carrying only loops included (its isometry is one Haar
column, so its marginal is Page's induced ensemble).  A spectrum keeps the
``min(ds, dt)`` eigenvalues of the Gram side it is computed at; the ``ds -
min(ds, dt)`` structural zeros of the reduced state are not stored, and
``MCReport.dim`` records ``ds``.

Determinism contract: sample ``i`` draws at vertex slot ``v`` from the
PCG64 stream of ``SeedSequence([seed, i], spawn_key=(v,))``, the one
``default_rng([seed, i]).spawn(n)[v]`` gives, so results do not depend on
execution order, chunking, parallelism or which vertices are skipped.  The
seed words of those streams are derived in one vectorised pass of
``SeedSequence``'s documented hash (:func:`_seed_words`); numpy's
stream-compatibility policy keeps that hash fixed, and a test checks the
words against ``SeedSequence`` itself, so a numpy release that changed it
would be caught.  Aggregation uses exact summation in sample order.
Cross-platform bit-equality is not promised (eigensolvers).
"""
from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations
from typing import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import (AreaLawError, InconsistencyError, ResourceGuardError,
                     ValidationError)
from .graph_model import Graph, Marginal, check_integer

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
    ``AREALAW_STATE_DIM_LIMIT`` of at most 4300 digits, read from the
    environment at call time.  A count of more than 18 digits prints as
    ``about 10^k``: Python refuses ``str`` of an int of over 4300 digits."""
    raw = os.environ.get("AREALAW_STATE_DIM_LIMIT", str(DEFAULT_STATE_DIM_LIMIT))
    if not (raw.isdecimal() and len(raw) <= 4300 and int(raw) >= 1):
        got = repr(raw) if len(raw) <= 4300 else f"{len(raw)} characters (4300 at most)"
        raise ValidationError(
            f"AREALAW_STATE_DIM_LIMIT must be a positive integer, got {got}")
    limit = int(raw)
    if size > limit:
        size, limit = (n if n < 10 ** 18 else f"about 10^{math.floor(math.log10(n))}"
                       for n in (size, limit))
        raise ResourceGuardError(
            f"{what} {size} exceeds the guard {limit} "
            "(set AREALAW_STATE_DIM_LIMIT to override)"
        )


def _renyi_orders(q_list: Sequence[float]) -> tuple[float, ...]:
    """The orders as floats (``-0.0`` read as ``0.0``): finite, non-negative, distinct."""
    orders = tuple(float(q) + 0.0 for q in q_list)
    if not all(0.0 <= q < math.inf for q in orders):
        raise ValidationError("Renyi orders must be finite and non-negative")
    if len(set(orders)) < len(orders):
        raise ValidationError(f"Renyi orders must be distinct, got {list(orders)}")
    return orders


def _isometry(z: np.ndarray) -> np.ndarray:
    """The Haar isometry of a (stack of) Ginibre matrices: the Q factor of
    its QR, with the triangular factor's diagonal normalised to positive
    reals (without that phase fix the factorization is not measure-correct;
    Mezzadri, math-ph/0609050)."""
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


@dataclass(frozen=True, eq=False)
class MCReport:
    samples: int
    mean_H: float
    stderr_H: float
    per_sample_H: tuple[float, ...]
    renyi_mean: dict[float, float]
    ranks: tuple[int, ...]
    spectra: np.ndarray               # (samples, min(ds, dt)), a row a sample
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
    steps: tuple             # the greedy path's array steps (:func:`_plan_steps`)
    largest: int             # elements of the largest array one sample
                             # takes or builds


def _plan_steps(inputs: Sequence[Sequence[int]], output: Sequence[int],
                size: dict[int, int]) -> tuple[tuple, int]:
    """numpy's greedy ``einsum_path`` order on integer labels of any number,
    as array steps over a leading sample axis, and the elements of the
    largest array it takes or builds per sample.

    Each step contracts the pair that removes the most elements, then the
    one with the fewest multiply-adds; a tie goes to the first candidate in
    numpy's order (the pairs sharing a label, each step's new ones appended;
    every pair only once none shares one).  No pair is skipped for its size:
    the state guard bounds the largest array.  The step pops the pair (the
    higher position first) and appends its result, on the labels another
    operand or the output still needs, sorted by size, then label (the last
    step's in output order), laid out by :func:`_step_layout`.
    """
    terms = [(tuple(t), frozenset(t)) for t in inputs]  # (order, label set)

    def numel(labels):
        return math.prod(size[x] for x in labels)

    def joined(a, b):  # the labels another term or the output still needs
        return frozenset(x for x in a | b if count[x] > (x in a) + (x in b))

    def cost(pair):
        a, b = (terms[i][1] for i in pair)
        result, both = joined(a, b), a | b
        return (numel(result) - numel(a) - numel(b),
                numel(both) * (1 + (result != both)))

    pairs = [(i, j) for i, j in combinations(range(len(terms)), 2)
             if terms[i][1] & terms[j][1]]
    largest = max(numel(labels) for labels, _ in terms)
    steps = []
    while len(terms) > 1:
        count = Counter(chain(output, *(labels for _, labels in terms)))  # for joined
        pairs = pairs or list(combinations(range(len(terms)), 2))
        i, j = best = min(pairs, key=cost)
        (a, a_set), (b, b_set) = terms.pop(j), terms.pop(i)
        joint = joined(a_set, b_set)
        result = tuple(sorted(joint, key=lambda x: (size[x], x)) if terms else output)
        terms.append((result, joint))
        largest = max(largest, numel(result))
        steps.append(((j, i), *_step_layout((a, b), result, size)))
        pairs = [(k - (k > i) - (k > j), m - (m > i) - (m > j))
                 for k, m in pairs if k not in best and m not in best]
        pairs += [(k, len(terms) - 1) for k in range(len(terms) - 1)
                  if terms[k][1] & joint]
    return tuple(steps), largest


def _step_layout(taken, result, size):
    """(per operand (transpose, reshape), product, result reshape, result
    transpose) of one step of :func:`_plan_steps`, laid out as numpy's own
    pairwise einsum: batch, kept and contracted labels in term order, one
    ``matmul`` of the fused matrices (``multiply`` when nothing is
    contracted), then the result reshaped and transposed.  The sample axis
    leads every operand as the first batch axis, so each sample meets the
    same matrix products as a contraction of that sample alone."""

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
    side's legs stay open on both.  The greedy path over these labels (any
    number of them) is planned once as matmul steps (:func:`_plan_steps`).
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
    steps, largest = _plan_steps(inputs, output, size)
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


def _route(marginal: Marginal, N: int,
           unitaries: str) -> tuple[tuple[str, ...], _GramPlan]:
    """The flags of a state and its Gram plan, once the inputs and the
    state guard have passed; nothing is sampled or allocated.  The Gram
    matrix is the plan's output, so its ``min(ds, dt) ** 2`` entries are
    guarded before the plan is made."""
    if unitaries not in ("sample", "all", "identity"):
        raise ValidationError(f"unknown unitary mode {unitaries!r}")
    N = check_integer(N, 2, "N must be at least 2")  # before the plan cache: 2.0 == 2
    g = marginal.graph
    flags: list[str] = []
    acted: list[str] = []
    for v in g.vertices:
        if unitaries == "identity":
            flags.append(f"identity:{v}")
        elif unitaries == "sample" and v not in marginal.crossed:
            side = "traced" if marginal.s(v) == 0 else "surviving"
            flags.append(f"skipped_{side}:{v}")
        else:
            acted.append(v)
    _check_size(min(_side_dims(g, marginal.traced, N)) ** 2, "Gram matrix entries")
    plan = _gram_plan(g, tuple(sorted(marginal.traced)), N, tuple(acted))
    _check_size(plan.largest, "largest contraction array")
    return tuple(flags), plan


def _uint32_words(n: int) -> list[int]:
    """A non-negative integer as numpy's ``SeedSequence`` reads it: its
    32-bit words, least significant first (one word for zero)."""
    return [n >> shift & 0xFFFFFFFF for shift in range(0, max(n.bit_length(), 1), 32)]


def _hasher(const: int, mult: int):
    """``SeedSequence``'s ``hashmix`` from the hash constant ``const``:
    ``hashmix(values, count)`` hashes ``values`` (broadcast to ``count``
    rows) with the next ``count`` constants, one a row, and keeps the last.
    The constants do not depend on the data, so every stream of a call is
    hashed in the same pass (uint32 arithmetic wraps as the C code does)."""
    def hashmix(values: np.ndarray, count: int) -> np.ndarray:
        nonlocal const
        consts = [const]
        for _ in range(count):
            const = const * mult & 0xFFFFFFFF
            consts.append(const)
        column = np.array(consts, np.uint32)[:, None]
        values = (values ^ column[:-1]) * column[1:]
        return values ^ values >> 16

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s ``mix`` of two word arrays."""
    result = x * 0xca01f9dd - y * 0x4973f715
    return result ^ result >> 16


def _seed_words(seed: int, start: int, stop: int,
                slots: Sequence[int]) -> np.ndarray:
    """The PCG64 seed words of every sample ``start, ..., stop - 1`` at
    every vertex slot, ``(stop - start, len(slots), 4)`` uint64: those that
    ``SeedSequence([seed, index], spawn_key=(slot,)).generate_state(4,
    np.uint64)`` gives, from one pass of its documented hash over all of
    them (``mix_entropy`` on a pool of 4 words, then ``generate_state``).

    A stream's entropy is the words of ``seed`` and of ``index``, zeros up
    to the pool size (a spawn key pads it) and the slot.  Seeds of any
    width are read word by word; indices are split where their width
    changes, at powers of 2^32.
    """
    words = np.empty((stop - start, len(slots), 4), np.uint64)
    seed_part = _uint32_words(seed)
    low = start
    while low < stop and slots:
        width = len(_uint32_words(low))
        high = min(stop, 1 << 32 * width)
        index = np.arange(low, high, dtype=np.uint64 if high <= 2 ** 64 else object)
        entropy = np.zeros((max(4, len(seed_part) + width) + 1, high - low,
                            len(slots)), np.uint32)
        entropy[:len(seed_part)] = np.array(seed_part, np.uint32)[:, None, None]
        for j in range(width):
            entropy[len(seed_part) + j] = (index >> 32 * j & 0xFFFFFFFF
                                           ).astype(np.uint32)[:, None]
        entropy[-1] = slots
        entropy = entropy.reshape(len(entropy), -1)
        hashmix = _hasher(0x43b0d7e5, 0x931e8875)
        pool = hashmix(entropy[:4], 4)
        for src in range(4):  # each pool word into every other, in order
            others = [dst for dst in range(4) if dst != src]
            pool[others] = _mix(pool[others], hashmix(pool[src], 3))
        for word in entropy[4:]:  # the entropy beyond the pool
            pool = _mix(pool, hashmix(word, 4))
        state = _hasher(0x8b51f9dd, 0x58f38ded)(np.tile(pool, (2, 1)), 8)
        state = state.astype(np.uint64)
        state = state[0::2] | state[1::2] << 32  # little-endian word pairs
        words[low - start:high - start] = state.T.reshape(high - low, len(slots), 4)
        low = high
    return words


class _SeedWords(ISeedSequence):
    """One stream's PCG64 seed words (a row of :func:`_seed_words`), handed
    to ``PCG64``, which asks its seed sequence for 4 uint64 words once."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _normals(words: np.ndarray, out: np.ndarray) -> None:
    """Fill ``out`` with standard normals from the stream of one row of
    seed words."""
    np.random.Generator(np.random.PCG64(_SeedWords(words))).standard_normal(out=out)


def _ginibre_stack(words: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """One matrix of i.i.d. standard complex Gaussian entries per row of
    seed words, written into one ``(streams, rows, cols)`` stack.  Each
    stream draws the real parts, then the imaginary parts, in the stream
    order of two separate draws.  Scaling by the reciprocal of sqrt 2 gives
    the bits of dividing the complex matrix by sqrt 2 (numpy divides a
    complex by a real as ``a * (1 / c)``); dividing the real parts would
    not."""
    parts = np.empty((len(words), 2, rows, cols))
    for row, out in zip(words, parts):
        _normals(row, out)
    z = np.empty((len(words), rows, cols), complex)
    scale = 1.0 / math.sqrt(2.0)
    np.multiply(parts[:, 0], scale, out=z.real)
    np.multiply(parts[:, 1], scale, out=z.imag)
    return z


def _gram_stack(plan: _GramPlan, words: np.ndarray) -> np.ndarray:
    """The Gram matrices of ``len(words)`` samples, stacked on a leading
    axis; ``words[k, j]`` seeds sample k's stream at its j-th acted vertex.
    When no vertex acts, every sample is the same state: the stack holds
    it once.

    Each acted vertex takes one QR of its Ginibre stack; the plan's
    compiled steps then contract the isometries,
    reshaped to (out legs..., non-loop in-slots...), on the ket and their
    conjugates on the bra, with the identity edges built here, for every
    sample at once.  Each sample's trace must be within 1e-10 of one; a
    drifted or NaN trace is a defect, :class:`InconsistencyError`.
    """
    count = len(words)
    operands = []
    for j, (_, vdim, cols, shape) in enumerate(plan.vertices):
        tensor = _isometry(_ginibre_stack(words[:, j], vdim, cols))
        tensor = tensor.reshape(count, *shape)
        operands += [tensor, tensor.conj()]
    for dim in plan.eyes:
        eye = np.eye(dim)[None]
        operands += [eye, eye]
    out = _contract(plan.steps, operands)
    gram = out.reshape(len(out), plan.side, plan.side) * plan.scale
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


def _summarize_spectrum(stack: np.ndarray, q_list: tuple[float, ...]) -> tuple:
    """Per-sample entropies, Renyi entropies and ranks, as lists, of a
    ``(samples, side)`` stack of descending spectra of unit trace, at orders
    already validated by :func:`_renyi_orders`, in array passes over it.

    Eigenvalues below ``EIGENVALUE_CLIP_REL`` (relative to the largest) are
    clamped to zero in place; the numerical rank uses ``RANK_THRESHOLD_REL``.
    ``q = 1`` is the von Neumann entropy, ``q = 0`` is ``ln rank``.  Each
    spectrum's positive eigenvalues are then a prefix, and the spectra whose
    prefixes have one length are summed together row by row, which numpy
    does as it sums one such prefix alone.
    """
    top = stack[:, :1].copy()
    stack[stack < EIGENVALUE_CLIP_REL * top] = 0.0
    rank = np.count_nonzero(stack > RANK_THRESHOLD_REL * top, axis=1).tolist()
    positives = np.count_nonzero(stack > 0, axis=1)
    entropy = np.empty(len(stack))
    sums = {q: np.empty(len(stack)) for q in q_list if q not in (0.0, 1.0)}
    for length in set(positives.tolist()):
        rows = np.flatnonzero(positives == length)
        positive = stack[rows, :length]
        # ``0.0 - x`` turns a zero of either sign into +0.0
        entropy[rows] = 0.0 - np.sum(positive * np.log(positive), axis=1)
        for q, total in sums.items():
            # factor out the largest eigenvalue so that a large q cannot
            # underflow the sum to zero
            total[rows] = np.sum((positive / top[rows]) ** q, axis=1)
    entropy = entropy.tolist()
    renyi: dict[float, list[float]] = {}
    for q in q_list:
        if q == 0.0:
            renyi[q] = [math.log(r) if r else 0.0 for r in rank]
        elif q == 1.0:
            renyi[q] = entropy
        else:
            renyi[q] = [(q * math.log(t) + math.log(total)) / (1.0 - q) + 0.0
                        for t, total in zip(top[:, 0].tolist(), sums[q].tolist())]
    return entropy, renyi, rank


def _sample_chunk(payload) -> np.ndarray:
    """The ``(stop - start, side)`` spectra of samples ``start, ..., stop -
    1`` under a run's plan, seeded, built and diagonalised together (once
    when nothing acts, its spectrum then repeated); top level so process
    pools can pickle it."""
    plan, seed, start, stop = payload
    words = _seed_words(seed, start, stop, [slot for slot, *_ in plan.vertices])
    values = _spectrum(_gram_stack(plan, words))
    return values if len(values) == len(words) else np.repeat(values, len(words), axis=0)


def _mc_report(spectra: np.ndarray, flags: tuple[str, ...], seed: int, N: int,
               q_list: tuple[float, ...], dim: int) -> MCReport:
    """Summarise a run's ``(samples, side)`` spectra once, clipping them in
    place, and aggregate the summaries in sample order, with exact sums."""
    entropies, renyi, ranks = _summarize_spectrum(spectra, q_list)
    samples = len(entropies)
    mean = math.fsum(entropies) / samples
    var = (math.fsum((h - mean) ** 2 for h in entropies) / (samples - 1)
           if samples > 1 else 0.0)
    return MCReport(
        samples=samples, mean_H=mean, stderr_H=math.sqrt(var / samples),
        per_sample_H=tuple(entropies),
        renyi_mean={q: math.fsum(renyi[q]) / samples for q in q_list},
        ranks=tuple(ranks), spectra=spectra, dim=dim, seed=seed, N=N, flags=flags,
    )


def run_experiment(marginal: Marginal, N: int, samples: int, seed: int,
                   q_list: Sequence[float] = (0.0, 1.0, 2.0), *,
                   jobs: int = 1, unitaries: str = "sample") -> MCReport:
    """Estimate the mean entanglement entropy of a marginal.

    ``unitaries`` says which vertices act: with ``"sample"`` only the
    vertices the partition crosses, a Haar unitary on a fully traced or a
    fully surviving vertex leaving the spectrum unchanged (the flags record
    every such skip); with ``"all"`` every vertex, the ensemble as defined;
    with ``"identity"`` none.  Per-sample generators derive from
    ``(seed, sample_index)``, so reports are reproducible and independent
    of ``jobs`` and of chunking.  Inputs and guards, the run's
    ``(samples, min(ds, dt))`` spectra array among them, are checked before
    any sampling starts.  Samples run in contiguous chunks of
    ``max(1, CHUNK_ELEMENTS // largest)``, where ``largest`` is the largest
    array one sample takes or builds; with ``jobs > 1`` a process pool of at
    most one worker per chunk runs them, and the run is summarised once.
    """
    samples = check_integer(samples, 1, "need at least one sample")
    jobs = check_integer(jobs, 1, f"jobs must be at least 1, got {jobs}")
    seed = check_integer(seed, 0, f"seed must be an integer >= 0, got {seed!r}")
    q_list = _renyi_orders(q_list)
    N = check_integer(N, 2, "N must be at least 2")
    flags, plan = _route(marginal, N, unitaries)
    _check_size(samples * plan.side, "spectra array entries")
    size = max(1, CHUNK_ELEMENTS // plan.largest)
    payloads = [(plan, seed, start, min(start + size, samples))
                for start in range(0, samples, size)]
    spectra = np.empty((samples, plan.side))

    def fill(chunks) -> None:
        for (*_, start, stop), chunk in zip(payloads, chunks):
            spectra[start:stop] = chunk

    workers = min(jobs, len(payloads))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            fill(pool.map(_sample_chunk, payloads))
    else:
        fill(map(_sample_chunk, payloads))
    return _mc_report(spectra, tuple(sorted(flags)), seed, N, q_list, plan.dim)
