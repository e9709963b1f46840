import json
import math
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

from arealaw import (
    InconsistencyError,
    ResourceGuardError,
    ValidationError,
    parse_marginal,
    run_experiment,
)
from arealaw import mc_simulator

from conftest import (
    adapted_five,
    black_hole,
    black_hole_counts,
    empirical_vs_mp,
    lattice_doc,
    marginal_from,
    oxygen,
    page_marginal,
    random_marginal,
    single_loop,
    two_loops,
    wishart_spectrum,
)


def leg_dimensions(m, N):
    """Per-leg Hilbert space dimensions ``d_e * N`` in leg order."""
    return tuple(leg.ratio * N for leg in m.graph.legs)


def _haar_draws(seed, start, stop, dim, cols):
    """Samples ``start, ..., stop - 1``'s ``dim x cols`` Haar isometries at
    vertex slot 0, drawn as a run draws them."""
    words = mc_simulator._seed_words(seed, start, stop, [0])[:, 0]
    return mc_simulator._isometry(mc_simulator._ginibre_stack(words, dim, cols))


def test_haar_unitarity():
    u = _haar_draws(0, 0, 1, 64, 64)[0]
    assert np.abs(u @ u.conj().T - np.eye(64)).max() < 1e-10
    eigs = np.linalg.eigvals(u)
    assert np.abs(np.abs(eigs) - 1.0).max() < 1e-10


def test_haar_dim_one_is_phase():
    phases = _haar_draws(1, 0, 200, 1, 1)[:, 0, 0]
    assert max(abs(abs(z) - 1.0) for z in phases) < 1e-12
    # angles spread over the circle
    angles = np.angle(phases)
    assert angles.min() < -2.0 and angles.max() > 2.0


def test_haar_first_entry_moment():
    # |U_11|^2 is Beta(1, dim - 1): mean 1/dim, var (dim-1)/(dim^2 (dim+1))
    dim, total = 64, 10_000
    acc = []
    for k in range(10):
        batch = _haar_draws(2, k * total // 10, (k + 1) * total // 10, dim, dim)
        acc.append(np.abs(batch[:, 0, 0]) ** 2)
    mean = float(np.concatenate(acc).mean())
    sigma = math.sqrt((dim - 1) / (dim ** 2 * (dim + 1)) / total)
    assert abs(mean - 1.0 / dim) < 3.0 * sigma


def test_haar_isometry():
    v = _haar_draws(4, 0, 1, 12, 3)[0]
    assert v.shape == (12, 3)
    assert np.abs(v.conj().T @ v - np.eye(3)).max() < 1e-12
    batch = _haar_draws(4, 1, 5, 6, 2)
    assert batch.shape == (4, 6, 2)
    assert np.abs(batch.conj().transpose(0, 2, 1) @ batch - np.eye(2)).max() < 1e-12
    # a stacked draw is the draws of its samples one at a time
    alone = [_haar_draws(6, i, i + 1, 5, 5)[0] for i in range(3)]
    assert _haar_draws(6, 0, 3, 5, 5).tobytes() == np.stack(alone).tobytes()


def test_haar_guard(monkeypatch):
    # three loops at one vertex: the plan's largest array is its isometry,
    # N^6 x 1, so the state guard bounds the draw; at N = 17 (more than
    # 2^24 entries) it refuses before any stream is drawn
    def no_draw(*args, **kwargs):
        raise AssertionError("a Haar isometry was drawn")

    m = marginal_from(["V"], [("V", "V", 1)] * 3, {"mode": "counts", "s": {"V": 2}})
    monkeypatch.setenv("AREALAW_STATE_DIM_LIMIT", str(2 ** 30))
    for N in (3, 17):
        plan = _sample_plan(m, N)
        assert [(vdim, cols) for _, vdim, cols, _ in plan.vertices] == [(N ** 6, 1)]
        assert plan.largest == N ** 6
    monkeypatch.delenv("AREALAW_STATE_DIM_LIMIT")
    draw = mc_simulator._normals
    monkeypatch.setattr(mc_simulator, "_normals", no_draw)
    with pytest.raises(ResourceGuardError,
                       match=r"^largest contraction array 24137569 exceeds the "
                             r"guard 16777216 \(set AREALAW_STATE_DIM_LIMIT"):
        run_experiment(m, 17, samples=1, seed=0)
    monkeypatch.setenv("AREALAW_STATE_DIM_LIMIT", str(3 ** 6 - 1))
    with pytest.raises(ResourceGuardError):
        run_experiment(m, 3, samples=1, seed=0)
    monkeypatch.setattr(mc_simulator, "_normals", draw)
    monkeypatch.setenv("AREALAW_STATE_DIM_LIMIT", str(3 ** 6))
    assert run_experiment(m, 3, samples=1, seed=0).samples == 1  # no raise


@pytest.mark.parametrize("variable", ["AREALAW_STATE_DIM_LIMIT"])
@pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5", ""])
def test_bad_guard_values_are_input_errors(monkeypatch, variable, value):
    monkeypatch.setenv(variable, value)
    with pytest.raises(ValidationError, match=variable):
        run_experiment(black_hole(traced=[0, 2]), 2, samples=1, seed=0)


def test_a_count_of_more_than_18_digits_prints_its_magnitude(monkeypatch):
    monkeypatch.setenv("AREALAW_STATE_DIM_LIMIT", "1")
    with pytest.raises(ResourceGuardError,
                       match=r"^rows 999999999999999999 exceeds the guard 1 \("):
        mc_simulator._check_size(10 ** 18 - 1, "rows")
    with pytest.raises(ResourceGuardError,
                       match=r"^rows about 10\^18 exceeds the guard 1 \("):
        mc_simulator._check_size(10 ** 18, "rows")
    # a limit of 4300 digits is read; the count above it has more
    monkeypatch.setenv("AREALAW_STATE_DIM_LIMIT", "1" + "0" * 4299)
    with pytest.raises(ResourceGuardError,
                       match=r"^rows about 10\^4400 exceeds the guard about "
                             r"10\^4299 \("):
        mc_simulator._check_size(10 ** 4400, "rows")


def test_route_guards_a_numpy_integer_as_its_int(monkeypatch):
    # (2^32)^2 Gram entries wrap to 0 in int64; the guard reads the int
    monkeypatch.delenv("AREALAW_STATE_DIM_LIMIT", raising=False)
    with pytest.raises(ResourceGuardError,
                       match=r"^Gram matrix entries about 10\^19 exceeds the "
                             r"guard 16777216 \("):
        mc_simulator._route(single_loop(), np.int64(2 ** 32), "sample")


def test_numpy_integer_inputs_run_as_their_ints():
    m = black_hole(traced=[0, 2])
    expected = run_experiment(m, 2, 2, 5).to_document()
    assert run_experiment(m, 2, 2, np.int64(5)).to_document() == expected
    assert run_experiment(m, np.int64(2), np.int64(2), 5).to_document() == expected


def test_state_dim_guard(monkeypatch):
    m = adapted_five()
    with pytest.raises(ResourceGuardError, match="Gram matrix entries 1073741824"):
        run_experiment(m, 8, samples=1, seed=0)  # Gram side 8^5
    monkeypatch.setenv("AREALAW_STATE_DIM_LIMIT", "2")
    with pytest.raises(ResourceGuardError):
        run_experiment(single_loop(), 2, samples=1, seed=0)


def test_gram_side_is_guarded_before_planning(monkeypatch):
    # the plan's output is the Gram matrix, so its min(ds, dt)^2 entries
    # are refused before any contraction is planned
    def no_planning(*args, **kwargs):
        raise AssertionError("the contraction was planned")

    mc_simulator._gram_plan.cache_clear()
    monkeypatch.setattr(mc_simulator, "_plan_steps", no_planning)
    monkeypatch.delenv("AREALAW_STATE_DIM_LIMIT", raising=False)
    with pytest.raises(ResourceGuardError,
                       match=r"^Gram matrix entries 1073741824 exceeds the "
                             r"guard 16777216 \(set AREALAW_STATE_DIM_LIMIT"):
        run_experiment(adapted_five(), 8, samples=1, seed=0)  # Gram side 8^5


def test_adapted_state_uniform_spectrum():
    m = black_hole(traced=[0, 3], d1=1, d2=2)  # crossings: both edges
    for unitaries in ("sample", "all"):
        report = run_experiment(m, 3, samples=1, seed=7, unitaries=unitaries)
        dim = 3 * 6
        assert report.ranks == (dim,)
        assert np.abs(report.spectra[0][:dim] - 1.0 / dim).max() < 1e-10
        assert report.mean_H == pytest.approx(math.log(dim), abs=1e-10)


def test_everything_traced_is_scalar():
    m = black_hole_counts(0, 0, 0)
    report = run_experiment(m, 2, samples=1, seed=0)
    assert report.spectra[0].shape == (1,)
    assert report.ranks == (1,)
    assert report.mean_H == pytest.approx(0.0, abs=1e-12)


def test_nothing_traced_is_pure():
    m = black_hole_counts(1, 2, 1)
    report = run_experiment(m, 2, samples=1, seed=0)
    assert report.ranks == (1,)
    assert report.mean_H == pytest.approx(0.0, abs=1e-10)


def surviving_dimension(m, N):
    dims = leg_dimensions(m, N)
    traced = m.traced
    return math.prod(d for l, d in enumerate(dims) if l not in traced)


def padded(spectrum, dim):
    """A Gram-side spectrum completed with structural zeros to ``dim``."""
    out = np.zeros(dim)
    out[: len(spectrum)] = spectrum
    return out


def test_reduced_state_invariants():
    # a unit-trace spectrum on the Gram side, min(ds, dt) entries, whose
    # structural zeros complete it to the surviving dimension ds (a drifted
    # Gram trace is an InconsistencyError inside the run)
    rng = np.random.default_rng(11)
    for k in range(10):
        m = random_marginal(rng, max_vertices=3, max_edges=3)
        report = run_experiment(m, 2, samples=1, seed=k)
        ds = surviving_dimension(m, 2)
        side = min(ds, math.prod(leg_dimensions(m, 2)) // ds)
        spectrum = report.spectra[0]
        assert len(spectrum) == side and report.dim == ds
        assert abs(padded(spectrum, ds).sum() - 1.0) < 1e-10


def test_explicit_unitary_validation():
    m = single_loop()
    for bad in ({"V": np.eye(4)}, None, "haar", "skip", True):
        with pytest.raises(ValidationError, match="unknown unitary mode"):
            run_experiment(m, 2, samples=1, seed=0, unitaries=bad)
    report = run_experiment(m, 2, samples=1, seed=0, unitaries="identity")
    assert "identity:V" in report.flags
    for unitaries in ("sample", "all"):
        assert run_experiment(m, 2, 1, 0, unitaries=unitaries).flags == ()


def test_single_loop_vector_path_matches_wishart():
    # the loop's Haar isometry is a uniform vector: rescaled moments of the
    # one route and of a Ginibre matrix's Wishart spectrum must agree
    # within 3 sigma
    m = single_loop(s=1)
    N, samples = 16, 60

    def moments(spectra, rescale, p):
        vals = [float(np.mean((rescale * s) ** p)) for s in spectra]
        return np.mean(vals), np.std(vals, ddof=1) / math.sqrt(len(vals))

    dense = run_experiment(m, N, samples, seed=123).spectra
    wish = [wishart_spectrum(N, N, np.random.default_rng([321, i]))
            for i in range(samples)]
    for p in (1, 2, 3):
        m1, s1 = moments(dense, N, p)
        m2, s2 = moments(wish, N, p)
        assert abs(m1 - m2) <= 3.0 * math.hypot(s1, s2) + 1e-12


def test_spectral_report_renyi():
    m = black_hole(traced=[0, 3])
    orders = (0.0, 0.5, 1.0, 2.0, 3.0)
    report = run_experiment(m, 2, samples=1, seed=5, q_list=orders)
    values = [report.renyi_mean[q] for q in orders]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    assert report.renyi_mean[0.0] == pytest.approx(math.log(report.ranks[0]))
    assert report.renyi_mean[1.0] == report.mean_H
    with pytest.raises(ValidationError):
        run_experiment(m, 2, samples=1, seed=5, q_list=(-1.0,))


def test_run_experiment_black_hole_case2():
    m = black_hole(traced=[0, 2])
    report = run_experiment(m, 16, samples=10, seed=7)
    assert abs(report.mean_H - (2.0 * math.log(16) - 0.5)) <= 0.02


def test_run_experiment_two_loops():
    report = run_experiment(two_loops(s=2), 8, samples=50, seed=5)
    assert abs(report.mean_H - (2.0 * math.log(8) - 0.5)) <= 0.03
    assert report.flags == ()  # one vertex, acted on, nothing skipped


def test_run_experiment_adapted_zero_variance():
    report = run_experiment(adapted_five(), 2, samples=2, seed=1)
    assert report.stderr_H == 0.0
    assert report.per_sample_H[0] == report.per_sample_H[1]
    assert report.ranks == (32, 32)
    assert report.mean_H == pytest.approx(5.0 * math.log(2), abs=1e-10)


def test_run_experiment_deterministic():
    m = black_hole(traced=[0, 2])
    a = run_experiment(m, 4, samples=5, seed=99)
    b = run_experiment(m, 4, samples=5, seed=99)
    assert a.per_sample_H == b.per_sample_H
    assert a.mean_H == b.mean_H


def test_run_experiment_jobs_equivalence():
    m = black_hole(traced=[0, 2])
    serial = run_experiment(m, 4, samples=4, seed=13, jobs=1)
    parallel = run_experiment(m, 4, samples=4, seed=13, jobs=2)
    assert serial.per_sample_H == parallel.per_sample_H
    assert serial.mean_H == parallel.mean_H


def test_leg_choice_invariance():
    # same counts, two leg-level completions: Haar invariance makes the
    # distributions identical, so the means agree statistically
    samples, N = 100, 8
    a = run_experiment(black_hole(traced=[0, 1]), N, samples, seed=17)
    b = run_experiment(black_hole(traced=[0, 2]), N, samples, seed=71)
    combined = math.hypot(a.stderr_H, b.stderr_H)
    assert abs(a.mean_H - b.mean_H) <= 3.0 * combined


def test_skip_invariance():
    m = black_hole(traced=[0, 2])
    on = run_experiment(m, 8, samples=3, seed=23, unitaries="sample")
    off = run_experiment(m, 8, samples=3, seed=23, unitaries="all")
    for h_on, h_off in zip(on.per_sample_H, off.per_sample_H):
        assert abs(h_on - h_off) < 1e-9


def test_purity_and_entropy_bounds():
    rng = np.random.default_rng(29)
    for k in range(10):
        m = random_marginal(rng, max_vertices=3, max_edges=3)
        report = run_experiment(m, 2, samples=1, seed=k)
        purity = float(np.sum(report.spectra[0] ** 2))
        ds = surviving_dimension(m, 2)
        assert purity >= 1.0 / ds - 1e-12
        # the Gram matrix has side min(ds, dt)
        dt = math.prod(leg_dimensions(m, 2)) // ds
        assert report.mean_H <= math.log(min(ds, dt)) + 1e-9


def test_guards_before_sampling():
    with pytest.raises(ResourceGuardError):
        run_experiment(adapted_five(), 8, samples=1, seed=0)
    with pytest.raises(ValidationError):
        run_experiment(single_loop(), 4, samples=0, seed=0)
    for bad in (-1, 1.5, True):
        with pytest.raises(ValidationError, match="seed"):
            run_experiment(single_loop(), 4, samples=1, seed=bad)


def test_negative_renyi_order_rejected_before_sampling(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(mc_simulator, "_gram_stack", no_sampling)
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="Renyi"):
            run_experiment(single_loop(), 4, samples=2, seed=0, q_list=(0.0, bad))


def test_empirical_vs_mp_single_loop():
    report = run_experiment(single_loop(s=1), 64, samples=20, seed=4)
    result = empirical_vs_mp(report, c=1.0, rescale=64.0, max_p=4)
    assert result.theoretical == (1.0, 2.0, 5.0, 14.0)
    for emp, theory in zip(result.empirical, result.theoretical):
        assert abs(emp - theory) <= 0.05 * theory


def test_empirical_vs_mp_degenerate_pure():
    report = run_experiment(black_hole_counts(1, 2, 1), 2, samples=2, seed=0)
    result = empirical_vs_mp(report, c=1.0, rescale=1.0)
    assert len(result.distances) == 4  # reported, no crash


def test_pure_spectrum_entropies_are_positive_zeros():
    entropy, renyi, _ = mc_simulator._summarize_spectrum(
        np.array([[1.0, 0.0, 0.0]]), (0.0, 0.5, 1.0, 2.0, 3.0))
    for value in (entropy[0], *(values[0] for values in renyi.values())):
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


def _summary_oracle(eig, q_list):
    """The per-spectrum summary the stacked one replaced: (clipped
    spectrum, entropy, Renyi entropies, rank)."""
    eig = eig.copy()
    top = eig[0]
    eig[eig < mc_simulator.EIGENVALUE_CLIP_REL * top] = 0.0
    rank = int(np.count_nonzero(eig > mc_simulator.RANK_THRESHOLD_REL * top))
    positive = eig[eig > 0]
    entropy = 0.0 - float(np.sum(positive * np.log(positive)))
    renyi = {}
    for q in q_list:
        if q == 0.0:
            renyi[q] = math.log(rank) if rank else 0.0
        elif q == 1.0:
            renyi[q] = entropy
        else:
            log_sum = q * math.log(top) + math.log(float(np.sum((positive / top) ** q)))
            renyi[q] = log_sum / (1.0 - q) + 0.0
    return eig, entropy, renyi, rank


@pytest.mark.parametrize("side", [3, 9, 17, 130])
def test_stacked_summary_matches_per_spectrum_sums(side):
    # each spectrum keeps a positive prefix of its own length, its tail
    # exact zeros, clipped tiny values or tiny negatives; sides past the
    # 8 accumulators of numpy's pairwise sum make a tail of zeros change
    # the bits of a sum over the whole row
    rng = np.random.default_rng(side)
    q_list = (0.0, 0.5, 1.0, 2.0, 3.0)
    rows = []
    for k in range(12):
        row = np.sort(rng.random(side) + 0.1)[::-1]
        keep = max(1, side - k)
        row[keep:] = (0.0, 1e-14, -1e-15)[k % 3]
        rows.append(row / row.sum())
    stack = np.array(rows)
    expected = [_summary_oracle(row, q_list) for row in stack]
    got_entropy, got_renyi, got_rank = mc_simulator._summarize_spectrum(stack, q_list)
    for k, (eig, entropy, renyi, rank) in enumerate(expected):
        assert stack[k].tobytes() == eig.tobytes()  # clipped in place
        assert got_entropy[k] == entropy and got_rank[k] == rank
        assert {q: got_renyi[q][k] for q in q_list} == renyi


def test_wishart_experiment_page_values():
    # the Wishart (induced) ensemble is a vertex carrying only loops
    m64, N64 = page_marginal(64, 64)
    r64 = run_experiment(m64, N64, samples=20, seed=3)
    assert abs(r64.mean_H - (math.log(64) - 0.5)) <= 0.02
    m256, N256 = page_marginal(64, 256)
    r256 = run_experiment(m256, N256, samples=20, seed=3)
    assert abs(r256.mean_H - (math.log(64) - 0.125)) <= 0.02
    assert (r64.dim, r256.dim) == (64, 64)
    with pytest.raises(ValidationError, match="N must be at least 2"):
        run_experiment(m64, 1, samples=5, seed=0)
    with pytest.raises(ValidationError, match="Renyi"):
        run_experiment(m256, N256, 2, 0, q_list=(-1.0,))


def test_wishart_summary_matches_spectral_report():
    # two loops at N = 3 with one leg traced: ds = 27 against dt = 3, so each
    # spectrum holds the 3 eigenvalues of its Gram side, clipped and summed
    # there, and the report records the 27 the structural zeros complete
    report = run_experiment(two_loops(s=3), 3, samples=3, seed=3,
                            q_list=(0.0, 1.0, 2.0))
    assert report.ranks == (3, 3, 3)
    assert report.dim == 27
    for spectrum, h in zip(report.spectra, report.per_sample_H):
        assert spectrum.shape == (3,)
        assert abs(spectrum.sum() - 1.0) < 1e-12
        assert h == pytest.approx(-float(np.sum(spectrum * np.log(spectrum))))
    assert report.renyi_mean[0.0] == pytest.approx(math.log(3))
    assert report.renyi_mean[1.0] == report.mean_H


def test_ginibre_shape_and_scale():
    words = mc_simulator._seed_words(17, 0, 1, [0])[:, 0]
    g = mc_simulator._ginibre_stack(words, 200, 300)
    assert g.shape == (1, 200, 300)
    # unit-variance complex entries
    assert abs(np.mean(np.abs(g) ** 2) - 1.0) < 0.02


def _two_draw_ginibre(rows, cols, rng):
    """Oracle: the real parts and the imaginary parts as two draws."""
    shape = (rows, cols)
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    z /= math.sqrt(2.0)
    return z


@pytest.mark.parametrize("shape", [(1, 1), (4, 4), (3, 7), (16, 2), (64, 64),
                                   (8, 2), (64, 3), (128, 32)])
def test_ginibre_matches_two_draws_bit_for_bit(shape):
    for seed in range(40):
        # a chunk draws several streams into one stack, scaling by 1 / sqrt 2
        # where the two draws divide by sqrt 2
        slots = [0, 3, 5]
        words = mc_simulator._seed_words(seed, 2, 4, slots).reshape(-1, 4)
        expected = [_two_draw_ginibre(*shape, _vertex_stream(seed, index, slot))
                    for index in (2, 3) for slot in slots]
        got = mc_simulator._ginibre_stack(words, *shape)
        assert got.tobytes() == np.stack(expected).tobytes()


# -- oracle: dense kron state, per-vertex axis application, SVD --------------


def _apply_on_axes(psi, axes, matrix):
    """Apply ``matrix`` on the grouped ``axes`` of ``psi``."""
    rest = [a for a in range(psi.ndim) if a not in axes]
    perm = list(axes) + rest
    shaped = psi.transpose(perm)
    inner_shape = shaped.shape
    shaped = matrix @ shaped.reshape(matrix.shape[0], -1)
    return shaped.reshape(inner_shape).transpose(np.argsort(perm))


def _loop_embedding(g, v, dims):
    """The isometry ``|Phi>_loops x 1`` from the non-loop legs of ``v`` into
    all its legs, both in leg order (a loop's two legs are adjacent)."""
    loops = g.loop_indices(v)
    w = np.ones((1, 1))
    for e in sorted({g.legs[l].edge for l in g.legs_of(v)}):
        d = dims[2 * e]
        w = np.kron(w, np.eye(d).reshape(-1, 1) / math.sqrt(d) if e in loops
                    else np.eye(d))
    return w


def _completion(v_iso, w_iso):
    """A unitary ``U`` with ``U W = V`` for two isometries of one shape."""
    cols = v_iso.shape[1]
    v_rest = np.linalg.qr(v_iso, mode="complete")[0][:, cols:]
    w_rest = np.linalg.qr(w_iso, mode="complete")[0][:, cols:]
    u = v_iso @ w_iso.conj().T + v_rest @ w_rest.conj().T
    assert np.abs(u @ w_iso - v_iso).max() <= 1e-12
    assert np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() <= 1e-12
    return u


def _oracle_spectrum(m, N, unitaries, rng, skip_traced, skip_surviving):
    """The dense route: kron of the edge pairs, each vertex's unitary
    applied on its legs, then the squared singular values of the
    (surviving x traced) factor.  A sampled vertex draws the builder's
    isometry from the same stream and applies a unitary completing it."""
    g = m.graph
    dims = leg_dimensions(m, N)
    traced = sorted(m.traced)
    surviving = [l for l in range(g.n_legs) if l not in traced]
    streams = rng.spawn(len(g.vertices))
    vec = np.ones(1, dtype=complex)
    for e in g.edges:
        d = e.d * N
        vec = np.kron(vec, np.eye(d).reshape(-1) / math.sqrt(d))
    psi = vec.reshape(dims)
    flags = []
    for slot, v in enumerate(g.vertices):
        if unitaries == "identity":
            flags.append(f"identity:{v}")
            continue
        if m.s(v) == 0 and skip_traced:
            flags.append(f"skipped_traced:{v}")
            continue
        if m.t(v) == 0 and skip_surviving:
            flags.append(f"skipped_surviving:{v}")
            continue
        w = _loop_embedding(g, v, dims)
        isometry = mc_simulator._isometry(_two_draw_ginibre(*w.shape, streams[slot]))
        psi = _apply_on_axes(psi, list(g.legs_of(v)), _completion(isometry, w))
    ds = math.prod(dims[l] for l in surviving)
    factor = psi.transpose(surviving + traced).reshape(ds, -1)
    sv = np.linalg.svd(factor, compute_uv=False)
    eig = np.zeros(ds)
    eig[: sv.size] = sv ** 2
    eig[::-1].sort()
    return eig, tuple(flags)


ORACLE_CASES = [
    # a loop and an edge at a sampled vertex, a loop at a skipped one
    marginal_from(["A", "B"], [("A", "A", 1), ("A", "B", 1), ("B", "B", 1)],
                  {"mode": "legs", "traced": [0, 3]}),
    oxygen(traced=[0, 3]),                      # multi-edge
    oxygen(traced=[0, 1], d2=2),
    black_hole(traced=[0, 2], d1=2),
    # edge A-B joins a fully traced and a fully surviving vertex
    marginal_from(["A", "B", "C"], [("A", "B", 1), ("B", "C", 1), ("C", "A", 1)],
                  {"mode": "counts", "s": {"A": 0, "B": 2, "C": 1}}),
    two_loops(s=1),
    single_loop(s=1, d=2),
]


def _assert_matches_oracle(m, unitaries, seed, skip=None):
    # sample 0 of a run draws from the streams default_rng([seed, 0]) spawns.
    # The oracle skips the unitaries that ``skip`` names, by default those
    # the mode skips; a unitary on a fully traced or a fully surviving
    # vertex leaves the spectrum as it is, so the run matches it either way,
    # and its flags wherever the two skip the same vertices
    report = run_experiment(m, 2, samples=1, seed=seed, unitaries=unitaries)
    own = (unitaries == "sample",) * 2
    skip = own if skip is None else skip
    expected, flags = _oracle_spectrum(m, 2, unitaries,
                                       np.random.default_rng([seed, 0]), *skip)
    got = report.spectra[0]
    ds = expected.size
    if unitaries == "identity" or skip == own:
        assert report.flags == tuple(sorted(flags))
    assert len(got) == min(ds, math.prod(leg_dimensions(m, 2)) // ds)
    assert report.dim == ds
    assert np.abs(padded(got, ds) - expected).max() <= 1e-12
    assert report.ranks[0] == \
        mc_simulator._summarize_spectrum(expected[None], (0.0,))[2][0]


@pytest.mark.parametrize("skip", [(True, True), (False, False),
                                  (True, False), (False, True)])
@pytest.mark.parametrize("case", range(len(ORACLE_CASES)))
def test_contraction_matches_dense_oracle(case, skip):
    # every mode against the oracle under each of its skip pairs
    m = ORACLE_CASES[case]
    for unitaries in ("sample", "all", "identity"):
        _assert_matches_oracle(m, unitaries, 100 + case, skip)


def test_contraction_matches_dense_oracle_random_marginals():
    rng = np.random.default_rng(41)
    for i in range(40):
        m = random_marginal(rng, max_vertices=4, max_edges=4)
        skip = (bool(i % 2), bool(i // 2 % 2))
        _assert_matches_oracle(m, "sample", i, skip)


def test_spectrum_from_either_gram_side():
    # the Gram matrix is the surviving side's when ds <= dt and the traced
    # side's else: two loops at N = 2 with s = 0..4 kept legs give
    # (ds, dt) = (1, 16), (2, 8), (4, 4), (8, 2) and (16, 1)
    for s in range(5):
        m = two_loops(s=s)
        plan = _sample_plan(m, 2, "all")
        assert (plan.dim, plan.side) == (2 ** s, min(2 ** s, 2 ** (4 - s)))
        _assert_matches_oracle(m, "all", 8 + s)
        eig = run_experiment(m, 2, samples=1, seed=s).spectra[0]
        assert (np.diff(eig) <= 0).all()


def test_nonpositive_jobs_rejected_before_sampling(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(mc_simulator, "_gram_stack", no_sampling)
    for jobs in (0, -2):
        with pytest.raises(ValidationError, match="jobs"):
            run_experiment(single_loop(), 4, samples=2, seed=0, jobs=jobs)


@pytest.mark.parametrize("name, bad, message", [
    ("samples", 2.5, "need at least one sample"),
    ("samples", True, "need at least one sample"),
    ("jobs", 1.5, "jobs must be at least 1, got 1.5"),
    ("jobs", True, "jobs must be at least 1, got True"),
    ("N", 2.5, "N must be at least 2"),
    ("N", True, "N must be at least 2"),
    ("N", 2.0, "N must be at least 2"),  # equal to 2, whose plan is cached
])
def test_non_integer_arguments_rejected_before_sampling(monkeypatch, name, bad,
                                                        message):
    mc_simulator._route(single_loop(), 2, "sample")

    def no_sampling(*args, **kwargs):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(mc_simulator, "_gram_stack", no_sampling)
    kwargs = {"N": 2, "samples": 2, "seed": 0, "jobs": 1, name: bad}
    with pytest.raises(ValidationError) as info:
        run_experiment(single_loop(), **kwargs)
    assert str(info.value) == message


def lattice(rows, cols):
    return parse_marginal(json.dumps(lattice_doc(rows, cols)))


def _sample_plan(m, N, unitaries="sample"):
    return mc_simulator._route(m, N, unitaries)[1]


def _plan_labels(m, N, unitaries="sample"):
    """The (path, inputs, output) that :func:`_plan_steps` plans when the
    sampled plan of ``m`` is built afresh; the plan keeps only the steps.
    The inputs hold each operand's ket then bra copy (the acted vertices,
    then the identity edges); the output holds the ket then bra labels of
    the smaller side's legs."""
    calls = []
    plan_steps = mc_simulator._plan_steps

    def recorded(inputs, output, size):
        steps, largest = plan_steps(inputs, output, size)
        calls.append((_path(steps), inputs, output))
        return steps, largest

    mc_simulator._gram_plan.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mc_simulator, "_plan_steps", recorded)
        _sample_plan(m, N, unitaries)
    (labels,) = calls
    return labels


def _path(steps):
    """The pairwise path of planned steps, as einsum_path's (i, j) pairs."""
    return tuple((i, j) for (j, i), *_ in steps)


def test_guard_bounds_the_largest_array(monkeypatch):
    # the 2x4 lattice's state has 2^20 entries, but no array the Gram
    # contraction builds is larger than a few thousand
    m = lattice(2, 4)
    plan = _sample_plan(m, 2)
    assert 64 ** 2 <= plan.largest < 2 ** 20
    monkeypatch.setenv("AREALAW_STATE_DIM_LIMIT", str(plan.largest - 1))
    with pytest.raises(ResourceGuardError, match="AREALAW_STATE_DIM_LIMIT"):
        run_experiment(m, 2, samples=1, seed=0)
    monkeypatch.setenv("AREALAW_STATE_DIM_LIMIT", str(plan.largest))
    assert run_experiment(m, 2, samples=1, seed=0).samples == 1


def test_wide_lattice_runs_under_the_default_guard():
    # 2^26 amplitudes, refused while the state was built; 52 labels
    m = lattice(2, 5)
    plan = _sample_plan(m, 2)
    assert plan.largest <= mc_simulator.DEFAULT_STATE_DIM_LIMIT
    report = run_experiment(m, 2, samples=2, seed=0)
    assert all(0.0 < h <= math.log(2 ** 8) for h in report.per_sample_H)
    assert max(report.ranks) <= 2 ** 8


@pytest.mark.parametrize("rows, cols", [(2, 6), (3, 4)])
def test_lattices_beyond_einsum_labels_run_under_the_default_guards(
        monkeypatch, rows, cols):
    # 66 and 70 labels in the doubled network, more than numpy's einsum takes
    monkeypatch.delenv("AREALAW_STATE_DIM_LIMIT", raising=False)
    m = lattice(rows, cols)
    _, inputs, _ = _plan_labels(m, 2)
    assert len(set().union(*inputs)) > 52
    report = run_experiment(m, 2, samples=2, seed=0)
    assert all(0.0 < h <= 10 * math.log(2) for h in report.per_sample_H)


def test_2x7_lattice_plan_fits_the_default_guard(monkeypatch):
    # 80 labels; planned and guarded only: a sample takes about 20 s on two cores
    monkeypatch.delenv("AREALAW_STATE_DIM_LIMIT", raising=False)
    _, inputs, _ = _plan_labels(lattice(2, 7), 2)
    plan = _sample_plan(lattice(2, 7), 2)
    assert len(set().union(*inputs)) == 80
    assert plan.largest == 2 ** 24 == mc_simulator.DEFAULT_STATE_DIM_LIMIT


def _numpy_greedy_path(inputs, output, size):
    """np.einsum_path's greedy pairs, on the labels compacted to 0..k-1."""
    compact = {x: i for i, x in enumerate(sorted(size))}
    operands = [y for labels in inputs
                for y in (np.broadcast_to(0.0, [size[x] for x in labels]),
                          [compact[x] for x in labels])]
    path = np.einsum_path(*operands, [compact[x] for x in output],
                          optimize=("greedy", 2 ** 24))[0]
    return tuple(path[1:])


@pytest.fixture
def planned(monkeypatch):
    """Every path planned while the test runs, as (inputs, output, size,
    path); the plan cache is emptied before and after."""
    calls = []
    plan_steps = mc_simulator._plan_steps

    def recorded(inputs, output, size):
        steps, largest = plan_steps(inputs, output, size)
        calls.append((inputs, output, size, _path(steps)))
        return steps, largest

    monkeypatch.setattr(mc_simulator, "_plan_steps", recorded)
    mc_simulator._gram_plan.cache_clear()
    yield calls
    mc_simulator._gram_plan.cache_clear()


def test_greedy_path_matches_numpy(planned):
    # the suite's plans, rebuilt: the dense-oracle cases and the random
    # marginals of the dense-oracle test under every mode, the transport
    # instances, the lattices and black-hole case 2 at N = 8 and 32
    from arealaw import certify

    from test_transport import (doubled_edge_instance, isolated_pads_instance,
                                path_instance, single_edge_instance)

    rng = np.random.default_rng(41)
    randoms = [random_marginal(rng, max_vertices=4, max_edges=4) for _ in range(40)]
    for m in ORACLE_CASES + randoms:
        for unitaries in ("sample", "all", "identity"):
            _sample_plan(m, 2, unitaries)
    for instance, N in ((single_edge_instance(), 2), (doubled_edge_instance(), 2),
                        (path_instance(), 2), (isolated_pads_instance(), 2),
                        (doubled_edge_instance(8), 8), (path_instance(), 3)):
        certify(instance, N, haar_samples=1, seed=0)
    for m in (lattice(2, 4), lattice(2, 5)):
        _sample_plan(m, 2)
    for N in (8, 32):
        _sample_plan(black_hole(traced=[0, 2]), N)
    checked = [call for call in planned if len(call[2]) <= 52]
    assert len(checked) == len(planned) == 109  # distinct plans
    for inputs, output, size, path in checked:
        assert path == _numpy_greedy_path(inputs, output, size)


def test_greedy_path_once_per_plan(planned):
    m = lattice(2, 4)
    first = run_experiment(m, 2, samples=5, seed=3)
    assert len(planned) == 1
    again = run_experiment(m, 2, samples=5, seed=3)
    assert len(planned) == 1  # the plan is memoised across runs
    assert again.per_sample_H == first.per_sample_H


def test_identity_route_is_exact(monkeypatch):
    # transport.certify's routed states: no unitary acts, only identities
    grams = []
    stack = mc_simulator._gram_stack

    def recorded(plan, streams):
        grams.append(stack(plan, streams))
        return grams[-1]

    monkeypatch.setattr(mc_simulator, "_gram_stack", recorded)
    rng = np.random.default_rng(47)
    for _ in range(20):
        m = random_marginal(rng, max_vertices=4, max_edges=4)
        eig = run_experiment(m, 3, samples=1, seed=0, unitaries="identity").spectra[0]
        assert not np.iscomplexobj(grams.pop())
        rank = int(np.count_nonzero(eig))
        assert np.abs(eig[:rank] - 1.0 / rank).max() <= 1e-15


def test_plan_contracts_pairwise():
    # numpy's greedy search, bounded only by its inputs' sizes, left the last
    # three operands of this doubled network to one unblocked loop over 2^20
    # terms; every step of a plan is one pairwise (matrix-product) contraction
    twisted = marginal_from(
        ["P0", "P1"], [("P0", "P1", 1)] * 3 + [("P0", "P0", 1), ("P1", "P1", 1)],
        {"mode": "legs", "traced": [1, 2, 4, 6, 8]})
    rng = np.random.default_rng(53)
    marginals = [twisted, lattice(2, 4), lattice(2, 5)] + ORACLE_CASES + [
        random_marginal(rng, max_vertices=4, max_edges=5) for _ in range(30)]
    for m in marginals:
        path, _, _ = _plan_labels(m, 2)
        assert all(len(step) == 2 for step in path), path
    _assert_matches_oracle(twisted, "sample", 7)


def test_no_pairwise_path_rejected_before_sampling(monkeypatch):
    # at N = 16 every pair of the triangle's doubled network builds more than
    # 2^24 elements (numpy's greedy search, bounded there, leaves a
    # three-operand step); the pairwise path is planned and the state guard
    # refuses its 2^32-element intermediate
    def no_sampling(*args, **kwargs):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(mc_simulator, "_gram_stack", no_sampling)
    monkeypatch.delenv("AREALAW_STATE_DIM_LIMIT", raising=False)
    triangle = marginal_from(["A", "B", "C"],
                             [("A", "B", 1), ("B", "C", 1), ("C", "A", 1)],
                             {"mode": "counts", "s": {"A": 1, "B": 1, "C": 1}})
    assert all(len(step) == 2 for step in _plan_labels(triangle, 8)[0])
    with pytest.raises(ResourceGuardError,
                       match=r"^largest contraction array 4294967296 exceeds the "
                             r"guard 16777216 \(set AREALAW_STATE_DIM_LIMIT"):
        run_experiment(triangle, 16, samples=1, seed=0)


def test_loop_vertex_draws_an_isometry(monkeypatch):
    # each acted vertex draws one vdim x r_v Ginibre matrix per sample: its
    # stream fills the real and the imaginary parts, (2, vdim, r_v) normals
    drawn = []
    draw = mc_simulator._normals

    def recorded(words, out):
        drawn.append(out.shape[1:])
        return draw(words, out)

    monkeypatch.setattr(mc_simulator, "_normals", recorded)
    # A: a loop and the edge to B; B: that edge and a loop; all legs 2-dim
    run_experiment(ORACLE_CASES[0], 2, samples=1, seed=0)
    assert drawn == [(8, 2), (8, 2)]
    drawn.clear()
    # no loop: the full unitary of V2, the only vertex acted on
    run_experiment(black_hole(traced=[0, 2]), 2, samples=1, seed=0)
    assert drawn == [(4, 4)]


def test_three_loops_run_under_the_default_guards(monkeypatch):
    # vdim = 8^6, but the isometry has one column: a 2^18-entry vector on
    # the ket and its conjugate on the bra
    monkeypatch.delenv("AREALAW_STATE_DIM_LIMIT", raising=False)
    m = marginal_from(["V"], [("V", "V", 1)] * 3, {"mode": "counts", "s": {"V": 2}})
    plan = _sample_plan(m, 8)
    assert [(vdim, cols) for _, vdim, cols, _ in plan.vertices] == [(8 ** 6, 1)]
    assert plan.largest == 8 ** 6
    report = run_experiment(m, 8, samples=2, seed=0)
    assert report.flags == ()
    assert all(0.0 < h <= math.log(64) for h in report.per_sample_H)


def _vertex_stream(seed, index, slot):
    """Oracle: sample ``index``'s generator at a vertex slot, the one
    ``default_rng([seed, index]).spawn(n)[slot]`` gives, built alone."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([seed, index], spawn_key=(slot,))))


def test_vertex_streams_match_spawned_streams():
    # a sample's vertex stream is built alone, without spawning every slot
    for seed, index, slot in ((0, 0, 0), (7, 3, 5), (2 ** 40, 12, 1), (1, 49, 7)):
        spawned = np.random.default_rng([seed, index]).spawn(8)[slot]
        direct = _vertex_stream(seed, index, slot)
        assert np.array_equal(spawned.standard_normal(16),
                              direct.standard_normal(16))


@pytest.mark.parametrize("seed", [0, 7, 2 ** 40, 2 ** 70 + 1, 2 ** 130 + 3])
def test_seed_words_match_seed_sequences(seed):
    # seeds of 1, 2, 3 and 5 uint32 words; indices at and beyond 2^32 and
    # 2^64, derived alone and in ranges that straddle those widths
    indices = (0, 1, 2 ** 32 - 1, 2 ** 32 + 1, 2 ** 64 - 1, 2 ** 64 + 1)
    slots = list(range(8))
    blocks = {index: mc_simulator._seed_words(seed, index, index + 1, slots)[0]
              for index in indices}
    for low in (2 ** 32 - 1, 2 ** 64 - 1):
        straddle = mc_simulator._seed_words(seed, low, low + 3, slots)
        assert straddle.shape == (3, 8, 4) and straddle.dtype == np.uint64
        assert np.array_equal(straddle[[0, 2]], np.stack([blocks[low], blocks[low + 2]]))
    assert np.array_equal(mc_simulator._seed_words(seed, 0, 2, slots),
                          np.stack([blocks[0], blocks[1]]))
    for index in indices:
        for slot in slots:
            expected = _vertex_stream(seed, index, slot).bit_generator
            got = np.random.PCG64(mc_simulator._SeedWords(blocks[index][slot]))
            assert got.state == expected.state
            assert got.random_raw(4).tolist() == expected.random_raw(4).tolist()
    assert mc_simulator._seed_words(seed, 3, 5, []).shape == (2, 0, 4)


def test_sampling_seam_is_reached(monkeypatch):
    # the tests that prove nothing was sampled patch _gram_stack; every
    # state, sampled or the identity one, is built there
    calls = []
    stack = mc_simulator._gram_stack

    def counted(plan, streams):
        calls.append(len(streams))
        return stack(plan, streams)

    monkeypatch.setattr(mc_simulator, "_gram_stack", counted)
    run_experiment(single_loop(), 4, samples=2, seed=0)
    run_experiment(single_loop(), 4, samples=1, seed=0, unitaries="identity")
    assert calls == [2, 1]


def test_normalization_drift_names_the_first_drifting_sample(monkeypatch):
    # three lattice samples share one chunk; samples 1 and 2 are scaled by
    # 1.5 and 2 after the contraction, and the message names sample 1's trace
    m = lattice(2, 4)
    plan = _sample_plan(m, 2)
    assert mc_simulator.CHUNK_ELEMENTS // plan.largest >= 3
    contract = mc_simulator._contract

    def scaled(steps, operands):
        out = contract(steps, operands)
        return out * np.array([1.0, 1.5, 2.0]).reshape(-1, *[1] * (out.ndim - 1))

    monkeypatch.setattr(mc_simulator, "_contract", scaled)
    with pytest.raises(InconsistencyError,
                       match=r"^state normalization drifted to 1\.(5|49999)"):
        run_experiment(m, 2, samples=3, seed=0)


def test_nan_trace_is_a_drift(monkeypatch):
    # abs(nan - 1) > tol is false: a NaN trace must still be caught, before
    # the eigensolver meets it
    m = lattice(2, 4)
    contract = mc_simulator._contract

    def poisoned(steps, operands):
        out = contract(steps, operands)
        return out * np.array([1.0, np.nan, 1.0]).reshape(-1, *[1] * (out.ndim - 1))

    monkeypatch.setattr(mc_simulator, "_contract", poisoned)
    with pytest.raises(InconsistencyError,
                       match=r"^state normalization drifted to nan$"):
        run_experiment(m, 2, samples=3, seed=0)


def _isometries(m, plan, seed, index):
    """Sample ``index``'s isometries, each the phase-fixed QR of the two-draw
    Ginibre matrix from the vertex stream that ``default_rng([seed,
    index])`` spawns."""
    streams = np.random.default_rng([seed, index]).spawn(len(m.graph.vertices))
    return [mc_simulator._isometry(_two_draw_ginibre(vdim, cols, streams[slot]))
            .reshape(shape) for slot, vdim, cols, shape in plan.vertices]


def _einsum(arrays, inputs, output, **kwargs):
    """np.einsum over integer labels compacted to 0..k-1 (it takes 52)."""
    compact = {x: i for i, x in enumerate(sorted(set().union(*inputs)))}
    return np.einsum(*(y for a, labels in zip(arrays, inputs)
                       for y in (a, [compact[x] for x in labels])),
                     [compact[x] for x in output], **kwargs)


def _einsum_oracle(m, N, samples, seed, q_list=(0.0, 1.0, 2.0)):
    """The per-sample route that chunks replaced: each sample spawns its
    vertex streams, draws each isometry (:func:`_isometries`) and contracts
    one np.einsum over the plan's labels and path, then the spectrum
    summary."""
    path, inputs, output = _plan_labels(m, N)
    flags, plan = mc_simulator._route(m, N, "sample")
    spectra = []
    for i in range(samples):
        arrays = [t for tensor in _isometries(m, plan, seed, i)
                  for t in (tensor, tensor.conj())]
        arrays += [np.eye(dim) for dim in plan.eyes for _ in range(2)]  # ket, bra
        out = _einsum(arrays, inputs, output, optimize=["einsum_path", *path])
        gram = out.reshape(plan.side, plan.side) * plan.scale
        spectra.append(mc_simulator._spectrum(gram))
    return mc_simulator._mc_report(np.array(spectra), tuple(sorted(flags)), seed,
                                   N, q_list, plan.dim)


def _assert_same_reports(got, expected):
    assert got.per_sample_H == expected.per_sample_H
    assert got.ranks == expected.ranks
    assert got.renyi_mean == expected.renyi_mean
    assert got.flags == expected.flags
    assert got.dim == expected.dim
    assert len(got.spectra) == len(expected.spectra)
    for a, b in zip(got.spectra, expected.spectra):
        assert np.array_equal(a, b)


def ring_11():
    # nine of eleven vertices keep one leg: 9 kept legs against 13
    names = [f"V{i}" for i in range(11)]
    return marginal_from(
        names, [(names[i], names[(i + 1) % 11], 1) for i in range(11)],
        {"mode": "counts", "s": {v: int(i not in (0, 5)) for i, v in enumerate(names)}})


def routed_doubled_edge():
    # the routed state transport.certify samples for two pairs over a
    # doubled edge: both endpoints act, with isometries of one shape
    from arealaw import Marginal, TransportInstance, routing, to_marginal

    instance = TransportInstance.build(
        ["P1", "P2"], {("P1", "P2"): 2}, {"P1": (1, 1), "P2": (1, 1)})
    g = to_marginal(instance).graph
    marked = routing(instance).marking.marked
    routed = Marginal.from_legs(
        g, (l for l in range(g.n_legs) if l not in marked))
    shapes = [(vdim, cols) for _, vdim, cols, _ in _sample_plan(routed, 2).vertices]
    assert shapes == [(4, 4), (4, 4)]
    return routed


# (marginal, N, samples)
EQUIVALENCE_CASES = {
    "lattice": (lambda: lattice(2, 4), 2, 8),
    "black_hole": (lambda: black_hole(traced=[0, 2]), 8, 4),
    "two_loops": (lambda: two_loops(s=2), 8, 6),
    # every vertex skipped: one state for every sample
    "nothing_acted": (lambda: adapted_path(), 3, 5),
    "routed_transport": (routed_doubled_edge, 2, 5),
}


@pytest.mark.parametrize("chunk", [1, 2 ** 30])
@pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
def test_chunks_match_the_per_sample_einsum(monkeypatch, case, chunk):
    # one sample per chunk, or every sample in one chunk: bit for bit the
    # reports of one einsum per sample
    make, N, samples = EQUIVALENCE_CASES[case]
    m = make()
    monkeypatch.setattr(mc_simulator, "CHUNK_ELEMENTS", chunk)
    got = run_experiment(m, N, samples, seed=11)
    _assert_same_reports(got, _einsum_oracle(m, N, samples, 11))


@pytest.mark.parametrize("chunk", [1, 2 ** 30])
def test_ring_beyond_einsum_labels_matches_the_ket_factor(monkeypatch, chunk):
    # every vertex acted: the doubled network has 53 labels, more than
    # np.einsum takes, the ket alone 33; its factor F gives F F^dagger
    m = ring_11()
    _, inputs, output = _plan_labels(m, 2, "all")
    flags, plan = mc_simulator._route(m, 2, "all")
    assert len(set().union(*inputs)) == 53
    kets = inputs[0::2]  # the inputs alternate ket and bra copies
    kept = output[: len(output) // 2]
    summed = sorted(set().union(*kets) & set().union(*inputs[1::2]))
    monkeypatch.setattr(mc_simulator, "CHUNK_ELEMENTS", chunk)
    got = run_experiment(m, 2, 3, seed=13, unitaries="all")
    assert got.flags == flags == ()
    for i, (h, spectrum) in enumerate(zip(got.per_sample_H, got.spectra)):
        arrays = _isometries(m, plan, 13, i) + [np.eye(dim) for dim in plan.eyes]
        f = _einsum(arrays, kets, [*kept, *summed], optimize="greedy")
        f = f.reshape(plan.side, -1)
        gram = f @ f.conj().T * plan.scale
        expected = mc_simulator._spectrum(gram)[None]
        entropy, _, _ = mc_simulator._summarize_spectrum(expected, (0.0, 1.0, 2.0))
        assert np.abs(spectrum - expected[0]).max() <= 1e-12
        assert abs(h - entropy[0]) <= 1e-12


def test_jobs_do_not_change_a_chunked_run():
    m = lattice(2, 4)
    runs = [run_experiment(m, 2, samples=8, seed=5, jobs=jobs) for jobs in (1, 2, 8)]
    for other in runs[1:]:
        _assert_same_reports(other, runs[0])


def adapted_path():
    # A - B - C with A and B fully traced and C fully surviving: every
    # vertex is skipped and both edges are identities
    return marginal_from(["A", "B", "C"], [("A", "B", 1), ("B", "C", 1)],
                         {"mode": "counts", "s": {"A": 0, "B": 0, "C": 1}})


def crossed_path():
    # A - B - C - D with A and B fully traced, D fully surviving and C
    # crossed: the edge A - B is an identity next to C's unitary
    return marginal_from(["A", "B", "C", "D"],
                         [("A", "B", 1), ("B", "C", 1), ("C", "D", 1)],
                         {"mode": "counts", "s": {"A": 0, "B": 0, "C": 1, "D": 1}})


@pytest.mark.parametrize("acted", [True, False])
def test_identity_edges_ride_the_pool(monkeypatch, acted):
    # the plan keeps each identity edge as a dimension and every chunk
    # builds it, in a worker as in the calling process
    m = crossed_path() if acted else adapted_path()
    plan = _sample_plan(m, 3)
    assert plan.eyes == ((3,) if acted else (3, 3))
    assert len(plan.vertices) == acted
    monkeypatch.setattr(mc_simulator, "CHUNK_ELEMENTS", 1)
    runs = [run_experiment(m, 3, samples=4, seed=9, jobs=jobs) for jobs in (1, 2)]
    assert runs[1].to_document() == runs[0].to_document()
    _assert_same_reports(runs[1], runs[0])


def test_a_run_resolves_its_plan_once(monkeypatch):
    # one route, and with it one guard check, per run however many chunks
    # it ships; the plan the chunks share holds sizes and steps, no array
    routes = []
    route = mc_simulator._route

    def counted(*args):
        routes.append(route(*args))
        return routes[-1]

    def holds_array(value):
        if isinstance(value, tuple):
            return any(holds_array(x) for x in value)
        return isinstance(value, np.ndarray)

    monkeypatch.setattr(mc_simulator, "_route", counted)
    monkeypatch.setattr(mc_simulator, "CHUNK_ELEMENTS", 1)
    report = run_experiment(crossed_path(), 3, samples=3, seed=0)
    assert report.samples == 3
    ((_, plan),) = routes
    assert plan.eyes and plan.vertices
    assert not holds_array(tuple(getattr(plan, f.name) for f in fields(plan)))


def test_nothing_acted_is_diagonalised_once(monkeypatch):
    # every vertex skipped: five samples of one state, one 3 x 3 Gram matrix
    shapes = []
    spectrum = mc_simulator._spectrum

    def recorded(gram):
        shapes.append(gram.shape)
        return spectrum(gram)

    monkeypatch.setattr(mc_simulator, "_spectrum", recorded)
    report = run_experiment(adapted_path(), 3, samples=5, seed=0)
    assert shapes == [(1, 3, 3)]
    assert report.samples == len(report.spectra) == 5
    assert len(set(report.per_sample_H)) == 1 and report.ranks == (3,) * 5
    # each sample's spectrum is its own writable array, as when vertices act
    sampled = run_experiment(lattice(2, 4), 2, samples=2, seed=0)
    for spectra in (report.spectra, sampled.spectra):
        assert all(s.flags.writeable for s in spectra)
        assert not np.shares_memory(spectra[0], spectra[1])


def test_a_run_is_summarised_once(monkeypatch):
    # one sample a chunk, five chunks: their spectra land in one array,
    # summarised in one call
    calls = []
    summarize = mc_simulator._summarize_spectrum

    def counted(stack, q_list):
        calls.append(stack.shape)
        return summarize(stack, q_list)

    monkeypatch.setattr(mc_simulator, "_summarize_spectrum", counted)
    monkeypatch.setattr(mc_simulator, "CHUNK_ELEMENTS", 1)
    report = run_experiment(lattice(2, 4), 2, samples=5, seed=0)
    side = _sample_plan(lattice(2, 4), 2).side
    assert calls == [(5, side)]
    assert isinstance(report.spectra, np.ndarray)
    assert report.spectra.shape == (5, side) and report.spectra.dtype == float


def test_no_einsum_per_sample(monkeypatch):
    # numpy's einsum re-parses its path on every call; the compiled steps
    # run on matmul, and the path is planned in the package
    calls = Counter()
    for name in ("einsum", "einsum_path"):
        def counted(*args, _name=name, _fn=getattr(np, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np, name, counted)
    mc_simulator._gram_plan.cache_clear()
    run_experiment(lattice(2, 4), 2, samples=8, seed=3)
    assert not calls


def test_spectra_hold_the_gram_side():
    # A has a loop and an edge to B, B two loops, s = {A: 2, B: 5}: at
    # N = 16 the surviving dimension is 2^28 but the Gram side is 16, so 40
    # samples hold 40 x 16 eigenvalues (their 2^28-entry zero padding took
    # 80 GiB)
    import tracemalloc

    m = marginal_from(["A", "B"], [("A", "A", 1), ("A", "B", 1), ("B", "B", 1),
                                   ("B", "B", 1)],
                      {"mode": "counts", "s": {"A": 2, "B": 5}})
    tracemalloc.start()
    try:
        report = run_experiment(m, 16, samples=40, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.dim == 2 ** 28
    assert [len(spectrum) for spectrum in report.spectra] == [16] * 40
    assert peak < 64 * 2 ** 20
