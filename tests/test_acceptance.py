"""Acceptance suite: one test per criterion, one printed verdict line each.

Asymptotic claims are checked at desk scale with the stated finite-size
allowances; every tolerance is pinned here, nothing is calibrated later.
"""

import json
import math
import time

import numpy as np

from arealaw import (
    Marginal,
    TransportInstance,
    area_bruteforce,
    build_network,
    certify,
    max_flow,
    mp_xlogx,
    predict_entropy,
    run_experiment,
    scenarios,
)
from arealaw.cli import main

from conftest import (
    all_counting_functions,
    black_hole,
    doc,
    empirical_vs_mp,
    enumerate_small_graphs,
    mp_moment_quadrature,
    mp_xlogx_quadrature,
    oxygen,
    page_marginal,
    random_adapted_marginal,
    random_transport_instance,
    two_loops,
)
from nc_combinatorics import (
    catalan,
    count_multichains,
    enumerate_nc,
    fuss_catalan,
    mp_moment,
)

EXHAUSTION_CAP = 100_000


def _verdict(number: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {status}: {label} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_flow_marking_duality():
    start = time.monotonic()
    graphs = enumerate_small_graphs(max_vertices=4, max_edges=5)
    cases = [
        (g, s) for g in graphs for s in all_counting_functions(g)
    ]
    if len(cases) > EXHAUSTION_CAP:
        rng = np.random.default_rng(2024)
        picks = rng.choice(len(cases), size=200, replace=False)
        cases = [cases[i] for i in picks]
        mode = "200 random instances"
    else:
        mode = f"exhaustive, {len(graphs)} graphs up to isomorphism"
    mismatches = 0
    for g, s in cases:
        marginal = Marginal.from_counts(g, s)
        flow = max_flow(build_network(marginal)).value
        brute = area_bruteforce(marginal).area
        if flow != brute:
            mismatches += 1
    elapsed = time.monotonic() - start
    _verdict(
        1, "flow equals brute-force area",
        mismatches == 0 and elapsed < 60.0,
        f"{mode}, {len(cases)} cases, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_2_adapted_exactness():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    worst_gap = 0.0
    worst_spread = 0.0
    for _ in range(20):
        N = int(rng.integers(2, 4))
        marginal = random_adapted_marginal(rng, max_vertex_dim=512, N=N)
        exact = predict_entropy(marginal, N).value(N)
        report = run_experiment(marginal, N, samples=2, seed=int(rng.integers(10 ** 6)),
                                unitaries="all")
        worst_gap = max(worst_gap, max(abs(h - exact) for h in report.per_sample_H))
        worst_spread = max(
            worst_spread, max(report.per_sample_H) - min(report.per_sample_H)
        )
    elapsed = time.monotonic() - start
    _verdict(
        2, "adapted marginals are exact and deterministic",
        worst_gap <= 1e-8 and worst_spread <= 1e-10 and elapsed < 30.0,
        f"20 marginals, worst gap {worst_gap:.2e}, worst spread "
        f"{worst_spread:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_page_correction():
    # one vertex carrying only loops samples Page's induced ensemble
    start = time.monotonic()
    equal = run_experiment(*page_marginal(64, 64), samples=20, seed=3)
    gap_equal = abs(equal.mean_H - (math.log(64) - 0.5))
    skew = run_experiment(*page_marginal(64, 256), samples=20, seed=3)
    gap_skew = abs(skew.mean_H - (math.log(64) - 0.125))
    elapsed = time.monotonic() - start
    _verdict(
        3, "induced-ensemble means match the Page values",
        gap_equal <= 0.02 and gap_skew <= 0.02 and elapsed < 20.0,
        f"(64,64) gap {gap_equal:.4f}, (64,256) gap {gap_skew:.4f}, {elapsed:.1f}s",
    )


def test_criterion_4_one_vertex_equal_case():
    start = time.monotonic()
    report = run_experiment(two_loops(s=2), 8, samples=50, seed=5)
    target = 2.0 * math.log(8) - 0.5
    gap = abs(report.mean_H - target)
    elapsed = time.monotonic() - start
    _verdict(
        4, "two-loop equal case matches 2 ln 8 - 1/2",
        gap <= 0.03 and elapsed < 120.0,
        f"gap {gap:.4f} at N=8, 50 samples, {elapsed:.1f}s",
    )


def test_criterion_5_black_hole_and_oxygen():
    start = time.monotonic()
    details = []
    ok = True

    case2_target = 2.0 * math.log(16) - 0.5
    for name, marginal in (
        ("black-hole-2", black_hole(traced=[0, 2])),
        ("oxygen-2", oxygen(traced=[0, 3])),
    ):
        report = run_experiment(marginal, 16, samples=10, seed=7)
        gap = abs(report.mean_H - case2_target)
        ok = ok and gap <= 0.02
        details.append(f"{name} gap {gap:.4f}")

    case1_target = math.log(12 ** 2) - 0.125
    for name, marginal in (
        ("black-hole-1", black_hole(traced=[0, 1], d1=1, d2=2)),
        ("oxygen-1", oxygen(traced=[0, 1], d1=1, d2=2)),
    ):
        report = run_experiment(marginal, 12, samples=10, seed=7)
        gap = abs(report.mean_H - case1_target)
        ok = ok and gap <= 0.03
        moments = empirical_vs_mp(report, c=0.25, rescale=144.0, max_p=3)
        rel = max(d / t for d, t in zip(moments.distances, moments.theoretical))
        ok = ok and rel <= 0.05
        details.append(f"{name} gap {gap:.4f} moments {rel:.3f}")

    elapsed = time.monotonic() - start
    _verdict(5, "path and double-edge formulas", ok,
             "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_6_rank_certificates():
    start = time.monotonic()
    fixtures = (
        ("single edge", TransportInstance.build(
            ["P1", "P2"], {("P1", "P2"): 1},
            {"P1": (1, 0), "P2": (0, 1)}), 1),
        ("doubled edge", TransportInstance.build(
            ["P1", "P2"], {("P1", "P2"): 2},
            {"P1": (1, 1), "P2": (1, 1)}), 2),
        ("three-site path", TransportInstance.build(
            ["P1", "P2", "P3"], {("P1", "P2"): 1, ("P2", "P3"): 1},
            {"P1": (0, 1), "P2": (2, 0), "P3": (0, 1)}), 2),
    )
    details = []
    ok = True
    for name, instance, y3 in fixtures:
        cert = certify(instance, 2, haar_samples=50, seed=0)
        good = (
            cert.Y3 == y3
            and cert.rank == 2 ** y3
            and cert.eigenvalue_deviation <= 1e-9
            and all(abs(cert.renyi[q] - y3 * math.log(2)) <= 1e-9
                    for q in (0.0, 1.0, 2.0))
            and cert.haar_rank_max <= 2 ** y3
        )
        ok = ok and good
        details.append(f"{name}: rank {cert.rank}, dev "
                       f"{cert.eigenvalue_deviation:.1e}, "
                       f"haar max {cert.haar_rank_max}")
    elapsed = time.monotonic() - start
    _verdict(6, "rank certificates at N=2", ok,
             "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_7_scenario_ordering():
    start = time.monotonic()
    rng = np.random.default_rng(41)
    strict_13 = strict_32 = 0
    violations = 0
    instances = [random_transport_instance(rng) for _ in range(498)]
    instances.append(TransportInstance.build(
        ["P1", "P2"], {("P1", "P2"): 1}, {"P1": (1, 0), "P2": (0, 1)}))
    instances.append(TransportInstance.build(
        ["P1", "P2"], {}, {"P1": (2, 0), "P2": (0, 2)}))
    for instance in instances:
        y1, y2, y3 = scenarios(instance)
        if not (y1 <= y3 <= y2):
            violations += 1
        if y1 < y3:
            strict_13 += 1
        if y3 < y2:
            strict_32 += 1
    elapsed = time.monotonic() - start
    _verdict(
        7, "Y1 <= Y3 <= Y2 with both gaps achieved",
        violations == 0 and strict_13 > 0 and strict_32 > 0,
        f"{len(instances)} instances, {violations} violations, "
        f"{strict_13} with Y1<Y3, {strict_32} with Y3<Y2, {elapsed:.1f}s",
    )


def test_criterion_8_combinatorial_oracles():
    ok = True
    details = []
    for p in range(1, 7):
        ok = ok and len(enumerate_nc(p)) == catalan(p)
    details.append("geodesic counts = Catalan for p<=6")
    for p in range(1, 7):
        for length in range(1, 4):
            ok = ok and count_multichains(p, length) == fuss_catalan(p, length)
    details.append("multichains = Fuss-Catalan for p<=6, length<=3")
    worst = 0.0
    for c in (0.5, 1.0, 2.0):
        for p in range(1, 7):
            worst = max(worst, abs(mp_moment(c, p) - mp_moment_quadrature(c, p)))
    ok = ok and worst < 1e-6
    details.append(f"moment quadrature gap {worst:.1e}")
    closed = (mp_xlogx(1.0), mp_xlogx(0.5), mp_xlogx(2.0))
    expected = (0.5, 0.125, 0.5 + 2.0 * math.log(2.0))
    ok = ok and all(abs(a - b) < 1e-12 for a, b in zip(closed, expected))
    worst_x = max(
        abs(mp_xlogx(c) - mp_xlogx_quadrature(c)) for c in (0.5, 1.0, 2.0)
    )
    ok = ok and worst_x < 1e-6
    details.append(f"xlogx quadrature gap {worst_x:.1e}")
    _verdict(8, "combinatorial oracles", ok, "; ".join(details))


def test_criterion_9_cli_determinism(tmp_path):
    graph_doc = doc(["V1", "V2", "V3"],
                    [("V1", "V2", 1), ("V2", "V3", 1)],
                    {"mode": "legs", "traced": [0, 2]})
    graph = tmp_path / "bh.json"
    graph.write_text(json.dumps(graph_doc), encoding="utf-8")
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["simulate", "-g", str(graph), "-N", "8", "-n", "4", "--seed", "7"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    identical = out1.read_bytes() == out2.read_bytes()

    out_j1, out_j8 = tmp_path / "j1.json", tmp_path / "j8.json"
    assert main(args + ["--jobs", "1", "--out", str(out_j1)]) == 0
    assert main(args + ["--jobs", "8", "--out", str(out_j8)]) == 0
    mean_j1 = json.loads(out_j1.read_text())["mc"]["mean_H_nats"]
    mean_j8 = json.loads(out_j8.read_text())["mc"]["mean_H_nats"]
    _verdict(
        9, "CLI reports are deterministic",
        identical and mean_j1 == mean_j8,
        f"byte-identical reports: {identical}, jobs 1 vs 8 mean equal: "
        f"{mean_j1 == mean_j8}",
    )
