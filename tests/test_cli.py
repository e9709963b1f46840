import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import arealaw
from arealaw import InconsistencyError
from arealaw.cli import main

from conftest import doc, lattice_doc

# Every --out report must match this; the CLI itself does not validate.
REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "command", "inputs"],
    "properties": {
        "schema_version": {"type": "integer"},
        "command": {"type": "string"},
        "inputs": {"type": "object"},
        "flow": {"type": "object"},
        "marking": {"type": "object"},
        "prediction": {"type": "object"},
        "mc": {"type": "object"},
        "verdict": {"type": "object"},
        "transport": {"type": "object"},
    },
}


@pytest.fixture
def write_doc(tmp_path):
    def _write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)
    return _write


def single_loop_doc():
    return doc(["V"], [("V", "V", 1)], {"mode": "counts", "s": {"V": 1}})


def black_hole2_doc():
    return doc(["V1", "V2", "V3"], [("V1", "V2", 1), ("V2", "V3", 1)],
               {"mode": "legs", "traced": [0, 2]})


def adapted_five_doc():
    return doc(["A", "B"], [("A", "B", 1)] * 5,
               {"mode": "counts", "s": {"A": 0, "B": 5}})


def triangle_doc():
    # partially traced triangle: no closed-form case applies
    return doc(["A", "B", "C"],
               [("A", "B", 1), ("B", "C", 1), ("C", "A", 1)],
               {"mode": "counts", "s": {"A": 1, "B": 1, "C": 1}})


def instance_doc():
    return {
        "facilities": ["P1", "P2"],
        "pairs": [{"a": "P1", "b": "P2", "count": 1}],
        "quotas": {"P1": {"A": 1, "B": 0}, "P2": {"A": 0, "B": 1}},
        "N": 2,
    }


def test_area_single_loop(write_doc, capsys, tmp_path):
    graph = write_doc("loop.json", single_loop_doc())
    out = tmp_path / "report.json"
    assert main(["area", "-g", graph, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "X = 1" in text
    assert "equality: OK" in text
    report = json.loads(out.read_text())
    assert report["flow"]["X"] == 1
    assert report["flow"]["cut_tied"] is True
    assert report["marking"]["area"] == 1


def test_area_black_hole(write_doc, capsys):
    graph = write_doc("bh.json", black_hole2_doc())
    assert main(["area", "-g", graph]) == 0
    assert "X = 2" in capsys.readouterr().out


def test_area_flow_only_skips_enumeration(write_doc, capsys):
    graph = write_doc("loop.json", single_loop_doc())
    assert main(["area", "-g", graph, "--flow-only"]) == 0
    assert "brute-force" not in capsys.readouterr().out


def test_area_limit_exit_code(write_doc, capsys):
    graph = write_doc("loop.json", single_loop_doc())
    assert main(["area", "-g", graph, "--limit", "1"]) == 3
    err = capsys.readouterr().err
    assert "--flow-only" in err and err.count("\n") == 1


def test_area_invalid_document(write_doc, capsys):
    graph = write_doc("bad.json", {"vertices": ["A"], "edges": []})
    assert main(["area", "-g", graph]) == 2
    endpoint = black_hole2_doc()
    endpoint["edges"][0]["u"] = ["V1"]
    traced = black_hole2_doc()
    traced["trace"]["traced"] = [[0]]
    repeated = black_hole2_doc()  # was read as legs {0, 2}
    repeated["trace"]["traced"] = [0, 0, 2]
    capsys.readouterr()
    for payload in (endpoint, traced, repeated):
        assert main(["area", "-g", write_doc("bad.json", payload)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("input error:")


def test_area_deeply_nested_document(tmp_path, capsys):
    # json.loads raises RecursionError here, not JSONDecodeError
    graph = tmp_path / "deep.json"
    graph.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert main(["area", "-g", str(graph)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("input error: invalid JSON:")


def test_predict_adapted(write_doc, capsys, tmp_path):
    graph = write_doc("adapted.json", adapted_five_doc())
    out = tmp_path / "report.json"
    assert main(["predict", "-g", graph, "-N", "3", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["prediction"]["case"] == "adapted"
    assert report["prediction"]["leading_area"] == 5
    assert report["prediction"]["exact"] is True
    assert "case: adapted" in capsys.readouterr().out


def test_predict_single_loop_bits(write_doc, capsys):
    graph = write_doc("loop.json", single_loop_doc())
    assert main(["predict", "-g", graph, "-N", "64", "--bits"]) == 0
    assert "bits" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["area", "transport"])
def test_bits_only_where_an_entropy_is_printed(write_doc, capsys, command):
    # area and transport print no entropy: --bits would be silently ignored
    argv = (["area", "-g", write_doc("loop.json", single_loop_doc())]
            if command == "area"
            else ["transport", "-i", write_doc("inst.json", instance_doc())])
    assert main(argv + ["--bits"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "input error: unrecognized arguments: --bits\n"


def test_simulate_deterministic_reports(write_doc, tmp_path):
    graph = write_doc("bh.json", black_hole2_doc())
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["simulate", "-g", graph, "-N", "4", "-n", "3", "--seed", "7"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_records_random_seed(write_doc, tmp_path):
    graph = write_doc("loop.json", single_loop_doc())
    out = tmp_path / "r.json"
    assert main(["simulate", "-g", graph, "-N", "4", "-n", "2",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert isinstance(report["inputs"]["seed"], int)


def wide_surviving_doc():
    # A has a loop and an edge to B, B two loops; B survives whole, so the
    # Gram side is N against a surviving dimension of N^7
    return doc(["A", "B"], [("A", "A", 1), ("A", "B", 1), ("B", "B", 1),
                            ("B", "B", 1)],
               {"mode": "counts", "s": {"A": 2, "B": 5}})


def test_simulate_spectra_csv(write_doc, tmp_path):
    csv_path = tmp_path / "spec.csv"
    # (document, N, surviving dimension, Gram side)
    for payload, N, ds, side in ((single_loop_doc(), 4, 4, 4),
                                 (wide_surviving_doc(), 2, 128, 2)):
        graph = write_doc("graph.json", payload)
        assert main(["simulate", "-g", graph, "-N", str(N), "-n", "2",
                     "--seed", "1", "--spectra", str(csv_path)]) == 0
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "sample,index,eigenvalue"
        assert len(lines) == 1 + 2 * ds  # two samples, ds eigenvalues each
        rows = [line.split(",") for line in lines[1:]]
        assert [(int(i), int(j)) for i, j, _ in rows] == [
            (i, j) for i in range(2) for j in range(ds)]
        for i in range(2):
            values = [float(v) for _, _, v in rows[i * ds: (i + 1) * ds]]
            assert all(v > 0 for v in values[:side])
            assert math.fsum(values[:side]) == pytest.approx(1.0, abs=1e-12)
        # the structural zeros the spectra do not store are written
        assert [line for line in lines[1:] if line.endswith(",0.0")] == [
            f"{i},{j},0.0" for i in range(2) for j in range(side, ds)]


@pytest.mark.parametrize("argv", [
    ["area", "-g", "{graph}"],
    ["predict", "-g", "{graph}", "-N", "4"],
    ["simulate", "-g", "{graph}", "-N", "4", "-n", "2", "--seed", "3"],
    ["verify", "-g", "{graph}", "-N", "4", "-n", "2", "--seed", "3",
     "--slack", "1"],
    ["transport", "-i", "{instance}"],
    ["transport", "-i", "{instance}", "--certify", "--haar-samples", "3"],
], ids=["area", "predict", "simulate", "verify", "transport",
        "transport-certify"])
def test_report_matches_schema(write_doc, tmp_path, argv):
    jsonschema = pytest.importorskip("jsonschema")
    paths = {"graph": write_doc("bh.json", black_hole2_doc()),
             "instance": write_doc("inst.json", instance_doc())}
    out = tmp_path / "r.json"
    argv = [a.format(**paths) for a in argv]
    assert main(argv + ["--out", str(out)]) == 0
    report = json.loads(out.read_text())
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["command"] == argv[0]


def test_verify_black_hole_case2(write_doc, capsys):
    graph = write_doc("bh.json", black_hole2_doc())
    code = main(["verify", "-g", graph, "-N", "16", "-n", "10", "--seed", "7"])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_adapted_zero_variance(write_doc):
    graph = write_doc("adapted.json", adapted_five_doc())
    assert main(["verify", "-g", graph, "-N", "2", "-n", "2", "--seed", "0"]) == 0


def test_predict_generic_reports_unknown(write_doc, capsys, tmp_path):
    graph = write_doc("triangle.json", triangle_doc())
    out = tmp_path / "r.json"
    assert main(["predict", "-g", graph, "-N", "4", "--out", str(out)]) == 0
    assert "correction: unknown" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["prediction"]["case"] == "generic"
    assert report["prediction"]["correction_nats"] is None


def test_verify_generic_leading_order_only(write_doc, capsys, tmp_path):
    graph = write_doc("triangle.json", triangle_doc())
    out = tmp_path / "r.json"
    code = main(["verify", "-g", graph, "-N", "4", "-n", "5", "--seed", "2",
                 "--out", str(out)])
    assert code == 0
    assert "leading-order-only" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["verdict"]["leading_order_only"] is True
    # the mean sits below the leading term by the unknown constant
    assert report["verdict"]["mean_nats"] <= report["verdict"]["predicted_nats"]


def test_verify_generic_counts_the_cut_ratios(write_doc, capsys, tmp_path):
    # A-B with d=2 and a loop at A with d=3.  The flow's min cut {source}
    # counts A's two traced legs (d=2 and d=3), so the generic bound is the
    # rank bound 2 ln 3 + ln 6 = ln 54, above the sampled mean (3.49 nats);
    # X ln N alone (2.197) sits below it
    graph = write_doc("ratios.json", doc(
        ["A", "B"], [("A", "B", 2), ("A", "A", 3)],
        {"mode": "counts", "s": {"A": 1, "B": 1}}))
    out = tmp_path / "r.json"
    assert main(["verify", "-g", graph, "-N", "3", "-n", "20", "--seed", "1",
                 "--out", str(out)]) == 0
    assert "(X ln N + cut ln d = 3.988984 nats," in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["prediction"]["leading_area"] == 2
    assert report["prediction"]["leading_offset_nats"] == pytest.approx(math.log(6))
    assert report["verdict"]["predicted_nats"] == pytest.approx(math.log(54))


@pytest.mark.parametrize("flag, line", [
    ([], "prediction 3.658883 nats  mean 3.669830 nats  |gap| 0.010947 nats  "
         "tolerance 0.030000 nats"),
    (["--bits"], "prediction 5.278652 bits  mean 5.294446 bits  |gap| 0.015793 bits  "
                 "tolerance 0.043281 bits"),
])
def test_verify_comparison_in_the_display_unit(write_doc, capsys, tmp_path, flag, line):
    # --bits converts every printed entropy; the verdict stays in nats
    graph = write_doc("bh.json", black_hole2_doc())
    out = tmp_path / "r.json"
    assert main(["verify", "-g", graph, "-N", "8", "-n", "4", "--seed", "7",
                 "--out", str(out), *flag]) == 0
    assert capsys.readouterr().out == f"{line}\nverdict: PASS\n"
    verdict = json.loads(out.read_text())["verdict"]
    assert verdict["mean_nats"] == pytest.approx(3.669830, abs=1e-6)
    assert verdict["tolerance_nats"] == 0.03


def test_verify_generic_line_in_bits(write_doc, capsys):
    graph = write_doc("lattice.json", lattice_doc(2, 4))
    assert main(["verify", "-g", graph, "-N", "2", "-n", "2", "--seed", "3",
                 "--bits"]) == 0
    assert capsys.readouterr().out == (
        "generic case: leading-order-only check (X ln N = 6.000000 bits, "
        "deficit = 0.082708 bits)\nverdict: PASS\n")


def test_verify_expect_self_test(write_doc, capsys):
    graph = write_doc("loop.json", single_loop_doc())
    code = main(["verify", "-g", graph, "-N", "16", "-n", "5", "--seed", "1",
                 "--expect", "99.0"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_transport_command(write_doc, capsys, tmp_path):
    instance = write_doc("inst.json", instance_doc())
    out = tmp_path / "r.json"
    assert main(["transport", "-i", instance, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "Y1 (no entanglement)    = 0" in text
    assert "Y3 (local unitaries)    = 1" in text
    report = json.loads(out.read_text())
    assert report["transport"]["Y"] == [0, 1, 1]
    assert report["transport"]["plan"]["sites"][0]["to_A"] == [0]


def doubled_edge_doc():
    return {
        "facilities": ["P1", "P2"],
        "pairs": [{"a": "P1", "b": "P2", "count": 2}],
        "quotas": {"P1": {"A": 1, "B": 1}, "P2": {"A": 1, "B": 1}},
    }


def test_transport_certify(write_doc, capsys):
    instance = write_doc("inst.json", doubled_edge_doc())
    code = main(["transport", "-i", instance, "--certify", "-N", "2",
                 "--haar-samples", "10"])
    assert code == 0
    assert "rank 4 = N^Y3" in capsys.readouterr().out


def test_transport_certify_report_is_pinned(write_doc, capsys, tmp_path):
    # the whole report, byte for byte, at a fixed seed; haar_mean_H is the
    # mean of 50 sampled entropies (an eigensolver result, so this build's)
    instance = write_doc("inst.json", doubled_edge_doc())
    out = tmp_path / "r.json"
    assert main(["transport", "-i", instance, "--certify", "-N", "2",
                 "--seed", "0", "--out", str(out)]) == 0
    assert capsys.readouterr().out == (
        "Y1 (no entanglement)    = 2\n"
        "Y2 (global operations)  = 2\n"
        "Y3 (local unitaries)    = 2\n"
        "  P1: legs [2] -> A, legs [0] -> B\n"
        "  P2: legs [1] -> A, legs [3] -> B\n"
        "certificate at N=2: rank 4 = N^Y3, spectrum uniform within 0.00e+00\n"
        "  50 Haar samples: max rank 4 (bound respected)\n")
    plan = {
        "marking": [1, 2],
        "sites": [
            {"permutation": [2, 0], "site": "P1", "to_A": [2], "to_B": [0]},
            {"permutation": [1, 3], "site": "P2", "to_A": [1], "to_B": [3]},
        ],
    }
    ln4 = 1.3862943611198906
    expected = {
        "command": "transport",
        "inputs": {"instance_document": dict(doubled_edge_doc(), N=2)},
        "schema_version": 1,
        "transport": {
            "Y": [2, 2, 2],
            "certificate": {
                "N": 2,
                "Y": [2, 2, 2],
                "caveat": "random-unitary rank equality holds with probability "
                          "one; checked here at fixed small N",
                "eigenvalue_deviation": 0.0,
                "haar_mean_H": 1.1023607616179725,
                "haar_rank_max": 4,
                "haar_ranks_all_equal": True,
                "haar_samples": 50,
                "plan": plan,
                "rank": 4,
                "renyi": {"0.0": ln4, "1.0": ln4, "2.0": ln4},
            },
            "plan": plan,
        },
    }
    assert out.read_text() == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_certificate_entropies_have_no_negative_zero(write_doc, tmp_path):
    # both sites send their one singlet half to A: Y3 = 0, a pure state
    payload = {
        "facilities": ["P1", "P2"],
        "pairs": [{"a": "P1", "b": "P2", "count": 1}],
        "quotas": {"P1": {"A": 1, "B": 0}, "P2": {"A": 1, "B": 0}},
    }
    instance = write_doc("inst.json", payload)
    out = tmp_path / "r.json"
    assert main(["transport", "-i", instance, "--certify", "-N", "2",
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert json.loads(text)["transport"]["Y"] == [0, 0, 0]
    assert "-0.0" not in text


def test_verify_solves_the_flow_once(write_doc, solves):
    # the report's flow and the generic prediction's cut share one solve
    graph = write_doc("triangle.json", triangle_doc())
    assert main(["verify", "-g", graph, "-N", "4", "-n", "2", "--seed", "2"]) == 0
    assert len(solves) == 1


def test_verify_on_the_lattice_solves_its_network_once(write_doc, capsys, solves):
    graph = write_doc("lattice.json", lattice_doc(2, 4))
    assert main(["verify", "-g", graph, "-N", "2", "-n", "1", "--seed", "0"]) == 0
    assert "generic case" in capsys.readouterr().out
    [arcs] = solves
    document = json.dumps(lattice_doc(2, 4))
    assert arcs == arealaw.build_network(arealaw.parse_marginal(document)).arcs


def test_transport_infeasible_exit_code(write_doc):
    payload = {
        "facilities": ["P1", "P2"],
        "pairs": [{"a": "P1", "b": "P2", "count": 1}],
        "quotas": {"P1": {"A": 1, "B": 1}, "P2": {"A": 1, "B": 0}},
    }
    instance = write_doc("inst.json", payload)
    assert main(["transport", "-i", instance]) == 2


def no_particles_doc():
    return {"facilities": ["P1", "P2"], "pairs": [],
            "quotas": {"P1": {"A": 0, "B": 0}, "P2": {"A": 0, "B": 0}}}


def pads_only_doc():
    return {"facilities": ["P1", "P2"], "pairs": [],
            "quotas": {"P1": {"A": 2, "B": 0}, "P2": {"A": 0, "B": 2}}}


def test_transport_without_particles(write_doc, capsys, tmp_path):
    instance = write_doc("inst.json", no_particles_doc())
    out = tmp_path / "r.json"
    assert main(["transport", "-i", instance, "--out", str(out)]) == 0
    assert capsys.readouterr() == (
        "Y1 (no entanglement)    = 0\n"
        "Y2 (global operations)  = 0\n"
        "Y3 (local unitaries)    = 0\n", "")
    assert json.loads(out.read_text())["transport"] == {"Y": [0, 0, 0]}
    # nothing to route, so nothing to certify
    assert main(["transport", "-i", instance, "--certify", "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", "input error: instance has no particles to route\n")


@pytest.mark.parametrize("certify", [False, True], ids=["plain", "certify"])
def test_transport_pads_only(write_doc, capsys, tmp_path, certify):
    instance = write_doc("inst.json", pads_only_doc())
    out = tmp_path / "r.json"
    argv = ["transport", "-i", instance, "--haar-samples", "2", "--out", str(out)]
    assert main(argv + (["--certify"] if certify else [])) == 0
    expected = ("Y1 (no entanglement)    = 0\n"
                "Y2 (global operations)  = 2\n"
                "Y3 (local unitaries)    = 0\n"
                "  P1: legs [0, 1] -> A, legs [] -> B\n"
                "  P2: legs [] -> A, legs [2, 3] -> B\n")
    if certify:
        expected += ("certificate at N=2: rank 1 = N^Y3, spectrum uniform "
                     "within 0.00e+00\n"
                     "  2 Haar samples: max rank 1 (bound respected)\n")
    assert capsys.readouterr() == (expected, "")
    report = json.loads(out.read_text())["transport"]
    assert report["Y"] == [0, 2, 0]
    assert report["plan"]["marking"] == [0, 1]
    assert ("certificate" in report) == certify


@pytest.mark.parametrize("certify", [False, True], ids=["plain", "certify"])
def test_transport_odd_deficit(write_doc, capsys, certify):
    payload = {
        "facilities": ["P1", "P2"],
        "pairs": [{"a": "P1", "b": "P2", "count": 1}],
        "quotas": {"P1": {"A": 1, "B": 1}, "P2": {"A": 1, "B": 0}},
    }
    instance = write_doc("inst.json", payload)
    argv = ["transport", "-i", instance] + (["--certify"] if certify else [])
    assert main(argv) == 2
    assert capsys.readouterr() == ("", (
        "input error: site 'P1' has an odd particle deficit of 1; local pair "
        "creation cannot provide an unpaired particle\n"))


@pytest.mark.parametrize("quota", [1.7, True])
def test_transport_non_integer_quota_exit_code(write_doc, capsys, quota):
    payload = instance_doc()
    payload["quotas"]["P1"]["A"] = quota
    instance = write_doc("inst.json", payload)
    assert main(["transport", "-i", instance]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "integers" in err


@pytest.mark.parametrize("change", [
    {"pairs": [{"a": "P1", "b": "P2", "count": True}]},
    {"pairs": [{"a": "P1", "b": "P2", "count": 1.0}]},
    {"pairs": [{"a": "P1", "b": "P2", "count": -1},
               {"a": "P1", "b": "P2", "count": 2}]},
    {"N": 2.5},
    {"N": "3"},
    {"N": True},
    {"quotas": [1, 2]},
    {"facilities": "P1"},
    {"facilities": [["P1"], "P2"]},
    {"pairs": {"a": "P1", "b": "P2", "count": 1}},
    {"pairs": [{"a": ["P1"], "b": "P2", "count": 1}]},
    {"quotas": {"P1": {"A": 1, "B": 0}, "P2": {"A": 0, "B": 1},
                "P9": {"A": 5, "B": 5}}},
], ids=["count-true", "count-float", "count-negative-summand", "N-float",
        "N-string", "N-true", "quotas-array", "facilities-string",
        "facilities-nested", "pairs-object", "pair-site-array",
        "quota-unknown-site"])
@pytest.mark.parametrize("certify", [False, True], ids=["plain", "certify"])
def test_transport_bad_instance_exit_code(write_doc, capsys, change, certify):
    instance = write_doc("inst.json", dict(instance_doc(), **change))
    argv = ["transport", "-i", instance] + (["--certify"] if certify else [])
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("input error:")


def test_transport_deeply_nested_instance(tmp_path, capsys):
    instance = tmp_path / "deep.json"
    instance.write_text('{"facilities": ' + "[" * 50_000 + "]" * 50_000 + "}",
                        encoding="utf-8")
    assert main(["transport", "-i", str(instance)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("input error: invalid JSON:")


@pytest.mark.parametrize("certify", [False, True], ids=["plain", "certify"])
def test_transport_solves_once(write_doc, capsys, transport_calls, certify):
    instance = write_doc("inst.json", instance_doc())
    argv = ["transport", "-i", instance] + (["--certify"] if certify else [])
    assert main(argv + ["--haar-samples", "2"]) == 0
    assert "Y3 (local unitaries)    = 1" in capsys.readouterr().out
    assert transport_calls == {"to_marginal": 1, "max_flow": 1,
                               "marking_from_flow": 1}


@pytest.mark.parametrize("command, module", [("area", "arealaw.boundary_flow"),
                                             ("transport", "arealaw.transport")])
def test_internal_error_exit_code(write_doc, capsys, monkeypatch, command, module):
    def inconsistent(network):
        raise InconsistencyError("min cut does not certify the flow value")

    monkeypatch.setattr(f"{module}.max_flow", inconsistent)
    source = (["-g", write_doc("loop.json", single_loop_doc())]
              if command == "area" else ["-i", write_doc("inst.json", instance_doc())])
    assert main([command, *source]) == 5
    assert capsys.readouterr().err == (
        "internal error: min cut does not certify the flow value\n")


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_nonpositive_jobs_exit_code(write_doc, capsys, command, jobs):
    graph = write_doc("bh.json", black_hole2_doc())
    assert main([command, "-g", graph, "-N", "2", "-n", "1", "--seed", "0",
                 "--jobs", jobs]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "jobs" in err


@pytest.mark.parametrize("argv", [
    ["simulate", "-g", "{graph}", "-N", "2", "-n", "1"],
    ["verify", "-g", "{graph}", "-N", "2", "-n", "1"],
    ["transport", "-i", "{instance}", "--certify"],
], ids=["simulate", "verify", "transport-certify"])
def test_negative_seed_exit_code(write_doc, capsys, argv):
    paths = {"graph": write_doc("bh.json", black_hole2_doc()),
             "instance": write_doc("inst.json", instance_doc())}
    assert main([a.format(**paths) for a in argv] + ["--seed", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and "seed must be an integer >= 0" in err


@pytest.mark.parametrize("flag, value, message", [
    ("-N", "0", "-N must be at least 2, got 0"),
    ("-N", "1", "-N must be at least 2, got 1"),
    ("--haar-samples", "0", "--haar-samples must be at least 1, got 0"),
    ("--haar-samples", "-5", "--haar-samples must be at least 1, got -5"),
    ("--seed", "-1", "--seed must be an integer >= 0, got -1"),
], ids=["N-0", "N-1", "haar-samples-0", "haar-samples-negative", "seed-negative"])
@pytest.mark.parametrize("certify", [False, True], ids=["plain", "certify"])
def test_transport_bad_flag_exit_code(capsys, tmp_path, flag, value, message,
                                      certify):
    # the instance file does not exist: the flag is checked before any work
    argv = ["transport", "-i", str(tmp_path / "missing.json"), flag, value]
    assert main(argv + (["--certify"] if certify else [])) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"input error: {message}\n"


def _no_sampling(monkeypatch):
    def sampled(*args, **kwargs):
        raise AssertionError("run_experiment was entered")

    monkeypatch.setattr("arealaw.mc_simulator.run_experiment", sampled)


def test_no_sampling_seam_is_reached(write_doc, monkeypatch):
    # the CLI reads run_experiment from mc_simulator at call time, so the
    # patch above is what a valid run enters
    _no_sampling(monkeypatch)
    graph = write_doc("loop.json", single_loop_doc())
    with pytest.raises(AssertionError, match="run_experiment was entered"):
        main(["simulate", "-g", graph, "-N", "2", "-n", "1", "--seed", "0"])


def test_spectra_rows_are_guarded_before_sampling(write_doc, capsys,
                                                  monkeypatch, tmp_path):
    # --spectra writes samples x ds rows, structural zeros included: above
    # the state guard the run is refused before anything is sampled
    graph = write_doc("wide.json", wide_surviving_doc())
    csv_path = tmp_path / "spec.csv"
    argv = ["simulate", "-g", graph, "-N", "2", "-n", "2", "--seed", "1"]
    monkeypatch.setenv("AREALAW_STATE_DIM_LIMIT", "256")
    assert main(argv + ["--spectra", str(csv_path)]) == 0  # 2 x 128 rows
    capsys.readouterr()
    monkeypatch.setenv("AREALAW_STATE_DIM_LIMIT", "255")
    assert main(argv) == 0  # no rows to write
    capsys.readouterr()
    _no_sampling(monkeypatch)
    csv_path.unlink()
    assert main(argv + ["--spectra", str(csv_path)]) == 4
    out, err = capsys.readouterr()
    assert out == "" and not csv_path.exists()
    assert err == ("resource guard: --spectra rows 256 exceeds the guard 255 "
                   "(set AREALAW_STATE_DIM_LIMIT to override)\n")
    monkeypatch.delenv("AREALAW_STATE_DIM_LIMIT")
    argv[4] = "16"  # 2 x 16^7 rows against the default guard
    assert main(argv + ["--spectra", str(csv_path)]) == 4
    assert capsys.readouterr().err.startswith(
        "resource guard: --spectra rows 536870912 exceeds the guard 16777216 ")


@pytest.mark.parametrize("option", ["--out", "--spectra"])
def test_unwritable_output_exit_code(write_doc, capsys, tmp_path, monkeypatch,
                                     option):
    # every command refuses the path before any work, with the same line
    _no_sampling(monkeypatch)
    graph = write_doc("loop.json", single_loop_doc())
    instance = write_doc("inst.json", instance_doc())
    target = str(tmp_path / "missing" / "file")
    mc = ["-g", graph, "-N", "2", "-n", "1", "--seed", "0"]
    commands = {"simulate": mc, "verify": mc}
    if option == "--out":
        commands.update(area=["-g", graph], predict=["-g", graph, "-N", "2"],
                        transport=["-i", instance])
    for command, args in commands.items():
        assert main([command, *args, option, target]) == 2
        assert capsys.readouterr() == ("", (
            f"input error: cannot write {target}: "
            f"no directory {str(tmp_path / 'missing')!r}\n"))


@pytest.mark.parametrize("form", ["same_name", "symlink"])
def test_out_and_spectra_naming_one_file_exit_code(write_doc, capsys, tmp_path,
                                                  monkeypatch, form):
    # the report would overwrite the spectra: refused before any sampling
    _no_sampling(monkeypatch)
    graph = write_doc("loop.json", single_loop_doc())
    out = spectra = tmp_path / "same.out"
    if form == "symlink":
        spectra = tmp_path / "link.csv"
        spectra.symlink_to(out)
    for command in ("simulate", "verify"):
        assert main([command, "-g", graph, "-N", "2", "-n", "1", "--seed", "0",
                     "--out", str(out), "--spectra", str(spectra)]) == 2
        assert capsys.readouterr() == ("", (
            f"input error: --out {out} and --spectra {spectra} are one file\n"))
    assert not out.exists()


def test_transport_unwritable_output_before_certifying(write_doc, capsys,
                                                      tmp_path, monkeypatch):
    def certified(*args, **kwargs):
        raise AssertionError("certify was entered")

    monkeypatch.setattr("arealaw.transport.certify", certified)
    instance = write_doc("inst.json", instance_doc())
    target = str(tmp_path / "missing" / "x.json")
    expected = (f"input error: cannot write {target}: "
                f"no directory {str(tmp_path / 'missing')!r}\n")
    for extra in (["--certify"], []):
        assert main(["transport", "-i", instance, *extra, "--out", target]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == expected
    # the same one line as simulate gives for that path
    graph = write_doc("loop.json", single_loop_doc())
    _no_sampling(monkeypatch)
    assert main(["simulate", "-g", graph, "-N", "2", "-n", "1", "--seed", "0",
                 "--out", target]) == 2
    assert capsys.readouterr().err == expected


@pytest.mark.parametrize("option", ["--out", "--spectra"])
@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_output_directory_rejected_before_sampling(write_doc, capsys, tmp_path,
                                                   monkeypatch, command, option):
    _no_sampling(monkeypatch)
    graph = write_doc("loop.json", single_loop_doc())
    target = str(tmp_path)
    assert main([command, "-g", graph, "-N", "2", "-n", "1", "--seed", "0",
                 option, target]) == 2
    err = capsys.readouterr().err
    assert err == f"input error: cannot write {target}: it is a directory\n"


@pytest.mark.parametrize("flag, value", [
    ("--expect", "nan"), ("--expect", "inf"), ("--expect", "-inf"),
    ("--slack", "-1"), ("--slack", "nan"), ("--slack", "inf"),
])
def test_verify_bad_float_exit_code(write_doc, capsys, monkeypatch, flag, value):
    _no_sampling(monkeypatch)
    graph = write_doc("loop.json", single_loop_doc())
    assert main(["verify", "-g", graph, "-N", "2", "-n", "1", "--seed", "0",
                 f"{flag}={value}"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(f"input error: {flag} must be")


def test_verify_zero_slack_is_valid(write_doc, tmp_path):
    graph = write_doc("loop.json", single_loop_doc())
    out = tmp_path / "r.json"
    assert main(["verify", "-g", graph, "-N", "4", "-n", "3", "--seed", "0",
                 "--slack", "0", "--expect", "1.0", "--out", str(out)]) in (0, 1)
    report = json.loads(out.read_text())
    assert report["verdict"]["tolerance_nats"] == 3.0 * report["mc"]["stderr_H"]


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_area_bad_limit_exit_code(write_doc, capsys, limit):
    graph = write_doc("loop.json", single_loop_doc())
    assert main(["area", "-g", graph, "--limit", limit]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"input error: --limit must be at least 1, got {limit}\n"


def test_non_finite_report_is_internal_error(write_doc, capsys, tmp_path,
                                            monkeypatch):
    # every report is strict JSON: a non-finite value is a defect (exit 5),
    # never written as NaN or Infinity
    nan_prediction = SimpleNamespace(to_document=lambda: {"value": math.nan})
    monkeypatch.setattr("arealaw.spectral_predictor.predict_entropy",
                        lambda *args: nan_prediction)
    graph = write_doc("loop.json", single_loop_doc())
    out = tmp_path / "r.json"
    assert main(["simulate", "-g", graph, "-N", "2", "-n", "1", "--seed", "0",
                 "--out", str(out)]) == 5
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("internal error: the report")
    assert not out.exists()


def test_huge_renyi_order_stays_finite(write_doc, tmp_path):
    graph = write_doc("bh.json", black_hole2_doc())
    out = tmp_path / "r.json"
    assert main(["simulate", "-g", graph, "-N", "4", "-n", "2", "--seed", "1",
                 "--q", "2,1000,1e300", "--out", str(out)]) == 0
    renyi = json.loads(out.read_text())["mc"]["renyi_mean"]
    assert all(math.isfinite(v) for v in renyi.values())
    # H_q falls with q towards -ln(largest eigenvalue)
    assert renyi["2.0"] >= renyi["1000.0"] >= renyi["1e+300"] > 0


def test_guard_exit_code(write_doc):
    graph = write_doc("adapted.json", adapted_five_doc())
    # its 8^5-sided Gram matrix exceeds the default state guard
    assert main(["simulate", "-g", graph, "-N", "8", "-n", "1",
                 "--seed", "0"]) == 4


def test_state_guard_bounds_a_loop_isometry(write_doc, capsys, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr("arealaw.mc_simulator._gram_stack", no_sampling)
    # one vertex with three loops at N = 8: its isometry is an 8^6 vector
    graph = write_doc("loops.json", doc(["V"], [("V", "V", 1)] * 3,
                                        {"mode": "counts", "s": {"V": 2}}))
    monkeypatch.setenv("AREALAW_STATE_DIM_LIMIT", str(8 ** 6 - 1))
    assert main(["simulate", "-g", graph, "-N", "8", "-n", "1", "--seed", "0"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("resource guard: largest contraction array 262144 exceeds "
                   "the guard 262143 (set AREALAW_STATE_DIM_LIMIT to override)\n")


def test_a_huge_count_is_refused_by_its_magnitude(write_doc, capsys,
                                                  monkeypatch):
    # N = 10^2200: the Gram matrix's 10^4400 entries have more digits than
    # Python turns into a string, so the refusal prints their magnitude
    monkeypatch.delenv("AREALAW_STATE_DIM_LIMIT", raising=False)
    graph = write_doc("loop.json", single_loop_doc())
    assert main(["simulate", "-g", graph, "-N", "1" + "0" * 2200, "-n", "1",
                 "--seed", "0"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("resource guard: Gram matrix entries about 10^4400 exceeds "
                   "the guard 16777216 (set AREALAW_STATE_DIM_LIMIT to override)\n")
    assert len(err.encode()) < 200


def test_state_guard_is_the_only_size_refusal(write_doc, capsys, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr("arealaw.mc_simulator._gram_stack", no_sampling)
    monkeypatch.delenv("AREALAW_STATE_DIM_LIMIT", raising=False)
    # at N = 16 every pairwise step of the triangle's doubled network builds
    # more than 2^24 elements; its path is planned and refused by the guard
    graph = write_doc("triangle.json", triangle_doc())
    assert main(["simulate", "-g", graph, "-N", "16", "-n", "1", "--seed", "0"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("resource guard: largest contraction array 4294967296 exceeds "
                   "the guard 16777216 (set AREALAW_STATE_DIM_LIMIT to override)\n")


@pytest.mark.parametrize("command", ["simulate", "transport"])
def test_identity_edges_are_guarded_before_allocation(write_doc, capsys,
                                                      monkeypatch, command):
    # both endpoints of every edge skipped: each edge is an identity of side
    # N = 100000, 10^10 entries; the Gram side is 10^10 too, so its square
    # is refused by the state guard before the plan, and no np.eye is built
    def no_eye(*args, **kwargs):
        raise AssertionError("np.eye was called")

    monkeypatch.setattr("numpy.eye", no_eye)
    monkeypatch.delenv("AREALAW_STATE_DIM_LIMIT", raising=False)
    if command == "simulate":
        graph = write_doc("adapted.json", doc(["A", "B"], [("A", "B", 1)] * 2,
                                              {"mode": "counts", "s": {"A": 0, "B": 2}}))
        argv = ["simulate", "-g", graph, "-n", "1", "--seed", "0"]
    else:
        argv = ["transport", "-i", write_doc("inst.json", doubled_edge_doc()),
                "--certify"]
    assert main(argv + ["-N", "100000"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("resource guard: Gram matrix entries ")


def test_identity_edge_is_guarded_in_the_plan(write_doc, capsys, monkeypatch):
    # a fully traced edge of d = 5000 at N = 2 is an identity of side 10^4,
    # 10^8 entries; beside a one-loop vertex with s = 1 the Gram side is 2,
    # so the plan's largest array is refused, and no np.eye is built
    def no_eye(*args, **kwargs):
        raise AssertionError("np.eye was called")

    monkeypatch.setattr("numpy.eye", no_eye)
    monkeypatch.delenv("AREALAW_STATE_DIM_LIMIT", raising=False)
    graph = write_doc("traced.json", doc(["A", "B", "C"],
                                         [("A", "B", 5000), ("C", "C", 1)],
                                         {"mode": "counts",
                                          "s": {"A": 0, "B": 0, "C": 1}}))
    assert main(["simulate", "-g", graph, "-N", "2", "-n", "1", "--seed", "0"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("resource guard: largest contraction array 100000000 exceeds "
                   "the guard 16777216 (set AREALAW_STATE_DIM_LIMIT to override)\n")


@pytest.mark.parametrize("command", ["simulate", "transport"])
def test_sample_count_is_guarded_before_sampling(write_doc, capsys, monkeypatch,
                                                 command):
    # the (samples, side) spectra array falls under the state guard: 10^9
    # samples of side 2, or 10^8 Haar samples of the routed doubled edge
    # (side 4), are refused before a Haar draw or that array is allocated
    gram_stack = arealaw.mc_simulator._gram_stack

    def no_haar_draw(plan, words):  # a certificate's identity state is built
        if plan.vertices:
            raise AssertionError("a sample was drawn")
        return gram_stack(plan, words)

    monkeypatch.setattr("arealaw.mc_simulator._gram_stack", no_haar_draw)
    monkeypatch.delenv("AREALAW_STATE_DIM_LIMIT", raising=False)
    if command == "simulate":
        argv = ["simulate", "-g", write_doc("loop.json", single_loop_doc()),
                "-N", "2", "-n", "1000000000", "--seed", "1"]
        entries = 2 * 10 ** 9
    else:
        argv = ["transport", "-i", write_doc("inst.json", doubled_edge_doc()),
                "--certify", "--haar-samples", "100000000"]
        entries = 4 * 10 ** 8
    assert main(argv) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"resource guard: spectra array entries {entries} exceeds the "
                   "guard 16777216 (set AREALAW_STATE_DIM_LIMIT to override)\n")


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_normalization_drift_exit_code(write_doc, capsys, monkeypatch, command):
    # a drifted trace is a defect of the package, not of the input
    contract = arealaw.mc_simulator._contract
    monkeypatch.setattr("arealaw.mc_simulator._contract",
                        lambda steps, operands: 1.5 * contract(steps, operands))
    graph = write_doc("lattice.json", lattice_doc(2, 4))
    assert main([command, "-g", graph, "-N", "2", "-n", "1", "--seed", "0"]) == 5
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("internal error: state normalization drifted to 1.")


@pytest.mark.parametrize("case", ["loops", "lattice"])
def test_sampling_seam_is_reached(write_doc, monkeypatch, case):
    # the tests above patch _gram_stack to prove that nothing was
    # sampled; a run that samples these graphs goes through it
    calls = []
    stack = arealaw.mc_simulator._gram_stack

    def counted(plan, streams):
        calls.append(len(streams))
        return stack(plan, streams)

    monkeypatch.setattr("arealaw.mc_simulator._gram_stack", counted)
    if case == "loops":
        graph = write_doc("loops.json", doc(["V"], [("V", "V", 1)] * 3,
                                            {"mode": "counts", "s": {"V": 2}}))
        args = ["-N", "8"]
    else:
        graph = write_doc("lattice.json", lattice_doc(2, 4))
        args = ["-N", "2"]
    assert main(["simulate", "-g", graph, *args, "-n", "2", "--seed", "0"]) == 0
    assert sum(calls) == 2


@pytest.mark.parametrize("variable", ["AREALAW_STATE_DIM_LIMIT"])
def test_bad_guard_environment_exit_code(write_doc, capsys, monkeypatch, variable):
    graph = write_doc("bh.json", black_hole2_doc())
    monkeypatch.setenv(variable, "abc")
    assert main(["simulate", "-g", graph, "-N", "2", "-n", "1",
                 "--seed", "0"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and variable in err


def test_a_limit_too_long_to_read_is_an_input_error(write_doc, capsys,
                                                    monkeypatch):
    graph = write_doc("bh.json", black_hole2_doc())
    monkeypatch.setenv("AREALAW_STATE_DIM_LIMIT", "9" * 5000)
    assert main(["simulate", "-g", graph, "-N", "2", "-n", "1",
                 "--seed", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("input error: AREALAW_STATE_DIM_LIMIT must be a positive "
                   "integer, got 5000 characters (4300 at most)\n")


@pytest.mark.parametrize("orders", ["0,x", "0,", "-1", "nan"])
def test_bad_renyi_orders_exit_code(write_doc, capsys, orders):
    graph = write_doc("bh.json", black_hole2_doc())
    assert main(["simulate", "-g", graph, "-N", "2", "-n", "1", "--seed", "0",
                 "--q", orders]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("input error:")



def test_renyi_orders_are_validated_once(write_doc, capsys, tmp_path):
    # a repeated order is refused, not dropped from the report; -0 is the
    # order 0, echoed and keyed as 0.0
    graph = write_doc("bh.json", black_hole2_doc())
    out = tmp_path / "r.json"
    argv = ["simulate", "-g", graph, "-N", "2", "-n", "1", "--seed", "0",
            "--out", str(out)]
    assert main(argv + ["--q=-0,1,1,2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == ("input error: Renyi orders must be distinct, "
                            "got [0.0, 1.0, 1.0, 2.0]\n")
    assert main(argv + ["--q=-0,1,2"]) == 0
    report = json.loads(out.read_text())
    assert [math.copysign(1.0, q) for q in report["inputs"]["q"]] == [1.0] * 3
    assert report["inputs"]["q"] == [0.0, 1.0, 2.0]
    assert list(report["mc"]["renyi_mean"]) == ["0.0", "1.0", "2.0"]

# Runs in a fresh interpreter: each step prints which of the watched
# modules and which package modules are loaded after it.  The commands run
# in an order that shows what each one adds.
IMPORT_STEPS = """
import contextlib, io, json, sys
watched = ("numpy", "scipy", "secrets", "concurrent.futures.process")
graph, instance = sys.argv[1:]

def loaded(step):
    print(json.dumps([step, [m for m in watched if m in sys.modules] + sorted(
        m for m in sys.modules if m == "arealaw" or m.startswith("arealaw."))]))

import arealaw
loaded("import arealaw")
import arealaw.cli
loaded("import arealaw.cli")
for step, argv in (
        ("area --flow-only", ["area", "-g", graph, "--flow-only"]),
        ("predict", ["predict", "-g", graph, "-N", "16"]),
        ("area", ["area", "-g", graph]),
        ("transport", ["transport", "-i", instance]),
        ("simulate", ["simulate", "-g", graph, "-N", "2", "-n", "2", "--jobs",
                      "1", "--seed", "0"])):
    with contextlib.redirect_stdout(io.StringIO()):
        code = arealaw.cli.main(argv)
    loaded(f"{step} {code}")
"""


def _fresh_python(*argv) -> subprocess.CompletedProcess:
    """Run ``python argv...`` in a fresh interpreter that imports this
    checkout's package."""
    src = str(Path(arealaw.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True)


def test_cli_import_leaves_scipy_unloaded(write_doc):
    proc = _fresh_python("-c", IMPORT_STEPS, write_doc("bh.json", black_hole2_doc()),
                         write_doc("inst.json", instance_doc()))
    assert proc.returncode == 0, proc.stderr
    steps = dict(json.loads(line) for line in proc.stdout.splitlines())
    # the package is what the commands run: together they load every module
    package_dir = Path(arealaw.__file__).parent
    assert {m for loaded in steps.values() for m in loaded
            if m.startswith("arealaw")} == {
        "arealaw" if path.stem == "__init__" else f"arealaw.{path.stem}"
        for path in package_dir.glob("*.py")}
    # a serial run samples with numpy and starts no process pool
    simulate = set(steps.pop("simulate 0"))
    assert {"numpy", "arealaw.mc_simulator"} <= simulate
    assert not simulate & {"scipy", "concurrent.futures.process"}
    # the package and the parser load no layer; the combinatorial commands
    # need only the standard library and load only the layers they run
    package = ["arealaw"]
    cli = package + ["arealaw.cli", "arealaw.errors"]
    flow = cli + ["arealaw.boundary_flow", "arealaw.graph_model"]
    predict = flow + ["arealaw.spectral_predictor"]
    area = predict + ["arealaw.marking"]
    transport = area + ["arealaw.transport"]
    assert steps == {"import arealaw": package, "import arealaw.cli": sorted(cli),
                     "area --flow-only 0": sorted(flow),
                     "predict 0": sorted(predict), "area 0": sorted(area),
                     "transport 0": sorted(transport)}


# Every CLI call imports the CLI before it parses its arguments; none of
# these, or their submodules, may come with it.
UNWANTED_AT_CLI_IMPORT = ("numpy", "dataclasses", "numbers", "inspect", "fractions",
                          "decimal", "hashlib", "random", "secrets", "tempfile",
                          "concurrent.futures")


def test_cli_import_loads_no_heavy_module():
    proc = _fresh_python("-c", "import json, sys\n"
                               "before = set(sys.modules)\n"
                               "import arealaw.cli\n"
                               "print(json.dumps(sorted(set(sys.modules) - before)))")
    assert proc.returncode == 0, proc.stderr
    added = json.loads(proc.stdout)
    assert "arealaw.cli" in added
    assert [m for m in added if any(m == name or m.startswith(f"{name}.")
                                    for name in UNWANTED_AT_CLI_IMPORT)] == []


def test_missing_file_exit_code(tmp_path):
    assert main(["area", "-g", str(tmp_path / "missing.json")]) == 2


def test_predicted_value_printed(write_doc, capsys):
    graph = write_doc("bh.json", black_hole2_doc())
    assert main(["predict", "-g", graph, "-N", "16"]) == 0
    out = capsys.readouterr().out
    expected = 2.0 * math.log(16) - 0.5
    assert f"{expected:.6f}" in out


@pytest.mark.parametrize("name", arealaw.__all__)
def test_lazy_monte_carlo_export(name):
    # every export loads on access, as the Monte Carlo ones first did: it is
    # the object its defining module holds
    value = getattr(arealaw, name)
    assert value.__module__.startswith("arealaw.")
    assert getattr(sys.modules[value.__module__], name) is value
    assert name in dir(arealaw)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from arealaw import *", namespace)
    assert {name: namespace.get(name) for name in arealaw.__all__} == {
        name: getattr(arealaw, name) for name in arealaw.__all__}
    # the submodules load on access too
    assert {"cli", "marking", "mc_simulator", "transport"} <= set(dir(arealaw))
    assert arealaw.transport is sys.modules["arealaw.transport"]


def test_unknown_package_attribute():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        arealaw.no_such_name


def test_parser_built_once(monkeypatch, write_doc):
    from arealaw import cli

    built = []
    build = cli.build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        graph = write_doc("loop.json", single_loop_doc())
        assert main(["area", "-g", graph]) == 0
        assert main(["predict", "-g", graph, "-N", "4"]) == 0
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()


@pytest.mark.parametrize("argv, message", [
    (["predict", "-g", "g.json", "-N", "abc"], "argument -N: invalid int value: 'abc'"),
    (["area"], "the following arguments are required: -g/--graph"),
    (["frobnicate"], "argument subcommand: invalid choice: 'frobnicate' "),
    ([], "the following arguments are required: subcommand"),
    (["area", "-g", "g.json", "--bogus"], "unrecognized arguments: --bogus"),
    (["area", "-g", "g.json", "--flow-only", "--bruteforce"],
     "argument --bruteforce: not allowed with argument --flow-only"),
    # a newline or carriage return in the input is written escaped
    (["area", "-g", "g.json", "a\nb"], "unrecognized arguments: a\\nb"),
    (["area", "-g", "no\nsuch.json"], "cannot read no\\nsuch.json"),
    (["area", "-g", "no\r\nsuch.json"], "cannot read no\\r\\nsuch.json"),
], ids=["bad-int", "missing-graph", "unknown-command", "no-command",
        "unknown-flag", "exclusive-flags", "newline-argument", "newline-path",
        "crlf-path"])
def test_argument_error_is_one_line(capsys, argv, message):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"input error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--help"], ["area", "--help"],
                                  ["simulate", "--help"], ["verify", "--help"],
                                  ["transport", "--help"]])
def test_help_text_unchanged(capsys, argv):
    from arealaw.cli import build_parser

    texts = []
    for parse in (build_parser().parse_args, main, main):
        with pytest.raises(SystemExit) as exit_info:
            parse(argv)
        assert exit_info.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] and texts[1] == texts[0] and texts[2] == texts[0]
