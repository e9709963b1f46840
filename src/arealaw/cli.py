"""Command-line surface: area, predict, simulate, verify, transport.

All machine I/O goes through JSON documents; human-readable summaries go to
stdout.  Reports are self-contained (they echo the inputs they were produced
from) and schema-versioned; the tests hold the report schema.  Exit codes:
0 success or verification pass, 1 verification or certificate failure,
2 invalid input, 3 combinatorial limit exceeded, 4 resource guard, 5 internal
error (an inconsistent flow or certificate, a failed eigensolver: a defect
in this package, not in the input).  An argument the parser rejects, or a
closed stdout, is an input error too.  Every error is one stderr line: a
newline or carriage return in its message is written escaped.

Importing this module loads only the standard library and
:mod:`arealaw.errors`.  Each command imports the layers it runs when it
runs: ``area`` the graph model and the flow (and :mod:`arealaw.marking`
unless ``--flow-only``), ``predict`` the graph model and the predictor,
``simulate`` and ``verify`` those plus :mod:`arealaw.mc_simulator`, and
``transport`` :mod:`arealaw.transport` (which loads ``mc_simulator`` only to
certify).  A function is read from its module at call time, so a patch of
the defining module is seen.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import lru_cache
from pathlib import Path

from .errors import (
    AreaLawError,
    CertificateError,
    CombinatorialLimitError,
    ParseError,
    ResourceGuardError,
    ValidationError,
)

SCHEMA_VERSION = 1

LN2 = math.log(2.0)


def _write(path: str, parts) -> None:
    """Write the strings ``parts`` yields to ``path``, each as it comes."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(parts)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def _check_writable(path: str | None) -> None:
    """The input error ``_write`` would raise, found before any work: the
    path, when given, is not a directory and its directory exists and is
    writable."""
    if not path:
        return
    target = Path(path)
    if target.is_dir():
        reason = "it is a directory"
    elif not target.parent.is_dir():
        reason = f"no directory {str(target.parent)!r}"
    elif not os.access(target.parent, os.W_OK) or (
            target.exists() and not os.access(target, os.W_OK)):
        reason = "permission denied"
    else:
        return
    raise ValidationError(f"cannot write {path}: {reason}")


def _write_report(report: dict, out: str | None) -> None:
    if out:
        try:
            text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
        except ValueError as exc:
            raise AreaLawError(f"the report holds a non-finite value: {exc}") from exc
        _write(out, [text + "\n"])


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def _fmt(value: float, bits: bool) -> str:
    if bits:
        return f"{value / LN2:.6f} bits"
    return f"{value:.6f} nats"


def _load_marginal(path: str):
    from .graph_model import parse_marginal

    return parse_marginal(_read(path))


def cmd_area(args) -> int:
    if args.limit < 1:
        raise ValidationError(f"--limit must be at least 1, got {args.limit}")
    from .boundary_flow import build_network, max_flow

    marginal = _load_marginal(args.graph)
    _check_writable(args.out)
    flow = max_flow(build_network(marginal))
    print(f"boundary area X = {flow.value}")
    print(f"min cut (source side): {list(flow.cut)}  "
          f"capacity {flow.value}  tied: {flow.cut_tied}")
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "area",
        "inputs": {"graph_document": marginal.to_document()},
        "flow": flow.to_document(),
    }
    if not args.flow_only:
        from .marking import area_bruteforce

        brute = area_bruteforce(marginal, args.limit)
        print(f"brute-force area = {brute.area} "
              f"({brute.combinations} markings enumerated)")
        print(f"witness marking (marked legs): {brute.witness.to_document()}")
        if brute.area != flow.value:
            print("ERROR: flow and brute-force area disagree", file=sys.stderr)
            return 1
        print("flow/marking equality: OK")
        report["marking"] = {
            "area": brute.area,
            "witness": brute.witness.to_document(),
            "combinations": brute.combinations,
        }
    _write_report(report, args.out)
    return 0


def cmd_predict(args) -> int:
    from .spectral_predictor import predict_entropy

    marginal = _load_marginal(args.graph)
    _check_writable(args.out)
    prediction = predict_entropy(marginal, args.N)
    print(f"case: {prediction.case}")
    leading = prediction.leading_area * math.log(args.N) + prediction.leading_offset
    print(f"leading term: {prediction.leading_area} ln N + "
          f"{prediction.leading_offset:.6f} = {_fmt(leading, args.bits)}")
    if prediction.correction is None:
        print("correction: unknown (generic case)")
    else:
        print(f"correction: {_fmt(prediction.correction, args.bits)}")
        print(f"predicted mean entropy: {_fmt(prediction.value(args.N), args.bits)}")
    print(f"exact: {prediction.exact}")
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "predict",
        "inputs": {"graph_document": marginal.to_document(), "N": args.N},
        "prediction": prediction.to_document(),
    }
    _write_report(report, args.out)
    return 0


def _parse_orders(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(q) for q in text.split(","))
    except ValueError as exc:
        raise ValidationError(
            f"--q expects comma-separated numbers, got {text!r}"
        ) from exc


def _simulate_report(marginal, args, seed: int):
    """The simulate report and the prediction it contains."""
    q_list = _parse_orders(args.q)
    _check_writable(args.out)
    _check_writable(args.spectra)
    if args.out and args.spectra and (
            os.path.realpath(args.out) == os.path.realpath(args.spectra)):
        raise ValidationError(f"--out {args.out} and --spectra {args.spectra} are one file")
    from .boundary_flow import build_network, max_flow
    from .mc_simulator import _check_size, _side_dims, run_experiment
    from .spectral_predictor import predict_entropy

    if args.spectra:  # a row per eigenvalue, structural zeros included
        ds, _ = _side_dims(marginal.graph, marginal.traced, args.N)
        _check_size(args.samples * ds, "--spectra rows")
    mc = run_experiment(
        marginal, args.N, args.samples, seed, q_list=q_list, jobs=args.jobs,
    )
    flow = max_flow(build_network(marginal))
    prediction = predict_entropy(marginal, args.N)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "simulate",
        "inputs": {
            "graph_document": marginal.to_document(),
            "N": args.N,
            "samples": args.samples,
            "seed": seed,
            "q": list(mc.renyi_mean),  # the orders the run validated
            "jobs": args.jobs,
        },
        "flow": flow.to_document(),
        "prediction": prediction.to_document(),
        "mc": mc.to_document(),
    }
    if args.spectra:
        _write(args.spectra, _spectra_rows(mc))
    return report, prediction


def _spectra_rows(mc):
    """The ``--spectra`` CSV, one sample at a time: the eigenvalues of its
    Gram side, then ``dim - side`` structural zeros up to the surviving
    dimension."""
    yield "sample,index,eigenvalue\n"
    for i, spectrum in enumerate(mc.spectra):
        yield "".join(f"{i},{j},{float(value)!r}\n" for j, value in enumerate(spectrum))
        yield from (f"{i},{j},0.0\n" for j in range(len(spectrum), mc.dim))


def _seed(args) -> int:
    """``--seed``, or a seed drawn from entropy (the report records it)."""
    if args.seed is not None:
        return args.seed
    import secrets

    return secrets.randbits(32)


def cmd_simulate(args) -> int:
    marginal = _load_marginal(args.graph)
    seed = _seed(args)
    report, _ = _simulate_report(marginal, args, seed)
    mc = report["mc"]
    print(f"samples: {mc['samples']}  seed: {seed}")
    print(f"mean H = {_fmt(mc['mean_H_nats'], args.bits)}  "
          f"stderr = {mc['stderr_H']:.6f}")
    _write_report(report, args.out)
    return 0


def cmd_verify(args) -> int:
    if not 0.0 <= args.slack < math.inf:
        raise ValidationError(f"--slack must be finite and >= 0, got {args.slack}")
    if args.expect is not None and not math.isfinite(args.expect):
        raise ValidationError(f"--expect must be finite, got {args.expect}")
    marginal = _load_marginal(args.graph)
    seed = _seed(args)
    report, prediction = _simulate_report(marginal, args, seed)
    report["command"] = "verify"
    mc = report["mc"]
    mean = mc["mean_H_nats"]
    tolerance = max(3.0 * mc["stderr_H"], args.slack)

    if args.expect is not None:
        predicted = args.expect
        generic = False
    else:
        predicted = prediction.value(args.N)
        generic = prediction.correction is None

    if generic:
        # only the leading term is known, the rank bound of the tighter of
        # the flow's two extremal min cuts: the mean may sit below it by an
        # unknown constant, but must never exceed it
        gap = predicted - mean
        passed = gap >= -tolerance
        bound = "X ln N + cut ln d" if prediction.leading_offset else "X ln N"
        print(f"generic case: leading-order-only check ({bound} = "
              f"{_fmt(predicted, args.bits)}, deficit = {_fmt(gap, args.bits)})")
    else:
        gap = abs(mean - predicted)
        passed = gap <= tolerance
        print(f"prediction {_fmt(predicted, args.bits)}  mean {_fmt(mean, args.bits)}"
              f"  |gap| {_fmt(gap, args.bits)}  tolerance {_fmt(tolerance, args.bits)}")
    verdict = "PASS" if passed else "FAIL"
    print(f"verdict: {verdict}")
    report["verdict"] = {
        "passed": passed,
        "predicted_nats": predicted,
        "mean_nats": mean,
        "tolerance_nats": tolerance,
        "leading_order_only": generic,
    }
    _write_report(report, args.out)
    return 0 if passed else 1


def cmd_transport(args) -> int:
    # checked with or without --certify, so a flag is never silently ignored
    if args.N is not None and args.N < 2:
        raise ValidationError(f"-N must be at least 2, got {args.N}")
    if args.haar_samples < 1:
        raise ValidationError(
            f"--haar-samples must be at least 1, got {args.haar_samples}")
    if args.seed < 0:
        raise ValidationError(f"--seed must be an integer >= 0, got {args.seed}")
    from .transport import certify, parse_instance, routing, scenarios

    instance = parse_instance(_read(args.instance))
    _check_writable(args.out)
    y = scenarios(instance)
    plan = routing(instance) if instance.has_particles else None
    cert = (certify(instance, args.N, haar_samples=args.haar_samples, seed=args.seed)
            if args.certify else None)
    print(f"Y1 (no entanglement)    = {y[0]}")
    print(f"Y2 (global operations)  = {y[1]}")
    print(f"Y3 (local unitaries)    = {y[2]}")
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "transport",
        "inputs": {"instance_document": instance.to_document()},
        "transport": {"Y": list(y)},
    }
    if plan is not None:
        report["transport"]["plan"] = plan.to_document()
        for site in plan.to_A:
            print(f"  {site}: legs {list(plan.to_A[site])} -> A, "
                  f"legs {list(plan.to_B[site])} -> B")
    if cert is not None:
        report["transport"]["certificate"] = cert.to_document()
        print(f"certificate at N={cert.N}: rank {cert.rank} = N^Y3, spectrum "
              f"uniform within {cert.eigenvalue_deviation:.2e}")
        print(f"  {cert.haar_samples} Haar samples: max rank "
              f"{cert.haar_rank_max} (bound respected)")
    _write_report(report, args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """A parser (and, by inheritance, its subcommand parsers) whose
    rejections are input errors: ``main`` prints them on one line, without
    the usage block."""

    def error(self, message: str):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="arealaw",
        description="Boundary areas, entropy predictions and Monte Carlo "
                    "checks for random graph states",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, bits=True):
        p.add_argument("--out", help="write the JSON report here")
        if bits:  # only where an entropy is printed
            p.add_argument("--bits", action="store_true",
                           help="display entropies in bits (stored values stay in nats)")

    p_area = sub.add_parser("area", help="boundary area via max flow and markings")
    p_area.add_argument("-g", "--graph", required=True)
    mode = p_area.add_mutually_exclusive_group()
    mode.add_argument("--flow-only", action="store_true",
                      help="skip the brute-force marking enumeration")
    mode.add_argument("--bruteforce", action="store_true",
                      help="enumerate markings and assert equality (the default)")
    p_area.add_argument("--limit", type=int, default=10 ** 6,
                        help="marking enumeration limit")
    add_common(p_area, bits=False)
    p_area.set_defaults(func=cmd_area)

    p_pred = sub.add_parser("predict", help="closed-form entropy prediction")
    p_pred.add_argument("-g", "--graph", required=True)
    p_pred.add_argument("-N", type=int, required=True)
    add_common(p_pred)
    p_pred.set_defaults(func=cmd_predict)

    def add_mc(p):
        p.add_argument("-g", "--graph", required=True)
        p.add_argument("-N", type=int, required=True)
        p.add_argument("-n", "--samples", type=int, required=True)
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (drawn from entropy and recorded if omitted)")
        p.add_argument("--q", default="0,1,2", help="Renyi orders, comma separated")
        p.add_argument("--jobs", type=int, default=1,
                       help="parallel workers for samples (results independent of J)")
        p.add_argument("--spectra", help="dump per-sample spectra to this CSV")

    p_sim = sub.add_parser("simulate", help="Monte Carlo entropy estimate")
    add_mc(p_sim)
    add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify", help="compare Monte Carlo mean to the prediction")
    add_mc(p_ver)
    p_ver.add_argument("--slack", type=float, default=0.03,
                       help="finite-size allowance in nats")
    p_ver.add_argument("--expect", type=float, default=None,
                       help="override the predicted value (harness self-test)")
    add_common(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_tr = sub.add_parser("transport", help="scenario values, routing and certificate")
    p_tr.add_argument("-i", "--instance", required=True)
    p_tr.add_argument("--certify", action="store_true")
    p_tr.add_argument("-N", type=int, default=None,
                      help="local dimension for the certificate")
    p_tr.add_argument("--haar-samples", type=int, default=50)
    p_tr.add_argument("--seed", type=int, default=0)
    add_common(p_tr, bits=False)
    p_tr.set_defaults(func=cmd_transport)
    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process."""
    return build_parser()


def _fail(code: int, what: str, message) -> int:
    """Print an error as one stderr line and return its exit code."""
    line = str(message).replace("\r", "\\r").replace("\n", "\\n")
    print(f"{what}: {line}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at shutdown
        return code
    except BrokenPipeError as exc:
        # the flush at shutdown then writes what is left to nowhere, silently
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _fail(2, "input error", f"cannot write stdout: {exc}")
    except (ParseError, ValidationError) as exc:
        return _fail(2, "input error", exc)
    except CombinatorialLimitError as exc:
        return _fail(3, "combinatorial limit", f"{exc}; hint: rerun with "
                     "--flow-only, the flow value equals the enumerated area")
    except ResourceGuardError as exc:
        return _fail(4, "resource guard", exc)
    except CertificateError as exc:
        return _fail(1, "certificate failure", exc)
    except AreaLawError as exc:
        return _fail(5, "internal error", exc)


if __name__ == "__main__":
    sys.exit(main())
