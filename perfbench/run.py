"""The arealaw benchmark: one workload per process, every output checked.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  With ``--trace 1`` the workload's steps run twice,
every other one traced (see ``tracer.py``), and the line carries the
per-layer metrics, the tracing overhead (traced minus untraced wall over the
same steps) and the share of traced wall time no layer accounts for.  The line before it records the environment.  Without
``--workload`` every workload runs in turn, each in a fresh interpreter.
See NOTES.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("census", "mc_blackhole", "mc_lattice")

# workload: (graph document, N, samples per serial verify call)
MONTE_CARLO = {
    "mc_blackhole": ("black_hole", 32, 2),
    "mc_lattice": ("lattice", 2, 8),
}
SMOKE_MONTE_CARLO = {
    "mc_blackhole": ("black_hole", 16, 2),
    "mc_lattice": ("lattice", 2, 1),
}
SMOKE_MARGINALS = 150
SMOKE_INSTANCES = 2
SETUP_REPEATS = 5
CHUNKS = 16

END_TO_END = {
    "setup_s": "s",
    "marginals_per_s": "1/s",
    "certificates_per_s": "1/s",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "import.numpy_s": "s",
    "import.scipy_s": "s",
    "import.arealaw_s": "s",
    "graph_model.parse_s": "s",
    "boundary_flow.max_flow_s": "s",
    "boundary_flow.min_cut_s": "s",
    "boundary_flow.max_flow_calls_per_op": "count",
    "marking.bruteforce_s": "s",
    "marking.markings_per_op": "count",
    "marking.from_flow_s": "s",
    "spectral_predictor.predict_s": "s",
    "spectral_predictor.predict_calls_per_op": "count",
    "mc_simulator.haar_s": "s",
    "mc_simulator.haar_calls_per_sample": "count",
    "mc_simulator.haar_gflop_per_sample": "GFLOP",
    "mc_simulator.assemble_s": "s",
    "mc_simulator.state_mb": "MiB",
    "mc_simulator.spectrum_s": "s",
    "mc_simulator.experiment_s": "s",
    "mc_simulator.cpu_per_sample_s": "s",
    "transport.scenarios_s": "s",
    "transport.routing_s": "s",
    "transport.certify_s": "s",
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_share": "fraction",
}

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")


# -- environment and interpreter set-up -------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "thread_variables": {k: os.environ.get(k) for k in THREAD_VARIABLES},
        "git_commit": _git_commit(),
    }


def import_seconds(repeats: int) -> float:
    """Median wall time of ``import arealaw.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import arealaw.cli; "
            "print(time.perf_counter() - t)")
    values = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                              cwd=ROOT, capture_output=True, text=True, check=True)
        values.append(float(proc.stdout))
    return statistics.median(values)


def parse_importtime(text: str) -> dict[str, float]:
    """Seconds of ``-X importtime`` self time under ``arealaw.cli``, split
    into numpy, scipy and the rest (arealaw and the standard library it
    pulls in).  A module counts for numpy or scipy when it belongs to that
    package or was first imported by one of its modules."""
    pending: list[dict] = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        label = fields[2]
        node = {"name": label.strip(), "self": int(fields[0]) * 1e-6,
                "level": (len(label) - len(label.lstrip(" ")) - 1) // 2,
                "children": []}
        while pending and pending[-1]["level"] > node["level"]:
            node["children"].append(pending.pop())
        pending.append(node)
    roots = [n for n in pending if n["name"] == "arealaw.cli"]
    if not roots:
        raise RuntimeError("no arealaw.cli entry in the import-time trace")
    split = {"numpy": 0.0, "scipy": 0.0, "arealaw": 0.0}
    todo = [(roots[0], "arealaw")]
    while todo:
        node, owner = todo.pop()
        top = node["name"].split(".")[0]
        if top in ("numpy", "scipy"):
            owner = top
        split[owner] += node["self"]
        todo.extend((child, owner) for child in node["children"])
    return split


def import_split(repeats: int) -> dict[str, float]:
    runs = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import arealaw.cli"],
            env=_child_env(), cwd=ROOT, capture_output=True, text=True, check=True)
        runs.append(parse_importtime(proc.stderr))
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def peak_rss_mib() -> float:
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


# -- operations -------------------------------------------------------------


class Ops:
    """Runs operations in a closed loop with one caller, counting every
    attempt and every failed check; a failure never stops the run."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()

    def run(self, kind: str, fn, *args) -> float:
        op_id = sum(self.attempted.values())
        self.attempted[kind] += 1
        start = time.perf_counter()
        try:
            if self.tracer is None:
                ok = fn(*args)
            else:
                with self.tracer.op(kind, op_id):
                    ok = fn(*args)
        except (Exception, SystemExit):
            ok = False
            if sum(self.failed.values()) < 3:
                traceback.print_exc(file=sys.stderr)
        wall = time.perf_counter() - start
        if not ok:
            self.failed[kind] += 1
        return wall


class Census:
    def __init__(self, seed: int, smoke: bool):
        import workloads

        self.w = workloads
        docs = workloads.census_documents()
        if len(docs) != workloads.CENSUS_SIZE:
            raise RuntimeError(f"census has {len(docs)} marginals, "
                               f"expected {workloads.CENSUS_SIZE}")
        docs = workloads.shuffled(docs, seed)
        self.docs = docs[:SMOKE_MARGINALS] if smoke else docs
        count = SMOKE_INSTANCES if smoke else workloads.TRANSPORT_INSTANCES
        self.instances = workloads.shuffled(
            workloads.transport_instances(seed, count), seed)
        self.seed = seed
        self.plan = None

    def warm_up(self, ops: Ops) -> None:
        ops.run("marginal", self.w.marginal_op, self.docs[0])
        ops.run("transport", self.w.transport_op, self.instances[0], self.seed, [])

    def measure(self, ops: Ops, seconds: float, step=None) -> dict:
        """Rounds of the whole census with one pass over the transport
        instances interleaved, chunk by chunk, so both rates sample the
        same stretch of time.  Rounds repeat while another one fits in
        ``seconds`` (at least one); a repeat of the same plan reruns the
        same number of rounds.  Each instance's cost is its median over the
        rounds.  ``step(k)`` wraps the k-th chunk with its instances."""
        step = step or _plain
        doc_step = math.ceil(len(self.docs) / CHUNKS)
        trip_step = math.ceil(len(self.instances) / CHUNKS)
        rates = []
        walls = [[] for _ in self.instances]
        certify = [[] for _ in self.instances]
        rounds = 0
        start = time.perf_counter()
        while (rounds < self.plan if self.plan is not None
               else rounds == 0 or _fits(time.perf_counter() - start, rounds, seconds)):
            for j in range(CHUNKS):
                part = self.docs[j * doc_step:(j + 1) * doc_step]
                with step(rounds * CHUNKS + j):
                    t = time.perf_counter()
                    for text in part:
                        ops.run("marginal", self.w.marginal_op, text)
                    if part:
                        rates.append(len(part) / (time.perf_counter() - t))
                    for i in range(j * trip_step, min((j + 1) * trip_step, len(walls))):
                        walls[i].append(ops.run(
                            "transport", self.w.transport_op, self.instances[i],
                            self.seed * 100_000 + i, certify[i]))
            rounds += 1
        self.plan = rounds
        certified = [statistics.median(c) for c in certify if c]
        return {
            "marginals_per_s": statistics.median(rates),
            "certificates_per_s": len(walls) / math.fsum(map(statistics.median, walls)),
            "samples_per_s": self.w.HAAR_SAMPLES * len(certified) / math.fsum(certified),
        }


class MonteCarlo:
    def __init__(self, name: str, seed: int, smoke: bool):
        import workloads

        self.w = workloads
        kind, self.n, self.samples = (
            SMOKE_MONTE_CARLO if smoke else MONTE_CARLO)[name]
        doc = (workloads.black_hole_document() if kind == "black_hole"
               else workloads.lattice_document())
        self.graph_path = str(OUT / f"{name}-graph.json")
        self.report_path = str(OUT / f"{name}-report.json")
        Path(self.graph_path).write_text(json.dumps(doc), encoding="utf-8")
        self.ds = workloads.surviving_dimension(doc, self.n)
        self.seed = seed
        self.plan = None

    def warm_up(self, ops: Ops) -> None:
        ops.run("verify", self.w.verify_op, self.graph_path, self.report_path,
                self.n, self.samples, self.seed * 1000 + 999, self.ds)

    def measure(self, ops: Ops, seconds: float, step=None) -> dict:
        """``verify`` calls with per-call seeds while another one fits in
        ``seconds`` (at least one); a repeat reruns the same seeds.
        ``step(k)`` wraps the k-th call."""
        step = step or _plain
        walls = []
        start = time.perf_counter()
        while (len(walls) < self.plan if self.plan is not None
               else not walls or _fits(time.perf_counter() - start, len(walls), seconds)):
            with step(len(walls)):
                walls.append(ops.run(
                    "verify", self.w.verify_op, self.graph_path, self.report_path,
                    self.n, self.samples, self.seed * 1000 + len(walls), self.ds))
        self.plan = len(walls)
        per_call = statistics.median(1.0 / w for w in walls)
        return {
            "marginals_per_s": per_call,
            "certificates_per_s": per_call,
            "samples_per_s": statistics.median(self.samples / w for w in walls),
        }


def _plain(_):
    return contextlib.nullcontext()


def _fits(elapsed: float, done: int, seconds: float) -> bool:
    """Whether one more step of the average length so far ends in time."""
    return elapsed * (done + 1) / done <= seconds


def make_workload(name: str, seed: int, smoke: bool):
    if name == "census":
        return Census(seed, smoke)
    return MonteCarlo(name, seed, smoke)


# -- runs -------------------------------------------------------------------


def end_to_end_run(name: str, seed: int, seconds: float, smoke: bool):
    setup = import_seconds(1 if smoke else SETUP_REPEATS)
    workload = make_workload(name, seed, smoke)
    ops = Ops()
    rates = workload.measure(ops, seconds)
    metrics = {"setup_s": setup, **rates, "peak_rss_mb": peak_rss_mib()}
    return metrics, ops


def _per(total: float, count: int) -> float:
    return total / count if count else 0.0


def layer_metrics(tracer, traced_wall: float, untraced_wall: float,
                  imports: dict) -> dict:
    """Per-layer figures of the traced steps.  Times are self times per
    operation: per marginal document (a census marginal or one ``verify``
    call) for the combinatorial layers, per transport operation for
    ``transport``, per Monte Carlo sample for ``mc_simulator``, and per
    ``verify`` call for ``cli``."""
    kinds = Counter(tracer.op_kinds.values())
    doc_kinds = {"marginal", "verify"}
    docs = kinds["marginal"] + kinds["verify"]
    samples = tracer.samples
    on_docs = tracer.self_times(doc_kinds)
    on_trips = tracer.self_times({"transport"})
    everywhere = tracer.self_times()

    def module(times, prefix, exclude=()):
        return math.fsum(v for k, v in times.items()
                         if k.startswith(prefix) and k not in exclude)

    def calls(name, kinds):
        return sum(c for (kind, n), c in tracer.calls.items()
                   if n == name and kind in kinds)

    def trip(name):
        return _per(on_trips.get(name, 0.0), kinds["transport"])

    def sample(*names):
        return _per(math.fsum(everywhere.get(n, 0.0) for n in names), samples)

    layers = math.fsum(v for k, v in everywhere.items() if not k.startswith("op."))
    cli_wall = tracer.total("cli.main")
    return {
        "import.numpy_s": imports["numpy"],
        "import.scipy_s": imports["scipy"],
        "import.arealaw_s": imports["arealaw"],
        "graph_model.parse_s": _per(module(on_docs, "graph_model."), docs),
        "boundary_flow.max_flow_s": _per(
            module(on_docs, "boundary_flow.", {"boundary_flow.min_cut"}), docs),
        "boundary_flow.min_cut_s": _per(on_docs.get("boundary_flow.min_cut", 0.0), docs),
        "boundary_flow.max_flow_calls_per_op": _per(
            calls("boundary_flow.max_flow", doc_kinds), docs),
        "marking.bruteforce_s": _per(
            module(on_docs, "marking.", {"marking.marking_from_flow"}), docs),
        "marking.markings_per_op": _per(tracer.markings, docs),
        "marking.from_flow_s": _per(on_docs.get("marking.marking_from_flow", 0.0), docs),
        "spectral_predictor.predict_s": _per(module(on_docs, "spectral_predictor."), docs),
        "spectral_predictor.predict_calls_per_op": _per(
            calls("spectral_predictor.predict_entropy", doc_kinds), docs),
        "mc_simulator.haar_s": sample("mc_simulator.haar_unitary", "mc_simulator.ginibre"),
        "mc_simulator.haar_calls_per_sample": _per(
            calls("mc_simulator.haar_unitary", set(kinds)), samples),
        "mc_simulator.haar_gflop_per_sample": _per(tracer.haar_flops * 1e-9, samples),
        "mc_simulator.assemble_s": sample("mc_simulator.build_reduced_state"),
        "mc_simulator.state_mb": tracer.state_bytes_max / 2 ** 20,
        "mc_simulator.spectrum_s": sample("mc_simulator.spectral_report"),
        "mc_simulator.experiment_s": sample("mc_simulator.run_experiment"),
        "mc_simulator.cpu_per_sample_s": _per(tracer.experiment_cpu_s, samples),
        "transport.scenarios_s": trip("transport.scenarios"),
        "transport.routing_s": trip("transport.routing"),
        "transport.certify_s": trip("transport.certify"),
        "cli.overhead_s": _per(
            cli_wall - tracer.nested_total("cli.main", "mc_simulator.run_experiment"),
            kinds["verify"]),
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.unaccounted_share": 1.0 - layers / traced_wall,
    }


class Alternating:
    """Traces every other step of a pass; the next pass traces the others,
    so each step runs once traced and once untraced, close in time."""

    def __init__(self, tracer, ops: Ops):
        self.tracer = tracer
        self.ops = ops
        self.phase = 1
        self.wall = {True: 0.0, False: 0.0}

    @contextlib.contextmanager
    def __call__(self, k: int):
        traced = k % 2 == self.phase
        start = time.perf_counter()
        if traced:
            self.tracer.install()
            self.ops.tracer = self.tracer
        try:
            yield
        finally:
            if traced:
                self.ops.tracer = None
                self.tracer.uninstall()
            self.wall[traced] += time.perf_counter() - start


def traced_run(name: str, seed: int, seconds: float, smoke: bool):
    from tracer import Tracer

    imports = import_split(1 if smoke else SETUP_REPEATS)
    workload = make_workload(name, seed, smoke)
    ops = Ops()
    workload.warm_up(ops)
    tracer = Tracer()
    step = Alternating(tracer, ops)
    for step.phase in (1, 0):
        workload.measure(ops, seconds / 2, step)
    tracer.write(OUT / f"spans-{name}.jsonl")
    return layer_metrics(tracer, step.wall[True], step.wall[False], imports), ops


def run_all(args) -> int:
    """Each workload in a fresh interpreter, one after the other."""
    code = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__)), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print(f"{name}: {lines[-1] if lines else '(no result)'}")
        code = code or proc.returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "arealaw" / "__init__.py").is_file():
        print(f"perfbench: no arealaw package under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    sys.path[:0] = [str(SRC), str(HERE)]
    OUT.mkdir(exist_ok=True)
    import arealaw.cli  # noqa: F401  (compiles the package before set-up is timed)

    print(json.dumps({"env": environment()}))
    run = traced_run if args.trace else end_to_end_run
    values, ops = run(args.workload, args.seed, args.seconds, args.smoke)
    units = PER_LAYER if args.trace else END_TO_END
    failed = sum(ops.failed.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(ops.attempted.values()),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
