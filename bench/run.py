"""Benchmark of the weylspin command line, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from ./src.
Each operation is an in-process call of weylspin.cli.main(argv) with stdout
and stderr captured: a closed loop with one client, each call starting when
the previous one returns. Rounds of operations (see workloads.py) run until
S seconds have passed; only the CLI calls are timed, while input generation
and output checks run between them. The last line of stdout is one JSON
object {correct, attempted, failed, metrics}. With --trace 0 the metrics are
the end-to-end ones. With --trace 1 a fixed extra round runs twice first,
plain and then with every function that a per-layer metric of BENCHMARK.json
names wrapped in a span recorder, and the per-layer metrics of the traced
pass are printed.
See README.md for the workloads, the metrics and what each should move.
"""

import os

# One BLAS thread: the package's 2x2 and 3x3 LAPACK calls gain nothing from
# more, and idle OpenBLAS workers spinning on a second core make timings
# depend on what else the machine runs. Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import checks
import workloads
from tracing import Tracer, patched

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
IMPORT_SAMPLES = 5
IMPORT_REF_MODULES = "asyncio, email.mime.multipart, http.server, xml.etree.ElementTree, decimal, unittest, argparse"
IMPORT_REF_S = 0.08  # nominal time of the reference import: one reference second
TRANSPORT_SAMPLES = 6  # arcs spot-checked per sample geometry
CAL_REPS = 200
CAL_REF_S = 0.002  # nominal time of one calibration kernel: one reference second
_CAL_X = np.linspace(-1.0, 1.0, 27).reshape(3, 3, 3)


def calibration_seconds():
    """Wall time of a fixed kernel of small einsums and Python calls.

    The machine's speed drifts by tens of percent over seconds (other tenants,
    clock changes), which moves every timing with it. Each timed interval is
    converted to reference seconds, seconds * CAL_REF_S / (calibration time
    measured next to it), so that the reported figures follow the program and
    not the machine. The kernel's mix (einsum on 3x3x3 arrays, max-abs
    reductions, Python loop) is the mix the package runs.
    """
    x = _CAL_X
    start = time.perf_counter()
    for _ in range(CAL_REPS):
        y = np.einsum("ijk,jkl->il", x, x)
        x = np.einsum("il,ljk->ijk", y, x) / float(np.max(np.abs(y)) * 3.0)
    return time.perf_counter() - start


def reference_seconds(seconds, cal_before, cal_after):
    return seconds * CAL_REF_S / (0.5 * (cal_before + cal_after))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _child_import_seconds(modules):
    """Time of `import <modules>` in a fresh interpreter, measured inside it."""
    probe = f"import time; t = time.perf_counter(); import {modules}; print(time.perf_counter() - t)"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout)


def import_seconds():
    """Median time of `import weylspin.cli` in fresh interpreters, in reference seconds.

    Import time swings by tens of percent with the machine's load, and the
    calibration kernel does not track it: import is file mapping, unmarshal
    and allocation, not arithmetic. So each sample is scaled by
    IMPORT_REF_S / (time to import a fixed set of standard-library modules),
    the mean of the reference imports just before and just after it. The
    first sample is dropped: it compiles the bytecode cache of a fresh
    checkout, which users pay once, not on every invocation.
    """
    refs = [_child_import_seconds(IMPORT_REF_MODULES)]
    samples = []
    for _ in range(IMPORT_SAMPLES + 1):
        t = _child_import_seconds("weylspin.cli")
        refs.append(_child_import_seconds(IMPORT_REF_MODULES))
        samples.append(t * IMPORT_REF_S / (0.5 * (refs[-2] + refs[-1])))
    return statistics.median(samples[1:])


class Runner:
    """Runs operations through the CLI, times the calls and tallies outcomes."""

    def __init__(self, main):
        self.main = main
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.tracer = None  # when set, CLI calls (and not the checks) are traced

    def call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        traced = self.tracer.active() if self.tracer else contextlib.nullcontext()
        with traced, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = self.main(argv)
            except Exception:  # an uncaught error is a failed call, not a crash of the run
                rc = 2
                err.write(traceback.format_exc())
            spent = time.perf_counter() - start
        return (rc, out.getvalue(), err.getvalue()), spent

    def run_op(self, op, counted=True, sink=None):
        """Returns (timed seconds, units of work that passed their checks)."""
        results, spent = [], 0.0
        for argv in op.argvs:
            res, dt = self.call(argv)
            results.append(res)
            spent += dt
        units = 0
        try:
            units = op.check(results)
        except checks.Failed as exc:
            if counted:
                self.failed += 1
            else:
                self.wrong.append(f"warm-up operation failed: {exc}")
            print(f"failed: {exc}", file=sys.stderr)
        except checks.Wrong as exc:
            self.wrong.append(str(exc))
            print(f"WRONG: {exc}", file=sys.stderr)
        if counted:
            self.attempted += 1
        if sink is not None:
            sink.extend(results)
        return spent, units

    def run_round(self, ops, sink=None):
        """Returns [(reference seconds spent in CLI calls, units passed)] per operation."""
        out = []
        cal_before = calibration_seconds()
        for op in ops:
            dt, units = self.run_op(op, sink=sink)
            cal_after = calibration_seconds()
            out.append((reference_seconds(dt, cal_before, cal_after), units))
            cal_before = cal_after
        return out


def median_round_rate(rounds):
    """Units per reference second of the median round.

    Every round has the same composition, so operation k of one round is
    comparable with operation k of any other. The median round takes, for
    each position k, the median time and units over all rounds; a burst of
    machine noise in a few calls then moves nothing.
    """
    columns = list(zip(*rounds))
    units = sum(statistics.median(u for _, u in col) for col in columns)
    seconds = sum(statistics.median(t for t, _ in col) for col in columns)
    return units / seconds


def search_iterations(results):
    """Newton iterations reported by the search-gt calls among `results`."""
    total = 0
    for _, out, _ in results:
        if '"iterations"' in out:
            rep = json.loads(out.strip().splitlines()[-1])
            total += sum(int(s["value"]) for s in rep["sections"] if s["name"] == "iterations")
    return total


def recorded_transports(runner, path, count):
    """(g, beta, arc, U) of the first `count` transports a `killing` call computes."""
    records = []

    def record(transport_operator):
        def wrapper(g, beta, arc):
            U = transport_operator(g, beta, arc)
            if len(records) < count:
                records.append((g, beta, arc, np.array(U)))
            return U

        return wrapper

    with patched("killing.transport_operator", record):
        runner.call(["killing", path, "--loops", "2", "--seed", "0"])
    return records


def rk4_reference(g, beta, arc):
    """Transport matrix from the package's RK4 integrator, with steps scaled to the data."""
    from weylspin.geometry import residual_scale
    from weylspin.killing import rk4_transport

    steps = 256 * max(1, math.ceil(abs(arc.length) * residual_scale(g, beta)))
    cols = [rk4_transport(g, beta, arc, e, steps=steps) for e in np.eye(2, dtype=complex)]
    return np.stack(cols, axis=1)


def check_transports(runner, workload):
    """Spot-check transports of each sample geometry against SU(2) and RK4."""
    checked = 0
    for path in workload.transport_samples():
        for g, beta, arc, U in recorded_transports(runner, path, TRANSPORT_SAMPLES):
            try:
                checks.check_transport(U, rk4_reference(g, beta, arc))
            except checks.Wrong as exc:
                runner.wrong.append(f"{path}: {exc}")
            checked += 1
    return checked


def negative_controls(runner, workload):
    """Each independent check must trip on a wrong answer."""
    lam = 2.0
    path = workload.path("control", "beta-off")
    workloads.write_geometry(path, workloads.round_member(lam, 1.01 * lam / 4.0))
    op = workloads.Op(
        [["analyze", path], ["killing", path, "--loops", "2"]],
        lambda res: checks.check_geometry(res, True),  # mislabelled as certified
    )
    results = [runner.call(argv)[0] for argv in op.argvs]
    try:
        op.check(results)
        runner.wrong.append("negative control: beta off by 1 % labelled certified passed")
    except checks.Wrong:
        pass

    path = workload.path("control", "round")
    workloads.write_geometry(path, workloads.ROUND_S3)
    for g, beta, arc, U in recorded_transports(runner, path, 1):
        try:
            checks.check_transport(U + 1e-6, rk4_reference(g, beta, arc))
            runner.wrong.append("negative control: transport perturbed by 1e-6 passed")
        except checks.Wrong:
            pass


def per_layer_names():
    """Per-layer metric names and units, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]


def traced_functions(names):
    """The functions the per-layer metrics name, plus the search family.

    milnor_theta3_family is wrapped so that building each trial geometry is
    not booked as find_gt_parameters self time.
    """
    found = {n.rpartition(".")[0] for n, _ in names if n.rpartition(".")[2] in SPAN_STATS}
    return sorted(found | {"killing.milnor_theta3_family"})


SPAN_STATS = {
    "calls": lambda tracer, fn: tracer.calls(fn),
    "self_ms": lambda tracer, fn: tracer.self_ms(fn),
    "us_per_call": lambda tracer, fn: tracer.us_per_call(fn),
}


def per_layer_metrics(names, tracer, slowdown, iterations, searches):
    def ratio(a, b):
        return a / b if b else 0.0

    calls = tracer.calls
    derived = {
        "killing.connection_builds_per_transport": ratio(
            calls("spinconn.killing_connection"), calls("killing.transport_operator")
        ),
        "killing.newton_iterations": iterations,
        "killing.residual_evals_per_search": ratio(calls("killing.gt_residual_vector"), searches),
        "trace.overhead_pct": 100.0 * (slowdown - 1.0),
    }
    metrics = {}
    for name, unit in names:
        if name in derived:
            metrics[name] = (derived[name], unit)
        else:
            fn, _, stat = name.rpartition(".")
            metrics[name] = (SPAN_STATS[stat](tracer, fn), unit)
    return metrics


def run(args, workdir):
    from weylspin import cli

    runner = Runner(cli.main)
    setup_s = None if args.trace else import_seconds()
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    for op in workload.warmup():
        runner.run_op(op, counted=False)

    traced = None
    if args.trace:
        # the traced round against the same round untraced, run just before it
        names = per_layer_names()
        untraced = runner.run_round(workload.round(workloads.TRACE, 0))
        ops = workload.round(workloads.TRACE, 0)
        results = []
        tracer = runner.tracer = Tracer(traced_functions(names))
        traced_round = runner.run_round(ops, sink=results)
        runner.tracer = None
        slowdown = sum(t for t, _ in traced_round) / sum(t for t, _ in untraced)
        searches = sum(1 for op in ops if op.argvs[0][0] == "search-gt")
        traced = (names, tracer, slowdown, search_iterations(results), searches)

    rounds = []
    start = time.perf_counter()
    index = 0
    while True:
        rounds.append(runner.run_round(workload.round(workloads.TIMED, index)))
        index += 1
        if time.perf_counter() - start >= args.seconds:
            break

    transports = check_transports(runner, workload)
    negative_controls(runner, workload)
    for msg in runner.wrong:
        print(f"incorrect: {msg}", file=sys.stderr)
    print(
        f"{workload.name}: {index} timed rounds, {runner.attempted} operations "
        f"({runner.failed} failed), {transports} transports spot-checked; "
        f"work_per_s counts {workload.unit}",
        file=sys.stderr,
    )

    if traced:
        metrics = per_layer_metrics(*traced)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "work_per_s": (median_round_rate(rounds), "1/s"),
        }
    return {
        "correct": not runner.wrong,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "weylspin", "cli.py")):
        print(f"error: no weylspin sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
