"""Benchmark of the fastpoisson solver: warm solve / flow-step time, set-up time
and per-operation allocation peak, with per-layer timings from a traced run.

    python3 bench/run.py --workload duct3d --seed 1 --seconds 36 --trace 0

Run from the repository root; the solver is imported from ``src/``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The full result,
with the environment and every check figure, is also written to
``bench/results/``.  See ``bench/README.md`` for the workloads and metrics.
"""

import os

# one BLAS thread, so the dense checks leave no spinning pool behind them that
# competes with the timed single-threaded solves
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
RESULTS_DIR = BENCH_DIR / "results"
SPEC_PATH = BENCH_DIR.parent / "BENCHMARK.json"
WORKLOAD_NAMES = ("duct3d", "dirbox3d", "tgflow2d")
WINDOW_S = 3.0  # op time per window of op_time()
MAX_ERRORS = 20  # failed ops whose details the result file keeps


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_solver():
    """Import fastpoisson from this checkout's ``src/``; exit 2 if it is not there."""
    if not (SRC_DIR / "fastpoisson" / "__init__.py").is_file():
        print(f"error: no solver sources at {SRC_DIR}/fastpoisson", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC_DIR))
    import fastpoisson

    if Path(fastpoisson.__file__).resolve().parent != (SRC_DIR / "fastpoisson").resolve():
        print(f"error: fastpoisson imported from {fastpoisson.__file__}", file=sys.stderr)
        sys.exit(2)


def environment():
    import numpy
    import scipy

    try:
        cpus = sorted(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        cpus = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": cpus,
        "threads": 1,
        "machine": platform.machine(),
    }


class Runner:
    """Runs whole rounds of one workload and keeps the counts and check figures."""

    def __init__(self, workload):
        self.workload = workload
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.worst = {}  # check figure -> worst value seen

    def run_round(self, samples=None, peak=False):
        """One round: time each op into ``samples`` (if given), check each
        result outside the timed interval.  With ``peak`` the last op runs
        under tracemalloc instead and its allocation peak is returned."""
        ops = list(self.workload.round(self.rounds))
        self.rounds += 1
        peak_bytes = None
        for i, (op, check) in enumerate(ops):
            self.attempted += 1
            traced_alloc = peak and i == len(ops) - 1
            try:
                if traced_alloc:
                    tracemalloc.start()
                    base = tracemalloc.get_traced_memory()[0]
                    result = op()
                    peak_bytes = tracemalloc.get_traced_memory()[1] - base
                    tracemalloc.stop()
                else:
                    t0 = time.perf_counter()
                    result = op()
                    elapsed = time.perf_counter() - t0
                    if samples is not None:
                        samples.append(elapsed)
                ok, detail = check(result)
            except Exception as exc:  # an op that raises is a failed op
                if tracemalloc.is_tracing():
                    tracemalloc.stop()
                ok, detail = False, {"error": f"{type(exc).__name__}: {exc}"}
            for key, value in detail.items():
                if key != "error":
                    self.worst[key] = max(self.worst.get(key, value), value)
            if not ok:
                self.failed += 1
                if len(self.errors) < MAX_ERRORS:  # a broken solver fails every op
                    self.errors.append(json.dumps(detail))
        return peak_bytes

    def timed_rounds(self, seconds):
        """Whole rounds, checks included, until ``seconds`` of wall time have
        passed; returns the op times of each round (failed ops have none)."""
        rounds = []
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            samples = []
            self.run_round(samples)
            rounds.append(samples)
        return rounds


def op_time(rounds):
    """Lower quartile over windows of each window's fastest op.

    A window is a run of consecutive whole rounds whose ops add up to at
    least ``WINDOW_S``.  Other tenants of a shared machine only ever add time
    to an op, and a direct solve does the same work on every call, so the
    fastest op of a window is its least disturbed sample.  The machine also
    switches between a fast and a slow state for seconds at a time: on
    ``dirbox3d`` the window minima of one run sat near 19 ms or near 32 ms.
    The lower quartile over the windows reports the fast state whenever a
    quarter of the run has it, and no single window sets the figure.
    """
    fastest, window = [], []
    for samples in rounds:
        window += samples
        if sum(window) >= WINDOW_S:
            fastest.append(min(window))
            window = []
    if window and not fastest:
        fastest.append(min(window))
    if len(fastest) < 2:
        return fastest[0] if fastest else None  # None: no op succeeded
    return statistics.quantiles(fastest, n=4)[0]


def timing_summary(rounds):
    flat = sorted(t for samples in rounds for t in samples)
    return {
        "ops": len(flat),
        "rounds": len(rounds),
        "op_s": op_time(rounds),
        "median_s": statistics.median(flat) if flat else None,
        "min_s": flat[0] if flat else None,
        "max_s": flat[-1] if flat else None,
        "round_op_s": [[round(t, 7) for t in samples] for samples in rounds],
    }


def layer_metrics(recorder, ops, setup_recorder, import_s, overhead_s):
    """Per-layer values by metric name, per traced op (set-up ones per set-up)."""
    ops = max(ops, 1)
    agg = recorder.aggregate()
    setup = setup_recorder.aggregate()

    def total(name, source=agg):
        return source.get(name, {}).get("total_s", 0.0)

    def count(name):
        return agg.get(name, {}).get("count", 0)

    def self_s(name):
        return agg.get(name, {}).get("self_s", 0.0)

    phases = {"forward": 0.0, "diagonal": 0.0, "backward": 0.0}
    for _, timing in recorder.solve_phases():
        for key in phases:
            phases[key] += (timing or {}).get(key, 0.0)
    return {
        "solver.solve_s": total("solver.solve") / ops,
        "solver.calls": count("solver.solve") / ops,
        "solver.forward_s": phases["forward"] / ops,
        "solver.diagonal_s": phases["diagonal"] / ops,
        "solver.backward_s": phases["backward"] / ops,
        "solver.unphased_s": (total("solver.solve") - sum(phases.values())) / ops,
        "solver.self_s": self_s("solver.solve") / ops,
        "solver.setup_s": total("solver.setup", setup),
        "eigenvalues.setup_s": total("eigenvalues.table", setup)
        + total("eigenvalues.combine", setup),
        "setup.import_s": import_s,
        "transforms.real_s": total("transforms.real") / ops,
        "transforms.real_calls": count("transforms.real") / ops,
        "transforms.fft_s": total("transforms.fft") / ops,
        "transforms.fft_calls": count("transforms.fft") / ops,
        "reorder.gather_s": total("reorder.gather") / ops,
        "reorder.scatter_s": total("reorder.scatter") / ops,
        "reorder.calls": (count("reorder.gather") + count("reorder.scatter")) / ops,
        "flow.advective_s": total("flow.advective") / ops,
        "flow.viscous_s": total("flow.viscous") / ops,
        "flow.gradient_s": total("flow.gradient") / ops,
        "flow.divergence_s": total("flow.divergence") / ops,
        "flow.divergence_calls": count("flow.divergence") / ops,
        "flow.self_s": self_s("flow.step") / ops,
        "trace.overhead_s": overhead_s,
    }


def declared_metrics(section, values):
    """The metrics BENCHMARK.json declares in ``section``, each with its unit."""
    spec = json.loads(SPEC_PATH.read_text())
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}


def main(argv=None):
    args = parse_args(argv)
    t_import = time.perf_counter()
    import_solver()
    import_s = time.perf_counter() - t_import

    import numpy as np

    import bench_trace
    from bench_workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    setup_recorder = bench_trace.Recorder()
    absent = []
    # set-up is the first, cold build of the plan (or flow) in this process;
    # importing numpy, scipy and fastpoisson is not part of it (setup.import_s)
    if args.trace:
        installed = bench_trace.install(setup_recorder)
        workload.build()
        installed.restore()
    else:
        t_setup = time.perf_counter()
        workload.build()
        setup_s = time.perf_counter() - t_setup

    workload.make_pool(np.random.default_rng(args.seed))
    runner = Runner(workload)
    # round 0 warms pocketfft's plan cache and measures the allocation peak
    # of its last (warm) operation; no op of it is timed
    peak_bytes = runner.run_round(peak=True)

    out = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "environment": environment()}
    if not args.trace:
        timed = runner.timed_rounds(args.seconds)
        metrics = declared_metrics("end_to_end", {
            "op_s": op_time(timed),
            "setup_s": setup_s,
            "op_peak_bytes": peak_bytes,
        })
        out["timing"] = timing_summary(timed)
        phase_violations = 0
    else:
        # untraced then traced rounds in one process; the difference of their
        # op_s is the tracing overhead
        untraced = runner.timed_rounds(args.seconds / 2)
        recorder = bench_trace.Recorder()
        installed = bench_trace.install(recorder)
        try:
            traced = runner.timed_rounds(args.seconds / 2)
        finally:
            installed.restore()
        traced_s, untraced_s = op_time(traced), op_time(untraced)
        overhead_s = None if None in (traced_s, untraced_s) else traced_s - untraced_s
        traced_ops = sum(len(samples) for samples in traced)
        metrics = declared_metrics("per_layer", layer_metrics(
            recorder, traced_ops, setup_recorder, import_s, overhead_s))
        layers = {t.layer for t in bench_trace.TARGETS}
        found = {t.layer for t in bench_trace.TARGETS if t.span in installed.found}
        absent = sorted(layers - found)
        # the report's own phase timers run inside the call, so their sum
        # can never exceed the time measured around it
        phase_violations = sum(
            1 for outside, timing in recorder.solve_phases()
            if sum((timing or {}).values()) > outside
        )
        out["timing"] = {"untraced": timing_summary(untraced), "traced": timing_summary(traced)}
        out["spans"] = recorder.aggregate()
        out["setup_spans"] = setup_recorder.aggregate()
        out["absent_layers"] = absent
        out["phase_sum_violations"] = phase_violations

    out.update({
        "rounds": runner.rounds,
        "check_worst": runner.worst,
        "errors": runner.errors,
    })
    measured = all(metric["value"] is not None for metric in metrics.values())
    result = {
        "correct": runner.failed == 0 and phase_violations == 0 and measured,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    out.update(result)

    RESULTS_DIR.mkdir(exist_ok=True)
    suffix = "-trace" if args.trace else ""
    path = RESULTS_DIR / f"{args.workload}-seed{args.seed}{suffix}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")

    print(f"environment {json.dumps(out['environment'])}")
    if absent:
        print(f"absent layers: {', '.join(absent)}")
    for key, value in runner.worst.items():
        print(f"check {key} worst {value:.3e}")
    for name, metric in metrics.items():
        value = metric["value"]
        shown = "not measured" if value is None else f"{value:.6g}"
        print(f"{name} = {shown} {metric['unit']}")
    print(f"attempted {runner.attempted} failed {runner.failed} rounds {runner.rounds}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
