"""Tests of the benchmark itself: every correctness check accepts the solver's
answer and rejects a deliberately wrong one, and the tracing wrappers see the
layers and put the program back as they found it.

Run with ``python -m pytest bench`` from the repository root.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import bench_checks as checks  # noqa: E402
import bench_trace  # noqa: E402
from bench_workloads import DirBox3D, Duct3D, TaylorGreen2D  # noqa: E402

import fastpoisson.solver  # noqa: E402


def small(cls, **attrs):
    workload = cls()
    for key, value in attrs.items():
        setattr(workload, key, value)
    workload.build()
    workload.make_pool(np.random.default_rng(7))
    return workload


def first_op(workload):
    op, check = next(iter(workload.round(0)))
    return op(), check


def test_duct_check_accepts_solution_and_rejects_wrong_answers():
    result, check = first_op(small(Duct3D, n=12))
    phi, report = result
    assert check(result)[0]
    assert not check((phi * (1 + 1e-6), report))[0]
    assert not check((phi + 1e-6 * np.abs(phi).max(), report))[0]
    report.removed_mean *= 1 + 1e-6
    assert not check((phi, report))[0]


def test_dirbox_check_accepts_solution_and_rejects_wrong_answers():
    workload = small(DirBox3D, n=10)
    result, check = first_op(workload)
    phi = result[0]
    assert check(result)[0]
    assert not check((phi * (1 + 1e-6), None))[0]
    # drop the highest mode of the expected series from the solution
    _, expected = workload.pool[0]
    basis = checks.sine_basis(workload.n, workload.length)
    coeffs = np.einsum("ai,bj,ck,abc->ijk", basis, basis, basis, expected) * (
        2.0 / (workload.n + 1)
    ) ** 3
    top = coeffs[-1, -1, -1] * np.einsum("a,b,c->abc", *[basis[:, -1]] * 3)
    assert not check((phi - top, None))[0]


def test_taylor_green_check_accepts_steps_and_rejects_wrong_answers():
    workload = small(TaylorGreen2D, n=16, steps_per_round=5)
    ops = list(workload.round(0))
    for op, check in ops:
        assert check(op())[0]
    vel = workload.flow.velocity
    u, w = vel.u.copy(), vel.w.copy()
    try:
        vel.u = u * (1 + 1e-6)
        assert not check(None)[0]
        # a divergent perturbation of size 1e-9 relative
        vel.u = u + 1e-9 * np.cos(np.arange(16) * 2 * np.pi / 16)[:, None]
        assert not check(None)[0]
        vel.u, vel.w = u, np.zeros_like(w)
        assert not check(None)[0]
    finally:
        vel.u, vel.w = u, w
    assert check(None)[0]


def test_trace_sees_layers_and_restores_program():
    original = fastpoisson.solver.SolverPlan.solve
    original_gather = fastpoisson.solver.gather_lines
    recorder = bench_trace.Recorder()
    setup = bench_trace.Recorder()
    installed = bench_trace.install(setup)
    try:
        workload = small(Duct3D, n=8)
    finally:
        installed.restore()
    installed = bench_trace.install(recorder)
    try:
        for op, _ in workload.round(0):
            op()
    finally:
        installed.restore()
    assert fastpoisson.solver.SolverPlan.solve is original
    assert fastpoisson.solver.gather_lines is original_gather
    assert not installed.absent

    agg = recorder.aggregate()
    ops = workload.pool_size
    assert agg["solver.solve"]["count"] == ops
    assert agg["transforms.real"]["count"] == 4 * ops
    assert agg["transforms.fft"]["count"] == 2 * ops
    assert agg["reorder.gather"]["count"] == agg["reorder.scatter"]["count"] == 2 * ops
    children = sum(
        agg[name]["total_s"]
        for name in ("transforms.real", "transforms.fft", "reorder.gather", "reorder.scatter")
    )
    assert agg["solver.solve"]["self_s"] == pytest.approx(
        agg["solver.solve"]["total_s"] - children
    )
    for outside, timing in recorder.solve_phases():
        assert sum(timing.values()) <= outside
    setup_agg = setup.aggregate()
    assert setup_agg["solver.setup"]["count"] == 1
    assert setup_agg["eigenvalues.table"]["count"] == 3


def test_missing_target_is_reported_absent():
    targets = (bench_trace.Target("gone.call", "gone", "fastpoisson.no_such_module", "f"),
               bench_trace.Target("gone.attr", "gone", "fastpoisson.solver", "no_such_name"))
    installed = bench_trace.install(bench_trace.Recorder(), targets)
    assert installed.absent == {"gone.call", "gone.attr"}
    installed.restore()


def test_run_fails_without_solver_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("results"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "duct3d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "no solver sources" in proc.stderr
    assert proc.stdout == ""
