import argparse
import contextlib
import csv
import inspect
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fastpoisson import cli, verifysuite
from fastpoisson.cli import main
from fastpoisson.fieldio import read_field, write_field
from fastpoisson.grid import BoundaryCondition as BC, GridKind as GK, GridSpec
from fastpoisson.solver import SolverPlan

from conftest import ROWS


@pytest.fixture
def rhs_file(tmp_path, rng):
    grids = (
        GridSpec(12, 1.0, BC.NEUMANN, GK.STAGGERED),
        GridSpec(10, 2.0, BC.NEUMANN, GK.STAGGERED),
    )
    return write_field(tmp_path / "rhs", rng.standard_normal((12, 10)), grids)


def test_solve_writes_outputs_and_manifest(rhs_file, tmp_path):
    out = tmp_path / "run"
    assert main(["solve", "--in", str(rhs_file), "--out", str(out)]) == 0
    solution, grids = read_field(out / "solution.json")
    assert solution.shape == (12, 10)
    assert grids[0].bc is BC.NEUMANN
    report = json.loads((out / "report.json").read_text())
    assert set(report) == {"removed_mean", "mode", "periodic_axes", "timing_seconds",
                           "plan_seconds", "plan"}
    assert report["plan_seconds"] > 0.0
    assert set(report["plan"]) == {"axes", "dtype", "workspace", "resident_bytes"}
    assert report["plan"]["dtype"] == "float64"
    # the plan keeps only its inverse eigenvalues, one per grid point here
    assert report["plan"]["resident_bytes"] == 12 * 10 * 8
    # two matrix-method axes in place: the working copy and one 10-line chunk
    assert report["plan"]["workspace"] == {"working_copy": 12 * 10 * 8, "half_spectrum": 0,
                                           "line_buffer": 0, "matrix_temporary": 10 * 12 * 8}
    assert [(a["bc"], a["grid"], a["n"], a["forward"], a["backward"]) for a in report["plan"]["axes"]] == [
        ("neumann", "staggered", 12, "dct2", "dct3"), ("neumann", "staggered", 10, "dct2", "dct3")]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "solve"
    assert manifest["library_version"]
    assert "seed" not in manifest and "seed" not in manifest["configuration"]
    assert any("solution" in o for o in manifest["outputs"])


def test_solve_reruns_byte_identical(rhs_file, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--in", str(rhs_file), "--out", str(a)]) == 0
    assert main(["solve", "--in", str(rhs_file), "--out", str(b)]) == 0
    assert (a / "solution.bin").read_bytes() == (b / "solution.bin").read_bytes()
    assert (a / "solution.json").read_text() == (b / "solution.json").read_text()


def test_solve_singular_reports_removed_mean(tmp_path, rng):
    grids = (GridSpec(8, 1.0, BC.PERIODIC),)
    rhs = rng.standard_normal(8) + 2.0
    header = write_field(tmp_path / "r", rhs, grids)
    out = tmp_path / "out"
    assert main(["solve", "--in", str(header), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["removed_mean"] == pytest.approx(rhs.mean(), rel=1e-12)


@pytest.mark.parametrize("flags,in_header,expected", [
    (["--bc", "periodic"], GridSpec(6, 2.0, BC.DIRICHLET, GK.REGULAR),
     GridSpec(6, 2.0, BC.PERIODIC, GK.REGULAR)),
    (["--grid", "regular"], GridSpec(6, 2.0, BC.NEUMANN, GK.STAGGERED),
     GridSpec(6, 2.0, BC.NEUMANN, GK.REGULAR)),
    (["--length", "3"], GridSpec(6, 2.0, BC.DIRICHLET, GK.STAGGERED),
     GridSpec(6, 3.0, BC.DIRICHLET, GK.STAGGERED)),
], ids=["bc", "grid", "length"])
def test_solve_flag_overrides_header(flags, in_header, expected, tmp_path, rng):
    # an explicit flag wins even when it names the flag's default value; the
    # attributes it does not name keep the header's values
    header = write_field(tmp_path / "r", rng.standard_normal((6, 6)), (in_header,) * 2)
    out = tmp_path / "out"
    assert main(["solve", "--in", str(header), *flags, "--out", str(out)]) == 0
    _, grids = read_field(out / "solution.json")
    assert grids == (expected, expected)


def test_solve_report_describes_plan(tmp_path, rng):
    grids = (GridSpec(52, 1.0, BC.DIRICHLET, GK.REGULAR), GridSpec(255, 1.0, BC.DIRICHLET, GK.REGULAR))
    header = write_field(tmp_path / "r", rng.standard_normal((52, 255)).astype(np.float32), grids)
    out = tmp_path / "out"
    assert main(["solve", "--in", str(header), "--out", str(out)]) == 0
    plan = json.loads((out / "report.json").read_text())["plan"]
    assert plan["dtype"] == "float32"
    assert [(a["fft_length"], a["largest_prime"], a["method"]) for a in plan["axes"]] == [
        (106, 53, "matrix"), (512, 2, "fft")]
    # axis 0 is transformed in place in column blocks of 128 of the 255 columns
    assert plan["workspace"] == {"working_copy": 52 * 255 * 4, "half_spectrum": 0,
                                 "line_buffer": 0, "matrix_temporary": 52 * 128 * 4}
    assert plan["resident_bytes"] == 52 * 255 * 4


def test_solve_missing_input_exits_3(tmp_path):
    assert main(["solve", "--in", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x")]) == 3


def test_solve_bad_config_exits_2(tmp_path, rng):
    header = write_field(tmp_path / "r", rng.standard_normal((6, 6)))
    code = main(["solve", "--in", str(header), "--bc", "periodic,dirichlet",
                 "--grid", "staggered,regular", "--out", str(tmp_path / "x")])
    assert code == 2  # periodic is regular-only


def test_verify_filtered_run(tmp_path):
    out = tmp_path / "verify.json"
    code = main(["verify", "--bc", "dirichlet", "--grid", "staggered", "--out", str(out)])
    assert code == 0
    summary = json.loads(out.read_text())
    assert summary["passed"] is True
    rows = {(c["bc"], c["grid"]) for c in summary["cases"]}
    assert rows == {("dirichlet", "staggered")}


def test_verify_covers_all_rows_and_approximations(tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", "--out", str(out)]) == 0
    summary = json.loads(out.read_text())
    combos = {
        (c["bc"], c["grid"], c["approximation"])
        for c in summary["cases"]
        if c["approximation"]
    }
    assert len(combos) >= 10  # five rows x two approximations
    assert summary["num_failed"] == 0


class _FaultyPlan(SolverPlan):
    """A plan whose largest-magnitude eigenvalue is off by a factor 1 + 1e-6:
    it owns the smallest non-zero entry of the inverse-eigenvalue array."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        inv = self._inv_lam
        magnitude = np.where(inv != 0.0, np.abs(inv), np.inf)
        inv[np.unravel_index(np.argmin(magnitude), inv.shape)] /= 1.0 + 1e-6


def test_verify_fault_injection_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(verifysuite, "SolverPlan", _FaultyPlan)
    out = tmp_path / "verify.json"
    code = main(["verify", "--out", str(out)])
    assert code == 1
    summary = json.loads(out.read_text())
    # the perturbed eigenvalue must show in every row's solver checks
    solver_cases = [c for c in summary["cases"]
                    if c["suite"] in ("eigenmode_solve", "dense_oracle")]
    assert {(c["bc"], c["grid"]) for c in solver_cases} == {
        (bc.value, kind.value) for bc, kind in ROWS}
    assert {c["suite"] for c in solver_cases} == {"eigenmode_solve", "dense_oracle"}
    assert not any(c["passed"] for c in solver_cases)


@pytest.mark.parametrize("args,code,message", [
    (["bench", "--sizes", "8,x", "--dims", "1"], 2, "'bench'"),
    (["bench", "--sizes", "0", "--dims", "1"], 2, "'bench'"),
    (["bench", "--sizes", "8", "--dims", "1", "--reps", "0"], 2, "'bench'"),
    (["bench", "--sizes", "8", "--dims", "1", "--seed", "-2"], 2, "'bench'"),
    (["bench", "--sizes", "8", "--dims", "1", "--size", "8"], 2, "'bench'"),
    (["bench", "--sizes", "8", "--dims", "1", "--format-version", "2"], 2, "'bench'"),
    (["verify", "--bc", "foo"], 2, "'foo'"),
    (["verify", "--grid", "foo"], 2, "'foo'"),
    (["verify", "--approx", "foo"], 2, "'foo'"),
    (["verify", "--seed", "-1"], 2, "--seed"),
    (["verify", "--threads", "-3"], 2, "threads must be at least 1"),
    (["verify", "--inject-eigenvalue-fault"], 2, "unrecognized arguments"),
    (["solve", "--in", "rhs.json", "--format-version", "1"], 2, "unrecognized arguments"),
    (["solve", "--in", "rhs.json", "--size", "8,8"], 2, "unrecognized arguments"),
    (["solve", "--in", "no-such-dir/rhs.json"], 3, "rhs.json"),
    (["solve", "--in", "rhs.json", "--seed", "1"], 2, "unrecognized arguments"),
    (["solve", "--in", "rhs.json", "--threads", "0"], 2, "threads must be at least 1"),
    (["solve", "--in", "rhs.json", "--bc", "periodic,,dirichlet"], 2, "'periodic,,dirichlet'"),
    (["demo-flow", "--dt", "0", "--steps", "2"], 2, "--dt"),
    (["demo-flow", "--dt", "-0.01", "--steps", "2"], 2, "--dt"),
    (["demo-flow", "--dt", "inf", "--steps", "2"], 2, "--dt"),
    (["demo-flow", "--nu", "-1", "--steps", "2"], 2, "--nu"),
    (["demo-flow", "--nu", "nan", "--steps", "2"], 2, "--nu"),
    (["demo-flow", "--cells", "8,y", "--steps", "2"], 2, "'8,y'"),
    (["demo-flow", "--cells", "1", "--steps", "2"], 2, "'1'"),
    (["demo-flow", "--cells", "8,8,8", "--steps", "2"], 2, "'8,8,8'"),
    (["demo-flow", "--cells", "8,,8", "--steps", "1"], 2, "'8,,8'"),
    (["demo-flow", "--cells", "8,", "--steps", "1"], 2, "'8,'"),
    (["demo-flow", "--steps", "-3"], 2, "--steps"),
    (["demo-flow", "--steps", "2", "--snapshot-every", "-1"], 2, "--snapshot-every"),
    (["demo-flow", "--steps", "2", "--threads", "2"], 2, "unrecognized arguments"),
    (["demo-flow", "--steps", "2", "--seed", "1"], 2, "unrecognized arguments"),
    (["demo-flow", "--case", "taylor-green", "--length", "2,2", "--steps", "2"], 2, "--length"),
    (["demo-flow", "--forcing", "0.5", "--steps", "2"], 2, "--forcing"),
    (["demo-flow", "--case", "channel", "--cells", "8,6", "--forcing", "nan", "--steps", "2"],
     2, "--forcing"),
    (["solve", "--in", "rhs.json", "--length", "inf,1", "--bc", "dirichlet"], 2, "L=inf"),
    (["demo-flow", "--case", "channel", "--cells", "4,4", "--length", "1e300,1", "--steps", "1"],
     2, "out of float64 range"),
], ids=["bench-sizes-not-int", "bench-sizes-zero", "bench-reps-zero", "bench-seed-negative",
        "bench-size-flag", "bench-format-version-flag", "verify-bc-unknown", "verify-grid-unknown",
        "verify-approx-unknown", "verify-seed-negative", "verify-threads-negative",
        "verify-inject-fault-flag", "solve-format-version", "solve-size-flag", "solve-missing-input",
        "solve-seed-flag", "solve-threads-zero", "solve-bc-empty-entry",
        "flow-dt-zero", "flow-dt-negative", "flow-dt-inf", "flow-nu-negative", "flow-nu-nan",
        "flow-cells-not-int", "flow-cells-one", "flow-cells-three", "flow-cells-empty-entry",
        "flow-cells-trailing-comma",
        "flow-steps-negative", "flow-snapshot-every-negative",
        "flow-threads-flag", "flow-seed-flag", "flow-tg-length", "flow-tg-forcing",
        "flow-forcing-nan", "solve-length-inf", "flow-length-spacing-overflow"])
def test_bad_flag_exits_2_with_message(args, code, message, tmp_path, monkeypatch, capsys):
    """Bad input exits with its documented code and a message, never a
    traceback; argparse's own rejections exit 2 through ``SystemExit``.
    The ``bench-*`` rows keep the old sweep's bad inputs: with the
    subcommand gone, each is rejected as an unknown command."""
    monkeypatch.chdir(tmp_path)
    write_field(tmp_path / "rhs", np.ones((4, 4)))  # a valid ``rhs.json``
    if args[0] in ("solve", "demo-flow"):
        args = args + ["--out", str(tmp_path / "out")]
    try:
        exit_code = main(args)
    except SystemExit as exc:
        exit_code = exc.code
    assert exit_code == code
    captured = capsys.readouterr()
    assert message in captured.err and "Traceback" not in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def run_cli(argv):
    """Exit code and stderr of one run; argparse's rejections exit through
    ``SystemExit``, and any other exception propagates (a traceback)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def assert_list_flag_outcome(code, err, entries):
    # runs or is a configuration error, says why when it fails, never shows
    # a traceback; a list with an empty or blank entry never runs
    assert code in (0, 2), (code, err)
    assert code == 0 or err.strip(), code
    assert "Traceback" not in err
    if not all(entry.strip() for entry in entries):
        assert code == 2, (entries, err)


_BLANK = ("", " ", "\t")
_CELL_TOKENS = _BLANK + ("2", "6", "8", " 8 ", "1", "0", "-3", "8.0", "x", "nan")
_BC_TOKENS = _BLANK + ("periodic", "dirichlet", " neumann ", "Periodic", "foo", "1")
_LENGTH_TOKENS = _BLANK + ("1", "2.5", " 0.5", "1e-3", "0", "-1", "nan", "inf", "x")


def token_lists(tokens):
    return st.lists(st.sampled_from(tokens), min_size=1, max_size=4)


@settings(max_examples=80, deadline=None)
@given(case=st.sampled_from(("taylor-green", "channel")), cells=token_lists(_CELL_TOKENS))
def test_property_demo_flow_cells_lists(case, cells):
    with tempfile.TemporaryDirectory() as tmp:
        code, err = run_cli(["demo-flow", "--case", case, "--cells=" + ",".join(cells),
                             "--steps", "1", "--out", str(Path(tmp) / "out")])
    assert_list_flag_outcome(code, err, cells)


@settings(max_examples=80, deadline=None)
@given(bcs=st.none() | token_lists(_BC_TOKENS), lengths=st.none() | token_lists(_LENGTH_TOKENS))
def test_property_solve_bc_and_length_lists(bcs, lengths):
    with tempfile.TemporaryDirectory() as tmp:
        rhs = write_field(Path(tmp) / "rhs", np.ones((4, 4)))
        argv = ["solve", "--in", str(rhs), "--out", str(Path(tmp) / "out")]
        for flag, entries in (("--bc", bcs), ("--length", lengths)):
            if entries is not None:
                argv.append(f"{flag}={','.join(entries)}")
        code, err = run_cli(argv)
    assert_list_flag_outcome(code, err, (bcs or []) + (lengths or []))
    # a non-finite length is a configuration error, never a solve
    if lengths and any(entry.strip() in ("inf", "nan") for entry in lengths):
        assert code == 2, (lengths, err)


def test_demo_flow_taylor_green_series(tmp_path):
    out = tmp_path / "tg"
    code = main(["demo-flow", "--case", "taylor-green", "--cells", "16",
                 "--steps", "10", "--dt", "0.01", "--out", str(out)])
    assert code == 0
    with open(out / "series.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 11
    # the three Poisson solves of every step take some time; step 0 has none
    poisson = [float(r["poisson_seconds"]) for r in rows]
    assert poisson[0] == 0.0 and all(seconds > 0.0 for seconds in poisson[1:])
    ke = [float(r["kinetic_energy"]) for r in rows]
    assert all(b < a for a, b in zip(ke, ke[1:]))  # viscous decay, monotone
    # divergence stays at projection level throughout
    dx = 2 * np.pi / 16
    u_scale = 1.0
    for r in rows:
        assert float(r["max_divergence"]) <= 1e-10 * u_scale / dx


def test_demo_flow_channel_zero_forcing_zero_state(tmp_path):
    out = tmp_path / "ch"
    code = main(["demo-flow", "--case", "channel", "--cells", "8,6",
                 "--steps", "5", "--dt", "0.01", "--snapshot-every", "5",
                 "--out", str(out)])
    assert code == 0
    for name in ("u_000005", "w_000005", "p_000005"):
        data, _ = read_field(out / f"{name}.json")
        assert np.all(data == 0.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # deliberate blowup
def test_demo_flow_instability_exits_5(tmp_path):
    out = tmp_path / "boom"
    code = main(["demo-flow", "--case", "taylor-green", "--cells", "16",
                 "--steps", "200", "--dt", "5.0", "--out", str(out)])
    assert code == 5


def test_demo_flow_bad_cells_exits_2(tmp_path):
    assert main(["demo-flow", "--cells", "1", "--out", str(tmp_path / "x")]) == 2
    assert main(["demo-flow", "--case", "taylor-green", "--cells", "8,6",
                 "--out", str(tmp_path / "y")]) == 2


def test_manifest_written_for_demo(tmp_path):
    out = tmp_path / "tg"
    main(["demo-flow", "--cells", "8", "--steps", "2", "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "demo-flow"
    assert manifest["configuration"]["dt"] == 0.01
    assert "series.csv" in " ".join(manifest["outputs"])


def test_every_flag_is_read_by_its_command():
    """A flag that only reaches the manifest (``vars(args)``) is not read:
    each one must be named as ``args.<dest>`` by its command's function,
    ``main`` or the shared grid parser."""
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    shared = inspect.getsource(cli.main) + inspect.getsource(cli._grids_from_flags)
    unread = {}
    for name, sub in subparsers.choices.items():
        source = inspect.getsource(sub.get_default("func")) + shared
        unread[name] = [a.dest for a in sub._actions if a.dest != "help"
                        and not re.search(rf"\bargs\.{a.dest}\b", source)]
    assert unread == {name: [] for name in subparsers.choices}
