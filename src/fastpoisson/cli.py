"""Command-line front end: solve from files, verification suites, flow demo.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 I/O or file-format error, 4 allocation failure, 5 flow instability.
Every run writes a manifest JSON next to its outputs with the fully resolved
configuration, so results are reproducible from the manifest alone.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .fieldio import FieldFormatError, read_field, write_field
from .grid import (
    Approximation,
    BoundaryCondition,
    ConfigurationError,
    GridKind,
    GridSpec,
)
from .solver import SolverConfig, SolverPlan
from . import verifysuite

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_ALLOC = 4
EXIT_UNSTABLE = 5

_BC = {"periodic": BoundaryCondition.PERIODIC, "dirichlet": BoundaryCondition.DIRICHLET,
       "neumann": BoundaryCondition.NEUMANN}
_KIND = {"regular": GridKind.REGULAR, "staggered": GridKind.STAGGERED}
_APPROX = {"spectral": Approximation.PSEUDO_SPECTRAL, "fd2": Approximation.FINITE_DIFFERENCE_2}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return EXIT_CONFIG
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FieldFormatError, FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError:
        print("error: allocation failed", file=sys.stderr)
        return EXIT_ALLOC
    except FloatingPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fastpoisson",
                                     description="Fast direct Poisson solver toolkit")
    parser.add_argument("--version", action="version", version=f"fastpoisson {__version__}")
    sub = parser.add_subparsers(dest="subcommand")
    # flags are taken only spelled out: a prefix such as ``solve --thread``
    # is an error, not a silent match for whichever flag it begins

    ps = sub.add_parser("solve", allow_abbrev=False,
                        help="solve a Poisson problem stored in a field file")
    ps.add_argument("--length", help="physical lengths per axis (default 1 each)")
    ps.add_argument("--bc", help="boundary condition per axis: periodic|dirichlet|neumann "
                    "(default periodic)")
    ps.add_argument("--grid", help="grid kind per axis: regular|staggered (default regular)")
    ps.add_argument("--approx", default="fd2", choices=sorted(_APPROX),
                    help="approximation (default fd2)")
    ps.add_argument("--precision", default=None, choices=("double", "single"))
    ps.add_argument("--threads", type=int, default=1)
    ps.add_argument("--in", dest="input", required=True, help="input field header (.json)")
    ps.add_argument("--out", required=True, help="output directory")
    ps.set_defaults(func=cmd_solve)

    pv = sub.add_parser("verify", allow_abbrev=False, help="run the verification suites")
    pv.add_argument("--bc", choices=sorted(_BC), help="restrict to one boundary condition")
    pv.add_argument("--grid", choices=sorted(_KIND), help="restrict to one grid kind")
    pv.add_argument("--approx", choices=sorted(_APPROX), help="restrict to one approximation")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--threads", type=int, default=1)
    pv.add_argument("--out", help="write the JSON summary here (default: stdout)")
    pv.set_defaults(func=cmd_verify)

    pd = sub.add_parser("demo-flow", allow_abbrev=False,
                        help="incompressible-flow projection demo")
    pd.add_argument("--case", choices=("taylor-green", "channel"), default="taylor-green")
    pd.add_argument("--cells", default="64", help="cells per axis, e.g. 64 or 64,32")
    pd.add_argument("--length", default=None, help="domain lengths (channel case; default 1,1)")
    pd.add_argument("--nu", type=float, default=0.01)
    pd.add_argument("--dt", type=float, default=0.01)
    pd.add_argument("--steps", type=int, default=100)
    pd.add_argument("--forcing", type=float, default=None,
                    help="streamwise body force (channel; default 0)")
    pd.add_argument("--snapshot-every", type=int, default=0, help="0 disables snapshots")
    pd.add_argument("--out", required=True, help="output directory")
    pd.set_defaults(func=cmd_demo_flow)
    return parser


def _split(text, count, convert, what):
    # an empty or blank entry fails its conversion like any other bad entry
    try:
        values = [convert(s.strip()) for s in str(text).split(",")]
    except (KeyError, ValueError):
        raise ConfigurationError(f"cannot parse {what} list {text!r}")
    if len(values) == 1 and count > 1:
        values = values * count
    if len(values) != count:
        raise ConfigurationError(f"{what}: expected {count} entries, got {len(values)} in {text!r}")
    return values


def _grids_from_flags(args, dims, sizes, header):
    """Grids from the geometry flags.  A flag that is given overrides the
    header; one left out takes the header's value, or its default (length 1,
    periodic, regular) when there is no header."""

    def per_axis(flag, convert, what, attr, default):
        if flag is not None:
            return _split(flag, dims, convert, what)
        return [getattr(g, attr) for g in header] if header else [default] * dims

    lengths = per_axis(args.length, float, "length", "length", 1.0)
    bcs = per_axis(args.bc, lambda s: _BC[s], "bc", "bc", BoundaryCondition.PERIODIC)
    kinds = per_axis(args.grid, lambda s: _KIND[s], "grid", "kind", GridKind.REGULAR)
    return tuple(GridSpec(n, L, bc, kind) for n, L, bc, kind in zip(sizes, lengths, bcs, kinds))


def _write_manifest(outdir: Path, args, outputs):
    resolved = {
        k: (str(v) if isinstance(v, Path) else v)
        for k, v in vars(args).items()
        if k != "func"
    }
    manifest = {
        "subcommand": args.subcommand,
        "configuration": resolved,
        "outputs": [str(o) for o in outputs],
        "library_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    path = outdir / "manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# -- solve --------------------------------------------------------------------


def cmd_solve(args) -> int:
    rhs, header_grids = read_field(args.input)
    grids = _grids_from_flags(args, rhs.ndim, rhs.shape, header_grids)
    precision = args.precision or ("single" if rhs.dtype == np.float32 else "double")
    config = SolverConfig(grids, _APPROX[args.approx], precision=precision)
    t_plan = time.perf_counter()
    plan = SolverPlan(config, threads=args.threads)
    plan_seconds = time.perf_counter() - t_plan
    solution, report = plan.solve(rhs)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    sol_header = write_field(outdir / "solution", solution, grids)
    report_path = outdir / "report.json"
    with open(report_path, "w") as fh:
        json.dump(
            {
                "removed_mean": report.removed_mean,
                "mode": report.mode,
                "periodic_axes": list(report.periodic_axes),
                "timing_seconds": report.timing,
                "plan_seconds": plan_seconds,
                "plan": dataclasses.asdict(plan.describe()),
            },
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
    _write_manifest(outdir, args, [sol_header, outdir / "solution.bin", report_path])
    return EXIT_OK


# -- verify -------------------------------------------------------------------


def cmd_verify(args) -> int:
    if args.seed < 0:
        raise ConfigurationError(f"--seed must be non-negative, got {args.seed}")
    bc = _BC[args.bc] if args.bc else None
    kind = _KIND[args.grid] if args.grid else None
    approx = _APPROX[args.approx] if args.approx else None
    results = verifysuite.run_suites(
        bc=bc,
        kind=kind,
        approximation=approx,
        seed=args.seed,
        threads=args.threads,
    )
    summary = {
        "passed": all(r["passed"] for r in results),
        "cases": results,
        "num_cases": len(results),
        "num_failed": sum(not r["passed"] for r in results),
    }
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    if args.out:
        outpath = Path(args.out)
        outpath.parent.mkdir(parents=True, exist_ok=True)
        outpath.write_text(text)
        _write_manifest(outpath.parent, args, [outpath])
    else:
        sys.stdout.write(text)
    return EXIT_OK if summary["passed"] else EXIT_FAILED


# -- demo-flow ----------------------------------------------------------------


def cmd_demo_flow(args) -> int:
    from .flow import channel, taylor_green

    if not (math.isfinite(args.nu) and args.nu >= 0):
        raise ConfigurationError(f"--nu must be finite and non-negative, got {args.nu}")
    if not (math.isfinite(args.dt) and args.dt > 0):
        raise ConfigurationError(f"--dt must be finite and positive, got {args.dt}")
    if args.steps < 0 or args.snapshot_every < 0:
        raise ConfigurationError("--steps and --snapshot-every must be non-negative")
    cells = _split(args.cells, 2, int, "cells")
    if any(c < 2 for c in cells):
        raise ConfigurationError(f"demo runs on a 2D grid with >= 2 cells per axis, got {args.cells!r}")
    if args.case == "taylor-green":
        for flag, value in (("--length", args.length), ("--forcing", args.forcing)):
            if value is not None:
                raise ConfigurationError(f"{flag} applies to the channel case only")
        if cells[0] != cells[1]:
            raise ConfigurationError("taylor-green uses a square grid")
        flow = taylor_green(cells[0], nu=args.nu)
    else:
        forcing = 0.0 if args.forcing is None else args.forcing
        if not math.isfinite(forcing):
            raise ConfigurationError(f"--forcing must be finite, got {forcing}")
        lengths = _split(args.length, 2, float, "length") if args.length else (1.0, 1.0)
        flow = channel(tuple(cells), tuple(lengths), nu=args.nu, forcing_x=forcing)

    print(
        f"advisory: advective CFL = {flow.cfl_advisory(args.dt):.4f} at dt = {args.dt}"
        " (fixed step; stability is the caller's choice)",
        file=sys.stderr,
    )
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    outputs = []
    series_path = outdir / "series.csv"
    with open(series_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "time", "kinetic_energy", "max_divergence", "poisson_seconds"])
        writer.writerow([0, 0.0, flow.kinetic_energy(), flow.max_divergence(), 0.0])
        for step in range(1, args.steps + 1):
            try:
                flow.rk3_step(args.dt)
            except FloatingPointError as exc:
                print(f"error: instability at step {step}: {exc}", file=sys.stderr)
                return EXIT_UNSTABLE
            writer.writerow(
                [
                    step,
                    flow.time,
                    flow.kinetic_energy(),
                    flow.max_divergence(),
                    flow.poisson_seconds,
                ]
            )
            if args.snapshot_every and step % args.snapshot_every == 0:
                for name, data in (
                    ("u", flow.velocity.u),
                    ("w", flow.velocity.w),
                    ("p", flow.pressure.p),
                ):
                    outputs.append(write_field(outdir / f"{name}_{step:06d}", data))
    outputs.append(series_path)
    _write_manifest(outdir, args, outputs)
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
