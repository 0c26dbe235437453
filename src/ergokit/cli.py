"""Command-line front end.

Three subcommands: ``report`` prints the work quantities for an instance
file, ``sweep`` scans a post-processing family and reports observational
ergotropy per grid point, ``verify`` runs the randomized audits. Exit codes:
0 success (and, for verify, zero violations), 1 audit violations found,
2 usage or validation errors. Identical invocations produce byte-identical
stdout; timing goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .audits import CLAIM_AUDITS, AuditConfig, run_all, run_audit
from .errors import ErgokitError, NonFinite, ValidationError
from .ergotropy import report, work
from .instances import FAMILIES, family_matrices, load_instance, parse_grid
from .measurement import coarse_grained_spectrum, computational_basis, post_process
from .states import energy_populations


def _write_rows(rows, fmt: str, output: str | None, columns: tuple | None = None) -> None:
    """The one writer of result rows: a JSON object per line, or CSV under a header of ``columns`` (default: the first
    row's keys), floats as repr and None as an empty cell. Rows are read once; a non-finite float writes nothing."""
    lines = []
    for row in rows:
        for k, v in row.items():
            if isinstance(v, float) and not math.isfinite(v):
                raise NonFinite(f"{k}: result is {v!r}, not a finite number")
        if fmt != "json" and not lines:
            columns = columns or tuple(row)
            lines.append(",".join(columns))
        lines.append(json.dumps(row) if fmt == "json" else ",".join(
            repr(float(v)) if isinstance(v, float) else "" if v is None else str(v) for v in map(row.get, columns)))
    text = "\n".join(lines) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text)


def _pick_measurement(instance, name: str | None, path: str):
    if name is None:
        return None
    if name not in instance.measurements:
        known = ", ".join(sorted(instance.measurements)) or "none defined"
        raise ValidationError(f"measurements.{name}: not present in {path} (available: {known})")
    return instance.measurements[name]


def cmd_report(args) -> int:
    instance = load_instance(args.instance)
    m = _pick_measurement(instance, args.measurement, args.instance)
    rep = report(instance.state, instance.hamiltonian, m)
    _write_rows([{"d": rep.dimension, "mean": rep.mean_energy, "passive": rep.passive_energy, "ergotropy": rep.ergotropy,
                  "incoherent": rep.incoherent, "coherent": rep.coherent, "observational": rep.observational}],
                args.format, args.output)
    return 0


def cmd_sweep(args) -> int:
    instance = load_instance(args.instance)
    base = _pick_measurement(instance, args.measurement, args.instance)
    if base is None:
        base = computational_basis(instance.dimension)
    grid = parse_grid(args.grid)
    matrices = family_matrices(args.family, grid, base.n_outcomes)  # checks the whole grid before the first row
    energies, p = instance.hamiltonian.energies, energy_populations(instance.state, instance.hamiltonian)
    # each row, and the point's matrix in it, is made as the writer reads it and dropped once its line is formatted
    rows = ({"parameter": value, "observational_ergotropy": work(energies, p, coarse_grained_spectrum(
        instance.state, post_process(base, matrix)))} for value, matrix in zip(grid, matrices))
    _write_rows(rows, args.format, args.output)
    return 0


def cmd_verify(args) -> int:
    cfg = AuditConfig(dimension=args.d, outcomes=args.n, rank=args.rank,
                      trials=args.trials, seed=args.seed, tolerance=args.tol)
    results = run_all(cfg) if args.claim == "all" else [run_audit(args.claim, cfg)]
    # Deterministic fields only: wall time goes to stderr, so identically seeded runs write byte-identical rows.
    rows = [{"claim": r.claim, "trials": r.trials, "violations": r.violations, "worst_margin": r.worst_margin,
             "worst_trial": r.worst_trial, "sampled": True, **r.details} for r in results]
    _write_rows(rows, args.format, args.output, columns=("claim", "trials", "violations", "worst_margin"))
    for r in results:
        print(f"# {r.claim}: {r.trials} trials, {r.violations} violations, {r.wall_time_s:.2f}s",
              file=sys.stderr)
    return 0 if all(r.violations == 0 for r in results) else 1


def _add_output_flags(sub, default_format: str) -> None:
    sub.add_argument("--format", choices=("json", "csv"), default=default_format,
                     help=f"output format (default: {default_format})")
    sub.add_argument("--output", metavar="PATH", default=None,
                     help="write results to PATH instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergokit",
        description="Work extraction quantities for finite-dimensional quantum states "
                    "under coarse-grained measurements, plus randomized audits of the "
                    "underlying inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser("report", help="compute work quantities for an instance file")
    p_report.add_argument("instance", help="path to a JSON instance file")
    p_report.add_argument("--measurement", metavar="NAME", default=None,
                          help="named measurement to evaluate observational ergotropy with")
    _add_output_flags(p_report, "json")
    p_report.set_defaults(func=cmd_report)

    p_sweep = sub.add_parser("sweep", help="scan a post-processing family over a parameter grid")
    p_sweep.add_argument("instance", help="path to a JSON instance file")
    p_sweep.add_argument("--family", required=True, help=f"post-processing family name ({', '.join(FAMILIES)})")
    p_sweep.add_argument("--grid", required=True,
                         help="parameter grid: start:stop:count or comma-separated values; "
                              "one that starts with '-' goes after '=', as --grid=-0.0,0.5")
    p_sweep.add_argument("--measurement", metavar="NAME", default=None,
                         help="base measurement to coarsen (default: computational basis)")
    _add_output_flags(p_sweep, "csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run randomized audits of the core claims")
    p_verify.add_argument("claim", help="one of: " + ", ".join([*CLAIM_AUDITS, "all"]))
    add = p_verify.add_argument
    add("--d", type=int, default=AuditConfig.dimension, help="Hilbert space dimension (default: %(default)s)")
    add("--n", type=int, default=AuditConfig.outcomes, help="coarse outcome count (default: %(default)s)")
    add("--rank", type=int, default=AuditConfig.rank, help="state rank (default: full)")
    add("--trials", type=int, default=AuditConfig.trials, help="trials per audit (default: %(default)s)")
    add("--seed", type=int, default=AuditConfig.seed, help="random seed (default: %(default)s)")
    add("--tol", type=float, default=AuditConfig.tolerance, help="violation tolerance (default: %(default)g)")
    _add_output_flags(p_verify, "json")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # LinAlgError: an eigensolve that did not converge; MemoryError: a size past this machine's memory
    except (ErgokitError, np.linalg.LinAlgError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
