"""Command-line entry point.

Subcommands: coercivity, convergence, solve, meshgen, validate.
Exit codes: 0 success, 2 parse/config error, 3 admissibility failure,
4 solver failure, 5 convergence rate outside the accepted band.

Options may come from flags or from a JSON config file (--config), read
as the flags it names (``--key=value``, a string as it is, other values
as JSON text) ahead of the command line's: the same types, choices and
required options hold, command-line flags win, and null entries and keys
the command lacks are left out. Every output file embeds the resolved
configuration, which ``--config`` replays.
"""
from __future__ import annotations

import argparse
import datetime
import json
import sys

from . import analysis
from .assembly import export_solution, sin_sin_problem, solve_problem
from .degree import parse_strategy
from .errors import (AdmissibilityNotReached, E2vemError,
                     InadmissibleDegrees, NotSPD)
from .geometry import validate_mesh
from .meshgen import (_MESH_BUILDERS, MeshFamilySpec, load_mesh, make_mesh,
                      save_mesh)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ADMISSIBILITY = 3
EXIT_SOLVER = 4
EXIT_RATE_BAND = 5


def resolve_config(args) -> dict:
    """Resolved settings of one CLI run, what gets embedded in outputs:
    the command, then every other option of the parsed ``args`` in
    sorted order with its value."""
    config = {"command": args.command}
    for key, value in sorted(vars(args).items()):
        if key not in ("command", "config", "func"):
            config[key] = list(value) if isinstance(value, tuple) else value
    return config


def parse_n_range(text: str):
    """Vertex-count list from 'A..B', 'A-B', 'A:B', 'N' or 'a,b,c'."""
    out = []
    for chunk in str(text).split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        for sep in ("..", ":", "-"):
            if sep in chunk:
                lo, hi = chunk.split(sep, 1)
                out.extend(range(int(lo), int(hi) + 1))
                break
        else:
            out.append(int(chunk))
    if not out:
        raise ValueError(f"empty n-range {text!r}")
    return out


def _problem(flag: str):
    return sin_sin_problem("diffusion_reaction" if flag == "diffreact" else flag)


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _emit_text(text: str, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- subcommand implementations ----------------------------------------

def cmd_coercivity(args) -> int:
    n_range = parse_n_range(args.n_range) if args.n_range else None
    config = resolve_config(args)
    rows = analysis.coercivity_scan(args.family, n_range,
                                    seeds=(args.seed,))
    if args.out:
        analysis.scan_to_csv(rows, args.out, config)
        print(f"wrote {args.out} ({len(rows)} rows)")
    else:
        print("\n".join(analysis.scan_csv_lines(rows)))
    return EXIT_OK


def cmd_convergence(args) -> int:
    config = resolve_config(args)
    problem = _problem(args.problem)
    report = analysis.run_convergence_study(
        args.family, args.levels, problem, strategy=args.strategy,
        load_mode=args.load_mode, solver=args.solver, tol=args.tol,
        config=config)
    if args.out:
        report.to_csv(args.out)
        print(f"wrote {args.out} ({len(report.rows)} levels)")
    else:
        for row in report.rows:
            print(f"h={row.h:.6g} ncells={row.ncells} dofs={row.dofs} "
                  f"err_l2={row.err_l2:.6e} err_h1={row.err_h1:.6e}")
    print(f"fitted rates: L2={report.rate_l2:.4f} H1={report.rate_h1:.4f}")
    failures = []
    for label, rate, band in (("L2", report.rate_l2, args.rate_band_l2),
                              ("H1", report.rate_h1, args.rate_band_h1)):
        lo, hi = band
        if not lo <= rate <= hi:
            failures.append(f"{label} rate {rate:.4f} outside "
                            f"[{lo}, {hi}]")
    if failures:
        for line in failures:
            print("error: " + line, file=sys.stderr)
        return EXIT_RATE_BAND
    return EXIT_OK


def cmd_solve(args) -> int:
    config = resolve_config(args)
    mesh = load_mesh(args.mesh)
    problem = _problem(args.problem)
    result = solve_problem(mesh, args.strategy, problem,
                           load_mode=args.load_mode, solver=args.solver,
                           tol=args.tol)
    stats = result.stats
    print(f"solved: {result.n_dofs} dofs, method={stats.method}, "
          f"iterations={stats.iterations}, residual={stats.residual:.3e}, "
          f"levels={'/'.join(map(str, stats.levels))}")
    payload = {"config": config, "generated": _timestamp()}
    payload.update(export_solution(result))
    _emit_text(json.dumps(payload, sort_keys=True, indent=1) + "\n",
               args.out)
    return EXIT_OK


def cmd_meshgen(args) -> int:
    config = resolve_config(args)
    mesh = make_mesh(MeshFamilySpec(args.family, level=args.levels))
    save_mesh(mesh, args.out, extra={"config": config,
                                     "generated": _timestamp()})
    print(f"wrote {args.out}: {mesh.n_cells} cells, "
          f"{mesh.n_vertices} vertices")
    return EXIT_OK


def cmd_validate(args) -> int:
    mesh = load_mesh(args.mesh)
    quality = validate_mesh(mesh)
    print(f"cells={quality.n_cells} max_vertices={quality.max_vertices} "
          f"total_area={quality.total_area:.12g}")
    print(f"kappa={quality.kappa:.6g}")
    print("PASS")
    return EXIT_OK


# -- argument parsing ---------------------------------------------------

def rate_band(text):
    """A rate band ``(lo, hi)`` from 'lo,hi' or '[lo, hi]' text."""
    lo, hi = map(float, text.strip("[] ").split(","))
    return lo, hi


def _checked(parse):
    """An argparse type that refuses what ``parse`` refuses and keeps the
    text as given, so the embedded config replays it unchanged."""
    def check(text):
        try:
            parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from exc
        return text
    return check


def _add_solver_flags(sub):
    sub.add_argument("--strategy", default="minimal",
                     type=_checked(parse_strategy),
                     help="minimal | ell-hat | ell-check | fixed:L")
    sub.add_argument("--problem", default="poisson",
                     choices=("poisson", "diffreact"))
    sub.add_argument("--load-mode", dest="load_mode", default="mean",
                     choices=("mean", "p1"))
    sub.add_argument("--solver", default="auto",
                     choices=("auto", "cg", "cholesky"))
    sub.add_argument("--tol", type=float, default=1e-12)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="e2vem",
        description="Stabilization-free virtual element solver on "
                    "polygonal meshes")
    parser.add_argument("--config", default=None,
                        help="JSON file of options, read as their flags")
    subs = parser.add_subparsers(dest="command", metavar="command")

    sub = subs.add_parser("coercivity",
                          help="per-polygon projection-degree table")
    sub.add_argument("--family", default="regular",
                     choices=tuple(analysis._SCAN_FAMILIES))
    sub.add_argument("--n-range", dest="n_range", default=None,
                     type=_checked(parse_n_range),
                     help="vertex counts, e.g. 3..20 or 4,6,8")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", default=None)
    sub.set_defaults(func=cmd_coercivity)

    sub = subs.add_parser("convergence", help="refinement study with "
                          "fitted convergence rates")
    sub.add_argument("--family", default="honeycomb",
                     choices=tuple(_MESH_BUILDERS))
    sub.add_argument("--levels", type=int, default=4)
    _add_solver_flags(sub)
    sub.add_argument("--rate-band-l2", dest="rate_band_l2", type=rate_band,
                     default=(1.9, 2.1),
                     help="accepted L2 rate interval, e.g. 1.9,2.1")
    sub.add_argument("--rate-band-h1", dest="rate_band_h1", type=rate_band,
                     default=(0.9, 1.1))
    sub.add_argument("--out", default=None)
    sub.set_defaults(func=cmd_convergence)

    sub = subs.add_parser("solve", help="solve once on a saved mesh")
    sub.add_argument("--mesh", required=True, help="mesh JSON path")
    _add_solver_flags(sub)
    sub.add_argument("--out", default=None)
    sub.set_defaults(func=cmd_solve)

    sub = subs.add_parser("meshgen", help="generate a mesh JSON")
    sub.add_argument("--family", default="square_grid",
                     choices=tuple(_MESH_BUILDERS))
    sub.add_argument("--levels", type=int, default=0,
                     help="refinement level")
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=cmd_meshgen)

    sub = subs.add_parser("validate", help="check a saved mesh")
    sub.add_argument("--mesh", required=True, help="mesh JSON path")
    sub.set_defaults(func=cmd_validate)

    return parser, subs.choices


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()

    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", default=None)
    known, rest = pre.parse_known_args(argv)
    if known.config is not None:
        try:
            with open(known.config, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
            if not isinstance(file_cfg, dict):
                raise ValueError("config file must hold a JSON object")
        except (OSError, ValueError) as exc:
            print(f"error: config: {exc}", file=sys.stderr)
            return EXIT_CONFIG

        def text(value):
            return value if isinstance(value, str) else json.dumps(value)

        command = (rest.pop(0) if rest and rest[0] in commands
                   else text(file_cfg.get("command")))
        if command not in commands:
            print("error: config names no valid command and none "
                  "given on the command line", file=sys.stderr)
            return EXIT_CONFIG
        # the file's entries become flags ahead of the command line's: the
        # parser checks both alike, and the last occurrence of a flag wins
        flags = {action.dest: action.option_strings[-1]
                 for action in commands[command]._actions if action.nargs != 0}
        argv = [command] + [f"{flags[key]}={text(value)}"
                            for key, value in file_cfg.items()
                            if key in flags and value is not None] + rest

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    if getattr(args, "func", None) is None:
        parser.print_help()
        return EXIT_CONFIG
    try:
        return args.func(args)
    except (AdmissibilityNotReached, InadmissibleDegrees) as exc:
        print(f"error: admissibility: {exc}", file=sys.stderr)
        return EXIT_ADMISSIBILITY
    except NotSPD as exc:
        print(f"error: solver: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (E2vemError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
