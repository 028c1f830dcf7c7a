"""Command-line interface: run experiments, build reports, probe density.

Exit codes: 0 on success, 1 on configuration errors, 2 on runtime errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .algorithms import ALGORITHM_NAMES
from .errors import ConfigError, ReportError
from .harness import (
    OUTPUT_DIR_ENV,
    ExperimentConfig,
    compute_run_rows,
    emit_errors_csv,
    emit_runs_csv,
    execute,
    expand_matrix,
    read_runs,
    report_ab_heatmap,
    report_hv_over_time,
    report_relative_hv,
)
from .indicators import density_change
from .problems import list_problems
from .transforms import TransformSpec


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mobench",
        description="Transformed bi-objective benchmark instances and MOEA runs",
    )
    parser.add_argument("--version", action="version", version=f"mobench {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute an experiment config")
    run.add_argument("--config", required=True, help="path to a JSON experiment config")
    run.add_argument("--parallel", type=int, default=1, help="worker processes")
    run.add_argument("--out", default=None, help="output directory (overrides config)")

    report = sub.add_parser("report", help="build report tables from stored runs")
    report.add_argument("--in", dest="in_dir", required=True, help="run output directory")
    report.add_argument(
        "--kind", required=True, choices=["ab-heatmap", "relative", "over-time"]
    )
    report.add_argument("--problem", default=None, help="problem id, e.g. zdt3-d2")
    report.add_argument("--algo", default=None, help="algorithm name")
    report.add_argument("--space", default="search", choices=["search", "objective"])
    report.add_argument("--population", type=int, default=None)
    report.add_argument(
        "--transform", default=None, help="instance transform part, e.g. s:rot-seed3__o:id"
    )

    density = sub.add_parser("density", help="pairwise-distance Wasserstein diagnostic")
    density.add_argument(
        "--transform", required=True, help='transform JSON, e.g. {"kind":"beta_cdf",...}'
    )
    density.add_argument("--n", type=int, default=500)
    density.add_argument("--dim", type=int, default=2)
    density.add_argument("--seed", type=int, default=0)

    sub.add_parser("list", help="list problems and transform kinds")
    return parser


def _cmd_run(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    out_dir = args.out or cfg.output_dir or os.environ.get(OUTPUT_DIR_ENV, "mobench-out")
    jobs = expand_matrix(cfg)
    print(f"expanded {len(jobs)} jobs -> {out_dir}")
    summaries = execute(jobs, parallelism=args.parallel, output_dir=out_dir)
    failures = [s for s in summaries if s.error is not None]
    rows = compute_run_rows(summaries)
    runs_csv = emit_runs_csv(rows, Path(out_dir) / "runs.csv")
    print(f"wrote {runs_csv} ({len(rows)} runs, {len(failures)} failures)")
    if failures:
        print(f"wrote {emit_errors_csv(summaries, Path(out_dir) / 'errors.csv')}")
    else:  # a clean batch keeps no earlier batch's failure list
        (Path(out_dir) / "errors.csv").unlink(missing_ok=True)
    return 0


def _cmd_report(args) -> int:
    if args.kind == "ab-heatmap" and not (args.problem and args.algo):
        raise ConfigError("ab-heatmap needs --problem and --algo")
    if args.kind == "over-time" and not (args.problem and args.transform):
        raise ConfigError("over-time needs --problem and --transform")
    rows, failed = read_runs(args.in_dir)
    scope = "" if args.kind == "relative" else f" of {args.problem}"
    if args.kind != "relative":  # a per-problem report counts and passes on only its runs
        rows = [r for r in rows if r.problem == args.problem]
        failed = [p for p in failed if p == args.problem]
    print(f"read {len(rows) + len(failed)} runs{scope}, {len(failed)} failed")
    reports_dir = Path(args.in_dir) / "reports"
    reports_dir.mkdir(parents=True, exist_ok=True)
    if args.kind == "ab-heatmap":
        table = report_ab_heatmap(
            rows, args.problem, args.algo, space=args.space, population=args.population
        )
        lines = ["alpha\\beta," + ",".join(f"{b:g}" for b in table["betas"])]
        for a, row in zip(table["alphas"], table["cells"]):
            cells = ",".join("NA" if v is None else repr(v) for v in row)
            lines.append(f"{a:g},{cells}")
        path = reports_dir / f"ab_heatmap_{args.problem}_{args.algo}_{args.space}.csv"
    elif args.kind == "relative":
        records = report_relative_hv(rows)
        lines = ["suite,dim,algorithm,family,relative_hv,n_problems"]
        for r in records:
            lines.append(
                f"{r['suite']},{r['dim']},{r['algorithm']},{r['family']},"
                f"{r['relative_hv']!r},{r['n_problems']}"
            )
        path = reports_dir / "relative_hv.csv"
    else:
        records = report_hv_over_time(rows, args.problem, args.transform)
        if not records:
            raise ReportError(
                f"no runs match problem={args.problem} transform={args.transform}"
            )
        lines = ["algorithm,population,eval,series,hv"]
        for r in records:
            lines.append(
                f"{r['algorithm']},{r['population']},{r['eval']},{r['series']},{r['hv']!r}"
            )
        path = reports_dir / f"hv_over_time_{args.problem}.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


def _cmd_density(args) -> int:
    try:
        spec = json.loads(args.transform)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--transform must be JSON: {exc}") from exc
    t = TransformSpec.from_config(spec, dim=args.dim)
    value = density_change(t, n=args.n, dim=args.dim, seed=args.seed)
    print(f"{value!r}")
    return 0


def _cmd_list(_args) -> int:
    print("problems:")
    for pid in list_problems():
        print(f"  {pid}")
    print("transforms:")
    print('  {"kind":"identity"}')
    print('  {"kind":"beta_cdf","alpha":A,"beta":B}')
    print('  {"kind":"sphered_rotation","dim":D,"seed":S}   (dim optional in configs)')
    print('  {"kind":"beta_cdf_grid","values":[...]}        (config shorthand)')
    print("algorithms:", *ALGORITHM_NAMES)
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "report": _cmd_report,
    "density": _cmd_density,
    "list": _cmd_list,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
