"""Experiment definition, run-matrix expansion, execution, and reports.

The run pass executes (instance, algorithm, seed) jobs, persists a raw log
and a sidecar per successful run, pools per-problem objective extrema into
normalization boxes, and indexes the batch: `runs.csv` holds each successful
run's hypervolume columns, `errors.csv` each failed run's error. The report
pass reads those two and the sidecars `runs.csv` names, no log, and emits
plot-ready CSV tables.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import suppress
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .algorithms import ALGORITHM_NAMES, AlgoConfig, RunResult, run_algorithm
from .errors import ConfigError, DegenerateBaseError, ReportError
from .indicators import (
    accepted_history,
    compute_normalization,
    normalized_hv,
    normalized_hv_prefixes,
    relative_hv,
)
from .instance import ProblemInstance
from .problems import ProblemId, list_problems, parse_problem_id
from .transforms import BETA_CDF, IDENTITY, SPHERED_ROTATION, TransformSpec, _integer, _number

__all__ = [
    "ExperimentConfig",
    "Job",
    "RunSummary",
    "RunRow",
    "expand_matrix",
    "execute",
    "read_runs",
    "compute_run_rows",
    "emit_runs_csv",
    "emit_errors_csv",
    "report_ab_heatmap",
    "report_relative_hv",
    "report_hv_over_time",
    "full_matrix_config",
    "checkpoint_grid",
]

OUTPUT_DIR_ENV = "MOBENCH_OUT"
N_CHECKPOINTS = 50

# the study's matrix (full_matrix_config)
STUDY_ROTATION_SEEDS = (3, 5, 7, 11)
STUDY_GRID_VALUES = (0.2, 0.5, 1.0, 2.0, 5.0)
STUDY_POPULATIONS = (10, 100)
STUDY_BUDGET = 5000
STUDY_REPETITIONS = 10

RUNS_CSV_COLUMNS = (
    "instance,algorithm,population,seed,final_archive_hv,final_pop_hv,"
    "checkpoint_evals,checkpoint_hvs"
)


@dataclass
class ExperimentConfig:
    """The one statement of the config's fields and defaults; each value is
    checked against its JSON type, never converted."""

    problems: list[str]
    algorithms: list[dict]
    search_transforms: list[dict] = field(default_factory=list)
    objective_transforms: list[dict] = field(default_factory=list)
    budget: int = 5000
    repetitions: int = 10
    base_seed: int = 0
    output_dir: str | None = None
    combined_grid: bool = False

    def __post_init__(self):
        for name in ("budget", "repetitions", "base_seed"):
            _integer(getattr(self, name), name)
        for name, types in (("combined_grid", bool), ("output_dir", (str, type(None))),
                            ("problems", list), ("algorithms", list),
                            ("search_transforms", list), ("objective_transforms", list)):
            if not isinstance(getattr(self, name), types):
                raise ConfigError(f"{name} has the wrong JSON type: {getattr(self, name)!r}")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be at least 1")
        if not self.problems:
            raise ConfigError("at least one problem selector is required")
        if not self.search_transforms and not self.objective_transforms:
            raise ConfigError("at least one transform list entry is required")
        if not self.algorithms:
            raise ConfigError("at least one algorithm is required")
        for algo in self.algorithms:
            if not isinstance(algo, dict) or "name" not in algo:
                raise ConfigError(f"algorithm entries need a name: {algo!r}")
            if set(algo) - {"name", "population"}:
                raise ConfigError(f"algorithm entries take a name and a population: {algo!r}")
        self.algorithms = [{"population": 100, **algo} for algo in self.algorithms]
        for algo in self.algorithms:
            try:  # the seed plays no part in validity
                AlgoConfig(algo["name"], _integer(algo["population"], "population"), self.budget, 0)
            except ValueError as exc:
                raise ConfigError(f"invalid algorithm entry {algo!r}: {exc}") from exc

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"a config is a JSON object, got {raw!r}")
        unknown = set(raw) - {f.name for f in fields(ExperimentConfig)}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        missing = {"problems", "algorithms"} - set(raw)
        if missing:
            raise ConfigError(f"missing config fields: {sorted(missing)}")
        return ExperimentConfig(**raw)

    @staticmethod
    def from_file(path: str | Path) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return ExperimentConfig.from_dict(raw)


@dataclass(frozen=True)
class Job:
    instance: ProblemInstance
    algo: AlgoConfig


@dataclass
class RunSummary:
    """What the run pass scores a run from; `accepted` is (n, 3) float64 (eval_index, f1, f2)."""

    problem: str
    instance: str
    search_t: dict
    objective_t: dict
    algorithm: str
    population: int
    budget: int
    seed: int
    accepted: np.ndarray = field(default_factory=lambda: np.empty((0, 3)))
    final_pop_f: list[list[float]] = field(default_factory=list)
    error: str | None = None


@dataclass
class RunRow:
    """One emitted CSV row; hypervolumes are in the pooled normalized frame."""

    instance: str
    algorithm: str
    population: int
    seed: int
    final_archive_hv: float
    final_pop_hv: float
    checkpoint_evals: list[int]
    checkpoint_hvs: list[float]
    problem: str
    search_t: dict
    objective_t: dict


def resolve_problems(selectors: Iterable[str]) -> list[ProblemId]:
    """The problems the selectors name, in selector order, each once.

    A selector is `all`, a suite (`zdt`) or a suite and index (`zdt1`),
    optionally followed by `-d<dim>`; case and outer blanks do not count.
    """
    names = {  # each problem's selectors, in catalog order
        p: {n + d for n in ("all", p.suite, f"{p.suite}{p.index}") for d in ("", f"-d{p.dim}")}
        for p in list_problems()
    }
    out: list[ProblemId] = []
    for sel in selectors:
        text = sel.strip().lower() if isinstance(sel, str) else None
        hits = [p for p, named_by in names.items() if text in named_by]
        if not hits:
            raise ConfigError(f"problem selector {sel!r} matches nothing")
        out += [p for p in hits if p not in out]
    return out


def _expand_transform_entries(entries: Sequence[dict]) -> list[dict]:
    """Expand grid shorthands into plain transform configs; every other entry
    is left to TransformSpec.from_config."""
    out: list[dict] = []
    for entry in entries:
        if not isinstance(entry, dict) or entry.get("kind") != "beta_cdf_grid":
            out.append(entry)
            continue
        values = entry.get("values")
        if set(entry) != {"kind", "values"} or not isinstance(values, list) or not values:
            raise ConfigError(f"beta_cdf_grid takes only values, a non-empty list: {entry!r}")
        values = [_number(v, "beta_cdf_grid value") for v in values]
        out += [{"kind": BETA_CDF, "alpha": a, "beta": b} for a in values for b in values]
    return out


def _job_seed(base_seed: int, instance_desc: str, algo_name: str, population: int, rep: int) -> int:
    key = f"{base_seed}|{instance_desc}|{algo_name}|{population}|{rep}"
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1  # keep it in int64 range


def expand_matrix(cfg: ExperimentConfig) -> list[Job]:
    """Expand the experiment into (instance, algorithm, repetition) jobs.

    Search and objective transform grids vary one space at a time (the other
    held at identity) unless combined_grid is set, in which case the full
    cross product is taken. An instance listed twice runs once; two
    different transform pairs whose descriptors print the same are a
    ConfigError, since run ids and seeds are built from the descriptor.
    Per-job seeds are a stable hash of the base seed and the job coordinates.
    """
    problems = resolve_problems(cfg.problems)
    search_entries = _expand_transform_entries(cfg.search_transforms)
    objective_entries = _expand_transform_entries(cfg.objective_transforms)
    identity_cfg = {"kind": IDENTITY}
    if cfg.combined_grid:
        pairs = [
            (s, o)
            for s in (search_entries or [identity_cfg])
            for o in (objective_entries or [identity_cfg])
        ]
    else:
        pairs = [(s, identity_cfg) for s in search_entries]
        pairs += [(identity_cfg, o) for o in objective_entries]
    jobs: list[Job] = []
    for pid in problems:
        seen: dict[str, tuple[dict, dict]] = {}  # descriptor -> its transforms' configs
        for s_cfg, o_cfg in pairs:
            try:
                search_t = TransformSpec.from_config(s_cfg, dim=pid.dim)
                objective_t = TransformSpec.from_config(o_cfg, dim=pid.dim)
                inst = ProblemInstance(pid, search_t, objective_t)
            except ValueError as exc:  # invalid transform/instance combination
                raise ConfigError(f"invalid instance for {pid}: {exc}") from exc
            configs = (search_t.to_config(), objective_t.to_config())
            if inst.descriptor in seen:
                if seen[inst.descriptor] != configs:
                    raise ConfigError(
                        f"transforms {seen[inst.descriptor]} and {configs} "
                        f"both name instance {inst.descriptor}"
                    )
                continue
            seen[inst.descriptor] = configs
            for algo in cfg.algorithms:
                name, population = algo["name"], algo["population"]
                for rep in range(cfg.repetitions):
                    seed = _job_seed(cfg.base_seed, inst.descriptor, name, population, rep)
                    jobs.append(Job(inst, AlgoConfig(name, population, cfg.budget, seed)))
    return jobs


def _run_id(instance: str, algorithm: str, population, seed) -> str:
    return f"{instance}__{algorithm}__p{population}__s{seed}"


def _rows_text(a: np.ndarray) -> Iterator[str]:
    return (",".join(map(repr, row)) for row in a.tolist())


def _write_raw_log(result: RunResult, path: Path) -> None:
    # line format: eval_index,x_seen...,f_seen1,f_seen2,f_orig1,f_orig2
    # the blocks are formatted as they are written, except f_seen's text, which
    # f_orig reuses when the two have equal bits (every run without an objective warp)
    seen = list(_rows_text(result.f_seen))
    orig = seen if result.f_seen.tobytes() == result.f_orig.tobytes() else _rows_text(result.f_orig)
    with path.open("w", encoding="utf-8") as fh:
        for eval_index, (x, fs, fo) in enumerate(zip(_rows_text(result.x), seen, orig), 1):
            fh.write(f"{eval_index},{x},{fs},{fo}\n")


def _execute_job(job: Job, output_dir: str | None) -> RunSummary:
    """Run one job; a failure is recorded in the summary, never raised.

    With an output directory, a successful run writes its raw `.log`, then
    its `.json` sidecar; a failed run, unwritable files included, leaves neither.
    """
    header = dict(
        problem=str(job.instance.problem),
        instance=job.instance.descriptor,
        search_t=job.instance.search_t.to_config(),
        objective_t=job.instance.objective_t.to_config(),
        algorithm=job.algo.name,
        population=job.algo.population,
        budget=job.algo.budget,
        seed=job.algo.seed,
    )
    runs_dir = None if output_dir is None else Path(output_dir) / "runs"
    run_id = _run_id(job.instance.descriptor, job.algo.name, job.algo.population, job.algo.seed)
    try:
        result = run_algorithm(job.instance, job.algo)
        summary = RunSummary(
            **header,
            accepted=np.array(accepted_history(result.f_orig), dtype=float).reshape(-1, 3),
            final_pop_f=result.f_orig[result.final_population].tolist(),
        )
        if runs_dir is not None:
            _write_raw_log(result, runs_dir / f"{run_id}.log")
            meta = {k: v for k, v in summary.__dict__.items() if k != "accepted"}
            (runs_dir / f"{run_id}.json").write_text(json.dumps(meta), encoding="utf-8")
    except Exception as exc:  # job failures are recorded, never abort the batch
        for suffix in (".log", ".json") if runs_dir is not None else ():
            with suppress(OSError):  # a failed run keeps no file; a directory in its place stays
                (runs_dir / f"{run_id}{suffix}").unlink(missing_ok=True)
        return RunSummary(**header, error=f"{type(exc).__name__}: {exc}")
    return summary


def execute(jobs: Sequence[Job], parallelism: int = 1, output_dir: str | None = None) -> list[RunSummary]:
    """Run all jobs; output order matches job order regardless of parallelism."""
    if parallelism < 1:
        raise ConfigError("parallelism must be at least 1")
    if output_dir is not None:
        (Path(output_dir) / "runs").mkdir(parents=True, exist_ok=True)
    if parallelism == 1 or len(jobs) <= 1:
        return [_execute_job(job, output_dir) for job in jobs]
    # a serial run needs no pool, and importing it adds about 15 ms to a launch
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=parallelism) as pool:
        return list(pool.map(_execute_job, jobs, [output_dir] * len(jobs), chunksize=1))


def checkpoint_grid(population: int, budget: int) -> list[int]:
    """N_CHECKPOINTS log-spaced evaluation indices from the population size to the budget."""
    raw = np.geomspace(max(population, 1), budget, num=N_CHECKPOINTS)
    return sorted(set(int(round(v)) for v in raw))


def compute_run_rows(summaries: Iterable[RunSummary]) -> list[RunRow]:
    """Score the successful runs: normalized HV columns and checkpointed archive HV.

    Each base problem's normalization box is pooled from the accepted points
    of its successful runs; a run's archive is the non-dominated subset of
    its accepted points, so this gives the box of the pooled archives. The
    archive after evaluation c is the non-dominated subset of the points
    accepted up to c, and the hypervolume drops dominated points, so each
    checkpoint's value is that of an accepted-history prefix; one
    `normalized_hv_prefixes` pass per run gives them all.
    """
    done = [s for s in summaries if s.error is None]
    fronts: dict[str, list[np.ndarray]] = {}
    for s in done:
        fronts.setdefault(s.problem, []).append(s.accepted[:, 1:])
    boxes = {problem: compute_normalization(runs) for problem, runs in fronts.items()}
    rows = []
    for s in done:
        box = boxes[s.problem]
        grid = checkpoint_grid(s.population, s.budget)
        prefix = np.searchsorted(s.accepted[:, 0], grid, side="right")
        hvs = normalized_hv_prefixes(s.accepted[:, 1:], box, prefix)
        rows.append(
            RunRow(
                instance=s.instance,
                algorithm=s.algorithm,
                population=s.population,
                seed=s.seed,
                final_archive_hv=hvs[-1],
                final_pop_hv=normalized_hv(s.final_pop_f, box),
                checkpoint_evals=grid,
                checkpoint_hvs=hvs,
                problem=s.problem,
                search_t=s.search_t,
                objective_t=s.objective_t,
            )
        )
    return rows


def emit_runs_csv(rows: Iterable[RunRow], path: str | Path) -> Path:
    """Write one row per run; byte-stable for identical inputs."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"# mobench {__version__}", RUNS_CSV_COLUMNS]
    for r in rows:
        evals = ";".join(str(e) for e in r.checkpoint_evals)
        hvs = ";".join(repr(h) for h in r.checkpoint_hvs)
        lines.append(
            f"{r.instance},{r.algorithm},{r.population},{r.seed},"
            f"{r.final_archive_hv!r},{r.final_pop_hv!r},{evals},{hvs}"
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def read_runs(output_dir: str | Path) -> tuple[list[RunRow], list[str]]:
    """The rows of `runs.csv` sorted by run id, and each failed run's problem.

    Hypervolumes come from `runs.csv`, whose `repr` floats read back bit for
    bit; a row's problem and transform configs from the sidecar its run id
    names, the one file of `runs/` read for it; failed runs from `errors.csv`.
    """
    path, errors = Path(output_dir) / "runs.csv", Path(output_dir) / "errors.csv"
    if not path.is_file():
        raise ReportError(f"no runs.csv under {output_dir}")
    lines = path.read_text(encoding="utf-8").splitlines()[2:]
    table = {_run_id(*c[:4]): c for c in (line.split(",") for line in lines)}
    rows = []
    for run_id in sorted(table):
        sidecar = path.parent / "runs" / f"{run_id}.json"
        try:
            meta = json.loads(sidecar.read_text(encoding="utf-8"))
        except OSError as exc:
            raise ReportError(f"run {run_id} in runs.csv has no readable sidecar: {exc}") from exc
        inst, algo, pop, seed, archive_hv, pop_hv, evals, hvs = table[run_id]
        rows.append(RunRow(inst, algo, int(pop), int(seed), float(archive_hv), float(pop_hv),
                           list(map(int, evals.split(";"))), list(map(float, hvs.split(";"))),
                           meta["problem"], meta["search_t"], meta["objective_t"]))
    failed = errors.read_text(encoding="utf-8").splitlines()[1:] if errors.is_file() else []
    return rows, [line.split("__", 1)[0] for line in failed]  # the instance's problem


def emit_errors_csv(summaries: Iterable[RunSummary], path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["instance,algorithm,population,seed,error"]
    for s in summaries:
        if s.error is not None:
            err = " ".join(s.error.splitlines()).replace(",", ";")
            lines.append(f"{s.instance},{s.algorithm},{s.population},{s.seed},{err}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# --- report tables ---------------------------------------------------------


def transform_family(search_t: dict, objective_t: dict) -> str:
    if search_t["kind"] == SPHERED_ROTATION:
        return "sphered-rotation"
    if not TransformSpec.from_config(search_t).is_neutral:
        return "beta-cdf-search"
    if not TransformSpec.from_config(objective_t).is_neutral:
        return "beta-cdf-objective"
    return "identity"


def report_ab_heatmap(
    rows: Sequence[RunRow],
    problem: str,
    algorithm: str,
    space: str = "search",
    population: int | None = None,
) -> dict:
    """Mean final archive HV per (alpha, beta) cell of a Beta-CDF grid.

    Rows qualify when their grid-side transform is a Beta CDF (or neutral,
    which fills the (1, 1) cell) and the other side is neutral. Returns
    alphas/betas ascending and a cells matrix with None marking gaps.
    """
    if space not in ("search", "objective"):
        raise ReportError(f"space must be 'search' or 'objective', got {space!r}")
    per_cell: dict[tuple[float, float], list[float]] = {}
    for r in rows:
        if r.problem != problem or r.algorithm != algorithm:
            continue
        if population is not None and r.population != population:
            continue
        grid_side = r.search_t if space == "search" else r.objective_t
        other = r.objective_t if space == "search" else r.search_t
        if not TransformSpec.from_config(other).is_neutral:
            continue
        if grid_side["kind"] == BETA_CDF:
            cell = (grid_side["alpha"], grid_side["beta"])
        elif grid_side["kind"] == IDENTITY:
            cell = (1.0, 1.0)
        else:
            continue
        per_cell.setdefault(cell, []).append(r.final_archive_hv)
    if not per_cell:
        raise ReportError(
            f"no grid runs for problem={problem} algorithm={algorithm} space={space}"
        )
    alphas = sorted({a for a, _ in per_cell})
    betas = sorted({b for _, b in per_cell})
    cells = [
        [
            (float(np.mean(per_cell[(a, b)])) if (a, b) in per_cell else None)
            for b in betas
        ]
        for a in alphas
    ]
    return {"problem": problem, "algorithm": algorithm, "space": space,
            "alphas": alphas, "betas": betas, "cells": cells}


def report_relative_hv(rows: Sequence[RunRow]) -> list[dict]:
    """Mean final-population HV relative to the untransformed base runs.

    Per-run ratios are taken against the mean base HV of the matching
    (problem, algorithm, population); instantiations get equal weight, then
    problems are averaged within each (suite, dim, algorithm, family), and
    n_problems counts the problems averaged. A (problem, algorithm,
    population) whose base runs have a mean HV of 0 is left out; one without
    base runs raises ReportError.
    """
    base_hv: dict[tuple[str, str, int], list[float]] = {}
    for r in rows:
        if transform_family(r.search_t, r.objective_t) == "identity":
            base_hv.setdefault((r.problem, r.algorithm, r.population), []).append(
                r.final_pop_hv
            )
    base_mean = {k: float(np.mean(v)) for k, v in base_hv.items()}
    # per-instantiation mean ratio
    inst_ratios: dict[tuple[str, str, str, int, str], list[float]] = {}
    for r in rows:
        key = (r.problem, r.algorithm, r.population)
        if key not in base_mean:
            raise ReportError(
                f"missing base (identity) runs for problem={r.problem} "
                f"algorithm={r.algorithm} population={r.population}"
            )
        try:
            ratio = relative_hv(r.final_pop_hv, base_mean[key])
        except DegenerateBaseError:
            continue  # a base without hypervolume gives no ratio
        family = transform_family(r.search_t, r.objective_t)
        inst_key = (r.problem, r.algorithm, r.instance, r.population, family)
        inst_ratios.setdefault(inst_key, []).append(ratio)
    # instantiation -> problem -> (suite, dim, algorithm, family)
    per_problem: dict[tuple[str, str, str], list[float]] = {}
    for (problem, algorithm, _inst, _pop, family), ratios in inst_ratios.items():
        per_problem.setdefault((problem, algorithm, family), []).append(
            float(np.mean(ratios))
        )
    per_group: dict[tuple[str, int, str, str], list[float]] = {}
    for (problem, algorithm, family), values in per_problem.items():
        pid = parse_problem_id(problem)
        per_group.setdefault((pid.suite, pid.dim, algorithm, family), []).append(
            float(np.mean(values))
        )
    return [
        {
            "suite": suite,
            "dim": dim,
            "algorithm": algorithm,
            "family": family,
            "relative_hv": float(np.mean(values)),
            "n_problems": len(values),
        }
        for (suite, dim, algorithm, family), values in sorted(per_group.items())
    ]


def report_hv_over_time(
    rows: Sequence[RunRow], problem: str, transform: str
) -> list[dict]:
    """Long-format archive-HV curves for one (problem, transform pair).

    `transform` is the descriptor suffix 's:<search>__o:<objective>' of the
    instance. Emits one record per (algorithm, population, eval) per run
    plus a mean series.
    """
    wanted = f"{problem}__{transform}"
    selected = [r for r in rows if r.instance == wanted]
    out: list[dict] = []
    groups: dict[tuple[str, int], list[RunRow]] = {}
    for r in selected:
        groups.setdefault((r.algorithm, r.population), []).append(r)
    for (algorithm, population), members in sorted(groups.items()):
        for r in members:
            for ev, hv in zip(r.checkpoint_evals, r.checkpoint_hvs):
                out.append(
                    {
                        "algorithm": algorithm,
                        "population": population,
                        "eval": ev,
                        "series": f"seed{r.seed}",
                        "hv": hv,
                    }
                )
        grid = members[0].checkpoint_evals
        for i, ev in enumerate(grid):
            out.append(
                {
                    "algorithm": algorithm,
                    "population": population,
                    "eval": ev,
                    "series": "mean",
                    "hv": float(np.mean([r.checkpoint_hvs[i] for r in members])),
                }
            )
    return out


def full_matrix_config(dims: Sequence[int] = (2,), output_dir: str | None = None) -> ExperimentConfig:
    """The full experimental matrix restricted to the given dimensions."""
    problems = [f"all-d{d}" for d in dims]
    grid = {"kind": "beta_cdf_grid", "values": list(STUDY_GRID_VALUES)}
    search = [grid, {"kind": IDENTITY}] + [
        {"kind": SPHERED_ROTATION, "seed": s} for s in STUDY_ROTATION_SEEDS
    ]
    algorithms = [
        {"name": name, "population": pop}
        for name in ALGORITHM_NAMES
        for pop in STUDY_POPULATIONS
    ]
    return ExperimentConfig(
        problems=problems,
        search_transforms=search,
        objective_transforms=[grid],
        algorithms=algorithms,
        budget=STUDY_BUDGET,
        repetitions=STUDY_REPETITIONS,
        output_dir=output_dir or os.environ.get(OUTPUT_DIR_ENV, "mobench-out"),
    )
