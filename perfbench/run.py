"""End-to-end benchmark of the mobench command line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A round runs each part of the workload: one `mobench run --parallel 1`
process and the `mobench report` processes that read its output. After
each round, `checks.py` checks every output against computations made
apart from mobench. Rounds repeat the same work until S seconds of rounds
have been measured. The last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0; with --trace 1, the per-layer metrics of traced rounds,
which alternate with untraced ones to measure the tracing overhead.
README.md describes the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-out"
CHILD_TIMEOUT_S = 120.0
BUDGET = 1000
PROBLEMS = ["dtlz1-d2", "zdt3-d2"]
ROTATION = {"kind": "sphered_rotation", "seed": 1}
BETA_GRID = {"kind": "beta_cdf_grid", "values": [0.5, 2.0]}


@dataclass
class Part:
    """One `mobench run` output directory and the reports built from it."""

    name: str
    config: dict
    jobs: int  # counted by hand from the config, to check the run against
    reports: list[list[str]]


def _config(seed: int, problems, search, objective, algorithms) -> dict:
    return {
        "problems": problems,
        "search_transforms": search,
        "objective_transforms": objective,
        "algorithms": algorithms,
        "budget": BUDGET,
        "repetitions": 1,
        "base_seed": seed,
    }


def _heatmap(problem: str, algo: str, space: str) -> list[str]:
    return ["--kind", "ab-heatmap", "--problem", problem, "--algo", algo, "--space", space]


def workload_parts(workload: str, seed: int) -> list[Part]:
    """The parts of one round; `seed` is the base seed of every config."""
    if workload == "steady-state-ranking":
        over_time = ["--kind", "over-time", "--problem", "zdt3-d2", "--transform",
                     "s:rot-seed1__o:id"]
        return [
            Part(f"{name}-p{pop}",
                 _config(seed, PROBLEMS, [{"kind": "identity"}, ROTATION], [],
                         [{"name": name, "population": pop}]),
                 2 * 2, [over_time])
            for name in ("smsemoa", "moead")
            for pop in (10, 100)
        ]
    if workload == "warp-generational":
        return [
            Part(f"nsga2-p{pop}",
                 _config(seed, PROBLEMS, [{"kind": "identity"}, BETA_GRID], [BETA_GRID],
                         [{"name": "nsga2", "population": pop}]),
                 2 * (1 + 4 + 4),
                 [_heatmap("dtlz1-d2", "nsga2", "search"),
                  _heatmap("zdt3-d2", "nsga2", "objective")])
            for pop in (10, 100)
        ]
    if workload == "log-and-report":
        search = [{"kind": "identity"}, ROTATION, {"kind": "beta_cdf", "alpha": 0.5, "beta": 2.0}]
        objective = [{"kind": "beta_cdf", "alpha": 2.0, "beta": 0.5}]
        return [
            Part("random-search",
                 _config(seed, ["all-d2"], search, objective,
                         [{"name": "random_search", "population": 100}]),
                 18 * 4,
                 [["--kind", "relative"],
                  _heatmap("zdt3-d2", "random_search", "search"),
                  ["--kind", "over-time", "--problem", "dtlz1-d2",
                   "--transform", "s:rot-seed1__o:id"]])
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("steady-state-ranking", "warp-generational", "log-and-report")


@dataclass
class Launch:
    wall_s: float
    setup_s: float  # until the first stdout line ("expanded N jobs" for run)
    rss_mb: float


def launch(args: list[str], trace_path: Path | None) -> Launch:
    """Run one mobench command line in its own interpreter and time it."""
    if trace_path is None:
        cmd = [sys.executable, "-m", "mobench", *args]
    else:
        cmd = [sys.executable, str(HERE / "tracer.py"), str(trace_path), *args]
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        proc.stdout.readline()
        first = time.perf_counter()
        proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"mobench {' '.join(args)} exited with {proc.returncode}")
    return Launch(end - start, first - start, usage.ru_maxrss / 1024.0)


@dataclass
class Round:
    """Measurements of one round; lists hold one entry per part or report."""

    run_s: list[float] = field(default_factory=list)  # mobench run wall time after set-up
    setup_s: list[float] = field(default_factory=list)
    report_s: list[float] = field(default_factory=list)
    rss_mb: list[float] = field(default_factory=list)
    out_bytes: int = 0
    log_bytes: int = 0
    trace: dict = field(default_factory=dict)


def _dir_bytes(path: Path, pattern: str = "*") -> int:
    return sum(p.stat().st_size for p in path.rglob(pattern) if p.is_file())


def _add_trace(into: dict, path: Path) -> None:
    for name, entry in json.loads(path.read_text(encoding="utf-8")).items():
        acc = into.setdefault(name, {})
        for key, value in entry.items():
            acc[key] = acc.get(key, 0) + value


def run_round(parts: list[Part], work: Path, traced: bool) -> Round:
    """Run and time every part; outputs stay in `work/<part>` for checking."""
    res = Round()
    trace_path = work / "trace.json" if traced else None
    for part in parts:
        out = work / part.name
        shutil.rmtree(out, ignore_errors=True)
        cfg_path = work / f"{part.name}.json"
        cfg_path.write_text(json.dumps(part.config), encoding="utf-8")
        run = launch(["run", "--config", str(cfg_path), "--parallel", "1", "--out", str(out)],
                     trace_path)
        res.run_s.append(run.wall_s - run.setup_s)
        res.setup_s.append(run.setup_s)
        res.rss_mb.append(run.rss_mb)
        res.out_bytes += _dir_bytes(out)
        res.log_bytes += _dir_bytes(out, "*.log")
        if trace_path:
            _add_trace(res.trace, trace_path)
        for report in part.reports:
            res.report_s.append(launch(["report", "--in", str(out), *report], trace_path).wall_s)
            if trace_path:
                _add_trace(res.trace, trace_path)
    return res


def check_round(parts: list[Part], work: Path, tally: dict, hashes: dict) -> None:
    """Check the outputs of the last round; runs.csv must match earlier rounds."""
    spec = [{"dir": str(work / p.name), "jobs": p.jobs, "reports": p.reports} for p in parts]
    proc = subprocess.run([sys.executable, str(HERE / "checks.py"), json.dumps(spec)],
                          stdout=subprocess.PIPE, text=True, check=True,
                          timeout=CHILD_TIMEOUT_S)
    result = json.loads(proc.stdout.splitlines()[-1])
    for part in parts:
        digest = hashlib.sha256((work / part.name / "runs.csv").read_bytes()).hexdigest()
        result["attempted"] += 1
        if hashes.setdefault(part.name, digest) != digest:
            result["failed"] += 1
            result["wrong"].append("runs_csv_sha256")
    for key in ("attempted", "failed", "wrong"):
        tally[key] += result[key]


def evals_per_s(parts: list[Part], rounds: list[Round]) -> float:
    """Median over rounds of evaluations per second of post-set-up run time."""
    evals = sum(p.jobs for p in parts) * BUDGET
    return statistics.median(evals / sum(r.run_s) for r in rounds)


def end_to_end(parts: list[Part], rounds: list[Round]) -> dict:
    med = statistics.median
    evals = sum(p.jobs for p in parts) * BUDGET
    return {
        "evals_per_s": (evals_per_s(parts, rounds), "evals/s"),
        "setup_s": (med(s for r in rounds for s in r.setup_s), "s"),
        "report_s": (med(sum(r.report_s) for r in rounds), "s"),
        "out_bytes_per_eval": (med(r.out_bytes for r in rounds) / evals, "B/eval"),
        "peak_rss_mb": (med(max(r.rss_mb) for r in rounds), "MB"),
    }


RUN_KEYS = ("random_search.p100", "nsga2.p10", "nsga2.p100", "smsemoa.p10", "smsemoa.p100",
            "moead.p10", "moead.p100")
LAYER_FIELDS = (
    ("specfun.reg_inc_beta", ("calls", "values", "s")),
    ("transforms.apply_forward", ("calls", "points", "self_s")),
    ("problems.evaluate", ("calls", "s")),
    ("instance.evaluate_instance", ("calls", "self_s")),
    ("instance.evaluate_instance_batch", ("calls", "points", "self_s")),
    *((f"algorithms.{fn}", ("calls", "s")) for fn in (
        "fast_nondominated_sort", "crowding_distance", "hv_contributions_2d", "tchebycheff",
        "sbx_crossover", "polynomial_mutation", "nsga2_survival")),
    ("indicators.ParetoArchive.insert", ("calls", "accepted", "s")),
    ("indicators.normalized_hv", ("calls", "s")),
    ("harness.expand_matrix", ("s",)),
    ("harness.execute", ("self_s",)),
    ("harness.load_runs", ("s",)),
    ("harness.compute_boxes", ("s",)),
    ("harness.compute_run_rows", ("s",)),
)
REPORT_FUNCTIONS = ("harness.report_ab_heatmap", "harness.report_relative_hv",
                    "harness.report_hv_over_time")


def per_layer(parts: list[Part], traced: list[Round], untraced: list[Round]) -> dict:
    """Per-layer figures of one round: medians over the traced rounds."""

    def med(value) -> float:
        return statistics.median(value(r.trace) for r in traced)

    def field_of(name: str, key: str):
        return lambda trace: trace.get(name, {}).get(key, 0)

    def mean_run(name: str):
        return lambda trace: trace[name]["s"] / trace[name]["calls"] if name in trace else 0.0

    out = {}
    for name, keys in LAYER_FIELDS:
        for key in keys:
            unit = "s" if key in ("s", "self_s") else "count"
            out[f"{name}.{key}"] = (med(field_of(name, key)), unit)
    for key in RUN_KEYS:
        out[f"algorithms.run.{key}.s"] = (med(mean_run(f"algorithms.run.{key}")), "s")
    out["harness.log_bytes"] = (statistics.median(r.log_bytes for r in traced), "B")
    out["harness.report.s"] = (
        med(lambda t: sum(t.get(n, {}).get("s", 0.0) for n in REPORT_FUNCTIONS)), "s")
    plain, with_trace = evals_per_s(parts, untraced), evals_per_s(parts, traced)
    out["trace.evals_per_s"] = (with_trace, "evals/s")
    out["trace.overhead_pct"] = (100.0 * (plain - with_trace) / plain, "%")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mobench" / "cli.py").is_file():
        print(f"no mobench sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    parts = workload_parts(args.workload, args.seed)
    work = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tally, hashes = {"attempted": 0, "failed": 0, "wrong": []}, {}
    rounds: dict[bool, list[Round]] = {False: [], True: []}
    try:
        launch(["list"], None)  # warm-up: bytecode and page caches
        measured = 0.0
        while measured < args.seconds:
            for traced in (False, True) if args.trace else (False,):
                res = run_round(parts, work, traced)
                rounds[traced].append(res)
                measured += sum(res.run_s) + sum(res.setup_s) + sum(res.report_s)
                check_round(parts, work, tally, hashes)
                print(f"{'traced' if traced else 'untraced'} round: "
                      f"run {[round(s, 3) for s in res.run_s]} s, "
                      f"set-up {[round(s, 3) for s in res.setup_s]} s, "
                      f"report {[round(s, 3) for s in res.report_s]} s", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        metrics = per_layer(parts, rounds[True], rounds[False])
    else:
        metrics = end_to_end(parts, rounds[False])
    for name in sorted(set(tally["wrong"])):
        print(f"WRONG OUTPUT: {name} ({tally['wrong'].count(name)} checks)", file=sys.stderr)
    for part_name, digest in sorted(hashes.items()):
        print(f"runs.csv sha256 {part_name}: {digest}")
    print(f"rounds: {len(rounds[False])}, checks attempted {tally['attempted']}, "
          f"failed {tally['failed']}")
    print(json.dumps({
        "correct": not tally["wrong"],
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
