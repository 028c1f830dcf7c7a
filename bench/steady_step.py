"""Time the parts of a steady-state step and of an NSGA-II generation, and
the runs that repeat them.

SMS-EMOA and MOEA/D evaluate one point per step, so numpy's per-call cost
on one-row arrays shapes their run time; NSGA-II breeds a generation at a
time. This script times, best of --repeats:

- `evaluate_instance_batch` on one row: the identity (dtlz1-d2 and
  zdt1-d10), the sphered rotation at d=2 (zdt3-d2) and d=10 (zdt3-d10), a
  Beta-CDF search warp and a Beta-CDF objective warp (zdt3-d2); a d=10 row
  takes the array route;
- one binary tournament (`_tournament`) over 100 rows;
- one SMS-EMOA drop, the first smallest hypervolume contributor of a
  front of 11 and of 101 members;
- one NSGA-II generation's variation (`nsga2_offspring`) at populations 10
  and 100, d = 2 and 10;
- the 16 runs of perfbench's steady-state-ranking workload (dtlz1-d2 and
  zdt3-d2; the identity and rotation seed 1; SMS-EMOA and MOEA/D at
  populations 10 and 100; budget 1000), one after another;
- the 36 runs of perfbench's warp-generational workload (dtlz1-d2 and
  zdt3-d2; the identity, the Beta search grid and the Beta objective grid
  over {0.5, 2}; NSGA-II at populations 10 and 100; budget 1000);
- the 72 runs of perfbench's log-and-report workload (random search on all
  18 d=2 problems; the identity, rotation seed 1 and Beta(0.5, 2) search
  warps and a Beta(2, 0.5) objective warp; population 100; budget 1000).

With --other, it also imports the mobench package of a second source tree
under the name `mobench_other`, runs every case on both trees, alternating
which goes first, and asserts that both give the same bits: the evaluated
objectives, the tournament winners and the generator state after them, the
drops, the children of 20 generations and the generator state after them,
and every run's x, f_seen, f_orig and final population. Prints JSON.

    PYTHONPATH=src python3 bench/steady_step.py --repeats 5
    PYTHONPATH=src python3 bench/steady_step.py --repeats 5 --other ../other-checkout
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

IDENTITY = {"kind": "identity"}
ROTATION = {"kind": "sphered_rotation", "seed": 1}
BETA = {"kind": "beta_cdf", "alpha": 0.5, "beta": 2.0}  # Beta(0.5, 2), in either space
BETA_GRID = {"kind": "beta_cdf_grid", "values": [0.5, 2.0]}
RUN_CONFIGS = {  # perfbench's workloads, by name: (config, number of runs)
    "steady_state_ranking": ({
        "problems": ["dtlz1-d2", "zdt3-d2"],
        "search_transforms": [IDENTITY, ROTATION],
        "algorithms": [{"name": name, "population": pop}
                       for name in ("smsemoa", "moead") for pop in (10, 100)],
        "budget": 1000,
        "repetitions": 1,
    }, 16),
    "warp_generational": ({
        "problems": ["dtlz1-d2", "zdt3-d2"],
        "search_transforms": [IDENTITY, BETA_GRID],
        "objective_transforms": [BETA_GRID],
        "algorithms": [{"name": "nsga2", "population": pop} for pop in (10, 100)],
        "budget": 1000,
        "repetitions": 1,
    }, 36),
    "log_and_report": ({
        "problems": ["all-d2"],
        "search_transforms": [IDENTITY, ROTATION, BETA],
        "objective_transforms": [{"kind": "beta_cdf", "alpha": 2.0, "beta": 0.5}],
        "algorithms": [{"name": "random_search", "population": 100}],
        "budget": 1000,
        "repetitions": 1,
    }, 72),
}


def load_tree(root: str, name: str = "mobench_other"):
    """Import root/src/mobench as the package `name`; its modules import one
    another relatively, so they bind to that copy only."""
    pkg = Path(root) / "src" / "mobench"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return name


class Tree:
    """The modules of one mobench copy."""

    def __init__(self, package: str):
        mod = {m: importlib.import_module(f"{package}.{m}")
               for m in ("algorithms", "harness", "instance", "problems", "transforms")}
        self.alg, self.harness, self.inst = mod["algorithms"], mod["harness"], mod["instance"]
        self.problems, self.transforms = mod["problems"], mod["transforms"]

    def instance(self, problem: str, search: dict, objective: dict = IDENTITY):
        pid = self.problems.parse_problem_id(problem)
        spec = self.transforms.TransformSpec
        return self.inst.ProblemInstance(pid, spec.from_config(search, dim=pid.dim),
                                         spec.from_config(objective))


def one_row_cases(tree: Tree, rows: np.ndarray):
    out = {}
    for name, problem, search, objective in (
        ("evaluate_1_row.identity.d2", "dtlz1-d2", IDENTITY, IDENTITY),
        ("evaluate_1_row.identity.d10", "zdt1-d10", IDENTITY, IDENTITY),
        ("evaluate_1_row.rotation.d2", "zdt3-d2", ROTATION, IDENTITY),
        ("evaluate_1_row.rotation.d10", "zdt3-d10", ROTATION, IDENTITY),
        ("evaluate_1_row.beta_search.d2", "zdt3-d2", BETA, IDENTITY),
        ("evaluate_1_row.beta_objective.d2", "zdt3-d2", IDENTITY, BETA),
    ):
        inst = tree.instance(problem, search, objective)
        d = inst.problem.dim
        points = [r[np.newaxis, :d] for r in rows]
        fn = tree.inst.evaluate_instance_batch
        out[name] = (
            lambda fn=fn, inst=inst, p=points[0]: fn(inst, p),
            lambda fn=fn, inst=inst, points=points: b"".join(
                a.tobytes() for p in points for a in fn(inst, p)),
        )
    return out


def sms_front(rng, n: int):
    """The ascending (f1, f2, row) keys of a front of n members on a coarse
    grid, so with exact duplicates."""
    f1 = np.round(rng.random(n) * 40) / 40
    return sorted(zip(f1.tolist(), ((1.0 - f1) ** 2).tolist(), range(n)))


def step_cases(tree: Tree, seed: int):
    alg, out = tree.alg, {}
    rng = np.random.default_rng(seed)
    pop = list(range(100))
    rank = dict(zip(pop, rng.integers(0, 3, 100).tolist()))
    crowd = dict(zip(pop, rng.random(100).tolist()))

    def winners():
        draw = np.random.default_rng(seed)
        won = [alg._tournament(pop, rank, crowd, draw) for _ in range(500)]
        return json.dumps([won, draw.bit_generator.state]).encode()
    draw = np.random.default_rng(seed)
    out["tournament.p100"] = (lambda: alg._tournament(pop, rank, crowd, draw), winners)
    for n in (11, 101):
        timed, *checked = (sms_front(rng, n) for _ in range(41))
        out[f"smsemoa_drop.front{n}"] = (
            lambda keys=timed: alg._smallest_contributor(keys),
            lambda checked=checked: json.dumps(
                [alg._smallest_contributor(keys) for keys in checked]).encode())
    return out


def generation_cases(tree: Tree, seed: int):
    """One NSGA-II generation's variation on random parents, by population
    and dimension; the check breeds 20 generations."""
    alg, out = tree.alg, {}
    for n in (10, 100):
        for d in (2, 10):
            rng = np.random.default_rng(seed + n + d)
            x = rng.random((n, d))
            rank = rng.integers(0, 3, n)
            crowd = np.where(rng.random(n) < 0.2, np.inf, rng.random(n))

            def breed(draw, x=x, rank=rank, crowd=crowd, n=n):
                return alg.nsga2_offspring(x, rank, crowd, n, draw)

            def children(breed=breed):
                draw = np.random.default_rng(seed)
                blob = b"".join(breed(draw).tobytes() for _ in range(20))
                return blob + json.dumps(draw.bit_generator.state).encode()
            out[f"nsga2_generation.p{n}.d{d}"] = (
                lambda breed=breed, draw=np.random.default_rng(seed): breed(draw), children)
    return out


def best_us(fn, number: int) -> float:
    start = time.perf_counter()
    for _ in range(number):
        fn()
    return (time.perf_counter() - start) / number * 1e6


def run_jobs(tree: Tree, config: dict, base_seed: int):
    cfg = tree.harness.ExperimentConfig.from_dict({**config, "base_seed": base_seed})
    return tree.harness.expand_matrix(cfg)


def time_runs(tree: Tree, jobs) -> tuple[dict, bytes]:
    seconds, blob = {}, []
    for job in jobs:
        start = time.perf_counter()
        res = tree.alg.run_algorithm(job.instance, job.algo)
        key = f"{job.algo.name}.p{job.algo.population}"
        seconds[key] = seconds.get(key, 0.0) + time.perf_counter() - start
        blob += [res.x.tobytes(), res.f_seen.tobytes(), res.f_orig.tobytes(),
                 res.final_population.astype(np.int64).tobytes()]
    return seconds, b"".join(blob)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--number", type=int, default=2000,
                        help="calls per timing of a case; a generation case makes a twentieth")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--run-seed", type=int, default=1, help="perfbench's base seed")
    parser.add_argument("--other", help="root of a second source checkout to compare with")
    args = parser.parse_args()

    trees = {"this": Tree("mobench")}
    if args.other:
        trees["other"] = Tree(load_tree(args.other))
    rows = np.random.default_rng(args.seed).random((200, 10))
    rows[rows < 0.05] = 0.0
    rows[rows > 0.95] = 1.0
    cases = {name: {**one_row_cases(t, rows), **step_cases(t, args.seed),
                    **generation_cases(t, args.seed)}
             for name, t in trees.items()}
    jobs = {workload: {name: run_jobs(t, config, args.run_seed) for name, t in trees.items()}
            for workload, (config, _) in RUN_CONFIGS.items()}
    for workload, (_, count) in RUN_CONFIGS.items():
        assert {len(j) for j in jobs[workload].values()} == {count}, workload

    names = list(trees)
    for case in cases["this"]:  # every tree gives the same bits
        outputs = {name: cases[name][case][1]() for name in names}
        assert len(set(outputs.values())) == 1, case
    best = {case: {name: float("inf") for name in names} for case in cases["this"]}
    runs = {workload: {name: {} for name in names} for workload in RUN_CONFIGS}
    for r in range(args.repeats):
        order = names if r % 2 == 0 else names[::-1]
        for case in best:
            number = args.number // 20 if case.startswith("nsga2_generation") else args.number
            for name in order:
                us = best_us(cases[name][case][0], max(number, 1))
                best[case][name] = min(best[case][name], us)
        for workload in RUN_CONFIGS:
            run_bits = {}
            for name in order:
                seconds, run_bits[name] = time_runs(trees[name], jobs[workload][name])
                for key, s in seconds.items():
                    runs[workload][name][key] = min(runs[workload][name].get(key, float("inf")), s)
            assert len(set(run_bits.values())) == 1, f"the {workload} runs differ"

    def row(values: dict, unit: str) -> dict:
        out = {f"{name}_{unit}": round(v, 3) for name, v in values.items()}
        if "other" in values:
            out["this_over_other"] = round(values["this"] / values["other"], 3)
        return out

    for workload, (_, count) in RUN_CONFIGS.items():
        for name in names:  # the sum of each group's best
            runs[workload][name][f"all_{count}"] = sum(runs[workload][name].values())
    print(json.dumps({
        "machine": {"python": platform.python_version(), "numpy": np.__version__},
        "repeats": args.repeats,
        "number": args.number,
        "bits_checked_equal_to_other": "other" in trees,
        "cases_us_per_call": {case: row(v, "us") for case, v in best.items()},
        **{f"{workload}_runs_s": {
            key: row({name: runs[workload][name][key] for name in names}, "s")
            for key in runs[workload]["this"]} for workload in RUN_CONFIGS},
    }, indent=1))

if __name__ == "__main__":
    main()
