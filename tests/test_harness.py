"""Tests for experiment expansion, execution, persistence, and reports."""

import json
import os
import pickle
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mobench
from mobench.cli import main as cli_main
from mobench.errors import ConfigError, ReportError
from mobench.harness import (
    RUNS_CSV_COLUMNS,
    _write_raw_log,
    ExperimentConfig,
    Job,
    RunSummary,
    checkpoint_grid,
    compute_run_rows,
    emit_errors_csv,
    emit_runs_csv,
    execute,
    expand_matrix,
    full_matrix_config,
    read_runs,
    resolve_problems,
    report_ab_heatmap,
    report_hv_over_time,
    report_relative_hv,
    transform_family,
)
from mobench.algorithms import ALGORITHM_NAMES, AlgoConfig, RunResult, run_algorithm
from mobench.indicators import (
    NormalizationBox,
    ParetoArchive,
    accepted_history,
    compute_normalization,
    normalized_hv,
    normalized_hv_prefixes,
)
from mobench.instance import ProblemInstance
from mobench.problems import ProblemId
from mobench.transforms import TransformSpec


def parsed_f_orig(log_path):
    """The f_orig fields of a raw log, the last two of each line, as floats."""
    with open(log_path, encoding="utf-8") as fh:
        return [float(v) for line in fh for v in line.rsplit(",", 2)[1:]]


def small_config(**overrides):
    base = dict(
        problems=["zdt1-d2"],
        search_transforms=[
            {"kind": "identity"},
            {"kind": "beta_cdf", "alpha": 0.5, "beta": 2.0},
        ],
        objective_transforms=[{"kind": "beta_cdf", "alpha": 2.0, "beta": 0.5}],
        algorithms=[
            {"name": "random_search", "population": 8},
            {"name": "nsga2", "population": 8},
        ],
        budget=80,
        repetitions=2,
        base_seed=1,
    )
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


class TestExpandMatrix:
    def test_paper_beta_grid_counts(self):
        cfg = small_config(
            search_transforms=[
                {"kind": "beta_cdf_grid", "values": [0.2, 0.5, 1.0, 2.0, 5.0]}
            ],
            objective_transforms=[],
            algorithms=[{"name": "random_search", "population": 8}],
            repetitions=10,
        )
        jobs = expand_matrix(cfg)
        # 25 parameterizations x 10 repetitions
        assert len(jobs) == 250

    def test_rotation_study_instances(self):
        cfg = small_config(
            search_transforms=[{"kind": "identity"}]
            + [{"kind": "sphered_rotation", "seed": s} for s in (3, 5, 7, 11)],
            objective_transforms=[],
            algorithms=[{"name": "random_search", "population": 8}],
            repetitions=1,
        )
        jobs = expand_matrix(cfg)
        assert len({j.instance.descriptor for j in jobs}) == 5

    def test_one_space_at_a_time(self):
        jobs = expand_matrix(small_config(repetitions=1))
        descs = {j.instance.descriptor for j in jobs}
        assert descs == {
            "zdt1-d2__s:id__o:id",
            "zdt1-d2__s:bcdf-a0.5-b2__o:id",
            "zdt1-d2__s:id__o:bcdf-a2-b0.5",
        }

    def test_combined_grid(self):
        jobs = expand_matrix(small_config(repetitions=1, combined_grid=True))
        descs = {j.instance.descriptor for j in jobs}
        assert "zdt1-d2__s:bcdf-a0.5-b2__o:bcdf-a2-b0.5" in descs
        assert len(descs) == 2

    def test_empty_transforms_error(self):
        with pytest.raises(ConfigError):
            small_config(search_transforms=[], objective_transforms=[])

    def test_selector_expansion(self):
        cfg = small_config(problems=["zdt-d2"], repetitions=1)
        jobs = expand_matrix(cfg)
        assert {j.instance.problem.index for j in jobs} == {1, 2, 3, 4, 6}
        with pytest.raises(ConfigError):
            expand_matrix(small_config(problems=["wfg1-d2"]))
        with pytest.raises(ConfigError):
            expand_matrix(small_config(problems=["mmf1-d10"]))
        with pytest.raises(ConfigError):  # dimensions are not zero-padded
            expand_matrix(small_config(problems=["zdt1-d02"]))
        readme_selectors = ["zdt3-d2", "dtlz", "zdt-d10", "all", "all-d2", " ZDT1-D2 "]
        assert len(resolve_problems(readme_selectors)) == len(resolve_problems(["all"]))

    def test_seeds_deterministic_and_distinct(self):
        jobs1 = expand_matrix(small_config())
        jobs2 = expand_matrix(small_config())
        assert [j.algo.seed for j in jobs1] == [j.algo.seed for j in jobs2]
        assert len({j.algo.seed for j in jobs1}) == len(jobs1)

    def test_rotation_dim_instantiation(self):
        cfg = small_config(
            problems=["zdt1-d2", "zdt1-d10"],
            search_transforms=[{"kind": "sphered_rotation", "seed": 3}],
            objective_transforms=[],
            repetitions=1,
            algorithms=[{"name": "random_search", "population": 8}],
        )
        dims = {
            j.instance.problem.dim: j.instance.search_t.rotation.dim
            for j in expand_matrix(cfg)
        }
        assert dims == {2: 2, 10: 10}

    def test_objective_rotation_is_config_error(self):
        with pytest.raises(ConfigError):
            expand_matrix(
                small_config(
                    objective_transforms=[{"kind": "sphered_rotation", "seed": 1}]
                )
            )

    def test_unknown_config_field(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"problems": ["zdt1-d2"], "algos": []})

    @pytest.mark.parametrize(
        "algorithms",
        [
            [{"name": "nsga2", "popsize": 10}],  # a misspelt population
            [{"name": "nsga2", "population": 10, "budget": 40}],  # no per-algorithm budget
            [{"name": "nsga2", "population": 1}],
            [{"name": "nsga2", "population": "ten"}],
            [{"name": "anneal"}],
            [{"name": "nsga2", "population": 10.5}],  # a population is an integer, not truncated
            [{"name": "random_search", "population": True}],  # nor a bool read as 1
        ],
    )
    def test_invalid_algorithm_entry(self, algorithms):
        with pytest.raises(ConfigError):
            small_config(algorithms=algorithms)

    def test_population_default_is_set_once(self):
        cfg = small_config(algorithms=[{"name": "nsga2"}], budget=200, repetitions=1)
        assert cfg.algorithms == [{"population": 100, "name": "nsga2"}]
        assert {j.algo.population for j in expand_matrix(cfg)} == {100}

    @pytest.mark.parametrize(
        "entry",
        [
            {"kind": "beta_cdf", "alpha": 0.5, "beta": 2.0, "sead": 4},
            {"kind": "identity", "seed": 4},
            {"kind": "sphered_rotation", "seed": 4, "angle": 0.3},
            {"kind": "beta_cdf_grid", "values": [0.5, 2.0], "alpha": 1.0},
        ],
    )
    def test_unknown_transform_key(self, entry):
        with pytest.raises(ConfigError):
            expand_matrix(small_config(search_transforms=[entry]))

    @pytest.mark.parametrize(
        "entry",
        [
            {"kind": "beta_cdf", "alpha": True, "beta": 2.0},  # not a neutral Beta(1, 2)
            {"kind": "beta_cdf", "alpha": "0.5", "beta": 2.0},
            {"kind": "sphered_rotation", "seed": 3.9},  # not rot-seed3
            {"kind": "sphered_rotation", "seed": 3, "dim": 2.0},
            {"kind": "beta_cdf_grid", "values": ["0.5"]},
            {"kind": "beta_cdf_grid", "values": [0.5, True]},
            {"kind": "beta_cdf", "alpha": 10**400, "beta": 2.0},  # beyond a float
            {"kind": "beta_cdf_grid", "values": [10**400]},
        ],
    )
    def test_transform_value_of_wrong_type(self, entry):
        with pytest.raises(ConfigError):
            expand_matrix(small_config(search_transforms=[entry]))

    @pytest.mark.parametrize(
        "entries",
        [
            [{"kind": "beta_cdf_grid", "values": [0.5, 0.50000001]}],
            [
                {"kind": "beta_cdf", "alpha": 0.1234567, "beta": 1.0},
                {"kind": "beta_cdf", "alpha": 0.1234568, "beta": 1.0},
            ],
        ],
    )
    def test_distinct_transforms_with_one_name(self, entries):
        # both print as the same descriptor, so their run ids and seeds would collide
        with pytest.raises(ConfigError, match="both name instance"):
            expand_matrix(small_config(search_transforms=entries))

    def test_repeated_transform_runs_once(self):
        cfg = small_config(
            search_transforms=[
                {"kind": "beta_cdf", "alpha": 0.5, "beta": 2.0},
                {"kind": "beta_cdf", "alpha": 0.5, "beta": 2},
                {"kind": "beta_cdf_grid", "values": [0.5, 0.5]},
            ]
        )
        runs = Counter(j.instance.descriptor for j in expand_matrix(cfg))
        # Beta(0.5, 2), Beta(0.5, 0.5) and the objective warp, each 2 algorithms x 2 repetitions
        assert sorted(runs.values()) == [4, 4, 4]

    @pytest.mark.parametrize(
        "field,value",
        [
            pytest.param("budget", 50, id="50"),  # below the population
            pytest.param("budget", "lots", id="lots"),  # not a number
            pytest.param("budget", 100.9, id="100.9"),  # not truncated to 100
            pytest.param("repetitions", True, id="repetitions-true"),  # not read as 1
            pytest.param("base_seed", "0", id="base_seed-str"),
            pytest.param("combined_grid", "false", id="combined_grid-str"),  # not truthy
            pytest.param("problems", "zdt1-d2", id="problems-str"),
        ],
    )
    def test_invalid_budget_exits_1(self, tmp_path, capsys, field, value):
        raw = dict(
            problems=["zdt1-d2"], search_transforms=[{"kind": "identity"}],
            objective_transforms=[{"kind": "beta_cdf", "alpha": 2.0, "beta": 0.5}],
            algorithms=[{"name": "nsga2", "population": 100}], budget=100, repetitions=1,
        )
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**raw, field: value}))
        assert cli_main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()  # rejected before any run

    def test_python_built_config_is_checked(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(problems=["zdt1-d2"], algorithms=[{"name": "nsga2"}],
                             search_transforms=[{"kind": "identity"}], repetitions="3")

    def test_shipped_configs_expand(self):
        root = Path(__file__).resolve().parents[1]
        readme = (root / "README.md").read_text(encoding="utf-8")
        example = readme.split("```json\n", 1)[1].split("```", 1)[0]
        shipped = {
            "beta-grid-zdt3": ExperimentConfig.from_file(root / "configs" / "beta-grid-zdt3.json"),
            "rotation-study": ExperimentConfig.from_file(root / "configs" / "rotation-study.json"),
            "README": ExperimentConfig.from_dict(json.loads(example)),
        }
        counts = {name: len(expand_matrix(cfg)) for name, cfg in shipped.items()}
        assert counts == {"beta-grid-zdt3": 1000, "rotation-study": 200, "README": 18720}


class TestExecute:
    def test_parallelism_equivalence(self, tmp_path):
        jobs = expand_matrix(small_config())
        seq = execute(jobs, parallelism=1)
        par = execute(jobs, parallelism=4)
        # by pickled bytes: the accepted arrays compare by bits, dtype and shape too
        assert [pickle.dumps(s) for s in seq] == [pickle.dumps(s) for s in par]
        rows_seq = compute_run_rows(seq)
        rows_par = compute_run_rows(par)
        p1 = emit_runs_csv(rows_seq, tmp_path / "a.csv")
        p2 = emit_runs_csv(rows_par, tmp_path / "b.csv")
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_job_recorded(self, tmp_path):
        # dimension mismatch surfaces at evaluation time inside the job
        bad_instance = ProblemInstance(
            ProblemId("zdt", 1, 2),
            TransformSpec.identity(),
            TransformSpec.identity(),
        )
        object.__setattr__(
            bad_instance, "search_t", TransformSpec.sphered_rotation(dim=4, seed=0)
        )
        good = ProblemInstance(
            ProblemId("zdt", 1, 2), TransformSpec.identity(), TransformSpec.identity()
        )
        jobs = [
            Job(bad_instance, AlgoConfig("random_search", 4, 10, 0)),
            Job(good, AlgoConfig("random_search", 4, 10, 1)),
        ]
        out = tmp_path / "out"
        summaries = execute(jobs, output_dir=str(out))
        assert summaries[0].error is not None
        assert summaries[1].error is None  # batch completes past the failure
        path = emit_errors_csv(summaries, tmp_path / "errors.csv")
        content = path.read_text()
        assert "DimensionError" in content
        # the failure is persisted as a sidecar without a raw log
        metas = [json.loads(p.read_text()) for p in (out / "runs").glob("*.json")]
        sidecars = {meta["seed"]: meta for meta in metas}
        assert sidecars[0]["error"] == summaries[0].error and sidecars[0]["final_pop_f"] == []
        assert sidecars[1]["error"] is None and sidecars[1]["final_pop_f"]
        assert summaries[0].accepted.shape == (0, 3) and len(summaries[1].accepted)
        assert len(list((out / "runs").glob("*.json"))) == 2
        assert len(list((out / "runs").glob("*.log"))) == 1

    def test_unwritable_sidecar_recorded(self, tmp_path):
        jobs = expand_matrix(
            small_config(
                algorithms=[{"name": "random_search", "population": 4}],
                repetitions=1,
                budget=12,
            )
        )[:2]
        # a directory in the sidecar's place makes its write fail
        algo = jobs[0].algo
        run_id = f"{jobs[0].instance.descriptor}__{algo.name}__p{algo.population}__s{algo.seed}"
        (tmp_path / "runs" / f"{run_id}.json").mkdir(parents=True)
        summaries = execute(jobs, output_dir=str(tmp_path))
        assert summaries[0].error.startswith("IsADirectoryError")
        assert summaries[1].error is None  # the batch goes on
        # the failed run's complete log is removed; the other run keeps its own
        assert not (tmp_path / "runs" / f"{run_id}.log").exists()
        assert len(list((tmp_path / "runs").glob("*.log"))) == 1

    def test_persist_and_reload(self, tmp_path):
        jobs = expand_matrix(small_config())
        summaries = execute(jobs, output_dir=str(tmp_path))
        assert all(s.error is None for s in summaries)
        for job, s in zip(jobs, summaries):
            run_id = f"{s.instance}__{s.algorithm}__p{s.population}__s{s.seed}"
            result = run_algorithm(job.instance, job.algo)
            # the log's f_orig column reads back bit for bit
            f_orig = np.array(parsed_f_orig(tmp_path / "runs" / f"{run_id}.log")).reshape(-1, 2)
            assert f_orig.tobytes() == result.f_orig.tobytes()
            accepted = np.array(accepted_history(f_orig), dtype=float).reshape(-1, 3)
            assert accepted.tobytes() == s.accepted.tobytes()
            meta = json.loads((tmp_path / "runs" / f"{run_id}.json").read_text())
            assert meta == {k: v for k, v in s.__dict__.items() if k != "accepted"}
            assert meta["final_pop_f"] == result.f_orig[result.final_population].tolist()

    def test_raw_log_line_format(self, tmp_path):
        jobs = expand_matrix(
            small_config(
                algorithms=[{"name": "random_search", "population": 4}],
                repetitions=1,
                budget=12,
            )
        )
        execute(jobs[:1], output_dir=str(tmp_path))
        log = next((tmp_path / "runs").glob("*.log"))
        lines = log.read_text().splitlines()
        assert len(lines) == 12
        # eval_index, x1, x2, f_seen1, f_seen2, f_orig1, f_orig2: plain numbers
        table = np.array([[float(v) for v in line.split(",")] for line in lines])
        assert table.shape == (12, 1 + 2 + 2 + 2)
        assert [line.split(",", 1)[0] for line in lines] == [str(i) for i in range(1, 13)]
        # random search evaluates its whole budget in one draw
        drawn = np.random.default_rng(jobs[0].algo.seed).random((12, 2))
        np.testing.assert_array_equal(table[:, 1:3], drawn)

    @pytest.mark.parametrize("objectives", ["equal", "unequal", "signed_zeros"])
    @pytest.mark.parametrize("d", [2, 10])
    def test_raw_log_matches_plain_writer(self, tmp_path, objectives, d):
        rng = np.random.default_rng(d)
        x = rng.random((300, d))
        x[::7, 0] = 0.0
        f_seen = np.round(rng.random((300, 2)) * 4) / 4  # has 0.0 in both columns
        f_orig = {
            "equal": f_seen.copy(),
            "unequal": f_seen ** 2,
            "signed_zeros": np.where(f_seen == 0.0, -0.0, f_seen),  # equal by value only
        }[objectives]
        assert (f_seen == f_orig).all() == (objectives != "unequal")
        _write_raw_log(RunResult(x, f_seen, f_orig, np.arange(3)), tmp_path / "run.log")
        plain = "".join(
            f"{i},{','.join(map(repr, row))}\n"
            for i, row in enumerate(np.hstack([x, f_seen, f_orig]).tolist(), 1)
        )
        assert (tmp_path / "run.log").read_text(encoding="utf-8") == plain
        assert ("-0.0" in plain) == (objectives == "signed_zeros")

    def test_serial_launch_skips_the_process_pool(self):
        # the pool is imported only when a run asks for more than one worker
        probe = "import sys, mobench.cli; print('concurrent.futures.process' in sys.modules)"
        src = str(Path(mobench.__file__).parents[1])
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "False"


@pytest.fixture(scope="module")
def executed():
    return compute_run_rows(execute(expand_matrix(small_config())))


@pytest.fixture(scope="module")
def grid_rows():
    cfg = ExperimentConfig.from_dict(
        dict(
            problems=["zdt1-d2"],
            search_transforms=[{"kind": "beta_cdf_grid", "values": [0.5, 1.0, 2.0]}],
            objective_transforms=[{"kind": "beta_cdf", "alpha": 2.0, "beta": 2.0}],
            algorithms=[
                {"name": "random_search", "population": 8},
                {"name": "nsga2", "population": 8},
            ],
            budget=60,
            repetitions=3,
            base_seed=7,
        )
    )
    summaries = execute(expand_matrix(cfg), parallelism=4)
    return compute_run_rows(summaries)


class TestRowsAndCsv:
    def test_header_schema(self, executed, tmp_path):
        rows = executed
        path = emit_runs_csv(rows, tmp_path / "runs.csv")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# mobench ")
        assert lines[1] == RUNS_CSV_COLUMNS
        assert len(lines) == 2 + len(rows)

    def test_emit_idempotent(self, executed, tmp_path):
        rows = executed
        a = emit_runs_csv(rows, tmp_path / "a.csv").read_bytes()
        b = emit_runs_csv(rows, tmp_path / "b.csv").read_bytes()
        assert a == b

    def test_random_search_pop_equals_archive(self, executed):
        rows = executed
        rs = [r for r in rows if r.algorithm == "random_search"]
        assert rs
        for r in rs:
            assert r.final_archive_hv == pytest.approx(r.final_pop_hv, abs=1e-15)

    def test_hv_columns_in_unit_range(self, executed):
        rows = executed
        for r in rows:
            assert 0.0 <= r.final_pop_hv <= r.final_archive_hv <= 1.0
            assert all(0.0 <= h <= 1.0 for h in r.checkpoint_hvs)
            # monotone up to the summation-order rounding of the sweep
            diffs = np.diff(r.checkpoint_hvs)
            assert np.all(diffs >= -1e-12)
            assert r.checkpoint_evals == sorted(set(r.checkpoint_evals))
            assert r.checkpoint_hvs[-1] == r.final_archive_hv

    def test_checkpoint_grid(self):
        grid = checkpoint_grid(10, 5000)
        assert grid[0] == 10
        assert grid[-1] == 5000
        assert grid == sorted(set(grid))
        assert len(grid) <= 50
        assert checkpoint_grid(5000, 5000) == [5000]


def replayed_checkpoint_hvs(f_orig, population, box):
    """Reference: one archive fed every evaluation in order, read at each checkpoint."""
    archive = ParetoArchive()
    rows = iter(enumerate(f_orig.tolist(), 1))
    hvs = []
    for cut in checkpoint_grid(population, len(f_orig)):
        for eval_index, f in rows:
            archive.insert(f)
            if eval_index == cut:
                break
        hvs.append(normalized_hv(archive.points(), box))
    return hvs


class TestCheckpointsMatchArchiveReplay:
    def test_real_runs(self):
        jobs = expand_matrix(
            small_config(
                problems=["zdt3-d2", "dtlz1-d2"],
                search_transforms=[{"kind": "sphered_rotation", "seed": 3}],
                objective_transforms=[{"kind": "beta_cdf", "alpha": 2.0, "beta": 0.5}],
                algorithms=[{"name": n, "population": 10} for n in ALGORITHM_NAMES],
                budget=300,
                repetitions=1,
            )
        )
        summaries = execute(jobs)
        rows = compute_run_rows(summaries)
        assert len(rows) == len(jobs) == 16
        boxes = {}  # the reference box: each problem's pooled accepted points
        for s in summaries:
            boxes.setdefault(s.problem, []).append(s.accepted[:, 1:])
        for job, row in zip(jobs, rows):
            f_orig = run_algorithm(job.instance, job.algo).f_orig
            box = compute_normalization(boxes[row.problem])
            expected = replayed_checkpoint_hvs(f_orig, 10, box)
            assert row.checkpoint_hvs == expected
            assert row.final_archive_hv == expected[-1]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=80),
        st.integers(1, 80),
    )
    def test_quantized_objectives(self, cells, population):
        # a coarse lattice forces duplicates and ties; the box floors and drops points
        f_orig = np.array(cells, dtype=float) / 10.0
        population = min(population, len(f_orig))
        box = NormalizationBox(ideal=(0.2, 0.1), nadir=(0.9, 1.0))
        accepted = np.array(accepted_history(f_orig), dtype=float).reshape(-1, 3)
        prefix = np.searchsorted(accepted[:, 0], checkpoint_grid(population, len(f_orig)), side="right")
        hvs = normalized_hv_prefixes(accepted[:, 1:], box, prefix)
        assert hvs == replayed_checkpoint_hvs(f_orig, population, box)


class TestReports:
    def test_heatmap_shape_and_identity_cell(self, grid_rows):
        table = report_ab_heatmap(grid_rows, "zdt1-d2", "random_search")
        assert table["alphas"] == [0.5, 1.0, 2.0]
        assert table["betas"] == [0.5, 1.0, 2.0]
        assert all(v is not None for row in table["cells"] for v in row)
        # (1,1) cell is the base instance
        base = [
            r.final_archive_hv
            for r in grid_rows
            if r.algorithm == "random_search"
            and r.search_t == {"kind": "beta_cdf", "alpha": 1.0, "beta": 1.0}
            and r.objective_t == {"kind": "identity"}
        ]
        assert table["cells"][1][1] == pytest.approx(float(np.mean(base)), abs=1e-15)

    def test_heatmap_gap_handling(self, grid_rows):
        partial = [
            r
            for r in grid_rows
            if not (
                r.search_t.get("alpha") == 0.5 and r.search_t.get("beta") == 2.0
            )
        ]
        table = report_ab_heatmap(partial, "zdt1-d2", "random_search")
        assert table["cells"][0][2] is None
        with pytest.raises(ReportError):
            report_ab_heatmap(grid_rows, "zdt1-d2", "moead")

    def test_relative_identity_is_one(self, grid_rows):
        records = report_relative_hv(grid_rows)
        identity = [r for r in records if r["family"] == "identity"]
        assert identity
        for r in identity:
            assert r["relative_hv"] == pytest.approx(1.0, abs=1e-12)
        families = {r["family"] for r in records}
        assert families == {"identity", "beta-cdf-search", "beta-cdf-objective"}

    def test_relative_missing_base_error(self, grid_rows):
        no_base = [
            r
            for r in grid_rows
            if not (
                r.search_t.get("alpha") == 1.0 and r.search_t.get("beta") == 1.0
            )
        ]
        with pytest.raises(ReportError):
            report_relative_hv(no_base)

    def test_relative_degenerate_base_left_out(self, grid_rows):
        # a second problem whose nsga2 identity runs have no hypervolume
        second = [
            replace(r, problem="zdt2-d2", instance=r.instance.replace("zdt1", "zdt2"))
            for r in grid_rows
        ]
        for r in second:
            if r.algorithm == "nsga2" and transform_family(r.search_t, r.objective_t) == "identity":
                r.final_pop_hv = 0.0
        expected = {
            (r["algorithm"], r["family"]): r["relative_hv"]
            for r in report_relative_hv(grid_rows)
        }
        records = report_relative_hv(grid_rows + second)
        assert {(r["algorithm"], r["family"]) for r in records} == set(expected)
        for r in records:
            assert r["relative_hv"] == expected[(r["algorithm"], r["family"])]
            assert r["n_problems"] == (1 if r["algorithm"] == "nsga2" else 2)

    def test_over_time_consistency(self, grid_rows):
        records = report_hv_over_time(grid_rows, "zdt1-d2", "s:bcdf-a1-b1__o:id")
        assert records
        per_seed = {}
        for rec in records:
            if rec["series"] != "mean":
                per_seed.setdefault(rec["series"], []).append(rec["hv"])
        matching = [r for r in grid_rows if r.instance == "zdt1-d2__s:bcdf-a1-b1__o:id"]
        for r in matching:
            series = per_seed[f"seed{r.seed}"]
            assert np.all(np.diff(series) >= -1e-12)
            assert series[-1] == r.final_archive_hv


class TestFullMatrix:
    def test_shape(self):
        cfg = full_matrix_config(dims=(2,))
        jobs = expand_matrix(cfg)
        instances = {j.instance.descriptor for j in jobs}
        problems = {j.instance.problem for j in jobs}
        # 18 two-dimensional problems, 55 instances each
        assert len(problems) == 18
        assert len(instances) == 18 * 55
        assert len(jobs) == 18 * 55 * 8 * 10


REPORTS = {
    "ab_heatmap_zdt1-d2_random_search_search.csv":
        ["--kind", "ab-heatmap", "--problem", "zdt1-d2", "--algo", "random_search"],
    "ab_heatmap_dtlz1-d2_nsga2_objective.csv":
        ["--kind", "ab-heatmap", "--problem", "dtlz1-d2", "--algo", "nsga2", "--space", "objective"],
    "relative_hv.csv": ["--kind", "relative"],
    "hv_over_time_dtlz1-d2.csv":
        ["--kind", "over-time", "--problem", "dtlz1-d2", "--transform", "s:rot-seed3__o:id"],
}


def build_reports(out: Path) -> dict[str, bytes]:
    """Every report of REPORTS built by the command line, by file name."""
    for args in REPORTS.values():
        assert cli_main(["report", "--in", str(out), *args]) == 0
    return {name: (out / "reports" / name).read_bytes() for name in REPORTS}


def load_runs_from_logs(output_dir):
    """Reference: the report pass's input as it was rebuilt before reports read runs.csv.

    Each run's accepted history is recomputed from its raw log, and the boxes
    and rows are recomputed from those histories.
    """
    summaries = []
    for meta_path in sorted((Path(output_dir) / "runs").glob("*.json")):
        summary = RunSummary(**json.loads(meta_path.read_text(encoding="utf-8")))
        if summary.error is None:
            f_orig = parsed_f_orig(meta_path.with_suffix(".log"))
            summary.accepted = np.array(accepted_history(f_orig), dtype=float).reshape(-1, 3)
        summaries.append(summary)
    rows = compute_run_rows(summaries)
    return rows, [s.problem for s in summaries if s.error is not None]


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """A `mobench run` output directory and the bytes of every report built from it."""
    config = dict(
        problems=["zdt1-d2", "dtlz1-d2"],
        search_transforms=[
            {"kind": "identity"},
            {"kind": "beta_cdf_grid", "values": [0.5, 2.0]},
            {"kind": "sphered_rotation", "seed": 3},
        ],
        objective_transforms=[{"kind": "beta_cdf_grid", "values": [0.5, 2.0]}],
        algorithms=[
            {"name": "random_search", "population": 5},
            {"name": "nsga2", "population": 6},
        ],
        budget=60,
        repetitions=2,
        base_seed=11,
    )
    root = tmp_path_factory.mktemp("reports")
    (root / "config.json").write_text(json.dumps(config))
    out = root / "out"
    assert cli_main(["run", "--config", str(root / "config.json"), "--out", str(out)]) == 0
    return out, build_reports(out)


@pytest.fixture
def fresh_run_dir(run_dir, tmp_path):
    """A copy of the run directory that a test may damage, without its reports."""
    out, reports = run_dir
    copy = shutil.copytree(out, tmp_path / "out")
    shutil.rmtree(copy / "reports")
    return copy, reports


class TestReportsReadRunsCsv:
    def test_reports_equal_the_reports_rescored_from_the_logs(self, fresh_run_dir, monkeypatch):
        out, reports = fresh_run_dir
        monkeypatch.setattr("mobench.cli.read_runs", load_runs_from_logs)
        assert build_reports(out) == reports

    def test_shuffled_rows_change_no_report(self, fresh_run_dir):
        out, reports = fresh_run_dir
        lines = (out / "runs.csv").read_text().splitlines(keepends=True)
        rows = lines[2:]
        shuffled = [rows[i] for i in np.random.default_rng(0).permutation(len(rows))]
        assert shuffled != rows
        (out / "runs.csv").write_text("".join(lines[:2] + shuffled))
        assert build_reports(out) == reports

    def test_reports_read_no_log(self, fresh_run_dir):
        out, reports = fresh_run_dir
        logs = list((out / "runs").glob("*.log"))
        assert len(logs) == 80
        for log in logs:
            log.write_text("not,a,log\n")
        assert build_reports(out) == reports

    def test_missing_log_changes_no_report(self, fresh_run_dir):
        out, reports = fresh_run_dir
        sorted((out / "runs").glob("*.log"))[0].unlink()
        assert build_reports(out) == reports

    def test_broken_log_changes_no_report(self, fresh_run_dir):
        out, reports = fresh_run_dir
        for log in (out / "runs").glob("zdt1-d2__*.log"):
            log.write_text("not,a,log\n")
        assert build_reports(out) == reports

    @pytest.mark.parametrize("damage", ["no runs.csv", "orphan sidecar", "orphan row"])
    def test_missing_pieces_exit_2(self, fresh_run_dir, capsys, damage):
        out, _ = fresh_run_dir
        lines = (out / "runs.csv").read_text().splitlines(keepends=True)
        run_id = "{}__{}__p{}__s{}".format(*lines[2].split(","))
        if damage == "no runs.csv":
            (out / "runs.csv").unlink()
            named = str(out)
        elif damage == "orphan sidecar":
            (out / "runs.csv").write_text("".join(lines[:2] + lines[3:]))
            named = run_id
        else:
            (out / "runs" / f"{run_id}.json").unlink()
            named = run_id
        capsys.readouterr()
        for args in REPORTS.values():
            assert cli_main(["report", "--in", str(out), *args]) == 2
            err = capsys.readouterr().err
            assert "ReportError" in err and named in err

    def test_read_runs_keeps_sidecar_order(self, run_dir):
        out, _ = run_dir
        rows, failed = read_runs(out)
        assert failed == []
        names = [f"{r.instance}__{r.algorithm}__p{r.population}__s{r.seed}.json" for r in rows]
        assert names == sorted(p.name for p in (out / "runs").glob("*.json"))


class TestCli:
    def test_run_and_reports(self, tmp_path):
        config = dict(
            problems=["dtlz1-d2"],
            search_transforms=[
                {"kind": "identity"},
                {"kind": "beta_cdf", "alpha": 0.5, "beta": 1.0},
                {"kind": "sphered_rotation", "seed": 3},
            ],
            objective_transforms=[],
            algorithms=[{"name": "random_search", "population": 5}],
            budget=50,
            repetitions=2,
            base_seed=3,
        )
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "runs.csv").exists()
        assert (
            cli_main(
                [
                    "report",
                    "--in",
                    str(out),
                    "--kind",
                    "over-time",
                    "--problem",
                    "dtlz1-d2",
                    "--transform",
                    "s:rot-seed3__o:id",
                ]
            )
            == 0
        )
        assert cli_main(["report", "--in", str(out), "--kind", "relative"]) == 0
        assert (out / "reports" / "relative_hv.csv").exists()

    def test_per_problem_reports_skip_other_problems(self, tmp_path):
        config = dict(
            problems=["zdt1-d2", "dtlz1-d2"],
            search_transforms=[
                {"kind": "identity"},
                {"kind": "beta_cdf_grid", "values": [0.5, 2.0]},
            ],
            objective_transforms=[],
            algorithms=[{"name": "random_search", "population": 5}],
            budget=40,
            repetitions=2,
            base_seed=5,
        )
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        reports = [
            ["--kind", "ab-heatmap", "--problem", "zdt1-d2", "--algo", "random_search"],
            ["--kind", "over-time", "--problem", "zdt1-d2", "--transform", "s:id__o:id"],
        ]
        names = ["ab_heatmap_zdt1-d2_random_search_search.csv", "hv_over_time_zdt1-d2.csv"]

        def build():
            for report in reports:
                assert cli_main(["report", "--in", str(out), *report]) == 0
            return [(out / "reports" / name).read_bytes() for name in names]

        before = build()
        assert cli_main(["report", "--in", str(out), "--kind", "relative"]) == 0
        relative = (out / "reports" / "relative_hv.csv").read_bytes()
        next((out / "runs").glob("dtlz1-d2__*.log")).write_text("not,a,log\n")
        assert build() == before
        # reports read runs.csv, not the logs, so the broken one stops none of them
        assert cli_main(["report", "--in", str(out), "--kind", "relative"]) == 0
        assert (out / "reports" / "relative_hv.csv").read_bytes() == relative

    def test_report_arguments_checked_before_reading(self, tmp_path, capsys):
        config = dict(
            problems=["zdt1-d2"],
            search_transforms=[{"kind": "identity"}],
            objective_transforms=[],
            algorithms=[{"name": "random_search", "population": 4}],
            budget=10,
            repetitions=1,
        )
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        next((out / "runs").glob("*.log")).write_text("not,a,log\n")
        capsys.readouterr()
        base = ["report", "--in", str(out)]
        assert cli_main([*base, "--kind", "ab-heatmap", "--problem", "zdt1-d2"]) == 1
        assert cli_main([*base, "--kind", "ab-heatmap", "--algo", "random_search"]) == 1
        assert cli_main([*base, "--kind", "over-time", "--problem", "zdt1-d2"]) == 1
        assert cli_main([*base, "--kind", "over-time", "--transform", "s:id__o:id"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("config error") == 4
        # with its flags the report runs; it reads runs.csv, not the broken log
        assert cli_main([*base, "--kind", "relative"]) == 0

    def test_report_counts_failures(self, tmp_path, capsys):
        bad = ProblemInstance(
            ProblemId("zdt", 1, 2), TransformSpec.identity(), TransformSpec.identity()
        )
        object.__setattr__(bad, "search_t", TransformSpec.sphered_rotation(dim=4, seed=0))
        good = ProblemInstance(
            ProblemId("zdt", 1, 2), TransformSpec.identity(), TransformSpec.identity()
        )
        jobs = [
            Job(bad, AlgoConfig("random_search", 4, 10, 0)),
            Job(good, AlgoConfig("random_search", 4, 10, 1)),
        ]
        summaries = execute(jobs, output_dir=str(tmp_path))
        # as `mobench run` does: the failed run gets a sidecar and no row
        emit_runs_csv(compute_run_rows(summaries), tmp_path / "runs.csv")
        capsys.readouterr()
        assert cli_main(["report", "--in", str(tmp_path), "--kind", "relative"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "read 2 runs, 1 failed"
        over_time = ["--kind", "over-time", "--problem", "zdt1-d2", "--transform", "s:id__o:id"]
        assert cli_main(["report", "--in", str(tmp_path), *over_time]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "read 2 runs of zdt1-d2, 1 failed"

    def test_clean_run_removes_an_earlier_errors_csv(self, tmp_path, monkeypatch):
        config = dict(
            problems=["zdt1-d2"],
            search_transforms=[{"kind": "identity"}],
            objective_transforms=[],
            algorithms=[{"name": "random_search", "population": 4}],
            budget=20,
            repetitions=2,
        )
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        run = ["run", "--config", str(cfg_path), "--out", str(out)]

        def fail(instance, algo):
            raise RuntimeError("injected failure")

        with monkeypatch.context() as patch:
            patch.setattr("mobench.harness.run_algorithm", fail)
            assert cli_main(run) == 0
        assert "injected failure" in (out / "errors.csv").read_text()
        # the same directory, now without failures: no list of the old ones stays
        assert cli_main(run) == 0
        assert not (out / "errors.csv").exists()
        assert len((out / "runs.csv").read_text().splitlines()) == 2 + 2

    def test_output_dir_env_default(self, tmp_path, monkeypatch):
        config = dict(
            problems=["zdt1-d2"],
            search_transforms=[{"kind": "identity"}],
            objective_transforms=[],
            algorithms=[{"name": "random_search", "population": 4}],
            budget=20,
            repetitions=1,
        )
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        monkeypatch.setenv("MOBENCH_OUT", str(tmp_path / "from-env"))
        monkeypatch.chdir(tmp_path)
        assert cli_main(["run", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "from-env" / "runs.csv").exists()

    def test_density_and_list(self, capsys):
        assert cli_main(["density", "--transform", '{"kind":"identity"}', "--n", "50"]) == 0
        assert float(capsys.readouterr().out) == 0.0
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "zdt1-d2" in out and "moead" in out

    def test_exit_codes(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli_main(["run", "--config", str(bad)]) == 1
        missing = cli_main(["report", "--in", str(tmp_path / "nope"), "--kind", "relative"])
        assert missing == 2
