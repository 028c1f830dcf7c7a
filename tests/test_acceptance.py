"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`. The heavy benchmark
studies (rotation trend, Beta-CDF grid) execute once as module fixtures with
process parallelism and are shared by the criteria that read them.

Criterion 1 is implemented exactly as stated and is expected to fail on the
five (alpha, 0.2) shape pairs: near x = 1 those CDFs are so steep that no
float64 inverse can keep |forward(inverse(q)) - q| below 1e-9 (the floor is
density times one ulp, up to ~3e-3); scipy's betaincinv hits the same wall.
See the repository notes for the full analysis.
"""

import math
import os
import time

import numpy as np
import pytest

from mobench.algorithms import (
    AlgoConfig,
    fast_nondominated_sort,
    run_algorithm,
    run_random_search,
)
from mobench.harness import (
    ExperimentConfig,
    compute_run_rows,
    emit_runs_csv,
    execute,
    expand_matrix,
    report_ab_heatmap,
    report_hv_over_time,
    report_relative_hv,
)
from mobench.indicators import density_change, hypervolume_2d
from mobench.instance import ProblemInstance
from mobench.problems import ProblemId, list_problems
from mobench.specfun import ShapeParams, inv_reg_inc_beta, reg_inc_beta
from mobench.transforms import (
    RotationMatrix,
    TransformSpec,
    apply_forward,
    apply_inverse,
    rotation_matrix_2d,
)

PARALLEL = max(1, min(8, os.cpu_count() or 1))
GRID = [0.2, 0.5, 1.0, 2.0, 5.0]
# 2-D rotation angles for these seeds are 24-44 degrees away from the nearest
# multiple of pi/2, i.e. genuinely oblique (the published trend concerns
# non-orthogonal rotations; near-orthogonal ones are no-ops by construction)
ROTATION_SEEDS = (1, 2, 8, 10)
EA_NAMES = ("nsga2", "smsemoa", "moead")
ALL_NAMES = ("random_search",) + EA_NAMES


def _verdict(num: int, name: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\n[ACCEPTANCE {num:02d}] {name}: {status}")
    for line in failures[:25]:
        print(f"    - {line}")
    assert not failures, f"criterion {num} ({name}): {failures[:5]}"


def _instance(problem, search=None, objective=None):
    return ProblemInstance(
        ProblemId(*problem),
        search or TransformSpec.identity(),
        objective or TransformSpec.identity(),
    )


# --- shared benchmark studies ----------------------------------------------


@pytest.fixture(scope="module")
def rotation_study():
    """dtlz1-d2 x (identity + 4 oblique rotations) x 4 algorithms x 10 runs."""
    cfg = ExperimentConfig(
        problems=["dtlz1-d2"],
        search_transforms=[{"kind": "identity"}]
        + [{"kind": "sphered_rotation", "seed": s} for s in ROTATION_SEEDS],
        objective_transforms=[],
        algorithms=[{"name": n, "population": 100} for n in ALL_NAMES],
        budget=5000,
        repetitions=10,
        base_seed=0,
    )
    t0 = time.perf_counter()
    summaries = execute(expand_matrix(cfg), parallelism=PARALLEL)
    elapsed = time.perf_counter() - t0
    rows = compute_run_rows(summaries)
    return rows, elapsed


@pytest.fixture(scope="module")
def beta_grid_study():
    """zdt3-d2 x 25 Beta-CDF search warps x 4 algorithms x 10 runs."""
    cfg = ExperimentConfig(
        problems=["zdt3-d2"],
        search_transforms=[{"kind": "beta_cdf_grid", "values": GRID}],
        objective_transforms=[],
        algorithms=[{"name": n, "population": 100} for n in ALL_NAMES],
        budget=5000,
        repetitions=10,
        base_seed=0,
    )
    t0 = time.perf_counter()
    summaries = execute(expand_matrix(cfg), parallelism=PARALLEL)
    elapsed = time.perf_counter() - t0
    rows = compute_run_rows(summaries)
    return rows, elapsed


def _mean_archive_hv(rows, algorithm, search_desc):
    vals = [
        r.final_archive_hv
        for r in rows
        if r.algorithm == algorithm and r.instance.split("__")[1] == search_desc
    ]
    assert vals, (algorithm, search_desc)
    return float(np.mean(vals))


# --- criteria ----------------------------------------------------------------


def test_criterion_01_bijection_suite():
    """Forward(inverse(.)) identity at 1e-9/coordinate over the full parameter grid."""
    failures = []
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    for dim in (2, 10):
        points = rng.random((1000, dim))
        transforms = [(f"bcdf-a{a:g}-b{b:g}-d{dim}", TransformSpec.beta_cdf(a, b))
                      for a in GRID for b in GRID]
        transforms.append((f"rot-id-d{dim}",
                           TransformSpec.sphered_rotation(RotationMatrix(dim, np.eye(dim)))))
        transforms += [(f"rot-seed{s}-d{dim}", TransformSpec.sphered_rotation(dim=dim, seed=s))
                       for s in ROTATION_SEEDS]
        for name, t in transforms:
            back = apply_forward(t, apply_inverse(t, points))
            err = float(np.max(np.abs(back - points)))
            if err > 1e-9:
                failures.append(f"{name}: max coordinate error {err:.3e} > 1e-9")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    _verdict(1, "bijection suite", failures)


def test_criterion_02_special_function_suite():
    failures = []
    xs = np.linspace(0.0, 1.0, 41)
    for a in GRID:
        got = reg_inc_beta(xs, ShapeParams(a, 1.0))
        if np.max(np.abs(got - xs**a)) > 1e-12:
            failures.append(f"beta=1 closed form off for alpha={a}")
        got = reg_inc_beta(xs, ShapeParams(1.0, a))
        if np.max(np.abs(got - (1.0 - (1.0 - xs) ** a))) > 1e-12:
            failures.append(f"alpha=1 closed form off for beta={a}")
        mid = reg_inc_beta(0.5, ShapeParams(a, a))
        if abs(mid - 0.5) > 1e-12:
            failures.append(f"symmetric midpoint off for alpha=beta={a}")
    arcsine = (2.0 / math.pi) * np.arcsin(np.sqrt(xs))
    if np.max(np.abs(reg_inc_beta(xs, ShapeParams(0.5, 0.5)) - arcsine)) > 1e-12:
        failures.append("arcsine law off")
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        a, b = rng.uniform(0.2, 5.0, size=2)
        x = float(rng.random())
        p = ShapeParams(a, b)
        worst = max(worst, abs(inv_reg_inc_beta(reg_inc_beta(x, p), p) - x))
    if worst > 1e-9:
        failures.append(f"inverse roundtrip worst error {worst:.3e} > 1e-9")
    _verdict(2, "special-function suite", failures)


def test_criterion_03_sphered_rotation_structure():
    failures = []
    rng = np.random.default_rng(7)
    for dim in (2, 10):
        pts = rng.random((500, dim))
        pts[:40, 0] = 1.0
        t = TransformSpec.sphered_rotation(dim=dim, seed=8)
        out = apply_forward(t, pts)
        shell_err = np.max(
            np.abs(
                np.max(np.abs(2 * out - 1), axis=1) - np.max(np.abs(2 * pts - 1), axis=1)
            )
        )
        if shell_err > 1e-12:
            failures.append(f"shell preservation off by {shell_err:.2e} (d={dim})")
    # exact signed permutation at right angles
    pts = rng.random((500, 2))
    for k in (1, 2, 3):
        m = np.round(
            [[math.cos(k * math.pi / 2), -math.sin(k * math.pi / 2)],
             [math.sin(k * math.pi / 2), math.cos(k * math.pi / 2)]]
        )
        t = TransformSpec.sphered_rotation(RotationMatrix(2, m))
        got = apply_forward(t, pts)
        expect = ((2 * pts - 1) @ m.T + 1) / 2
        if np.max(np.abs(got - expect)) > 1e-12:
            failures.append(f"right-angle map not exact at k={k}")
    for k in range(4):
        t = TransformSpec.sphered_rotation(rotation_matrix_2d(k * math.pi / 2))
        w = density_change(t, 500, 2, seed=11)
        if w > 1e-12:
            failures.append(f"density change {w:.2e} > 1e-12 at angle {k}*pi/2")
    w45 = density_change(
        TransformSpec.sphered_rotation(rotation_matrix_2d(math.pi / 4)), 500, 2, seed=11
    )
    if not w45 > 0.01:
        failures.append(f"density change {w45:.4f} at pi/4 not > 0.01")
    _verdict(3, "sphered-rotation structure", failures)


def test_criterion_04_dominance_preservation():
    failures = []
    rng = np.random.default_rng(13)
    n = 100_000
    fa = rng.random((n, 2))
    fb = rng.random((n, 2))
    before_ab = (fa <= fb).all(axis=1) & (fa != fb).any(axis=1)
    before_ba = (fb <= fa).all(axis=1) & (fa != fb).any(axis=1)
    for a in GRID:
        for b in GRID:
            p = ShapeParams(a, b)
            wa = reg_inc_beta(fa, p)
            wb = reg_inc_beta(fb, p)
            after_ab = (wa <= wb).all(axis=1) & (wa != wb).any(axis=1)
            after_ba = (wb <= wa).all(axis=1) & (wa != wb).any(axis=1)
            if not (np.array_equal(before_ab, after_ab) and np.array_equal(before_ba, after_ba)):
                failures.append(f"dominance changed under warp ({a},{b})")
    _verdict(4, "dominance preservation", failures)


def test_criterion_05_indicator_oracles():
    failures = []
    if hypervolume_2d([(1.0, 1.0)], (2.0, 2.0)) != 1.0:
        failures.append("single-box hand value")
    if hypervolume_2d([(0.0, 1.0), (1.0, 0.0)], (2.0, 2.0)) != 3.0:
        failures.append("two-point hand value")
    if hypervolume_2d([(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)], (2.0, 2.0)) != 3.25:
        failures.append("three-point hand value")
    rng = np.random.default_rng(17)
    for trial in range(20):
        pts = rng.random((rng.integers(3, 12), 2))
        ref = (1.5, 1.5)
        hv = hypervolume_2d(pts, ref)
        samples = rng.random((1_000_000, 2)) * 1.5
        dominated = np.zeros(len(samples), dtype=bool)
        for f1, f2 in pts:
            dominated |= (samples[:, 0] >= f1) & (samples[:, 1] >= f2)
        p = dominated.mean()
        est = p * 2.25
        se = math.sqrt(max(p * (1 - p), 1e-12) / len(samples)) * 2.25
        if abs(hv - est) > 3 * se:
            failures.append(f"MC trial {trial}: |{hv:.6f} - {est:.6f}| > 3se={3*se:.2e}")
    for trial in range(5):
        pts = np.round(rng.random((200, 2)) * 25) / 25
        got = [sorted(f) for f in fast_nondominated_sort(pts)]
        expected = _brute_force_fronts(pts)
        if got != expected:
            failures.append(f"NDS mismatch vs brute force (trial {trial})")
    _verdict(5, "indicator oracles", failures)


def _brute_force_fronts(points):
    pts = [tuple(map(float, p)) for p in points]
    remaining = set(range(len(pts)))
    fronts = []
    while remaining:
        front = [
            i
            for i in remaining
            if not any(
                j != i
                and pts[j][0] <= pts[i][0]
                and pts[j][1] <= pts[i][1]
                and pts[j] != pts[i]
                for j in remaining
            )
        ]
        fronts.append(sorted(front))
        remaining -= set(front)
    return fronts


def test_criterion_06_random_search_invariances():
    failures = []
    # (a) original-space log is bit-identical across every objective warp
    base = _instance(("dtlz", 3, 2))
    cfg = AlgoConfig("random_search", 100, 5000, seed=123)
    reference = run_random_search(base, cfg).f_orig
    for a in GRID:
        for b in GRID:
            inst = _instance(("dtlz", 3, 2), objective=TransformSpec.beta_cdf(a, b))
            log = run_random_search(inst, cfg).f_orig
            if not np.array_equal(log, reference):
                failures.append(f"f_original log changed under objective warp ({a},{b})")
    # (b) archive HV varies < 3% across the five rotation instances
    t0 = time.perf_counter()
    rot_cfg = ExperimentConfig(
        problems=["dtlz1-d2"],
        search_transforms=[{"kind": "identity"}]
        + [{"kind": "sphered_rotation", "seed": s} for s in ROTATION_SEEDS],
        objective_transforms=[],
        algorithms=[{"name": "random_search", "population": 100}],
        budget=5000,
        repetitions=10,
        base_seed=0,
    )
    summaries = execute(expand_matrix(rot_cfg), parallelism=PARALLEL)
    rows = compute_run_rows(summaries)
    elapsed = time.perf_counter() - t0
    per_instance = {}
    for r in rows:
        per_instance.setdefault(r.instance, []).append(r.final_archive_hv)
    means = [float(np.mean(v)) for v in per_instance.values()]
    spread = (max(means) - min(means)) / float(np.mean(means))
    if len(means) != 5:
        failures.append(f"expected 5 rotation instances, got {len(means)}")
    if spread >= 0.03:
        failures.append(f"mean archive HV spread {spread*100:.2f}% >= 3%")
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.0f}s >= 2 min")
    _verdict(6, "random-search invariances", failures)


def test_criterion_07_rotation_trend(rotation_study):
    rows, elapsed = rotation_study
    failures = []
    rotations = [f"s:rot-seed{s}" for s in ROTATION_SEEDS]
    for rot in rotations:
        moead = _mean_archive_hv(rows, "moead", rot)
        rs = _mean_archive_hv(rows, "random_search", rot)
        if not moead < rs:
            failures.append(f"moead {moead:.4f} not below random search {rs:.4f} on {rot}")
    for algo in EA_NAMES:
        base = _mean_archive_hv(rows, algo, "s:id")
        for rot in rotations:
            rotated = _mean_archive_hv(rows, algo, rot)
            if not rotated < base:
                failures.append(
                    f"{algo} did not lose HV on {rot}: {rotated:.4f} vs identity {base:.4f}"
                )
    if elapsed >= 900.0:
        failures.append(f"runtime {elapsed:.0f}s >= 15 min")
    _verdict(7, "rotation trend (moead vs random search)", failures)


def test_criterion_08_beta_grid_trend(beta_grid_study):
    rows, elapsed = beta_grid_study
    failures = []
    def cell(algorithm, alpha, beta):
        vals = [
            r.final_archive_hv
            for r in rows
            if r.algorithm == algorithm
            and r.search_t.get("alpha") == alpha
            and r.search_t.get("beta") == beta
        ]
        assert len(vals) == 10, (algorithm, alpha, beta, len(vals))
        return float(np.mean(vals))

    rs_drop = 1.0 - cell("random_search", 0.2, 5.0) / cell("random_search", 1.0, 1.0)
    ns_drop = 1.0 - cell("nsga2", 0.2, 5.0) / cell("nsga2", 1.0, 1.0)
    if not rs_drop >= 0.10:
        failures.append(f"random-search relative drop {rs_drop*100:.1f}% < 10%")
    if not ns_drop < rs_drop:
        failures.append(
            f"nsga2 drop {ns_drop*100:.1f}% not smaller than random search {rs_drop*100:.1f}%"
        )
    table = report_ab_heatmap(rows, "zdt3-d2", "random_search")
    if any(v is None for row in table["cells"] for v in row):
        failures.append("heatmap has gaps for a complete grid")
    if elapsed >= 1800.0:
        failures.append(f"runtime {elapsed:.0f}s >= 30 min")
    _verdict(8, "beta-grid trend on zdt3-d2", failures)


def test_criterion_09_aggregation_consistency(tmp_path):
    failures = []
    cfg = ExperimentConfig(
        problems=["zdt1-d2", "mmf1-d2"],
        search_transforms=[{"kind": "identity"}],
        objective_transforms=[],
        algorithms=[{"name": n, "population": 8} for n in ALL_NAMES],
        budget=120,
        repetitions=3,
        base_seed=5,
    )
    jobs = expand_matrix(cfg)
    seq = execute(jobs, parallelism=1)
    par = execute(jobs, parallelism=8)
    rows_seq = compute_run_rows(seq)
    rows_par = compute_run_rows(par)
    csv_a = emit_runs_csv(rows_seq, tmp_path / "a.csv").read_bytes()
    csv_b = emit_runs_csv(rows_par, tmp_path / "b.csv").read_bytes()
    if csv_a != csv_b:
        failures.append("parallelism 1 vs 8 CSV outputs differ")
    for record in report_relative_hv(rows_seq):
        if record["family"] != "identity":
            failures.append(f"unexpected family {record['family']}")
        elif abs(record["relative_hv"] - 1.0) > 1e-12:
            failures.append(f"identity relative HV {record['relative_hv']!r} != 1.0")
    _verdict(9, "aggregation consistency", failures)


def test_criterion_10_desk_scale_reproduction(tmp_path):
    failures = []
    # (a) project the full d=2 matrix from measured per-config run times
    probe_instances = [
        _instance(("dtlz", 1, 2), search=TransformSpec.beta_cdf(0.5, 2.0)),
        _instance(("zdt", 3, 2), search=TransformSpec.sphered_rotation(dim=2, seed=1)),
    ]
    per_config = {}
    for name in ALL_NAMES:
        for pop in (10, 100):
            times = []
            for k, inst in enumerate(probe_instances):
                t0 = time.perf_counter()
                run_algorithm(inst, AlgoConfig(name, pop, 5000, seed=k))
                times.append(time.perf_counter() - t0)
            per_config[(name, pop)] = float(np.mean(times))
    n_problems = sum(1 for p in list_problems() if p.dim == 2)
    instances_per_problem = 25 + 1 + len(ROTATION_SEEDS) + 25  # beta grid, id, rots, objective grid
    runs_per_config = n_problems * instances_per_problem * 10
    total_runs = runs_per_config * len(per_config)
    serial_hours = runs_per_config * sum(per_config.values()) / 3600.0
    # single-threaded indicator pass, measured at ~35 ms per 5000-eval run
    postprocess_hours = total_runs * 0.035 / 3600.0
    laptop_hours = serial_hours / 8.0 + postprocess_hours  # 8-way parallel laptop
    print(
        f"\n    projected full d=2 matrix: {total_runs} runs, "
        f"{serial_hours:.1f}h serial + {postprocess_hours:.1f}h reports, "
        f"{laptop_hours:.1f}h at parallelism 8"
    )
    if not laptop_hours < 4.0:
        failures.append(f"projected {laptop_hours:.1f}h at parallelism 8 >= 4h")
    # (b) end-to-end mini-matrix emits all three report kinds without gaps
    mini = ExperimentConfig(
        problems=["dtlz1-d2", "zdt3-d2"],
        search_transforms=[
            {"kind": "beta_cdf_grid", "values": [0.5, 1.0, 2.0]},
            {"kind": "identity"},
            {"kind": "sphered_rotation", "seed": 1},
        ],
        objective_transforms=[{"kind": "beta_cdf_grid", "values": [0.5, 1.0, 2.0]}],
        algorithms=[
            {"name": "random_search", "population": 10},
            {"name": "nsga2", "population": 10},
        ],
        budget=400,
        repetitions=2,
        base_seed=11,
    )
    summaries = execute(expand_matrix(mini), parallelism=PARALLEL, output_dir=str(tmp_path))
    errors = [s for s in summaries if s.error is not None]
    if errors:
        failures.append(f"{len(errors)} jobs failed in the mini matrix")
    rows = compute_run_rows(summaries)
    emit_runs_csv(rows, tmp_path / "runs.csv")
    for problem in ("dtlz1-d2", "zdt3-d2"):
        for algo in ("random_search", "nsga2"):
            for space in ("search", "objective"):
                table = report_ab_heatmap(rows, problem, algo, space=space)
                if any(v is None for row in table["cells"] for v in row):
                    failures.append(f"heatmap gap: {problem}/{algo}/{space}")
    relative = report_relative_hv(rows)
    got_families = {rec["family"] for rec in relative}
    expected_families = {"identity", "beta-cdf-search", "beta-cdf-objective", "sphered-rotation"}
    if got_families != expected_families:
        failures.append(f"relative table families {got_families} != {expected_families}")
    curves = report_hv_over_time(rows, "dtlz1-d2", "s:rot-seed1__o:id")
    if not curves:
        failures.append("empty hv-over-time table")
    _verdict(10, "desk-scale reproduction", failures)
