"""Each output check accepts a correct output and rejects a corrupted one.

The outputs come from a small real `mobench` run (budget 60) with the
`np.float64(...)` wrappers removed from the x_seen fields, so that the logs
are in the documented format and every check passes before corruption.
"""

import json
import re
import shutil

import numpy as np
import pytest

import checks
from mobench import cli

BUDGET = 60
JOBS = 2 * 4  # dtlz1-d2 and zdt3-d2, four transforms each
REPORTS = [
    ["--kind", "relative"],
    ["--kind", "ab-heatmap", "--problem", "zdt3-d2", "--algo", "random_search",
     "--space", "search"],
    ["--kind", "over-time", "--problem", "dtlz1-d2", "--transform", "s:rot-seed1__o:id"],
]
NP_FLOAT = re.compile(r"np\.float64\(([^)]*)\)")


@pytest.fixture(scope="module")
def clean_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    config = {
        "problems": ["dtlz1-d2", "zdt3-d2"],
        "search_transforms": [
            {"kind": "identity"},
            {"kind": "sphered_rotation", "seed": 1},
            {"kind": "beta_cdf", "alpha": 0.5, "beta": 2.0},
        ],
        "objective_transforms": [{"kind": "beta_cdf", "alpha": 2.0, "beta": 0.5}],
        "algorithms": [{"name": "random_search", "population": 10}],
        "budget": BUDGET,
        "repetitions": 1,
        "base_seed": 3,
    }
    (root / "cfg.json").write_text(json.dumps(config))
    out = root / "out"
    assert cli.main(["run", "--config", str(root / "cfg.json"), "--out", str(out)]) == 0
    for report in REPORTS:
        assert cli.main(["report", "--in", str(out), *report]) == 0
    for log in (out / "runs").glob("*.log"):
        log.write_text(NP_FLOAT.sub(r"\1", log.read_text()))
    return out


@pytest.fixture
def out(clean_dir, tmp_path):
    return shutil.copytree(clean_dir, tmp_path / "out")


def tally_of(out):
    tally = checks.Tally()
    checks.check_run_dir(out, JOBS, tally)
    checks.check_reports(out, REPORTS, tally)
    return tally


def logs(out, pattern="*"):
    return sorted((out / "runs").glob(f"{pattern}.log"))


def edit_line(path, lineno, edit):
    lines = path.read_text().splitlines()
    lines[lineno] = edit(lines[lineno].split(","))
    path.write_text("\n".join(lines) + "\n")


def test_clean_output_passes_every_check(out):
    tally = tally_of(out)
    assert tally.failed == 0, tally.wrong
    # 2 per directory, 3 per log plus f_orig (every run here is on a
    # recomputed problem), 2 per runs.csv row, 1 for runs.csv, 1 per report
    assert tally.attempted == 2 + JOBS * (3 + 1 + 2) + 1 + len(REPORTS)


def test_unmended_log_fails_only_the_known_fault(out):
    log = logs(out)[0]
    lines = [line.split(",") for line in log.read_text().splitlines()]
    log.write_text("".join(
        ",".join([f[0], *(f"np.float64({v})" for v in f[1:3]), *f[3:]]) + "\n" for f in lines
    ))
    tally = tally_of(out)
    assert tally.failed == 1 and tally.wrong == []


def _add(fields, index, delta):
    fields[index] = repr(float(fields[index]) + delta)
    return ",".join(fields)


@pytest.mark.parametrize(
    "edit, check",
    [
        (lambda f: ",".join(["7", *f[1:]]), "log_lines"),
        (lambda f: _add(f, 1, 1e-9), "log_numbers"),
        (lambda f: _add(f, -4, 1e-9), "f_seen"),
    ],
    ids=["index", "x_seen", "f_seen"],
)
def test_corrupted_log_line_is_rejected(out, edit, check):
    log = logs(out, "dtlz1-d2__s:rot-seed1__o:id*")[0]
    edit_line(log, 10, edit)
    tally = tally_of(out)
    assert tally.failed == 1
    # x_seen is compared inside the log-format check, a known-fault check
    assert tally.wrong == ([] if check == "log_numbers" else [check])


def test_corrupted_f_orig_is_rejected(out):
    log = logs(out, "zdt3-d2__s:bcdf*")[0]
    edit_line(log, 5, lambda f: _add(f, -1, 1e-9))
    assert "f_orig" in tally_of(out).wrong


def test_missing_log_line_is_rejected(out):
    log = logs(out)[0]
    log.write_text("\n".join(log.read_text().splitlines()[:-1]) + "\n")
    assert "log_lines" in tally_of(out).wrong


def _rewrite_runs_csv(out, edit):
    path = out / "runs.csv"
    lines = path.read_text().splitlines()
    fields = lines[2].split(",")
    lines[2] = ",".join(edit(fields))
    path.write_text("\n".join(lines) + "\n")


def test_wrong_archive_hypervolume_is_rejected(out):
    def edit(fields):
        fields[4] = repr(float(np.nextafter(float(fields[4]), 0.0)))
        return fields

    _rewrite_runs_csv(out, edit)
    assert tally_of(out).wrong == ["archive_hv"]


def test_decreasing_checkpoints_are_rejected(out):
    def edit(fields):
        hvs = fields[7].split(";")
        hvs[-1] = repr(float(hvs[-2]) / 2)
        fields[7] = ";".join(hvs)
        return fields

    _rewrite_runs_csv(out, edit)
    assert "checkpoints" in tally_of(out).wrong


def test_wrong_reports_are_rejected(out):
    rel = out / "reports" / "relative_hv.csv"
    rel.write_text(rel.read_text().replace(",identity,1.0,", ",identity,0.9999999999999999,"))
    heat = out / "reports" / "ab_heatmap_zdt3-d2_random_search_search.csv"
    lines = heat.read_text().splitlines()
    cells = lines[1].split(",")
    col = next(i for i, c in enumerate(cells) if i and c != "NA")
    cells[col] = repr(float(cells[col]) * (1 + 1e-12))
    lines[1] = ",".join(cells)
    heat.write_text("\n".join(lines) + "\n")
    over = out / "reports" / "hv_over_time_dtlz1-d2.csv"
    over.write_text(over.read_text().replace(",mean,", ",seed0,", 1))
    wrong = tally_of(out).wrong
    assert {"report_relative", "report_ab-heatmap", "report_over-time"} <= set(wrong)


def test_nondominated_matches_a_sweep():
    rng = np.random.default_rng(0)
    pts = np.round(rng.random((700, 2)), 2)  # many ties and duplicates
    uniq = np.unique(pts, axis=0)
    sweep = uniq[np.concatenate([[True], uniq[1:, 1] < np.minimum.accumulate(uniq[:, 1])[:-1]])]
    assert np.array_equal(checks.nondominated(pts, chunk=64), sweep)


def test_staircase_hv_of_known_sets():
    assert checks.staircase_hv(np.array([[0.5, 0.5]])) == 0.25
    assert checks.staircase_hv(np.array([[0.0, 0.5], [0.5, 0.0], [0.6, 0.6]])) == 0.75
    assert checks.staircase_hv(np.array([[1.0, 0.0]])) == 0.0


def test_heatmap_missing_a_grid_row_is_rejected(out):
    heat = out / "reports" / "ab_heatmap_zdt3-d2_random_search_search.csv"
    heat.write_text("\n".join(heat.read_text().splitlines()[:-1]) + "\n")
    assert tally_of(out).wrong == ["report_ab-heatmap"]
