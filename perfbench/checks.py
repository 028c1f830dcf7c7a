"""Output checks computed apart from mobench.

Every check here re-derives what `mobench run` and `mobench report` wrote
from the documented formats and from numpy/scipy, without importing mobench.
A check returns True when the output is right. `check_log_numbers` is the
one check that can fail on a known fault of the program; `Tally` counts
those failures apart from wrong outputs.

`run.py` runs this module as a script in a process of its own, so that the
benchmark process stays small: a child's peak RSS as the kernel reports it
includes the parent's RSS at the moment it was spawned.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

import numpy as np
from scipy.special import betainc

# Measured worst cases on a correct run are about 2e-15 (f_seen) and 2e-13
# (f_orig, relative); the tolerances leave room for libm differences only.
F_SEEN_ATOL = 1e-14
F_ORIG_RTOL = 1e-11
# Report means may sum in another order than this module does.
MEAN_RTOL = 1e-14

# The problems whose formulas are written out below.
RECOMPUTED_PROBLEMS = ("dtlz1-d2", "zdt3-d2")


# --- raw logs --------------------------------------------------------------


def read_log(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def check_log_lines(lines: list[str], budget: int) -> bool:
    """Exactly `budget` lines whose leading indices run 1..budget."""
    if len(lines) != budget:
        return False
    return all(line.split(",", 1)[0] == str(i) for i, line in enumerate(lines, 1))


def log_objectives(lines: list[str]) -> np.ndarray:
    """(n, 4) array of f_seen1, f_seen2, f_orig1, f_orig2: the last four fields."""
    return np.array([line.rsplit(",", 4)[1:] for line in lines], dtype=float)


def check_log_numbers(lines: list[str], dim: int, x_expected: np.ndarray | None) -> bool:
    """Every field is a plain number, as the README documents the format.

    When `x_expected` is given (random search), the parsed x_seen columns
    must also equal it exactly: repr() round-trips float64.
    """
    try:
        table = np.array([line.split(",") for line in lines], dtype=float)
    except ValueError:
        return False
    if table.shape != (len(lines), 1 + dim + 4):
        return False
    return x_expected is None or np.array_equal(table[:, 1 : 1 + dim], x_expected)


def check_f_seen(obj: np.ndarray, objective_t: dict) -> bool:
    """f_seen is the Beta CDF of f_orig inside [0, 1] and f_orig elsewhere."""
    f_seen, f_orig = obj[:, :2], obj[:, 2:]
    if objective_t["kind"] == "identity":
        return np.array_equal(f_seen, f_orig)
    inside = (f_orig >= 0.0) & (f_orig <= 1.0)
    expected = np.where(
        inside, betainc(objective_t["alpha"], objective_t["beta"], np.clip(f_orig, 0, 1)), f_orig
    )
    outside_same = np.array_equal(f_seen[~inside], f_orig[~inside])
    return outside_same and float(np.max(np.abs(f_seen - expected))) <= F_SEEN_ATOL


# --- independent evaluation for random-search runs ------------------------


def regenerate_x(seed: int, budget: int, dim: int) -> np.ndarray:
    """Random search draws its whole budget in one call of this form."""
    return np.random.default_rng(seed).random((budget, dim))


def haar_rotation(dim: int, seed: int) -> np.ndarray:
    """QR of a seeded Gaussian matrix, sign-fixed and flipped into SO(dim)."""
    gauss = np.random.default_rng(seed).standard_normal((dim, dim))
    q, r = np.linalg.qr(gauss)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    q = q * signs
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def sphered_rotation(x: np.ndarray, rot: np.ndarray) -> np.ndarray:
    """Cube -> ball (z*|z|inf/|z|2), rotate, ball -> cube; centre fixed."""
    z = 2.0 * x - 1.0
    out = z.copy()
    live = np.abs(z).max(axis=1) > 0.0
    u = z[live] * (np.abs(z[live]).max(axis=1) / np.linalg.norm(z[live], axis=1))[:, None]
    v = u @ rot.T
    out[live] = v * (np.linalg.norm(v, axis=1) / np.abs(v).max(axis=1))[:, None]
    return np.clip((out + 1.0) / 2.0, 0.0, 1.0)


def search_map(search_t: dict, x: np.ndarray) -> np.ndarray:
    kind = search_t["kind"]
    if kind == "identity":
        return x
    if kind == "beta_cdf":
        return np.clip(betainc(search_t["alpha"], search_t["beta"], x), 0.0, 1.0)
    if kind == "sphered_rotation":
        return sphered_rotation(x, haar_rotation(search_t["dim"], search_t["seed"]))
    raise ValueError(f"unknown search transform {kind!r}")


def dtlz1_d2(x: np.ndarray) -> np.ndarray:
    t = x[:, 1] - 0.5
    g = 100.0 * (1.0 + t * t - np.cos(20.0 * np.pi * t))
    return np.column_stack([0.5 * x[:, 0] * (1.0 + g), 0.5 * (1.0 - x[:, 0]) * (1.0 + g)])


def zdt3_d2(x: np.ndarray) -> np.ndarray:
    f1 = x[:, 0]
    g = 1.0 + 9.0 * x[:, 1]
    r = f1 / g
    return np.column_stack([f1, g * (1.0 - np.sqrt(r) - r * np.sin(10.0 * np.pi * f1))])


FORMULAS = {"dtlz1-d2": dtlz1_d2, "zdt3-d2": zdt3_d2}


def check_f_orig(obj: np.ndarray, problem: str, search_t: dict, x_seen: np.ndarray) -> bool:
    if len(obj) != len(x_seen):
        return False
    expected = FORMULAS[problem](search_map(search_t, x_seen))
    scale = np.maximum(np.abs(expected), 1.0)
    return float(np.max(np.abs(obj[:, 2:] - expected) / scale)) <= F_ORIG_RTOL


# --- hypervolume -----------------------------------------------------------


def nondominated(points: np.ndarray, chunk: int = 512) -> np.ndarray:
    """Brute-force filter: drop every point another point weakly dominates.

    Exact duplicates keep one copy. np.unique sorts the points by (f1, f2),
    so only an earlier point can dominate a later one, and it does iff its
    f2 is not larger. Every earlier point is compared: O(n^2) comparisons.
    """
    pts = np.unique(np.asarray(points, dtype=float).reshape(-1, 2), axis=0)
    f2 = pts[:, 1]
    keep = np.empty(len(pts), dtype=bool)
    for lo in range(0, len(pts), chunk):
        block = f2[lo : lo + chunk, None]
        before = (f2[:lo] <= block).any(axis=1)
        within = np.tril(f2[lo : lo + chunk] <= block, k=-1).any(axis=1)
        keep[lo : lo + chunk] = ~(before | within)
    return pts[keep]


def staircase_hv(points: np.ndarray) -> float:
    """Area dominated by points of the unit box, reference point (1, 1)."""
    pts = points[(points < 1.0).all(axis=1)]
    if not len(pts):
        return 0.0
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    best = np.minimum.accumulate(pts[:, 1])
    steps = np.concatenate([[True], pts[1:, 1] < best[:-1]])
    f1, f2 = pts[steps, 0], pts[steps, 1]
    return float(np.sum((np.append(f1[1:], 1.0) - f1) * (1.0 - f2)))


def box_of(fronts: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    pooled = nondominated(np.concatenate(fronts))
    return pooled.min(axis=0), pooled.max(axis=0)


def normalized_hv(front: np.ndarray, ideal: np.ndarray, nadir: np.ndarray) -> float:
    scaled = (front - ideal) / (nadir - ideal)
    scaled = scaled[(scaled <= 1.0).all(axis=1)]
    return min(1.0, staircase_hv(np.maximum(scaled, 0.0)))


# --- runs.csv and reports --------------------------------------------------


def read_runs_csv(path: Path) -> list[dict]:
    """Rows keyed by column; hypervolume columns parsed to floats."""
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = []
    for rec in csv.DictReader(lines[1:]):  # line 0 is the version comment
        rec["population"] = int(rec["population"])
        rec["seed"] = int(rec["seed"])
        rec["final_archive_hv"] = float(rec["final_archive_hv"])
        rec["checkpoint_evals"] = [int(v) for v in rec["checkpoint_evals"].split(";")]
        rec["checkpoint_hvs"] = [float(v) for v in rec["checkpoint_hvs"].split(";")]
        rows.append(rec)
    return rows


def check_checkpoints(row: dict) -> bool:
    """Archive HV never decreases by more than summation rounding (4 ulp).

    mobench sums the staircase in a different grouping when the archive
    gains a point, so a point that adds no area can lower the sum by an ulp.
    """
    hvs = row["checkpoint_hvs"]
    return len(hvs) == len(row["checkpoint_evals"]) and all(
        b >= a - 4 * math.ulp(a) for a, b in zip(hvs, hvs[1:])
    )


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=MEAN_RTOL, abs_tol=0.0)


def check_relative(path: Path) -> bool:
    """The identity family's hypervolume relative to itself is exactly 1.0."""
    with path.open(encoding="utf-8") as fh:
        recs = list(csv.DictReader(fh))
    ident = [float(r["relative_hv"]) for r in recs if r["family"] == "identity"]
    return bool(ident) and all(v == 1.0 for v in ident)


def check_heatmap(path: Path, rows: list[dict], problem: str, algo: str, space: str) -> bool:
    """Each (alpha, beta) cell is the mean final archive HV of its runs.

    Every Beta-CDF or identity run of the grid side must land in a cell.
    """

    def instance(name: str) -> str:
        return f"{problem}__s:{name}__o:id" if space == "search" else f"{problem}__s:id__o:{name}"

    side, other = (1, 2) if space == "search" else (2, 1)  # in problem__s:X__o:Y
    grid = set()
    for r in rows:
        fields = r["instance"].split("__")
        if (r["algorithm"] == algo and fields[0] == problem and fields[other][2:] == "id"
                and fields[side][2:].startswith(("bcdf-", "id"))):
            grid.add(r["instance"])
    lines = path.read_text(encoding="utf-8").splitlines()
    betas = [float(b) for b in lines[0].split(",")[1:]]
    ok, seen = len(lines) > 1, set()
    for line in lines[1:]:
        alpha_text, *cells = line.split(",")
        alpha = float(alpha_text)
        for beta, cell in zip(betas, cells):
            names = [f"bcdf-a{alpha:g}-b{beta:g}"] + (["id"] if (alpha, beta) == (1, 1) else [])
            wanted = {instance(n) for n in names}
            hvs = [r["final_archive_hv"] for r in rows
                   if r["instance"] in wanted and r["algorithm"] == algo]
            seen |= wanted & grid
            if not hvs:
                ok &= cell == "NA"
            else:
                ok &= cell != "NA" and _close(float(cell), float(np.mean(hvs)))
    return ok and seen == grid


def check_over_time(path: Path, rows: list[dict], problem: str, transform: str) -> bool:
    """Seed series are the runs.csv checkpoint rows; the mean series their mean."""
    with path.open(encoding="utf-8") as fh:
        recs = list(csv.DictReader(fh))
    runs = [r for r in rows if r["instance"] == f"{problem}__{transform}"]
    series: dict[tuple, dict[int, float]] = {}
    for rec in recs:
        key = (rec["algorithm"], int(rec["population"]), rec["series"])
        series.setdefault(key, {})[int(rec["eval"])] = float(rec["hv"])
    expected_keys = {(r["algorithm"], r["population"], f"seed{r['seed']}") for r in runs}
    expected_keys |= {(r["algorithm"], r["population"], "mean") for r in runs}
    if not runs or set(series) != expected_keys:
        return False
    ok = True
    for r in runs:
        got = series[(r["algorithm"], r["population"], f"seed{r['seed']}")]
        ok &= got == dict(zip(r["checkpoint_evals"], r["checkpoint_hvs"]))
    for algo, pop, name in expected_keys:
        if name != "mean":
            continue
        members = [r for r in runs if (r["algorithm"], r["population"]) == (algo, pop)]
        for i, ev in enumerate(members[0]["checkpoint_evals"]):
            mean = float(np.mean([m["checkpoint_hvs"][i] for m in members]))
            ok &= _close(series[(algo, pop, name)][ev], mean)
    return ok


# --- one output directory --------------------------------------------------


def load_sidecars(out_dir: Path) -> list[tuple[Path, dict]]:
    return [
        (p.with_suffix(".log"), json.loads(p.read_text(encoding="utf-8")))
        for p in sorted((out_dir / "runs").glob("*.json"))
    ]


def check_run_dir(out_dir: Path, jobs: int, tally: "Tally") -> None:
    """Check every raw log of a `mobench run` output directory and runs.csv.

    The number of checks depends only on the directory's job list.
    """
    tally.record("log_count", len(list((out_dir / "runs").glob("*.log"))) == jobs)
    tally.record("no_errors_csv", not (out_dir / "errors.csv").exists())
    rows = {(r["instance"], r["algorithm"], r["population"], r["seed"]): r
            for r in read_runs_csv(out_dir / "runs.csv")}
    fronts: dict[str, list[np.ndarray]] = {}
    per_run = []
    for log_path, meta in load_sidecars(out_dir):
        lines = read_log(log_path)
        dim = int(meta["problem"].rsplit("-d", 1)[1])
        tally.record("log_lines", check_log_lines(lines, meta["budget"]))
        obj = log_objectives(lines)
        x_seen = None
        if meta["algorithm"] == "random_search":
            x_seen = regenerate_x(meta["seed"], meta["budget"], dim)
        tally.record("log_numbers", check_log_numbers(lines, dim, x_seen), known_fault=True)
        tally.record("f_seen", check_f_seen(obj, meta["objective_t"]))
        if x_seen is not None and meta["problem"] in RECOMPUTED_PROBLEMS:
            tally.record("f_orig", check_f_orig(obj, meta["problem"], meta["search_t"], x_seen))
        front = nondominated(obj[:, 2:])
        fronts.setdefault(meta["problem"], []).append(front)
        key = (meta["instance"], meta["algorithm"], meta["population"], meta["seed"])
        per_run.append((meta["problem"], front, rows.pop(key, None)))
    boxes = {problem: box_of(fs) for problem, fs in fronts.items()}
    for problem, front, row in per_run:
        tally.record(
            "archive_hv",
            row is not None and normalized_hv(front, *boxes[problem]) == row["final_archive_hv"],
        )
        tally.record("checkpoints", row is not None and check_checkpoints(row))
    tally.record("runs_csv_rows", not rows)


def check_reports(out_dir: Path, reports: list[list[str]], tally: "Tally") -> None:
    """Check the files written by `mobench report` calls with these arguments."""
    rows = read_runs_csv(out_dir / "runs.csv")
    for report in reports:
        opts = dict(zip(report[::2], report[1::2]))
        kind = opts["--kind"]
        if kind == "relative":
            ok = check_relative(out_dir / "reports" / "relative_hv.csv")
        elif kind == "ab-heatmap":
            name = f"ab_heatmap_{opts['--problem']}_{opts['--algo']}_{opts['--space']}.csv"
            ok = check_heatmap(out_dir / "reports" / name, rows, opts["--problem"],
                               opts["--algo"], opts["--space"])
        else:
            name = f"hv_over_time_{opts['--problem']}.csv"
            ok = check_over_time(out_dir / "reports" / name, rows, opts["--problem"],
                                 opts["--transform"])
        tally.record(f"report_{kind}", ok)


class Tally:
    """Counts checks; a failure of a known program fault is not a wrong output."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    def record(self, name: str, ok: bool, known_fault: bool = False) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if not known_fault:
                self.wrong.append(name)


def main(argv: list[str]) -> int:
    """Check output directories in a process of its own; print the tally as JSON.

    Usage: checks.py PARTS_JSON, a list of {"dir", "jobs", "reports"} objects.
    """
    tally = Tally()
    for part in json.loads(argv[0]):
        out_dir = Path(part["dir"])
        check_run_dir(out_dir, part["jobs"], tally)
        check_reports(out_dir, part["reports"], tally)
    print(json.dumps(tally.__dict__))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
