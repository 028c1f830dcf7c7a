"""Golden outputs: raw logs, sidecars, runs.csv and reports of fixed jobs, byte for byte.

The hashes pin the exact output of a small job set that covers every
algorithm at populations 10 and 100, the identity, a sphered rotation, a
Beta-CDF search warp and a Beta-CDF objective warp, d=2 and d=10, and a
truncated last NSGA-II generation. A change that alters any of these bytes
on purpose must say so, bump the version and update the hashes here.
"""

import hashlib

import pytest

from mobench.algorithms import AlgoConfig
from mobench.cli import main as cli_main
from mobench.harness import Job, compute_run_rows, emit_runs_csv, execute
from mobench.instance import ProblemInstance
from mobench.problems import parse_problem_id
from mobench.transforms import TransformSpec

IDENTITY = {"kind": "identity"}
ROTATION = {"kind": "sphered_rotation", "seed": 3}
SEARCH_BETA = {"kind": "beta_cdf", "alpha": 0.5, "beta": 2.0}
OBJECTIVE_BETA = {"kind": "beta_cdf", "alpha": 2.0, "beta": 0.5}

# (problem, search, objective, algorithm, population, budget, seed)
GOLDEN_JOBS = [
    ("zdt3-d2", IDENTITY, IDENTITY, "random_search", 10, 300, 1),
    ("dtlz1-d2", IDENTITY, OBJECTIVE_BETA, "random_search", 100, 300, 2),
    ("zdt1-d10", ROTATION, IDENTITY, "random_search", 10, 300, 3),
    ("zdt3-d2", SEARCH_BETA, IDENTITY, "nsga2", 10, 255, 4),
    ("dtlz1-d2", ROTATION, IDENTITY, "nsga2", 100, 300, 5),
    ("dtlz1-d2", IDENTITY, OBJECTIVE_BETA, "nsga2", 10, 300, 6),
    ("dtlz1-d2", IDENTITY, OBJECTIVE_BETA, "smsemoa", 10, 300, 7),
    ("zdt3-d2", ROTATION, IDENTITY, "smsemoa", 100, 300, 8),
    ("zdt3-d2", SEARCH_BETA, IDENTITY, "smsemoa", 10, 300, 9),
    ("zdt3-d2", ROTATION, IDENTITY, "moead", 10, 300, 10),
    ("dtlz1-d2", SEARCH_BETA, IDENTITY, "moead", 100, 300, 11),
    ("dtlz1-d2", IDENTITY, OBJECTIVE_BETA, "moead", 10, 300, 12),
]

GOLDEN_SHA256 = {
    "dtlz1-d2__s:bcdf-a0.5-b2__o:id__moead__p100__s11.json":
        "47719227f155da207e6ba3bce2b293b2737dadd647d86f58f8dfa9df64da13cb",
    "dtlz1-d2__s:bcdf-a0.5-b2__o:id__moead__p100__s11.log":
        "c6059bf6ea4f0e14babaecea7edd5e159da35844357bd445b5ebf005ace7034c",
    "dtlz1-d2__s:id__o:bcdf-a2-b0.5__moead__p10__s12.json":
        "ce0c9324edbd9652af13a28ed0ea9f78a017a2161fde7de23b73d872f79b663f",
    "dtlz1-d2__s:id__o:bcdf-a2-b0.5__moead__p10__s12.log":
        "1dfcb7b2509b55a97eeb4632156815a329aea25c58667d81025e84f6e67d31ce",
    "dtlz1-d2__s:id__o:bcdf-a2-b0.5__nsga2__p10__s6.json":
        "e532653dc50a294ea1ec1976db16d3fc21a5d7e5d1f3fde514d0e42f358c171f",
    "dtlz1-d2__s:id__o:bcdf-a2-b0.5__nsga2__p10__s6.log":
        "31bf9e7e0e4b0523c67c5385aa41be9cb9acc7945c1ca3f9846fdfc0dd35dbb2",
    "dtlz1-d2__s:id__o:bcdf-a2-b0.5__random_search__p100__s2.json":
        "f517be0d0a32fb637a895d31974f7b4db44a4d56df315cfcfcc94d57ec61f14d",
    "dtlz1-d2__s:id__o:bcdf-a2-b0.5__random_search__p100__s2.log":
        "bf67c0bd8897709c7d6436d4a574967f41f008d63032a1171540d7e5210f21a8",
    "dtlz1-d2__s:id__o:bcdf-a2-b0.5__smsemoa__p10__s7.json":
        "b43d984948065ca1da122d39ab0302c94be5f530eee39602b26cdceb95ec83a6",
    "dtlz1-d2__s:id__o:bcdf-a2-b0.5__smsemoa__p10__s7.log":
        "292d2f64660e66e4fb3bcf0e95b203d9055d191a9be9040b534c5a762318c8ae",
    "dtlz1-d2__s:rot-seed3__o:id__nsga2__p100__s5.json":
        "b77a7305828214df96a446d84be501dbef6912e276a05bf59c596fd95b460fc8",
    "dtlz1-d2__s:rot-seed3__o:id__nsga2__p100__s5.log":
        "a38a0277de9e9d74b96fb8cf6dce8cbcd65c89612668fa289c6c8073e3243254",
    "zdt1-d10__s:rot-seed3__o:id__random_search__p10__s3.json":
        "9e87040521156a5a508626974311dc5eb7f4d2e2013ae87f36509006493b14a8",
    "zdt1-d10__s:rot-seed3__o:id__random_search__p10__s3.log":
        "33b7c27e35dfc3ae284b30376e4ebd43c3fc9023b300540b164d00ff9e1d091f",
    "zdt3-d2__s:bcdf-a0.5-b2__o:id__nsga2__p10__s4.json":
        "18fb0c8fa33f7d730027ea62494c60e38e17be84582d2f50f6014722873036ab",
    "zdt3-d2__s:bcdf-a0.5-b2__o:id__nsga2__p10__s4.log":
        "aff73573c539cf3c356e381b7a02f704e0554bf473005007ad3297db34457b0e",
    "zdt3-d2__s:bcdf-a0.5-b2__o:id__smsemoa__p10__s9.json":
        "1853132e2273e91310a951f78310d4a49e537c5c70bebc7e15cbb3ebc2d929dc",
    "zdt3-d2__s:bcdf-a0.5-b2__o:id__smsemoa__p10__s9.log":
        "0aba0a0b612e31fee19be0d599495e17dcbf0a18f0355461e7241cd014431166",
    "zdt3-d2__s:id__o:id__random_search__p10__s1.json":
        "49446a3ba2be029837091b11b48751a0a5835b3c13f525577623f14fa7a8b5be",
    "zdt3-d2__s:id__o:id__random_search__p10__s1.log":
        "ae597fe1422c9239f04f1ddaa750809dfd1ccdf2629e4e9e8302c4bdfff7c3e3",
    "zdt3-d2__s:rot-seed3__o:id__moead__p10__s10.json":
        "e8f5827cd2db1cdcb9c269f21472d1401dbf3b982409bbc0ee1b35b30e0eb29f",
    "zdt3-d2__s:rot-seed3__o:id__moead__p10__s10.log":
        "70ed00bdee40e9a2476ad252afb3f62af957c689be8f275a627aef5fc33143aa",
    "zdt3-d2__s:rot-seed3__o:id__smsemoa__p100__s8.json":
        "b3372bddc1d31edce74ad019c113bda0bdff15bed8c372e0ccd6740dea59e5dd",
    "zdt3-d2__s:rot-seed3__o:id__smsemoa__p100__s8.log":
        "04374e16f452998a9cc5d92e1d159b957362eefd0a75243f9f4631f2a9e44057",
}

RUNS_CSV_SHA256 = "987d1ae1f773573a80e79161304c465def5ff094e6248386486325076c86388e"

# the reports the golden runs support; the relative report needs identity
# base runs for every (problem, algorithm, population), which the set lacks
REPORT_ARGS = {
    "hv_over_time_zdt3-d2.csv":
        ["over-time", "--problem", "zdt3-d2", "--transform", "s:rot-seed3__o:id"],
    "ab_heatmap_zdt3-d2_nsga2_search.csv":
        ["ab-heatmap", "--problem", "zdt3-d2", "--algo", "nsga2", "--space", "search"],
    "ab_heatmap_dtlz1-d2_moead_objective.csv":
        ["ab-heatmap", "--problem", "dtlz1-d2", "--algo", "moead", "--space", "objective"],
}
REPORT_SHA256 = {
    "hv_over_time_zdt3-d2.csv":
        "9c48156aed3b4807b291f449af2f4cef29be2e7d61d7ae338397d1a70b27ef14",
    "ab_heatmap_zdt3-d2_nsga2_search.csv":
        "aa64c66d00bef34506e2d047142e9340701dfe8bc920126ed2b6e2641b816b95",
    "ab_heatmap_dtlz1-d2_moead_objective.csv":
        "ca02ba5d960ca306fa0126c215332c36b83596a967807cae6d62590313b9efb6",
}


def golden_jobs() -> list[Job]:
    jobs = []
    for problem, search, objective, name, population, budget, seed in GOLDEN_JOBS:
        pid = parse_problem_id(problem)
        inst = ProblemInstance(
            pid,
            TransformSpec.from_config(search, dim=pid.dim),
            TransformSpec.from_config(objective, dim=pid.dim),
        )
        jobs.append(Job(inst, AlgoConfig(name, population, budget, seed)))
    return jobs


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    summaries = execute(golden_jobs(), output_dir=str(out))
    assert [s.error for s in summaries] == [None] * len(GOLDEN_JOBS)
    emit_runs_csv(compute_run_rows(summaries), out / "runs.csv")
    return out


def test_golden_outputs(golden_dir):
    got = {p.name: _sha256(p) for p in sorted((golden_dir / "runs").iterdir())}
    assert got == GOLDEN_SHA256
    assert _sha256(golden_dir / "runs.csv") == RUNS_CSV_SHA256


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_golden_reports(golden_dir, name):
    argv = ["report", "--in", str(golden_dir), "--kind", *REPORT_ARGS[name]]
    assert cli_main(argv) == 0
    assert _sha256(golden_dir / "reports" / name) == REPORT_SHA256[name]
