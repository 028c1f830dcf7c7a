"""Golden outputs: raw logs, sidecars and runs.csv of fixed jobs, byte for byte.

The hashes pin the exact output of a small job set that covers every
algorithm at populations 10 and 100, the identity, a sphered rotation, a
Beta-CDF search warp and a Beta-CDF objective warp, d=2 and d=10, and a
truncated last NSGA-II generation. A change that alters any of these bytes
on purpose must say so, bump the version and update the hashes here.
"""

import hashlib

from mobench.algorithms import AlgoConfig
from mobench.harness import Job, compute_boxes, compute_run_rows, emit_runs_csv, execute
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
        "71ffd84a8a01afe7afea0d5c861c5fe48d95d49b69ea84dff2f3dd72b6a0aa73",
    "dtlz1-d2__s:id__o:bcdf-a2-b0.5__moead__p10__s12.json":
        "ce0c9324edbd9652af13a28ed0ea9f78a017a2161fde7de23b73d872f79b663f",
    "dtlz1-d2__s:id__o:bcdf-a2-b0.5__moead__p10__s12.log":
        "1dfcb7b2509b55a97eeb4632156815a329aea25c58667d81025e84f6e67d31ce",
    "dtlz1-d2__s:id__o:bcdf-a2-b0.5__nsga2__p10__s6.json":
        "e532653dc50a294ea1ec1976db16d3fc21a5d7e5d1f3fde514d0e42f358c171f",
    "dtlz1-d2__s:id__o:bcdf-a2-b0.5__nsga2__p10__s6.log":
        "381e97d3da67359b24bd5c3274d84a54c80712bf79302bc0f5a03ceecb47ff75",
    "dtlz1-d2__s:id__o:bcdf-a2-b0.5__random_search__p100__s2.json":
        "f517be0d0a32fb637a895d31974f7b4db44a4d56df315cfcfcc94d57ec61f14d",
    "dtlz1-d2__s:id__o:bcdf-a2-b0.5__random_search__p100__s2.log":
        "02b8152526a1f16045ebac3be80fbb755a0c7896245273aa89eab55efff67306",
    "dtlz1-d2__s:id__o:bcdf-a2-b0.5__smsemoa__p10__s7.json":
        "b43d984948065ca1da122d39ab0302c94be5f530eee39602b26cdceb95ec83a6",
    "dtlz1-d2__s:id__o:bcdf-a2-b0.5__smsemoa__p10__s7.log":
        "292d2f64660e66e4fb3bcf0e95b203d9055d191a9be9040b534c5a762318c8ae",
    "dtlz1-d2__s:rot-seed3__o:id__nsga2__p100__s5.json":
        "5645a867dcebdbef6a6c5f87f5030c8260d7c98eb5c65fde3b129f7a881936c2",
    "dtlz1-d2__s:rot-seed3__o:id__nsga2__p100__s5.log":
        "dbfc49c7e77f9a0e24614a1e9bfd5d27273baf10ffcf2cd66049467409a374e4",
    "zdt1-d10__s:rot-seed3__o:id__random_search__p10__s3.json":
        "c3881bc7db113758601dffeb174f9262ba7b21ae7d974c9412d66d8d25769ab7",
    "zdt1-d10__s:rot-seed3__o:id__random_search__p10__s3.log":
        "73a3be8240c6d2813eb6ea0979d1f3b32d2df5553309a90c240a21cd692d3ae0",
    "zdt3-d2__s:bcdf-a0.5-b2__o:id__nsga2__p10__s4.json":
        "18fb0c8fa33f7d730027ea62494c60e38e17be84582d2f50f6014722873036ab",
    "zdt3-d2__s:bcdf-a0.5-b2__o:id__nsga2__p10__s4.log":
        "c0bfcb4c5d621950efd94f1c3cc79d46a30d86bbf1be8be81f23703579738b61",
    "zdt3-d2__s:bcdf-a0.5-b2__o:id__smsemoa__p10__s9.json":
        "1853132e2273e91310a951f78310d4a49e537c5c70bebc7e15cbb3ebc2d929dc",
    "zdt3-d2__s:bcdf-a0.5-b2__o:id__smsemoa__p10__s9.log":
        "0aba0a0b612e31fee19be0d599495e17dcbf0a18f0355461e7241cd014431166",
    "zdt3-d2__s:id__o:id__random_search__p10__s1.json":
        "49446a3ba2be029837091b11b48751a0a5835b3c13f525577623f14fa7a8b5be",
    "zdt3-d2__s:id__o:id__random_search__p10__s1.log":
        "ae597fe1422c9239f04f1ddaa750809dfd1ccdf2629e4e9e8302c4bdfff7c3e3",
    "zdt3-d2__s:rot-seed3__o:id__moead__p10__s10.json":
        "47890428ec161906406e55ee9c235f99138e069b74df658f2b04be7313165b51",
    "zdt3-d2__s:rot-seed3__o:id__moead__p10__s10.log":
        "b6c3717ed554a297c2173c3907bbd2332a295ecf277d2a35e73e2b407c298bfa",
    "zdt3-d2__s:rot-seed3__o:id__smsemoa__p100__s8.json":
        "5b6da708b275c627387c8d98f610ecfda04056cb5030f5ccf0a8e3d819086230",
    "zdt3-d2__s:rot-seed3__o:id__smsemoa__p100__s8.log":
        "0a2d72a0cef24b7c9af1550f332470a72168d45ff492350e4422d97e55edd4dc",
}

RUNS_CSV_SHA256 = "df62a6beee1985f15ab7016bc60e1a0205b697f0b78bd9cb52c56f5fc2f6faad"


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


def test_golden_outputs(tmp_path):
    summaries = execute(golden_jobs(), output_dir=str(tmp_path))
    assert [s.error for s in summaries] == [None] * len(GOLDEN_JOBS)
    runs_csv = emit_runs_csv(
        compute_run_rows(summaries, compute_boxes(summaries)), tmp_path / "runs.csv"
    )
    got = {p.name: _sha256(p) for p in sorted((tmp_path / "runs").iterdir())}
    assert got == GOLDEN_SHA256
    assert _sha256(runs_csv) == RUNS_CSV_SHA256
