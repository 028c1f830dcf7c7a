"""The tracer wraps every binding of a public function and restores them all."""

import importlib

import numpy as np

import tracer
from mobench import AlgoConfig, ProblemInstance, TransformSpec
from mobench.problems import parse_problem_id


def _bindings():
    mods = [importlib.import_module("mobench")] + [
        importlib.import_module(f"mobench.{m}") for m in tracer.BINDERS
    ]
    snap = {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}
    snap[("ParetoArchive", "insert")] = importlib.import_module(
        "mobench.indicators").ParetoArchive.insert
    return snap


def test_install_wraps_every_binding_and_restore_puts_them_back():
    before = _bindings()
    t = tracer.Tracer()
    t.install()
    try:
        during = _bindings()
        changed = {key for key in before if during[key] is not before[key]}
        # the same function under each module that binds it
        for key in [("mobench.transforms", "apply_forward"), ("mobench.instance", "apply_forward"),
                    ("mobench.indicators", "apply_forward"), ("mobench", "apply_forward"),
                    ("mobench.harness", "run_algorithm"), ("mobench.cli", "expand_matrix"),
                    ("ParetoArchive", "insert")]:
            assert key in changed
        assert during[("mobench.instance", "apply_forward")] is during[
            ("mobench.transforms", "apply_forward")]
        # private helpers are left alone
        assert ("mobench.transforms", "_warp") not in changed
    finally:
        t.restore()
    after = _bindings()
    assert all(after[key] is before[key] for key in before)
    assert t._saved == []


def test_counts_calls_work_and_self_time():
    from mobench import algorithms

    t = tracer.Tracer()
    t.install()
    try:
        inst = ProblemInstance(parse_problem_id("dtlz1-d2"), TransformSpec.beta_cdf(0.5, 2.0),
                               TransformSpec.identity())
        algorithms.run_algorithm(inst, AlgoConfig("random_search", 10, 40, seed=1))
    finally:
        t.restore()
    s = t.stats
    assert s["algorithms.run.random_search.p10"]["calls"] == 1
    assert s["instance.evaluate_instance_batch"]["points"] == 40
    assert s["problems.evaluate"]["calls"] == 40
    assert s["transforms.apply_forward"]["points"] == 40
    assert s["specfun.reg_inc_beta"]["values"] == 80
    assert s["indicators.ParetoArchive.insert"]["calls"] == 40
    assert 1 <= s["indicators.ParetoArchive.insert"]["accepted"] <= 40
    batch = s["instance.evaluate_instance_batch"]
    assert 0 < batch["self_s"] < batch["s"]
    assert np.isclose(
        batch["s"] - batch["self_s"],
        s["transforms.apply_forward"]["s"] + s["problems.evaluate"]["s"],
        rtol=1e-9,
    )
