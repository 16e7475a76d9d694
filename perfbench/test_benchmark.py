"""Tests of the benchmark's own checkers, tracer and metric catalogue.

Run from the repository root:  PYTHONPATH=src python -m pytest perfbench
"""

import json
import math
import os

import numpy as np
import pytest
from scipy.integrate import quad

import ladder
import layers
import oracles
import run
import workloads
from oracles import CERTIFIED, FAILED, INCONCLUSIVE
from sumkit import methods

HERE = os.path.dirname(os.path.abspath(__file__))


def test_judge_rejects_a_certified_value_outside_the_tolerance():
    # summability_limit(logarithmic) on 0.5 + (1-t)^2 sin(40 t) at depth 20
    # returned converged at 0.50177 with tol 1e-3
    assert oracles.judge("converged", 0.50177, 0.5, 1e-3) == FAILED
    assert oracles.judge("converged", 0.5009, 0.5, 1e-3) == CERTIFIED
    assert oracles.judge("pass", [1.0, 2.0 + 1e-3j], [1.0, 2.0], 1e-3) == CERTIFIED
    assert oracles.judge("converged", [1.0, 2.0 + 2e-3j], [1.0, 2.0], 1e-3) == FAILED
    assert oracles.judge("inconclusive", None, 0.5, 1e-3) == INCONCLUSIVE
    assert oracles.judge("diverged", None, 0.5, 1e-3) == FAILED


@pytest.mark.parametrize("r", [0.5, 0.99])
def test_log_mean_multiplier_closed_form_matches_its_integral(r):
    lam = oracles.log_mean_multipliers(r, 6)
    for k in range(7):
        integral, _ = quad(lambda t: t**k / (1 - t), 0, r, epsabs=0, epsrel=1e-13, limit=200)
        assert lam[k] == pytest.approx(integral / -math.log1p(-r), abs=1e-13)


def test_zeta_norms():
    # zeta(4) = pi^4 / 90 and zeta(2) = pi^2 / 6, within the oracle's own tolerance
    h2 = oracles.power_norm("h2", 1.0, 2.0)
    assert oracles.relative_match(h2, math.pi**2 / math.sqrt(90.0), oracles.ZETA_RTOL)
    wiener = oracles.power_norm("wiener", -2.0, 2.0)
    assert oracles.relative_match(wiener, 2.0 * math.pi**2 / 6.0, oracles.ZETA_RTOL)


def test_distance_check_rejects_a_perturbed_distance():
    op = workloads._distance_op("h2", 1.3, 0.8, 1.0 - 2.0**-6)
    ref = oracles.log_mean_distance("h2", 1.3, 0.8, 1.0 - 2.0**-6)
    assert op.check(op.run())[0] == CERTIFIED
    assert op.check(ref)[0] == CERTIFIED
    assert op.check(ref + 10 * oracles.DISTANCE_TOL)[0] == FAILED


def test_disk_grid_reference_is_the_wiener_distance():
    op = workloads._distance_op("disk_grid", 1.0, 0.5, 0.75)
    assert op.check(op.run())[0] == CERTIFIED


def test_shipped_report_check_rejects_wrong_verdicts_and_cells():
    regular = {"id": "logarithmic-st", "kind": "check_regularity", "status": "completed",
               "overall": "RegularEvidence"}
    assert workloads.check_report({"experiments": [regular]})[0] == CERTIFIED
    flipped = dict(regular, overall="NotRegular")
    assert workloads.check_report({"experiments": [regular, flipped]})[0] == FAILED
    undecided = dict(regular, overall="Inconclusive")
    assert workloads.check_report({"experiments": [undecided]})[0] == INCONCLUSIVE

    r = 1.0 - 2.0**-5
    cell = oracles.log_mean_distance("h2", 1.0, 0.5, r)
    taylor = {"id": "taylor-h2-log-mean", "kind": "taylor", "status": "completed",
              "chain": ["log_mean"], "route": "decay-trend", "cells": [[str(r), cell]]}
    assert workloads.check_report({"experiments": [taylor]})[0] == CERTIFIED
    bent = dict(taylor, cells=[[str(r), cell * (1 + 1e-6)]])
    assert workloads.check_report({"experiments": [bent]})[0] == FAILED


def test_limit_check_on_a_dense_source():
    counter = {}
    L, u, rho = workloads.dense_inputs(np.random.default_rng(3))[1]   # |rho| = 0.9
    src = workloads.dense_source(L, u, rho, counter)
    est = methods.summability_limit(methods.cesaro_method(), src, depth=12, tol=1e-3)
    assert workloads._limit_check(L)(est)[0] == CERTIFIED
    assert workloads._limit_check(L + 2e-3)(est)[0] == FAILED
    assert counter["dense"] > 0


def test_tracer_restores_every_attribute_and_computes_self_time():
    targets = layers._targets(layers.Tracer())
    before = [getattr(owner, attr) for owner, attr, _ in targets]
    src = methods.scalar_sequence(lambda n: (1.0 + (-1.0) ** n) / 2.0)
    with layers.traced() as tracer:
        assert methods.transform_at is not before[[a for _, a, _ in targets].index("transform_at")]
        methods.summability_limit(methods.cesaro_method(), src, depth=6, tol=1e-3)
    assert [getattr(owner, attr) for owner, attr, _ in targets] == before
    assert tracer.calls["methods.summability_limit"] == 1
    assert tracer.calls["methods.transform_at.matrix"] == 12
    assert tracer.calls["domains.estimate_limit"] == 1
    total = tracer.total["methods.summability_limit"]
    children = tracer.total["methods.transform_at.matrix"] + tracer.total["domains.estimate_limit"]
    assert tracer.self_time["methods.summability_limit"] == pytest.approx(total - children)
    assert tracer.top == pytest.approx(total)


def test_ladder_worker_is_waited_for_when_stopped_or_killed():
    env = run._child_env()
    worker = ladder._Worker(env)
    worker.send("abel", 12)
    assert worker.receive(60.0)["reached"]
    worker.stop()
    assert worker.proc.returncode == 0

    worker = ladder._Worker(env)
    worker.send("taylor_h2", 3.0)          # runs far longer than the budget
    assert worker.receive(0.05) is None
    worker.kill()
    assert worker.proc.returncode is not None


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(m) for m in layers.PER_LAYER]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        [tuple(m) for m in run.END_TO_END]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
