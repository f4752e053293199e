"""Self-tests of the benchmark: ``python3 -m pytest benchmarks``."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import generate  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

mm = run.import_mmcast()


def golden(name: str) -> dict:
    return json.loads((HERE / "golden" / f"{name}.json").read_text())


def fixture_entry(name: str, **golden_changes) -> dict:
    """The F2 fixture as an instance of workload ``name``."""
    entry = dict(golden("code")["fixture"], **{"class": "fixture", "seed": None, "run_seed": 7})
    entry["golden"] = dict(entry["golden"], **golden_changes)
    return entry


def run_pass(name: str, entry: dict, tracer=None) -> run.Pass:
    doc = run.document(entry)
    p = run.Pass(mm, WORKLOADS[name], tracer)
    if tracer:
        tracer.install()
    try:
        p.run([entry], [doc], [mm.load_instance(doc)])
    finally:
        if tracer:
            tracer.uninstall()
    return p


def errors_of(name: str, p: run.Pass) -> list:
    return [e for entry, instance, oracle, results in p.records
            for e in run.check(mm, WORKLOADS[name], entry, instance, oracle, results)]


def test_generator_is_deterministic_per_seed():
    params = dict(n_sources=7, n_clients=3, max_capacity=8, half_integral=True, q=3)
    a = generate.instance_doc(random.Random("s:1"), **params)
    assert a == generate.instance_doc(random.Random("s:1"), **params)
    assert a != generate.instance_doc(random.Random("s:2"), **params)
    assert generate.digest(a) == generate.digest(json.loads(json.dumps(a)))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_golden_pools_regenerate_and_selection_follows_the_seed(name):
    data = golden(name)
    for entry in data["pool"]:
        run.document(entry)     # raises if the generator drifted from the golden digest
    workload = WORKLOADS[name]
    first = run.select(workload, data, 1)
    assert first == run.select(workload, data, 1)
    assert any(run.select(workload, data, s) != first for s in range(2, 6))
    assert len(first) == sum(c.draw for c in workload.classes) + ("fixture" in data)


def test_golden_answers_pass_and_a_perturbed_golden_value_fails():
    assert errors_of("exact-lp", run_pass("exact-lp", fixture_entry("exact-lp"))) == []
    p = run_pass("exact-lp", fixture_entry("exact-lp", exact_cost="12"))
    assert len(errors_of("exact-lp", p)) == 1

    instance, oracle, _ = mm.load_instance(fixture_entry("feas-large")["doc"])
    sub = mm.client_subproblem(instance, oracle, "t1")
    single = str(mm.solve_single_client_bruteforce(
        sub, oracle, instance.costs(), instance.capacities()).cost)
    p = run_pass("feas-large", fixture_entry("feas-large", single_cost_t1=single))
    assert errors_of("feas-large", p) == []
    clients = dict(fixture_entry("feas-large")["golden"]["clients"])
    clients["t2"] = dict(clients["t2"], witness=["m1"])
    p = run_pass("feas-large", fixture_entry("feas-large", single_cost_t1=single, clients=clients))
    assert len(errors_of("feas-large", p)) == 1
    p = run_pass("feas-large", fixture_entry("feas-large", single_cost_t1=single + "/2"))
    assert len(errors_of("feas-large", p)) == 1

    p = run_pass("code", fixture_entry("code"))
    assert errors_of("code", p) == []
    p.records[0][3]["w"] = [x + 1 for x in p.records[0][3]["w"]]
    assert len(errors_of("code", p)) == 1


def test_traced_answers_equal_untraced_answers_and_tracer_restores_bindings():
    originals = (mm.feasibility.cut_capacity, mm.feasibility.sfm_brute_force,
                 mm.single_client.sfm_brute_force, mm.lp.SimplexSolver.solve)
    tracer = Tracer()
    tracer.install()
    try:
        bound = tracer.bindings()
        for binding in ("mmcast.feasibility.cut_capacity", "mmcast.feasibility.sfm_brute_force",
                        "mmcast.single_client.sfm_brute_force", "mmcast.model.cut_capacity"):
            assert binding in bound
    finally:
        tracer.uninstall()
    assert originals == (mm.feasibility.cut_capacity, mm.feasibility.sfm_brute_force,
                         mm.single_client.sfm_brute_force, mm.lp.SimplexSolver.solve)

    entry = fixture_entry("code")
    untraced = run_pass("code", entry)
    tracer = Tracer()
    traced = run_pass("code", entry, tracer)
    assert traced.answers == untraced.answers
    layer = tracer.layer_metrics()
    assert layer["multi_client.exact_rows"] > 0 and layer["gf.inverse.calls"] == 2
    assert layer["submodular.masks_scanned"] > 0 and layer["netcode.channels"] > 0
    assert len(tracer.span_name) == sum(tracer.calls.values())


def test_latency_summary_picks_highest_percentile_with_ten_samples_beyond():
    assert run.latency_summary(list(range(19))) == {"n": 19, "median_s": 9}
    summary = run.latency_summary(list(range(100)))
    assert summary["p90_s"] == 89 and "p99_s" not in summary


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "code",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
