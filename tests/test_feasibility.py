import json
import random
from fractions import Fraction

import pytest

from helpers import (FIXTURE_F2, chain_instance, random_instance_doc, single_edge_instance,
                     slack_function, tabular_from_oracle)
from mmcast import load_instance
from mmcast.errors import Infeasible, ReconstructabilityViolated
from mmcast.feasibility import check_feasible_multi, check_feasible_single, enumerate_feasibility
from mmcast.model import boundary_vector, client_subproblem
from mmcast.multi_client import (solve_multi_bruteforce, solve_multi_exact,
                                 solve_multi_subgradient)
from mmcast.single_client import solve_single_client
from mmcast.submodular import conditional_entropy_function, in_base_polyhedron


def test_fixture_t2_feasible_with_expected_subset_slack(f2):
    instance, oracle, _ = f2
    sub = client_subproblem(instance, oracle, "t2")
    cert = check_feasible_single(sub, oracle, instance.capacities())
    assert cert.feasible
    # the pair {m1, m2} has cut c(e2)+c(e3)=8 against requirement 3
    f = slack_function(sub, oracle, instance.capacities())
    assert f(("m1", "m2")) == 5
    # the binding subset is the whole reachable set (sink cut = entropy)
    assert set(cert.witness_set) == {"m1", "m2", "m4"}
    assert cert.slack == 0


def test_chain_zero_capacity_infeasible():
    instance, oracle, _ = load_instance(chain_instance(cap1="0"))
    sub = client_subproblem(instance, oracle, "t")
    cert = check_feasible_single(sub, oracle, instance.capacities())
    assert not cert.feasible
    assert cert.witness_set == ("m1",)
    assert cert.required == 1
    assert cert.cut == 0
    assert cert.deficit == 1


def test_single_source_tight_capacity():
    instance, oracle, _ = load_instance(single_edge_instance(entropy_rows=3, capacity="3"))
    sub = client_subproblem(instance, oracle, "t")
    cert = check_feasible_single(sub, oracle, instance.capacities())
    assert cert.feasible
    assert cert.slack == 0


def test_multi_fixture(f2):
    instance, oracle, _ = f2
    report = check_feasible_multi(instance, oracle)
    assert report.feasible
    assert [c.client for c in report.certificates] == ["t1", "t2"]


def test_multi_sink_cut_infeasible():
    doc = json.loads(FIXTURE_F2.read_text())
    for e in doc["edges"]:
        if e["id"] == "e7":
            e["capacity"] = "3"
    instance, oracle, _ = load_instance(doc)
    report = check_feasible_multi(instance, oracle)
    assert not report.feasible
    cert = report.by_client()["t2"]
    assert not cert.feasible
    assert set(cert.witness_set) == {"m1", "m2", "m4"}
    assert cert.required == 4
    assert report.by_client()["t1"].feasible


def test_multi_requires_reconstructability():
    doc = json.loads(FIXTURE_F2.read_text())
    doc["edges"] = [e for e in doc["edges"] if e["id"] != "e3"]
    instance, oracle, _ = load_instance(doc)
    with pytest.raises(ReconstructabilityViolated):
        check_feasible_multi(instance, oracle)
    for solve in (solve_multi_exact, solve_multi_bruteforce, solve_multi_subgradient):
        with pytest.raises(ReconstructabilityViolated):
            solve(instance, oracle)


def test_agreement_with_enumeration():
    rng = random.Random(79)
    # non-integral capacities: each edge scaled by 1/2, 1/3 or 1/6, drawn from a
    # second stream so that the instances (and the tie at index 144) stay the same
    scale_rng = random.Random(80)
    both = {True: 0, False: 0}
    fractional_infeasible = 0
    for index in range(150):
        instance, oracle, _ = load_instance(random_instance_doc(rng))
        scaled = {e: c * scale_rng.choice((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
                  for e, c in instance.capacities().items()}
        for t in instance.clients:
            sub = client_subproblem(instance, oracle, t)
            fast = check_feasible_single(sub, oracle, instance.capacities())
            slow = enumerate_feasibility(sub, oracle, instance.capacities())
            assert fast.feasible == slow.feasible
            assert fast.slack == slow.slack
            assert fast.witness_set == slow.witness_set
            assert (fast.cut, fast.required) == (slow.cut, slow.required)
            if (index, t) == (144, "t1"):
                # a tie at slack 0 between ("s5",) and the earlier mask of ("s1", "s2")
                assert slow.witness_set == ("s5",) and slow.slack == 0
            both[fast.feasible] += 1
            fast = check_feasible_single(sub, oracle, scaled)
            slow = enumerate_feasibility(sub, oracle, scaled)
            assert fast.feasible == slow.feasible
            assert fast.slack == slow.slack
            assert fast.witness_set == slow.witness_set
            assert (fast.cut, fast.required) == (slow.cut, slow.required)
            fractional_infeasible += not fast.feasible and fast.slack.denominator > 1
    assert both[True] > 0 and both[False] > 0
    assert fractional_infeasible > 0


def test_certificate_soundness():
    rng = random.Random(83)
    for _ in range(30):
        instance, oracle, _ = load_instance(random_instance_doc(rng))
        t = instance.clients[0]
        sub = client_subproblem(instance, oracle, t)
        cert = check_feasible_single(sub, oracle, instance.capacities())
        f = slack_function(sub, oracle, instance.capacities())
        assert f(cert.witness_set) == cert.slack
        assert cert.slack == cert.cut - cert.required


def test_raising_capacity_keeps_feasible():
    rng = random.Random(89)
    found = 0
    while found < 12:
        instance, oracle, _ = load_instance(random_instance_doc(rng))
        t = instance.clients[0]
        sub = client_subproblem(instance, oracle, t)
        caps = instance.capacities()
        if not check_feasible_single(sub, oracle, caps).feasible:
            continue
        found += 1
        bumped = dict(caps)
        bumped[rng.choice(list(caps))] += Fraction(rng.randint(1, 3))
        assert check_feasible_single(sub, oracle, bumped).feasible


def _unit_costs(sub) -> dict:
    """Unit costs on the client's edges: their optimum is a point in its region and box."""
    return {e.id: 1 for e in sub.edges}


def test_achievable_point_fixture(f2):
    instance, oracle, _ = f2
    sub = client_subproblem(instance, oracle, "t1")
    rates = solve_single_client(sub, oracle, _unit_costs(sub), instance.capacities()).rates
    g = conditional_entropy_function(oracle, sub.sources)
    assert in_base_polyhedron(boundary_vector(rates, sub), g).member
    for e in sub.edges:
        assert 0 <= rates[e.id] <= e.capacity


def test_achievable_point_chain_unique():
    instance, oracle, _ = load_instance(chain_instance(cap1="1", cap2="2"))
    sub = client_subproblem(instance, oracle, "t")
    assert solve_single_client(sub, oracle, _unit_costs(sub), instance.capacities()).rates == {
        "c1": Fraction(1), "c2": Fraction(2)}


def test_achievable_point_single_edge():
    instance, oracle, _ = load_instance(single_edge_instance(entropy_rows=2, capacity="2"))
    sub = client_subproblem(instance, oracle, "t")
    assert solve_single_client(sub, oracle, _unit_costs(sub), instance.capacities()).rates == {
        "e": Fraction(2)}


def test_achievable_point_infeasible_raises():
    instance, oracle, _ = load_instance(chain_instance(cap1="0"))
    sub = client_subproblem(instance, oracle, "t")
    with pytest.raises(Infeasible):
        solve_single_client(sub, oracle, _unit_costs(sub), instance.capacities())


def test_tabular_model_end_to_end(f2):
    # the whole feasibility + optimization path works from a plain entropy table
    from mmcast.entropy import EntropyOracle
    instance, oracle, _ = f2
    tabular = EntropyOracle.from_model(oracle.ground, tabular_from_oracle(oracle))
    report = check_feasible_multi(instance, tabular)
    assert report.feasible
    sub = client_subproblem(instance, tabular, "t2")
    s = solve_single_client(sub, tabular, instance.costs(), instance.capacities())
    assert s.cost == 7


def test_ground_too_large_guard():
    from mmcast.errors import GroundTooLarge
    from helpers import long_chain_doc
    instance, oracle, _ = load_instance(long_chain_doc(21))
    sub = client_subproblem(instance, oracle, "t0")
    with pytest.raises(GroundTooLarge):
        check_feasible_single(sub, oracle, instance.capacities())


def test_feasibility_ranks_once_per_client_not_per_subset(monkeypatch):
    # the entropy tables come from one pass per client; only the
    # reconstructability entropies (all sources, then each client's
    # sources) and at most one further subset per client reach the
    # per-subset LinearSource.entropy
    from mmcast.entropy import LinearSource
    calls = []
    entropy = LinearSource.entropy
    monkeypatch.setattr(LinearSource, "entropy",
                        lambda self, nodes: calls.append(nodes) or entropy(self, nodes))
    instance, oracle, _ = load_instance(random_instance_doc(random.Random(12), n_sources=12,
                                                            n_clients=3))
    report = check_feasible_multi(instance, oracle)
    assert len(report.certificates) == 3
    assert 0 < len(calls) <= 1 + 2 * len(instance.clients)
