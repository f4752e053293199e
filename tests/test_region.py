"""The mask-indexed region tables against their per-subset definitions."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import random_instance_doc, random_pmf_doc, region_cases, tabular_from_oracle
from mmcast import load_instance
from mmcast.entropy import EntropyOracle, LinearSource
from mmcast.errors import Infeasible
from mmcast.feasibility import check_feasible_multi, check_feasible_single
from mmcast.model import ClientSubproblem, Region, boundary, client_subproblem, cut_capacity
from mmcast.multi_client import solve_multi_exact, solve_multi_subgradient
from mmcast.netcode import build_coded_network
from mmcast.single_client import (RegionOptimizer, most_violated, solve_single_client,
                                  solve_single_client_bruteforce)
from mmcast.submodular import SetFunction, members, sfm_brute_force

REFERENCE = Path(__file__).resolve().parent / "data" / "region_reference.json"


def _model_cases():
    """(model kind, instance, oracle, rates) over linear, pmf and tabular sources."""
    for _, instance, oracle, rates in region_cases(7, 25):
        yield "linear", instance, oracle, rates
    for _, instance, oracle, rates in region_cases(8, 4, n_sources=8, max_capacity=8):
        yield "linear", instance, oracle, rates
    for _, instance, oracle, rates in region_cases(9, 15, make_doc=random_pmf_doc):
        yield "pmf", instance, oracle, rates
        tabular = EntropyOracle.from_model(oracle.ground, tabular_from_oracle(oracle))
        yield "tabular", instance, tabular, rates


def _loose(make_doc):
    """``make_doc`` with each edge between two sources dropped at random.

    Every client keeps its edges, so some sources reach it with no edge to another source.
    """
    def make(rng, **kwargs):
        doc = make_doc(rng, **kwargs)
        clients = set(doc["clients"])
        doc["edges"] = [e for e in doc["edges"] if e["head"] in clients or rng.random() < 0.5]
        return doc
    return make


def _loose_cases():
    """:func:`_model_cases`'s three kinds of model on ``_loose`` networks."""
    for _, instance, oracle, rates in region_cases(10, 10, make_doc=_loose(random_instance_doc)):
        yield "linear", instance, oracle, rates
    for _, instance, oracle, rates in region_cases(11, 6, make_doc=_loose(random_pmf_doc)):
        yield "pmf", instance, oracle, rates
        tabular = EntropyOracle.from_model(oracle.ground, tabular_from_oracle(oracle))
        yield "tabular", instance, tabular, rates


def test_every_table_entry_equals_its_per_subset_definition():
    seen = {kind: set() for kind in ("linear", "pmf", "tabular")}
    for kind, instance, oracle, rates in [*_model_cases(), *_loose_cases()]:
        caps = instance.capacities()
        for t in instance.clients:
            sub = client_subproblem(instance, oracle, t)
            if any(oracle.entropy((v,)) == 0 for v in sub.sources):
                seen[kind].add("relay")
            if any(e.head == t for e in sub.edges):
                seen[kind].add("client edge")
            if any(caps[e.id] == 0 for e in sub.edges):
                seen[kind].add("zero capacity")
            # the copies of the doubling: a cut step and a boundary step that add zero
            linked = {v for e in sub.edges if e.head != t for v in (e.tail, e.head)}
            if set(sub.sources) - linked:
                seen[kind].add("no source neighbour")
            if any(boundary(rates, (v,), sub.edges) == 0 for v in sub.sources):
                seen[kind].add("zero net rate")
            # the reversed sources put every edge from a higher bit to a lower one;
            # the reversed edges put the LP columns, and every per-edge vector, in another order
            reversed_sources = ClientSubproblem(sub.client, sub.sources[::-1], sub.edges)
            reversed_edges = ClientSubproblem(sub.client, sub.sources, sub.edges[::-1])
            for sub in (sub, reversed_sources, reversed_edges):
                region = Region(sub, oracle)
                cut = region.cut([caps[e.id] for e in sub.edges])
                b = region.boundary([rates[e.id] for e in sub.edges])
                assert (len(region.g) == len(cut) == len(b) == region.full + 1
                        == 1 << len(sub.sources))
                for mask in range(region.full + 1):
                    nodes = members(sub.sources, mask)
                    assert cut[mask] == cut_capacity(caps, nodes, sub.edges)
                    assert b[mask] == boundary(rates, nodes, sub.edges)
                    assert region.g[mask] == oracle.conditional(nodes, sub.sources)
                    row = region.row(mask, range(len(sub.edges)))
                    assert sum(c * rates[sub.edges[j].id] for j, c in row.items()) == b[mask]
                    assert set(row.values()) <= {-1, 1}
                    assert region.implied(mask, row) == (region.g[mask] <= 0
                                                    and -1 not in row.values())
    for kind, features in seen.items():
        assert features == {"relay", "client edge", "zero capacity", "no source neighbour",
                            "zero net rate"}, kind


def test_the_kept_boundary_table_follows_the_rates(f2):
    # Region keeps its last boundary table for the tight-set scan: equal rates get it
    # back, and rates changed since, even in the list that was passed, get their own
    instance, oracle, _ = f2
    sub = client_subproblem(instance, oracle, "t1")
    region = Region(sub, oracle)

    def table(rates):
        return [boundary(dict(zip((e.id for e in sub.edges), rates)), members(sub.sources, mask),
                         sub.edges) for mask in range(region.full + 1)]

    rates = [Fraction(1)] * len(sub.edges)
    first = region.boundary(rates)
    assert region.boundary(list(rates)) is first
    rates[0] = Fraction(3)
    assert region.boundary(rates) == table(rates) != first


def test_kernel_reproduces_recorded_certificates_and_separations():
    reference = json.loads(REFERENCE.read_text())
    cases = iter(reference["cases"])
    for seed, count, kwargs in reference["suites"]:
        for index, instance, oracle, rates in region_cases(seed, count, **kwargs):
            caps = instance.capacities()
            for t in instance.clients:
                want = next(cases)
                assert (want["seed"], want["index"], want["client"]) == (seed, index, t)
                sub = client_subproblem(instance, oracle, t)
                cert = check_feasible_single(sub, oracle, caps)
                assert all(isinstance(x, Fraction) for x in (cert.slack, cert.cut, cert.required))
                assert [list(cert.witness_set), str(cert.slack), str(cert.cut),
                        str(cert.required)] == [want[k] for k in
                                                ("witness", "slack", "cut", "required")]
                opt = RegionOptimizer(sub, oracle, caps)
                column_rates = [rates[e.id] for e in sub.edges]
                assert most_violated(opt.region, column_rates) == want["violated"]
                slack = [b - g for b, g in zip(opt.region.boundary(column_rates), opt.region.g)]
                witness, worst = sfm_brute_force(SetFunction.tabulated(sub.sources, slack))
                assert list(witness) == want["separation_witness"]
                assert worst == Fraction(want["separation_value"])
    assert next(cases, None) is None


def test_separation_is_none_exactly_when_no_slack_is_negative():
    outcomes = {kind: set() for kind in ("linear", "pmf", "tabular")}
    for kind, instance, oracle, rates in _model_cases():
        caps = instance.capacities()
        for t in instance.clients:
            sub = client_subproblem(instance, oracle, t)
            opt = RegionOptimizer(sub, oracle, caps)
            # the drawn rates, the same scaled down, and an LP vertex of the region
            drawn = [rates[e.id] for e in sub.edges]
            points = [drawn, [r / 4 for r in drawn]]
            try:
                points.append(opt.minimize([1] * len(sub.edges))[0])
            except Infeasible:
                pass
            for point in points:
                by_id = dict(zip((e.id for e in sub.edges), point))
                slack = [boundary(by_id, nodes, sub.edges) - oracle.conditional(nodes, sub.sources)
                         for nodes in (members(sub.sources, mask)
                                       for mask in range(1 << len(sub.sources)))]
                got = most_violated(opt.region, point)
                if min(slack) >= 0:
                    assert got is None
                else:
                    f = SetFunction.tabulated(sub.sources, slack)
                    witness, worst = sfm_brute_force(f)
                    assert got == f.mask(witness)
                    assert slack[got] == worst < 0
                outcomes[kind].add(got is None)
    for kind, seen in outcomes.items():
        assert seen == {True, False}, kind


def _stages(instance, oracle):
    """Every stage that reads a Region, as (name, call) pairs on one oracle."""
    caps, costs = instance.capacities(), instance.costs()
    yield "feas", lambda: check_feasible_multi(instance, oracle)
    for t in instance.clients:
        sub = client_subproblem(instance, oracle, t)
        yield "single " + t, lambda sub=sub: solve_single_client(sub, oracle, costs, caps)
        yield "brute " + t, lambda sub=sub: solve_single_client_bruteforce(sub, oracle, costs,
                                                                           caps)
    yield "exact", lambda: solve_multi_exact(instance, oracle)
    yield "subgradient", lambda: solve_multi_subgradient(instance, oracle, max_iters=4)


def _outcome(call) -> str:
    try:
        return repr(call())
    except Infeasible as exc:      # its repr holds the certificates
        return repr(exc)


def test_one_rank_sweep_per_source_tuple(monkeypatch, f2):
    sweeps = []
    rank_table = LinearSource.rank_table

    def counted(self, nodes):
        sweeps.append(tuple(nodes))
        return rank_table(self, nodes)

    monkeypatch.setattr(LinearSource, "rank_table", counted)
    # seed 0 is feasible, seed 3 is not: the second also builds the Infeasible certificates
    for seed, feasible in ((0, True), (3, False)):
        doc = random_instance_doc(random.Random(seed), n_sources=6, n_clients=3, max_capacity=6)
        instance, _, model = load_instance(doc)
        oracle = EntropyOracle.from_model(instance.sources, model)
        sweeps.clear()
        outcomes = [_outcome(call) for _, call in _stages(instance, oracle)]
        assert check_feasible_multi(instance, oracle).feasible is feasible
        assert any(o.startswith("Infeasible") for o in outcomes) is not feasible
        if feasible:
            build_coded_network(instance, model, solve_multi_exact(instance, oracle).envelope,
                                oracle=oracle)
        subs = [client_subproblem(instance, oracle, t) for t in instance.clients]
        assert len({sub.sources for sub in subs}) == 1
        assert sweeps == [subs[0].sources]
        assert Region(subs[0], oracle).g is Region(subs[-1], oracle).g

    # the F2 clients reach different source sets: one table per tuple
    instance, _, model = f2
    oracle = EntropyOracle.from_model(instance.sources, model)
    sweeps.clear()
    for _, call in _stages(instance, oracle):
        call()
    subs = [client_subproblem(instance, oracle, t) for t in instance.clients]
    tuples = {sub.sources for sub in subs}
    assert len(tuples) == len(subs) == 2
    assert sorted(sweeps) == sorted(tuples)
    assert all(Region(sub, oracle).g is oracle.conditional_table(sub.sources) for sub in subs)


def test_sharing_changes_no_answer():
    cases = list(_model_cases())
    for seed in range(3):
        doc = random_instance_doc(random.Random(seed), n_sources=6, n_clients=3, max_capacity=6)
        instance, oracle, _ = load_instance(doc)
        cases.append(("linear", instance, oracle, None))
    for kind, instance, oracle, _ in cases:
        model = oracle.model
        shared = EntropyOracle.from_model(oracle.ground, model)
        for name, call in _stages(instance, shared):
            # the same stage on an oracle of its own, which shares no table with the others
            fresh = EntropyOracle.from_model(oracle.ground, model)
            assert _outcome(call) == _outcome(dict(_stages(instance, fresh))[name]), (kind, name)
        for t in instance.clients:
            sources = client_subproblem(instance, shared, t).sources
            table = shared.conditional_table(sources)
            fresh = EntropyOracle.from_model(oracle.ground, model)
            assert table == tuple(fresh.conditional(members(sources, mask), sources)
                                  for mask in range(1 << len(sources))), kind
            with pytest.raises(TypeError):
                table[0] = 1


def test_feasibility_certificate_checks_the_shared_table(f2):
    # a wrong shared table is caught by the per-subset re-evaluation of the witness
    instance, _, model = f2
    oracle = EntropyOracle.from_model(instance.sources, model)
    sub = client_subproblem(instance, oracle, instance.clients[0])
    good = oracle.conditional_table(sub.sources)
    oracle._conditional[sub.sources] = tuple(g + 1 if mask else g for mask, g in enumerate(good))
    with pytest.raises(RuntimeError, match="slack"):
        check_feasible_single(sub, oracle, instance.capacities())


def test_feasibility_witness_is_rechecked_against_the_model(monkeypatch, f2):
    # a rank table one short at G \ {m2} makes g({m2}) one too large; the
    # witness's requirement comes from the model, not from a copy of that table
    instance, _, model = f2
    oracle = EntropyOracle.from_model(instance.sources, model)
    sub = client_subproblem(instance, oracle, "t1")
    rest = ((1 << len(sub.sources)) - 1) ^ (1 << sub.sources.index("m2"))
    rank_table = LinearSource.rank_table

    def short(self, nodes):
        table = rank_table(self, nodes)
        if nodes == sub.sources:
            table[rest] -= 1
        return table

    monkeypatch.setattr(LinearSource, "rank_table", short)
    with pytest.raises(RuntimeError, match="slack"):
        check_feasible_single(sub, oracle, instance.capacities())
