"""The mask-indexed region tables against their per-subset definitions."""

import json
from fractions import Fraction
from pathlib import Path

from helpers import random_pmf_doc, region_cases
from mmcast.entropy import EntropyOracle, tabular_from_oracle
from mmcast.feasibility import check_feasible_single
from mmcast.model import ClientSubproblem, Region, boundary, client_subproblem, cut_capacity
from mmcast.single_client import RegionOptimizer, most_violated
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


def test_every_table_entry_equals_its_per_subset_definition():
    seen = {kind: set() for kind in ("linear", "pmf", "tabular")}
    for kind, instance, oracle, rates in _model_cases():
        caps = instance.capacities()
        for t in instance.clients:
            sub = client_subproblem(instance, oracle, t)
            if any(oracle.entropy((v,)) == 0 for v in sub.sources):
                seen[kind].add("relay")
            if any(e.head == t for e in sub.edges):
                seen[kind].add("client edge")
            if any(caps[e.id] == 0 for e in sub.edges):
                seen[kind].add("zero capacity")
            # the reversed sources put every edge from a higher bit to a lower one
            reversed_sub = ClientSubproblem(sub.client, sub.sources[::-1], sub.edges,
                                            sub.ground_entropy)
            for sub in (sub, reversed_sub):
                region = Region(sub, oracle)
                cut, b = region.cut(caps), region.boundary(rates)
                assert (len(region.g) == len(cut) == len(b) == region.full + 1
                        == 1 << len(sub.sources))
                for mask in range(region.full + 1):
                    nodes = members(sub.sources, mask)
                    assert cut[mask] == cut_capacity(caps, nodes, sub.edges)
                    assert b[mask] == boundary(rates, nodes, sub.edges)
                    assert region.g[mask] == oracle.conditional(nodes, sub.sources)
                    row = region.row(mask)
                    assert sum(c * rates[e.id] for c, e in zip(row, sub.edges)) == b[mask]
                    assert set(row) <= {-1, 0, 1}
    for kind, features in seen.items():
        assert features == {"relay", "client edge", "zero capacity"}, kind


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
                assert most_violated(opt.region, rates) == want["violated"]
                slack = [b - g for b, g in zip(opt.region.boundary(rates), opt.region.g)]
                witness, worst = sfm_brute_force(SetFunction.tabulated(sub.sources, slack))
                assert list(witness) == want["separation_witness"]
                assert worst == Fraction(want["separation_value"])
    assert next(cases, None) is None
