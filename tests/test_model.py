import random
from fractions import Fraction

import pytest

from helpers import random_instance_doc, single_edge_instance
from mmcast import load_instance
from mmcast.errors import (ClientNotSink, CycleDetected, DuplicateEdgeId, InvalidInstance,
                           NegativeCapacity, NonpositiveCost, ReconstructabilityViolated,
                           UnknownEdgeRate)
from mmcast.model import (boundary, boundary_vector, check_reconstructability,
                          client_subproblem, client_subproblems, cut_capacity,
                          parse_rational, reachable_sources, validate_instance)


def minimal_doc():
    return {
        "nodes": ["m1", "t1"],
        "edges": [{"id": "e1", "tail": "m1", "head": "t1", "capacity": "1", "cost": "1"}],
        "clients": ["t1"],
    }


def test_validate_minimal():
    instance = validate_instance(minimal_doc())
    assert instance.sources == ("m1",)
    assert instance.topo_order == ("m1", "t1")


def test_client_not_sink():
    doc = minimal_doc()
    doc["edges"].append({"id": "e2", "tail": "t1", "head": "m1", "capacity": "1", "cost": "1"})
    with pytest.raises(ClientNotSink):
        validate_instance(doc)


def test_cycle_detected_with_witness():
    doc = {
        "nodes": ["m1", "m2", "t1"],
        "edges": [
            {"id": "e1", "tail": "m1", "head": "m2", "capacity": "1", "cost": "1"},
            {"id": "e2", "tail": "m2", "head": "m1", "capacity": "1", "cost": "1"},
            {"id": "e3", "tail": "m2", "head": "t1", "capacity": "1", "cost": "1"},
        ],
        "clients": ["t1"],
    }
    with pytest.raises(CycleDetected) as err:
        validate_instance(doc)
    assert err.value.cycle == ("m1", "m2", "m1")


@pytest.mark.parametrize("field,value,exc", [
    ("capacity", "-1", NegativeCapacity),
    ("cost", "0", NonpositiveCost),
    ("cost", "-2", NonpositiveCost),
])
def test_bad_edge_numbers(field, value, exc):
    doc = minimal_doc()
    doc["edges"][0][field] = value
    with pytest.raises(exc):
        validate_instance(doc)


def test_duplicate_edge_id():
    doc = minimal_doc()
    doc["edges"].append(dict(doc["edges"][0]))
    with pytest.raises(DuplicateEdgeId):
        validate_instance(doc)


def test_self_loop_rejected():
    doc = minimal_doc()
    doc["edges"].append({"id": "e2", "tail": "m1", "head": "m1", "capacity": "1", "cost": "1"})
    with pytest.raises(InvalidInstance):
        validate_instance(doc)


def test_parallel_edges_allowed():
    doc = minimal_doc()
    doc["edges"].append({"id": "e2", "tail": "m1", "head": "t1", "capacity": "2", "cost": "1"})
    instance = validate_instance(doc)
    assert len(instance.edges) == 2


def test_fixture_subproblems(f2):
    instance, oracle, _ = f2
    sub2 = client_subproblem(instance, oracle, "t2")
    assert set(sub2.sources) == {"m1", "m2", "m4"}
    assert [e.id for e in sub2.edges] == ["e2", "e3", "e7"]
    assert oracle.entropy(sub2.sources) == 4

    sub1 = client_subproblem(instance, oracle, "t1")
    assert set(sub1.sources) == {"m1", "m2", "m3", "m4"}
    assert [e.id for e in sub1.edges] == ["e1", "e2", "e3", "e4", "e5", "e6"]


def test_single_edge_subproblem():
    instance, oracle, _ = load_instance(single_edge_instance())
    sub = client_subproblem(instance, oracle, "t")
    assert sub.sources == ("m",)
    assert [e.id for e in sub.edges] == ["e"]


def test_boundary_fixture_formula(f2):
    # boundary of {m3, m4} in the t1 subgraph: out-edges e5, e6; in-edges e1, e2, e3
    instance, oracle, _ = f2
    sub1 = client_subproblem(instance, oracle, "t1")
    rng = random.Random(5)
    rates = {e.id: Fraction(rng.randint(0, 12), rng.randint(1, 4)) for e in sub1.edges}
    expected = rates["e5"] + rates["e6"] - rates["e1"] - rates["e2"] - rates["e3"]
    assert boundary(rates, ["m3", "m4"], sub1.edges) == expected


def test_boundary_empty_set_is_zero(f2):
    instance, oracle, _ = f2
    sub1 = client_subproblem(instance, oracle, "t1")
    rates = {e.id: Fraction(3) for e in sub1.edges}
    assert boundary(rates, [], sub1.edges) == 0


def test_boundary_direct_sum(f2):
    instance, oracle, _ = f2
    sub2 = client_subproblem(instance, oracle, "t2")
    rates = {"e7": Fraction(4), "e2": Fraction(1), "e3": Fraction(2)}
    assert boundary(rates, ["m4"], sub2.edges) == 1


def test_boundary_unknown_rate(f2):
    instance, oracle, _ = f2
    sub2 = client_subproblem(instance, oracle, "t2")
    with pytest.raises(UnknownEdgeRate):
        boundary({"e7": Fraction(4)}, ["m4"], sub2.edges)


def test_boundary_modularity_random():
    rng = random.Random(23)
    for _ in range(10):
        instance, oracle, _ = load_instance(random_instance_doc(rng))
        t = instance.clients[0]
        sub = client_subproblem(instance, oracle, t)
        rates = {e.id: Fraction(rng.randint(0, 9), rng.randint(1, 3)) for e in sub.edges}
        nodes = list(sub.sources)
        for _ in range(100):
            a = [v for v in nodes if rng.random() < 0.5]
            b = [v for v in nodes if rng.random() < 0.5]
            union = set(a) | set(b)
            inter = set(a) & set(b)
            assert (boundary(rates, a, sub.edges) + boundary(rates, b, sub.edges)
                    == boundary(rates, union, sub.edges) + boundary(rates, inter, sub.edges))


def test_boundary_of_ground_is_sink_inflow():
    rng = random.Random(29)
    for _ in range(10):
        instance, oracle, _ = load_instance(random_instance_doc(rng))
        for t in instance.clients:
            sub = client_subproblem(instance, oracle, t)
            rates = {e.id: Fraction(rng.randint(0, 7)) for e in sub.edges}
            inflow = sum(rates[e.id] for e in sub.edges if e.head == t)
            assert boundary(rates, sub.sources, sub.edges) == inflow


def test_boundary_vector_sums_to_subset_boundary(f2):
    instance, oracle, _ = f2
    sub = client_subproblem(instance, oracle, "t1")
    rng = random.Random(31)
    rates = {e.id: Fraction(rng.randint(0, 5)) for e in sub.edges}
    vec = boundary_vector(rates, sub)
    for mask in range(1 << len(sub.sources)):
        s = [m for i, m in enumerate(sub.sources) if mask >> i & 1]
        assert sum((vec[m] for m in s), Fraction(0)) == boundary(rates, s, sub.edges)


def test_subproblem_monotone_under_edge_deletion():
    rng = random.Random(37)
    for _ in range(15):
        doc = random_instance_doc(rng)
        instance, oracle, _ = load_instance(doc)
        t = instance.clients[0]
        before = client_subproblem(instance, oracle, t)
        smaller = dict(doc)
        removable = [e for e in doc["edges"] if e["head"] != t or
                     sum(1 for x in doc["edges"] if x["head"] == t) > 1]
        if not removable:
            continue
        dropped = rng.choice(removable)
        smaller["edges"] = [e for e in doc["edges"] if e["id"] != dropped["id"]]
        try:
            instance2, oracle2, _ = load_instance(smaller)
            after = client_subproblem(instance2, oracle2, t)
        except Exception:
            continue  # deletion may disconnect the client entirely
        assert set(after.sources) <= set(before.sources)
        assert {e.id for e in after.edges} <= {e.id for e in before.edges}


def test_reconstructability_fixture(f2):
    instance, oracle, _ = f2
    report = check_reconstructability(instance, oracle)
    assert report.ok
    assert report.total_entropy == 4
    assert all(c.entropy == 4 for c in report.clients)


def test_reconstructability_fails_without_e3():
    import json
    from helpers import FIXTURE_F2
    doc = json.loads(FIXTURE_F2.read_text())
    doc["edges"] = [e for e in doc["edges"] if e["id"] != "e3"]
    instance, oracle, _ = load_instance(doc)
    report = check_reconstructability(instance, oracle)
    by_client = {c.client: c for c in report.clients}
    assert not report.ok
    assert set(by_client["t2"].sources) == {"m1", "m4"}
    assert by_client["t2"].entropy == 3
    assert not by_client["t2"].complete
    assert by_client["t1"].complete


def test_reconstructability_single_source():
    instance, oracle, _ = load_instance(single_edge_instance())
    assert check_reconstructability(instance, oracle).ok


def test_cut_capacity(f2):
    instance, oracle, _ = f2
    sub2 = client_subproblem(instance, oracle, "t2")
    caps = instance.capacities()
    assert cut_capacity(caps, ["m1", "m2"], sub2.edges) == 8
    assert cut_capacity(caps, ["m4"], sub2.edges) == 4


def test_reachable_sources_excludes_clients(f2):
    instance, _, _ = f2
    assert "t2" not in reachable_sources(instance, "t1")


def test_client_subproblems_are_each_clients_own_subproblem():
    # every client's M_t comes from one predecessor map: the same sources, in the same
    # order, and the same edges as a walk for that client alone
    rng = random.Random(37)
    seen = set()
    for _ in range(40):
        doc = random_instance_doc(rng, n_sources=rng.randint(3, 6), n_clients=rng.randint(2, 3))
        clients = set(doc["clients"])
        doc["edges"] = [e for e in doc["edges"] if e["head"] in clients or rng.random() < 0.5]
        instance, oracle, _ = load_instance(doc)
        report = check_reconstructability(instance, oracle)
        reached = [reachable_sources(instance, t) for t in instance.clients]
        assert [c.sources for c in report.clients] == reached
        seen.add("different M_t" if len(set(reached)) > 1 else "one M_t")
        if report.ok:
            seen.add("reconstructable")
            assert client_subproblems(instance, oracle) == {
                t: client_subproblem(instance, oracle, t) for t in instance.clients}
        else:
            seen.add("not reconstructable")
            with pytest.raises(ReconstructabilityViolated):
                client_subproblems(instance, oracle)
    assert seen == {"different M_t", "one M_t", "reconstructable", "not reconstructable"}


def _kahn(nodes, edges):
    """The order ``topo_order`` documents: Kahn's FIFO queue, input order as tie-break."""
    indeg = {v: sum(head == v for _, head in edges) for v in nodes}
    queue = [v for v in nodes if indeg[v] == 0]
    for v in queue:                     # the list grows while it is read: a FIFO queue
        for tail, head in edges:
            if tail == v:
                indeg[head] -= 1
                if indeg[head] == 0:
                    queue.append(head)
    return tuple(queue)


def _ancestors(pairs, t):
    """t and every node with a path to t: the set grown until it stops."""
    reached, grown = set(), {t}
    while grown != reached:
        reached, grown = grown, grown | {u for u, v in pairs if v in grown}
    return reached


def _order_cases():
    rng = random.Random(38)
    for _ in range(150):
        doc = random_instance_doc(rng, n_sources=rng.randint(2, 12), n_clients=rng.randint(1, 3))
        rng.shuffle(doc["nodes"])
        rng.shuffle(doc["edges"])
        yield doc
    hand = [
        # isolated sources, one listed first and one last
        (["iso", "a", "t", "late"], [("a", "t")], ["t"]),
        # parallel edges: b becomes ready only when both are done
        (["b", "a", "t"], [("a", "b"), ("a", "b"), ("b", "t"), ("a", "t")], ["t"]),
        # a relay between two sources and two clients, listed last
        (["t2", "s2", "s1", "t1", "r"],
         [("s1", "r"), ("s2", "r"), ("r", "t1"), ("r", "t2"), ("s2", "t2")], ["t1", "t2"]),
    ]
    for nodes, pairs, clients in hand:
        yield {"nodes": nodes, "clients": clients,
               "edges": [{"id": f"e{i}", "tail": u, "head": v, "capacity": "1", "cost": "1"}
                         for i, (u, v) in enumerate(pairs)]}


def test_topo_order_is_fifo_kahn_with_input_order_tie_break():
    # graphlib documents its order only as depending on insertion order: pin it
    for doc in _order_cases():
        instance = validate_instance(doc)
        pairs = [(e.tail, e.head) for e in instance.edges]
        assert instance.topo_order == _kahn(instance.nodes, pairs)
        for t in instance.clients:
            ancestors = _ancestors(pairs, t)
            assert reachable_sources(instance, t) == tuple(v for v in instance.sources
                                                           if v in ancestors)


def test_every_cycle_witness_is_a_closed_walk_along_the_edges():
    rng = random.Random(1738)
    cyclic = 0
    for _ in range(300):
        sources = [f"s{i}" for i in range(rng.randint(2, 8))]
        pairs = [(u, v) for u in sources for v in sources if u != v and rng.random() < 0.3]
        pairs += [(rng.choice(sources), "t")]
        rng.shuffle(pairs)
        doc = {"nodes": sources + ["t"], "clients": ["t"],
               "edges": [{"id": f"e{i}", "tail": u, "head": v, "capacity": "1", "cost": "1"}
                         for i, (u, v) in enumerate(pairs)]}
        if len(_kahn(doc["nodes"], pairs)) == len(doc["nodes"]):
            assert validate_instance(doc).topo_order == _kahn(doc["nodes"], pairs)
            continue
        cyclic += 1
        with pytest.raises(CycleDetected) as err:
            validate_instance(doc)
        cycle = err.value.cycle
        assert len(cycle) >= 3 and cycle[0] == cycle[-1]
        assert all(step in pairs for step in zip(cycle, cycle[1:]))
    assert cyclic >= 100


def test_reachable_sources_are_for_clients_only(f2):
    # a client gets its M_t; a source and a name that is no node are refused alike,
    # and client_subproblem refuses them through the same check
    instance, oracle, _ = f2
    assert reachable_sources(instance, "t2") == ("m1", "m2", "m4")
    assert client_subproblem(instance, oracle, "t2").sources == ("m1", "m2", "m4")
    for name in ("m1", "zz"):
        message = f"'{name}' is not a client of this instance"
        with pytest.raises(InvalidInstance, match=message):
            reachable_sources(instance, name)
        with pytest.raises(InvalidInstance, match=message):
            client_subproblem(instance, oracle, name)


def test_parse_rational_refuses_a_value_of_no_number_type():
    # a list is no int, Fraction, float or string: the last check names it
    with pytest.raises(InvalidInstance, match=r"cannot parse rational from \[1\]"):
        parse_rational([1])
