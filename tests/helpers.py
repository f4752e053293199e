"""Shared test utilities: fixture paths, seeded random generators, test-only tables
(a client's slack function, the tabular copy of an oracle), the matrix algebra over F_q
that only tests use, and a code from explicit coefficients."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

from mmcast import gf, load_instance
from mmcast.entropy import EntropyOracle, TabularSource
from mmcast.gf import FieldMatrix
from mmcast.model import ClientSubproblem, Region
from mmcast.netcode import CodeAssignment, CodedNetwork, propagate_global_vectors
from mmcast.submodular import SetFunction, members

REPO = Path(__file__).resolve().parent.parent
FIXTURE_F2 = REPO / "fixtures" / "fixture-F2.json"


def load_f2():
    return load_instance(FIXTURE_F2)


def slack_function(sub: ClientSubproblem, oracle, capacities: dict) -> SetFunction:
    """S -> c(out(S)) - g(S) over the client's sources; submodular, tabulated."""
    region = Region(sub, oracle)
    cut = region.cut([capacities[e.id] for e in sub.edges])
    return SetFunction.tabulated(sub.sources, [c - g for c, g in zip(cut, region.g)],
                                 "submodular")


def tabular_from_oracle(oracle: EntropyOracle) -> TabularSource:
    """Materialize the full subset table of an oracle.

    Grounds above ``submodular.BRUTE_FORCE_LIMIT`` raise GroundTooLarge.
    """
    h = oracle.table(oracle.ground)
    table = {frozenset(members(oracle.ground, mask)): Fraction(h[mask])
             for mask in range(1, len(h))}
    return TabularSource(oracle.ground, table)


def transpose(m: FieldMatrix) -> FieldMatrix:
    return FieldMatrix.from_rows([m.column(j) for j in range(m.cols)], m.q, cols=m.rows)


def stack(a: FieldMatrix, b: FieldMatrix) -> FieldMatrix:
    """Vertical concatenation [a; b]."""
    assert a.q == b.q
    return FieldMatrix.from_rows(a.to_lists() + b.to_lists(), a.q, cols=a.cols)


def matmul(a: FieldMatrix, b: FieldMatrix) -> FieldMatrix:
    assert a.q == b.q and a.cols == b.rows
    columns = [b.column(j) for j in range(b.cols)]
    return FieldMatrix.from_rows([[sum(x * y for x, y in zip(row, c)) for c in columns]
                                  for row in a.to_lists()], a.q, cols=b.cols)


def select_columns(m: FieldMatrix, indices) -> FieldMatrix:
    indices = list(indices)
    return FieldMatrix.from_rows([[row[j] for j in indices] for row in m.to_lists()], m.q,
                                 cols=len(indices))


def assignment_from_coefficients(net: CodedNetwork, coefficients: dict) -> CodeAssignment:
    """The code of explicit local coefficients (e.g. a hand-built routing code).

    Keys are (feeding, fed) channel pairs; pairs left out are 0.  The vectors
    and each client's greedy basis are what ``assign_coefficients`` would keep.
    """
    coefficients = {pair: c % net.q for pair, c in coefficients.items()}
    vectors = tuple(propagate_global_vectors(net, CodeAssignment(coefficients, (), 1, {})))
    bases = {t: gf.row_basis([vectors[c] for c in net.sink_channels[t]], net.q)
             for t in net.clients}
    return CodeAssignment(coefficients, vectors, 1, bases)


def chain_instance(cap1="4", cap2="4", cost1="1", cost2="1") -> dict:
    """Two-source chain: m1 holds packet a, m2 holds packet b, one client."""
    return {
        "nodes": ["m1", "m2", "t"],
        "edges": [
            {"id": "c1", "tail": "m1", "head": "m2", "capacity": cap1, "cost": cost1},
            {"id": "c2", "tail": "m2", "head": "t", "capacity": cap2, "cost": cost2},
        ],
        "clients": ["t"],
        "source_model": {"kind": "linear", "q": 5, "N": 2,
                         "matrices": {"m1": [[1, 0]], "m2": [[0, 1]]}},
    }


def single_edge_instance(entropy_rows=3, capacity="3", cost="1") -> dict:
    """One source holding `entropy_rows` packets, one edge to one client."""
    n = entropy_rows
    return {
        "nodes": ["m", "t"],
        "edges": [{"id": "e", "tail": "m", "head": "t", "capacity": capacity, "cost": cost}],
        "clients": ["t"],
        "source_model": {"kind": "linear", "q": 5, "N": n,
                         "matrices": {"m": [[1 if j == i else 0 for j in range(n)]
                                            for i in range(n)]}},
    }


def random_instance_doc(rng: random.Random, n_sources: int | None = None,
                        n_clients: int | None = None, max_capacity: int = 5,
                        max_cost: int = 3, half_integral: bool = False,
                        dense: bool = False) -> dict:
    """Random DAG with 0/1 selector sources over q=5.

    A source chain backbone plus an edge from the last source into every
    client keeps all sources reachable from every client, so the
    reconstructability precondition always holds; capacities in
    [0, max_capacity] make feasibility genuinely vary.  ``half_integral``
    draws them from the half-integer grid {0, 1/2, ..., max_capacity}.
    ``dense`` then gives each observing source 1-3 uniform rows over F_5
    instead (the paper's case (ii)), drawn after everything else, so the
    network and the observing sources are those of the same draw without it.
    """
    m = n_sources if n_sources is not None else rng.randint(2, 6)
    k = n_clients if n_clients is not None else rng.randint(1, 2)
    n_packets = rng.randint(3, 5)
    sources = [f"s{i}" for i in range(1, m + 1)]
    clients = [f"t{j}" for j in range(1, k + 1)]
    edges = []

    def add(u, v):
        if half_integral:
            capacity = str(Fraction(rng.randint(0, 2 * max_capacity), 2))
        else:
            capacity = str(rng.randint(0, max_capacity))
        edges.append({"id": f"e{len(edges) + 1}", "tail": u, "head": v,
                      "capacity": capacity, "cost": str(rng.randint(1, max_cost))})

    for i in range(m - 1):
        add(sources[i], sources[i + 1])
    for i in range(m):
        for j in range(i + 1, m):
            if rng.random() < 0.25:
                add(sources[i], sources[j])
    for t in clients:
        add(sources[-1], t)
        for i in range(m - 1):
            if rng.random() < 0.35:
                add(sources[i], t)

    matrices = {}
    for s in sources:
        rows = [[1 if j == i else 0 for j in range(n_packets)]
                for i in range(n_packets) if rng.random() < 0.5]
        if rows:
            matrices[s] = rows
    if dense:
        for s in matrices:
            matrices[s] = [[rng.randrange(5) for _ in range(n_packets)]
                           for _ in range(rng.randint(1, 3))]
    return {"nodes": sources + clients, "edges": edges, "clients": clients,
            "source_model": {"kind": "linear", "q": 5, "N": n_packets,
                             "matrices": matrices}}


def random_feasible_instance(rng: random.Random, **kwargs):
    """Loaded (instance, oracle, model) triple that passes the feasibility test."""
    from mmcast import check_feasible_multi

    while True:
        triple = load_instance(random_instance_doc(rng, **kwargs))
        report = check_feasible_multi(triple[0], triple[1])
        if report.feasible:
            return triple


def random_submodular_function(rng: random.Random, n: int) -> SetFunction:
    """Exact random submodular function on ground {0..n-1}.

    Sum of a random directed cut function, a concave-of-cardinality term
    (non-increasing integer increments) and a random modular shift; the
    shift makes minimizers nontrivial while keeping everything rational.
    """
    ground = tuple(range(n))
    arcs = {(i, j): rng.randint(1, 4)
            for i in range(n) for j in range(n)
            if i != j and rng.random() < 0.4}
    increments = sorted((rng.randint(0, 3) for _ in range(n)), reverse=True)
    shift = [rng.randint(-4, 3) for _ in range(n)]

    def evaluate(nodes):
        s = set(nodes)
        cut = sum(w for (i, j), w in arcs.items() if i in s and j not in s)
        size = len(s)
        concave = sum(increments[:size])
        modular = sum(shift[i] for i in s)
        return Fraction(cut + concave + modular)

    return SetFunction(ground, evaluate, "submodular")


def long_chain_doc(n_sources: int, n_clients: int = 1) -> dict:
    """Chain of n_sources relays (first two hold one packet each) into sinks."""
    nodes = [f"s{i}" for i in range(n_sources)]
    clients = [f"t{j}" for j in range(n_clients)]
    edges = [{"id": f"e{i}", "tail": nodes[i], "head": nodes[i + 1],
              "capacity": "5", "cost": "1"} for i in range(n_sources - 1)]
    for j, t in enumerate(clients):
        edges.append({"id": f"sink{j}", "tail": nodes[-1], "head": t,
                      "capacity": "5", "cost": "1"})
    return {"nodes": nodes + clients, "edges": edges, "clients": clients,
            "source_model": {"kind": "linear", "q": 5, "N": 2,
                             "matrices": {nodes[0]: [[1, 0]], nodes[1]: [[0, 1]]}}}


def random_pmf_doc(rng: random.Random, **kwargs) -> dict:
    """``random_instance_doc``'s network with a random binary pmf on some sources.

    The sources left out of the pmf are relays (zero entropy); probabilities
    are random multiples of 1/total, so entropies are irrational and take
    the rounded ``pmf`` path.
    """
    doc = random_instance_doc(rng, **kwargs)
    sources = [v for v in doc["nodes"] if v not in doc["clients"]]
    order = sorted(rng.sample(sources, rng.randint(1, min(4, len(sources)))))
    weights = [rng.randint(0, 4) for _ in range(1 << len(order))]
    weights[0] += 1                     # at least one outcome has mass
    total = sum(weights)

    def nest(depth: int, offset: int):
        if depth == len(order):
            return f"{weights[offset]}/{total}"
        return [nest(depth + 1, 2 * offset + bit) for bit in (0, 1)]

    doc["source_model"] = {"kind": "pmf", "order": order,
                           "alphabets": {v: 2 for v in order}, "table": nest(0, 0)}
    return doc


def region_cases(seed: int, count: int, make_doc=random_instance_doc, **kwargs):
    """Seeded ``(index, instance, oracle, rates)`` cases for the region tables.

    ``rates`` puts a random half-integer in [0, capacity + 1] on every edge,
    so separation sees both violated and satisfied subsets.
    """
    rng = random.Random(seed)
    for index in range(count):
        instance, oracle, _ = load_instance(make_doc(rng, **kwargs))
        rates = {e.id: Fraction(rng.randint(0, 2 * int(e.capacity) + 2), 2)
                 for e in instance.edges}
        yield index, instance, oracle, rates
