"""Acceptance suite: one test per criterion, each printing a PASS line.

The feasibility cross-check (criterion 1) uses its own graph reachability,
its own mod-q rank routine and its own subset enumeration, so it shares no
code with the paths it certifies.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from helpers import (FIXTURE_F2, chain_instance, load_f2, random_feasible_instance,
                     random_instance_doc, random_submodular_function,
                     single_edge_instance)
from mmcast import load_instance
from mmcast.cli import main as cli_main
from mmcast.errors import FieldTooSmall
from mmcast.feasibility import check_feasible_multi
from mmcast.model import boundary, check_reconstructability, client_subproblem
from mmcast.multi_client import solve_multi_exact, solve_multi_subgradient
from mmcast.netcode import (assign_coefficients, build_coded_network,
                            propagate_global_vectors, simulate, transfer_matrix)
from mmcast.single_client import solve_single_client, solve_single_client_bruteforce
from mmcast.submodular import (conditional_entropy_function, entropy_function,
                               greedy_base_vertex, in_base_polyhedron, min_norm_point,
                               sfm_brute_force)


def _report(n, text):
    print(f"[criterion {n}] PASS: {text}")


# -- criterion 1: feasibility oracle equivalence ------------------------------

def _rank_mod(rows, q):
    rows = [list(r) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] % q), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], q - 2, q)
        rows[rank] = [(x * inv) % q for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] % q:
                f = rows[i][c]
                rows[i] = [(a - f * b) % q for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _doc_feasible(doc):
    """Independent verdict: enumerate every subset inequality from the raw doc."""
    q = doc["source_model"]["q"]
    matrices = doc["source_model"]["matrices"]
    clients = set(doc["clients"])
    sources = [v for v in doc["nodes"] if v not in clients]
    edges = doc["edges"]

    def entropy(subset):
        rows = [row for s in subset for row in matrices.get(s, [])]
        return _rank_mod(rows, q)

    verdicts = {}
    for t in doc["clients"]:
        reach = {t}
        changed = True
        while changed:
            changed = False
            for e in edges:
                if e["head"] in reach and e["tail"] not in reach:
                    reach.add(e["tail"])
                    changed = True
        m_t = [s for s in sources if s in reach]
        keep = set(m_t) | {t}
        e_t = [e for e in edges if e["tail"] in set(m_t) and e["head"] in keep]
        h_all = entropy(m_t)
        ok = True
        for size in range(1, len(m_t) + 1):
            for subset in itertools.combinations(m_t, size):
                inside = set(subset)
                cut = sum(int(e["capacity"]) for e in e_t
                          if e["tail"] in inside and e["head"] not in inside)
                rest = [s for s in m_t if s not in inside]
                required = h_all - entropy(rest)
                if cut < required:
                    ok = False
        verdicts[t] = ok
    return all(verdicts.values()), verdicts


def test_criterion_1_feasibility_oracle_equivalence():
    rng = random.Random(2025)
    start = time.time()
    verdict_counts = {True: 0, False: 0}
    for _ in range(200):
        doc = random_instance_doc(rng)
        expected, per_client = _doc_feasible(doc)
        instance, oracle, _ = load_instance(doc)
        report = check_feasible_multi(instance, oracle)
        assert report.feasible == expected
        for cert in report.certificates:
            assert cert.feasible == per_client[cert.client]
        verdict_counts[expected] += 1
    elapsed = time.time() - start
    assert elapsed < 60
    assert verdict_counts[True] and verdict_counts[False]
    _report(1, f"200 instances agree with direct enumeration "
               f"({verdict_counts[True]} feasible / {verdict_counts[False]} infeasible, "
               f"{elapsed:.1f}s)")


# -- criterion 2: single-client optimizer equivalence --------------------------

def test_criterion_2_single_client_equivalence():
    rng = random.Random(2026)
    start = time.time()
    solved = 0
    for _ in range(200):
        instance, oracle, _ = random_feasible_instance(rng)
        for t in instance.clients:
            sub = client_subproblem(instance, oracle, t)
            cutting = solve_single_client(sub, oracle, instance.costs(),
                                          instance.capacities())
            brute = solve_single_client_bruteforce(sub, oracle, instance.costs(),
                                                   instance.capacities())
            assert cutting.cost == brute.cost
            solved += 1
    elapsed = time.time() - start
    assert elapsed < 300
    _report(2, f"cutting-plane cost equals brute-force LP cost on {solved} "
               f"client problems from 200 instances ({elapsed:.1f}s)")


# -- criterion 3: fixture end-to-end -------------------------------------------

def test_criterion_3_fixture_end_to_end():
    instance, oracle, _ = load_f2()
    recon = check_reconstructability(instance, oracle)
    assert recon.ok
    assert recon.total_entropy == 4
    report = check_feasible_multi(instance, oracle)
    assert report.feasible
    result = solve_multi_exact(instance, oracle)
    assert result.cost == 11
    _report(3, "reconstructability H=4, both clients feasible, exact optimum 11")


# -- criterion 4: subgradient convergence --------------------------------------

def test_criterion_4_subgradient_convergence():
    instance, oracle, _ = load_f2()
    exact = solve_multi_exact(instance, oracle)
    cases = [(instance, oracle, exact)]
    rng = random.Random(2027)
    for _ in range(20):
        inst, orc, _ = random_feasible_instance(rng, n_clients=2)
        cases.append((inst, orc, solve_multi_exact(inst, orc)))
    worst_iters = 0
    for inst, orc, ex in cases:
        result = solve_multi_subgradient(inst, orc, max_iters=50000,
                                         gap_tol=Fraction(1, 100))
        assert result.converged, "gap tolerance not reached within 50000 iterations"
        assert result.cost - ex.cost <= Fraction(1, 100) * ex.cost
        for dual in result.dual_history:
            assert dual <= ex.cost          # weak duality, exact comparison
        worst_iters = max(worst_iters, result.iterations)
    _report(4, f"fixture + 20 random 2-client instances reach a 1% gap "
               f"(worst case {worst_iters} iterations), weak duality exact throughout")


# -- criterion 5: structural property suites ------------------------------------

def _fixture_family():
    yield load_f2()
    yield load_instance(chain_instance())
    yield load_instance(single_edge_instance())


def test_criterion_5_structural_properties():
    rng = random.Random(2028)
    fixtures = 0
    orderings = 0
    for instance, oracle, _ in _fixture_family():
        fixtures += 1
        for t in instance.clients:
            sub = client_subproblem(instance, oracle, t)
            ground = sub.sources
            n = len(ground)
            assert n <= 6
            g = conditional_entropy_function(oracle, ground)
            f = entropy_function(oracle, ground)
            # exhaustive supermodularity of g and submodularity of H
            values_g = {mask: g.value(mask) for mask in range(1 << n)}
            values_f = {mask: f.value(mask) for mask in range(1 << n)}
            for a in range(1 << n):
                for b in range(1 << n):
                    assert values_g[a] + values_g[b] <= values_g[a | b] + values_g[a & b]
                    assert values_f[a] + values_f[b] >= values_f[a | b] + values_f[a & b]
            # shared base polyhedron of the dual pair, 24 random orderings
            for _ in range(24):
                order = list(ground)
                rng.shuffle(order)
                assert in_base_polyhedron(greedy_base_vertex(f, order), g).member
                assert in_base_polyhedron(greedy_base_vertex(g, order), f).member
                orderings += 1
    # boundary modularity on 1000 random subset pairs of the fixture
    instance, oracle, _ = load_f2()
    sub = client_subproblem(instance, oracle, "t1")
    rates = {e.id: Fraction(rng.randint(0, 16), rng.randint(1, 4)) for e in sub.edges}
    nodes = list(sub.sources)
    for _ in range(1000):
        a = [v for v in nodes if rng.random() < 0.5]
        b = [v for v in nodes if rng.random() < 0.5]
        lhs = boundary(rates, a, sub.edges) + boundary(rates, b, sub.edges)
        rhs = boundary(rates, set(a) | set(b), sub.edges) + \
            boundary(rates, set(a) & set(b), sub.edges)
        assert lhs == rhs
    _report(5, f"supermodular/submodular pairs exhaustive on {fixtures} fixtures, "
               f"{orderings} greedy orderings in both base polyhedra, "
               f"1000 modularity pairs exact")


# -- criterion 6: network coding -------------------------------------------------

def test_criterion_6_network_coding():
    instance, oracle, source_model = load_f2()
    rates = {"e1": Fraction(0), "e2": Fraction(1), "e3": Fraction(2), "e4": Fraction(0),
             "e5": Fraction(0), "e6": Fraction(4), "e7": Fraction(4)}
    net = build_coded_network(instance, source_model, rates, oracle=oracle)
    assignment = assign_coefficients(net, seed=0, max_attempts=64)
    assert assignment.attempts <= 64
    from mmcast import gf
    for t in net.clients:
        assert gf.rank(transfer_matrix(net, assignment, t)) == 4

    rng = random.Random(2029)
    for _ in range(100):
        w = [rng.randrange(net.q) for _ in range(net.n_symbols)]
        result = simulate(net, assignment, w)
        assert all(rep.exact for rep in result.clients.values())

    # transfer matrix equals propagated vectors on every bundled network
    nets = [(net, assignment)]
    half = dict(rates)
    half["e2"], half["e3"] = Fraction(3, 2), Fraction(3, 2)
    net2 = build_coded_network(instance, source_model, half, oracle=oracle)
    nets.append((net2, assign_coefficients(net2, seed=3)))
    inst3, orc3, sm3 = load_instance(single_edge_instance(entropy_rows=3, capacity="3"))
    net3 = build_coded_network(inst3, sm3, {"e": Fraction(3)}, oracle=orc3)
    nets.append((net3, assign_coefficients(net3, seed=0)))
    for network, asg in nets:
        assert len(network.channels) <= 64
        vectors = propagate_global_vectors(network, asg)
        for t in network.clients:
            m = transfer_matrix(network, asg, t)
            for j, c in enumerate(network.sink_channels[t]):
                assert tuple(m[i, j] for i in range(m.rows)) == vectors[c]

    from mmcast.entropy import LinearSource
    from mmcast.gf import FieldMatrix
    binary = LinearSource(2, 4, {
        node: FieldMatrix(m.rows, m.cols, [x for row in m.to_lists() for x in row], 2)
        for node, m in source_model.matrices.items()})
    net_q2 = build_coded_network(instance, binary, rates)
    with pytest.raises(FieldTooSmall):
        assign_coefficients(net_q2, seed=0)
    _report(6, f"rank-4 code in {assignment.attempts} attempts, 100 random messages "
               f"decoded at both clients, transfer==propagation on {len(nets)} networks, "
               f"q=2 rejected")


# -- criterion 7: min-norm-point SFM ----------------------------------------------

def test_criterion_7_min_norm_point_vs_brute_force():
    rng = random.Random(2030)
    worst = Fraction(0)
    for _ in range(50):
        f = random_submodular_function(rng, 8)
        _, brute_value = sfm_brute_force(f)
        _, _, wolfe_value = min_norm_point(f)
        diff = wolfe_value - brute_value
        assert 0 <= diff <= Fraction(1, 10 ** 9)
        worst = max(worst, diff)
    _report(7, f"50 random 8-element functions, worst deviation {float(worst):.2e}")


# -- criterion 8: CLI determinism ---------------------------------------------------

def test_criterion_8_cli_determinism(capsys, tmp_path):
    for argv in (
        ["feas", str(FIXTURE_F2)],
        ["solve", str(FIXTURE_F2), "--all-clients", "--method", "exact"],
        ["solve", str(FIXTURE_F2), "--all-clients", "--method", "subgradient",
         "--iters", "120", "--gap", "0"],
    ):
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        assert cli_main(argv) == 0
        assert capsys.readouterr().out == first
    _report(8, "byte-identical CLI output across repeats of feas, exact and subgradient solve")
