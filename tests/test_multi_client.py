import itertools
import random
from fractions import Fraction

import pytest

from helpers import random_feasible_instance, random_instance_doc, single_edge_instance
from mmcast import check_feasible_multi, load_instance
from mmcast.errors import Infeasible, InvalidParameters
from mmcast.model import boundary_vector, client_subproblem
from mmcast.multi_client import (StepSchedule, exact_simplex_projection,
                                 solve_multi_bruteforce, solve_multi_exact,
                                 solve_multi_subgradient, step_size)
from mmcast.single_client import solve_single_client
from mmcast.submodular import conditional_entropy_function, in_base_polyhedron


def two_client_symmetric_doc():
    """One source feeding a relay that serves two identical clients."""
    return {
        "nodes": ["m1", "r", "t1", "t2"],
        "edges": [
            {"id": "a", "tail": "m1", "head": "r", "capacity": "4", "cost": "2"},
            {"id": "b1", "tail": "r", "head": "t1", "capacity": "4", "cost": "1"},
            {"id": "b2", "tail": "r", "head": "t2", "capacity": "4", "cost": "1"},
        ],
        "clients": ["t1", "t2"],
        "source_model": {"kind": "linear", "q": 5, "N": 3,
                         "matrices": {"m1": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}},
    }


def test_fixture_exact_cost_eleven(f2):
    instance, oracle, _ = f2
    result = solve_multi_exact(instance, oracle)
    assert result.cost == 11
    z = result.envelope
    assert z["e1"] == 0 and z["e4"] == 0
    assert z["e7"] == 4
    assert z["e2"] + z["e3"] == 3
    assert z["e5"] + z["e6"] == 4
    # every client's own rates stay inside its region and under the envelope
    for t, rates in result.per_client.items():
        sub = client_subproblem(instance, oracle, t)
        g = conditional_entropy_function(oracle, sub.sources)
        assert in_base_polyhedron(boundary_vector(rates, sub), g).member
        assert all(rates[e.id] <= z[e.id] for e in sub.edges)


def test_single_client_reduces_to_single_solve():
    instance, oracle, _ = load_instance(single_edge_instance(entropy_rows=2, capacity="2"))
    result = solve_multi_exact(instance, oracle)
    sub = client_subproblem(instance, oracle, "t")
    single = solve_single_client(sub, oracle, instance.costs(), instance.capacities())
    assert result.cost == single.cost
    assert result.envelope == single.rates


def test_symmetric_duplication_shares_the_trunk():
    instance, oracle, _ = load_instance(two_client_symmetric_doc())
    result = solve_multi_exact(instance, oracle)
    sub1 = client_subproblem(instance, oracle, "t1")
    single = solve_single_client(sub1, oracle, instance.costs(), instance.capacities())
    # trunk is shared at the single-client rate; each sink edge pays once
    assert result.envelope["a"] == single.rates["a"] == 3
    assert result.envelope["b1"] == result.envelope["b2"] == single.rates["b1"] == 3
    assert result.cost == single.cost + 3


def test_exact_infeasible_raises():
    doc = two_client_symmetric_doc()
    doc["edges"][0]["capacity"] = "2"
    instance, oracle, _ = load_instance(doc)
    with pytest.raises(Infeasible):
        solve_multi_exact(instance, oracle)


def test_infeasible_without_feasibility_check(monkeypatch):
    # no solver runs a feasibility test first: each LP must find the empty
    # region itself, whether the seed LP or an appended cut finds it, and
    # the error must carry the certificates of exactly the failing clients
    from mmcast.lp import SimplexSolver
    refused = []
    add_rows = SimplexSolver.add_rows

    def counting(self, rows):
        ok = add_rows(self, rows)
        refused.append(not ok)
        return ok

    monkeypatch.setattr(SimplexSolver, "add_rows", counting)
    doc = two_client_symmetric_doc()
    doc["edges"][0]["capacity"] = "2"
    cases = [load_instance(doc)]
    rng = random.Random(5)
    for _ in range(30):
        cases.append(load_instance(random_instance_doc(rng, n_clients=rng.randint(2, 3))))
    infeasible = 0
    solvers = (solve_multi_exact, solve_multi_bruteforce,
               lambda instance, oracle: solve_multi_subgradient(instance, oracle, max_iters=1))
    for instance, oracle, _ in cases:
        report = check_feasible_multi(instance, oracle)
        if report.feasible:
            continue
        infeasible += 1
        failing = tuple(c for c in report.certificates if not c.feasible)
        for solve in solvers:
            with pytest.raises(Infeasible) as err:
                solve(instance, oracle)
            assert err.value.certificates == failing
        for cert in failing:
            sub = client_subproblem(instance, oracle, cert.client)
            with pytest.raises(Infeasible) as err:
                solve_single_client(sub, oracle, instance.costs(), instance.capacities())
            assert err.value.certificates == (cert,)
    assert infeasible >= 20
    assert any(refused)         # draw 28 of the stream gets past its seed rows


def test_empty_lp_with_feasible_certificates_is_an_error(monkeypatch):
    # the LP and the certificates are independent routes; if they disagree
    # the solvers must say so rather than report a verdict
    from mmcast.lp import LpSolution, SimplexSolver
    instance, oracle, _ = load_instance(two_client_symmetric_doc())
    monkeypatch.setattr(SimplexSolver, "solve", lambda self: LpSolution("infeasible"))
    for solve in (solve_multi_exact, solve_multi_bruteforce,
                  lambda instance, oracle: solve_multi_subgradient(instance, oracle, max_iters=1)):
        with pytest.raises(RuntimeError):
            solve(instance, oracle)
    sub = client_subproblem(instance, oracle, "t1")
    with pytest.raises(RuntimeError):
        solve_single_client(sub, oracle, instance.costs(), instance.capacities())


def test_lazy_rows_match_bruteforce_random(monkeypatch):
    from mmcast.lp import SimplexSolver
    appends = []
    add_rows = SimplexSolver.add_rows
    monkeypatch.setattr(SimplexSolver, "add_rows",
                        lambda self, rows: appends.append(rows) or add_rows(self, rows))
    rng = random.Random(131)
    cut = 0                     # instances whose seed rows were not enough
    for _ in range(40):
        instance, oracle, _ = random_feasible_instance(
            rng, n_sources=rng.randint(4, 6), n_clients=rng.randint(2, 3))
        before = len(appends)
        lazy = solve_multi_exact(instance, oracle)
        cut += len(appends) > before
        brute = solve_multi_bruteforce(instance, oracle)
        assert lazy.cost == brute.cost
        for t, rates in lazy.per_client.items():
            sub = client_subproblem(instance, oracle, t)
            g = conditional_entropy_function(oracle, sub.sources)
            assert in_base_polyhedron(boundary_vector(rates, sub), g).member
            assert all(r <= lazy.envelope[eid] for eid, r in rates.items())
    assert cut >= 15


def test_cost_scaling_invariance(f2):
    instance, oracle, _ = f2
    base = solve_multi_exact(instance, oracle)
    import json
    from helpers import FIXTURE_F2
    doc = json.loads(FIXTURE_F2.read_text())
    for e in doc["edges"]:
        e["cost"] = "3"
    scaled_instance, scaled_oracle, _ = load_instance(doc)
    scaled = solve_multi_exact(scaled_instance, scaled_oracle)
    assert scaled.cost == 3 * base.cost
    assert scaled.envelope == base.envelope


def test_projection_examples():
    F = Fraction
    assert exact_simplex_projection([F(7, 10), F(7, 10)], 1) == [F(1, 2), F(1, 2)]
    assert exact_simplex_projection([2, -1], 1) == [1, 0]
    on_simplex = [F(1, 4), F(3, 4)]
    assert exact_simplex_projection(on_simplex, 1) == on_simplex


def _random_point(rng, k, spread):
    return [Fraction(rng.randint(-spread, spread), rng.randint(1, 7)) for _ in range(k)]


def test_projection_constraint_satisfaction_and_idempotence():
    rng = random.Random(109)
    for _ in range(200):
        k = rng.randint(2, 5)
        total = Fraction(rng.randint(2, 16), 4)
        p = exact_simplex_projection(_random_point(rng, k, 21), total)
        assert sum(p) == total
        assert all(x >= 0 for x in p)
        assert exact_simplex_projection(p, total) == p


def test_projection_against_grid_search():
    # no point of an exact grid on the simplex is closer to v than the projection
    rng = random.Random(113)
    steps = 60
    for k in (2, 3):
        for _ in range(20):
            v = _random_point(rng, k, 10)
            p = exact_simplex_projection(v, 1)
            dist = sum((x - y) ** 2 for x, y in zip(p, v))
            best, best_d = None, None
            for combo in itertools.product(range(steps + 1), repeat=k - 1):
                if sum(combo) > steps:
                    continue
                cand = [Fraction(c, steps) for c in combo] + [Fraction(steps - sum(combo), steps)]
                d = sum((x - y) ** 2 for x, y in zip(cand, v))
                if best_d is None or d < best_d:
                    best, best_d = cand, d
            assert dist <= best_d
            assert sum((x - y) ** 2 for x, y in zip(p, best)) <= Fraction(2, steps) ** 2


def test_exact_projection_optimality():
    # optimality conditions: one threshold tau with x_i = max(v_i - tau, 0)
    rng = random.Random(127)
    for _ in range(50):
        k = rng.randint(2, 4)
        v = [Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(k)]
        total = Fraction(rng.randint(1, 5))
        x = exact_simplex_projection(v, total)
        assert sum(x) == total
        taus = {vi - xi for vi, xi in zip(v, x) if xi > 0}
        assert len(taus) == 1
        tau = taus.pop()
        assert x == [max(vi - tau, 0) for vi in v]


def test_step_size_schedules():
    assert step_size(StepSchedule(1, 1, 1, 1), 2) == pytest.approx(1 / 3)
    assert step_size(StepSchedule(2, Fraction(1, 2)), 4) == pytest.approx(1 / 2)
    assert step_size(StepSchedule(1, 1, 0, 1), 1) == pytest.approx(1.0)


def test_step_size_validation():
    with pytest.raises(InvalidParameters):
        StepSchedule(1, a=0)
    with pytest.raises(InvalidParameters):
        StepSchedule(2, a=1)
    with pytest.raises(InvalidParameters):
        StepSchedule(3)
    with pytest.raises(InvalidParameters):
        step_size(StepSchedule(), 0)


def test_subgradient_fixture_converges(f2):
    instance, oracle, _ = f2
    exact = solve_multi_exact(instance, oracle)
    result = solve_multi_subgradient(instance, oracle, max_iters=20000)
    assert result.converged
    assert result.cost - exact.cost <= Fraction(1, 100) * exact.cost
    # weak duality at every recorded iterate, exact primal as the reference
    for entry in result.trace:
        assert entry.dual <= float(exact.cost) + 1e-9
    assert result.best_dual <= exact.cost


def test_subgradient_single_client_immediate():
    instance, oracle, _ = load_instance(single_edge_instance(entropy_rows=2, capacity="2"))
    result = solve_multi_subgradient(instance, oracle, max_iters=50)
    assert result.converged
    assert result.iterations == 1
    assert result.trace[0].gap == 0


def test_subgradient_recovered_rates_stay_in_region(f2):
    instance, oracle, _ = f2
    result = solve_multi_subgradient(instance, oracle, max_iters=2000)
    for t, rates in result.per_client.items():
        sub = client_subproblem(instance, oracle, t)
        g = conditional_entropy_function(oracle, sub.sources)
        assert in_base_polyhedron(boundary_vector(rates, sub), g).member
        for e in sub.edges:
            assert 0 <= rates[e.id] <= e.capacity
    for t, rates in result.per_client.items():
        for eid, r in rates.items():
            assert result.envelope[eid] >= r


def test_subgradient_custom_start_must_be_dual_feasible(f2):
    instance, oracle, _ = f2
    with pytest.raises(InvalidParameters):
        solve_multi_subgradient(instance, oracle, max_iters=10,
                                initial_multipliers={("e2", "t1"): Fraction(2)})


def test_subgradient_trace_is_deterministic(f2):
    instance, oracle, _ = f2
    a = solve_multi_subgradient(instance, oracle, max_iters=500)
    b = solve_multi_subgradient(instance, oracle, max_iters=500)
    assert [(t.n, t.dual, t.primal, t.gap) for t in a.trace] == \
        [(t.n, t.dual, t.primal, t.gap) for t in b.trace]
    assert a.cost == b.cost and a.envelope == b.envelope


def test_subgradient_power_schedule(f2):
    instance, oracle, _ = f2
    exact = solve_multi_exact(instance, oracle)
    result = solve_multi_subgradient(instance, oracle,
                                     schedule=StepSchedule(2, Fraction(1, 2)),
                                     max_iters=20000)
    assert result.converged
    assert result.cost - exact.cost <= Fraction(1, 100) * exact.cost


def test_exact_lp_against_independent_assembly():
    # rebuild the envelope LP from scratch in the test (own subset loop, own
    # boundary arithmetic, scipy solver) and compare optimal costs
    import itertools as it
    from scipy.optimize import linprog
    from helpers import random_feasible_instance

    rng = random.Random(419)
    for _ in range(12):
        instance, oracle, _ = random_feasible_instance(rng, n_clients=2)
        subs = {t: client_subproblem(instance, oracle, t) for t in instance.clients}
        var = {("Z", e.id): i for i, e in enumerate(instance.edges)}
        for t, sub in subs.items():
            for e in sub.edges:
                var[(t, e.id)] = len(var)
        n = len(var)
        a_ub, b_ub, a_eq, b_eq = [], [], [], []
        for t, sub in subs.items():
            for size in range(1, len(sub.sources) + 1):
                for s in it.combinations(sub.sources, size):
                    inside = set(s)
                    row = [0.0] * n
                    for e in sub.edges:
                        if e.tail in inside and e.head not in inside:
                            row[var[(t, e.id)]] = -1.0
                        elif e.head in inside and e.tail not in inside:
                            row[var[(t, e.id)]] = 1.0
                    rhs = float(oracle.conditional(s, sub.sources))
                    if size == len(sub.sources):
                        a_eq.append([-x for x in row])
                        b_eq.append(rhs)
                    else:
                        a_ub.append(row)
                        b_ub.append(-rhs)
            for e in sub.edges:
                row = [0.0] * n
                row[var[(t, e.id)]] = 1.0
                row[var[("Z", e.id)]] = -1.0
                a_ub.append(row)
                b_ub.append(0.0)
        c = [0.0] * n
        covered = {eid for (t, eid) in var if t != "Z"}
        bounds = [None] * n
        for (t, eid), idx in var.items():
            cap = float(instance.edge_map()[eid].capacity)
            if t == "Z":
                c[idx] = float(instance.edge_map()[eid].cost)
                bounds[idx] = (0.0, cap if eid in covered else 0.0)
            else:
                bounds[idx] = (0.0, cap)
        ref = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                      bounds=bounds, method="highs")
        assert ref.status == 0
        mine = solve_multi_exact(instance, oracle)
        assert abs(float(mine.cost) - ref.fun) < 1e-7


def test_subgradient_no_progress_warning(f2):
    instance, oracle, _ = f2
    result = solve_multi_subgradient(instance, oracle, gap_tol=0, patience=1,
                                     max_iters=10000)
    assert result.warning == "no_progress"
    assert not result.converged
    assert result.cost >= result.best_dual   # best iterate still returned


def test_exact_solves_past_the_reference_budget():
    # the lazy LP has no mask budget: 17 chained sources are 2^17 masks,
    # above the 2^16 that the brute-force reference materializes
    from mmcast.errors import BudgetExceeded
    from helpers import long_chain_doc
    instance, oracle, _ = load_instance(long_chain_doc(17, n_clients=1))
    assert solve_multi_exact(instance, oracle).cost == 2 * 17 - 1
    with pytest.raises(BudgetExceeded):
        solve_multi_bruteforce(instance, oracle)


def test_more_than_64_sources():
    # oracle masks are Python ints, so a document may hold any number of
    # sources; each client here reaches only the root and its own chain
    chains, length = 8, 8
    nodes, edges, clients = ["r"], [], []
    for i in range(chains):
        chain = [f"c{i}_{j}" for j in range(length)]
        nodes += chain
        clients.append(f"t{i}")
        for j, (tail, head) in enumerate(zip(["r"] + chain, chain + [f"t{i}"])):
            edges.append({"id": f"e{i}_{j}", "tail": tail, "head": head,
                          "capacity": "3", "cost": "1"})
    doc = {"nodes": nodes + clients, "edges": edges, "clients": clients,
           "source_model": {"kind": "linear", "q": 5, "N": 2,
                            "matrices": {"r": [[1, 0], [0, 1]]}}}
    instance, oracle, _ = load_instance(doc)
    assert len(instance.sources) == 65
    assert check_feasible_multi(instance, oracle).feasible
    # every client draws the root's 2 packets over its own 9 edges
    assert solve_multi_exact(instance, oracle).cost == 2 * (length + 1) * chains
