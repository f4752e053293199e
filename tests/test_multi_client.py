import itertools
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from helpers import REPO, random_feasible_instance, random_instance_doc, single_edge_instance
from mmcast import check_feasible_multi, load_instance
from mmcast.errors import Infeasible, InvalidParameters
from mmcast.lp import integral
from mmcast.model import boundary_vector, client_subproblem
import mmcast.multi_client as multi_client
from mmcast.multi_client import (DEFAULT_GAP_TOL, DEFAULT_MAX_ITERS, StepSchedule,
                                 SubgradientResult, TraceEntry, exact_simplex_projection,
                                 solve_multi_bruteforce, solve_multi_exact,
                                 solve_multi_subgradient, step_size)
from mmcast.single_client import (RegionOptimizer, solve_single_client,
                                  solve_single_client_bruteforce)
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
    calls = []                  # "add_rows", then each resolve's status
    add_rows, resolve = SimplexSolver.add_rows, SimplexSolver.resolve

    def resolving(self, objective):
        solution = resolve(self, objective)
        calls.append(solution.status)
        return solution

    monkeypatch.setattr(SimplexSolver, "add_rows",
                        lambda self, rows: calls.append("add_rows") or add_rows(self, rows))
    monkeypatch.setattr(SimplexSolver, "resolve", resolving)
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
    # draw 28 of the stream gets past its seed rows: a resolve after a cut finds the LP empty
    assert ("add_rows", "infeasible") in zip(calls, calls[1:])


def test_an_empty_lp_certifies_each_client_once(monkeypatch):
    # every route explains an empty LP from the subproblems it holds: one
    # reconstructability check, and one certificate per client, the failing
    # client's included, whichever LP found the region empty
    import mmcast.feasibility as feasibility
    import mmcast.model as model
    rng = random.Random(5)
    while True:
        instance, oracle, _ = load_instance(random_instance_doc(rng, n_clients=3))
        report = check_feasible_multi(instance, oracle)
        if not report.feasible:
            break
    failing = tuple(c for c in report.certificates if not c.feasible)
    calls = Counter()

    def counted(module, name):
        original = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args: calls.update([name]) or original(*args))

    counted(feasibility, "check_feasible_single")
    counted(model, "check_reconstructability")
    for solve in (solve_multi_exact, solve_multi_bruteforce,
                  lambda instance, oracle: solve_multi_subgradient(instance, oracle, max_iters=1)):
        calls.clear()
        with pytest.raises(Infeasible) as err:
            solve(instance, oracle)
        assert err.value.certificates == failing
        assert calls == {"check_feasible_single": 3, "check_reconstructability": 1}


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
    for solve in (solve_single_client, solve_single_client_bruteforce):
        with pytest.raises(RuntimeError):
            solve(sub, oracle, instance.costs(), instance.capacities())


def test_a_cut_that_keeps_its_vertex_is_an_error(monkeypatch, f2):
    # a violated cut always moves x, so a separation fault must raise, not
    # append the same row forever; the cap turns such a loop into a failure
    from mmcast.lp import SimplexSolver
    from mmcast.model import Region
    from mmcast.single_client import ClientCuts, layout
    instance, oracle, _ = f2
    appends = []
    add_rows = SimplexSolver.add_rows

    def capped(self, rows):
        appends.append(rows)
        assert len(appends) <= 200, "the cutting planes do not stop"
        return add_rows(self, rows)

    monkeypatch.setattr(SimplexSolver, "add_rows", capped)
    boundary = Region.boundary
    _, columns = layout(instance.edges, [client_subproblem(instance, oracle, t)
                                         for t in instance.clients])
    following = {t: columns[(i + 1) % len(columns)] for i, t in enumerate(instance.clients)}

    def next_slice(self, x):
        # as many columns as the client has, of the next client's (the first's after the last)
        return [x[k] for k in following[self.sub.client][:len(self.sub.edges)]]

    def late_slice(self, x):
        # one column late, on either route
        return [x[k + 1] for k in self.columns if k + 1 < len(x)]

    for owner, name, mutant in ((Region, "boundary", lambda self, r: boundary(self, r[::-1])),
                                (ClientCuts, "rates", late_slice)):
        with monkeypatch.context() as m:
            m.setattr(owner, name, mutant)
            for t in ("t1", "t2"):
                sub = client_subproblem(instance, oracle, t)
                with pytest.raises(RuntimeError,
                                   match=f"the cuts of masks {{'{t}': .*}} keep their vertex"):
                    solve_single_client(sub, oracle, instance.costs(), instance.capacities())
            with pytest.raises(RuntimeError, match=r"the cuts of masks \{.*\} keep their vertex"):
                solve_multi_exact(instance, oracle)
    with monkeypatch.context() as m:
        m.setattr(ClientCuts, "rates", next_slice)
        with pytest.raises(RuntimeError, match=r"the cuts of masks \{.*\} keep their vertex"):
            solve_multi_exact(instance, oracle)


def test_a_cut_on_a_row_the_lp_holds_is_named_before_it_is_appended(monkeypatch, f2):
    # the ground equality and every pool row already hold at a correct point, so a
    # separation that returns one of them is at fault, and no row is appended
    from mmcast.lp import SimplexSolver
    from mmcast.single_client import ClientCuts
    instance, oracle, _ = f2
    appends = []
    add_rows = SimplexSolver.add_rows
    monkeypatch.setattr(SimplexSolver, "add_rows",
                        lambda self, rows: appends.append(rows) or add_rows(self, rows))
    sub = client_subproblem(instance, oracle, "t1")
    for held in (lambda c: c.region.full, lambda c: c.pool[0]):
        with monkeypatch.context() as m:
            m.setattr(ClientCuts, "separate", lambda self, x: held(self))
            with pytest.raises(RuntimeError, match=r"the cuts of masks \{'t1': \d+\} keep"):
                solve_single_client(sub, oracle, instance.costs(), instance.capacities())
            with pytest.raises(RuntimeError,
                               match=r"the cuts of masks \{'t1': \d+, 't2': \d+\} keep"):
                solve_multi_exact(instance, oracle)
    assert appends == []


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
            rng, n_sources=rng.randint(4, 7), n_clients=rng.randint(2, 3),
            half_integral=rng.random() < 0.5)
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


def test_projection_rejects_a_nonpositive_total():
    # {x >= 0, sum(x) = total} is a point at total 0 and empty below it
    for total in (Fraction(0), 0, -1, Fraction(-1, 2), 0.0):
        with pytest.raises(InvalidParameters, match="total"):
            exact_simplex_projection([0.5, 0.25], total)
    # and no empty vector sums to a positive total
    with pytest.raises(InvalidParameters, match="total"):
        exact_simplex_projection([], 1)


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


def _reference_projection(v, total):
    """Sort-and-threshold taken in Fractions throughout."""
    v = [Fraction(x) for x in v]
    acc, tau = Fraction(0), None
    for j, uj in enumerate(sorted(v, reverse=True), start=1):
        acc += uj
        candidate = (acc - total) / j
        if uj - candidate > 0:
            tau = candidate
    return [max(x - tau, Fraction(0)) for x in v]


def _ascent_like_point(rng, k):
    # what the ascent step hands the projection: floats of mixed binary
    # exponents, negatives, exact zeros and repeated values
    v = []
    for _ in range(k):
        draw = rng.random()
        if draw < 0.15:
            v.append(rng.choice((0.0, -0.0)))
        elif draw < 0.3 and v:
            v.append(rng.choice(v))
        else:
            v.append(rng.uniform(-1, 1) * 2.0 ** rng.randint(-40, 8))
    return v


def test_projection_of_ascent_floats_equals_the_fraction_threshold():
    rng = random.Random(131)
    for _ in range(400):
        v = _ascent_like_point(rng, rng.randint(2, 6))
        d = rng.choice((2, 3, 5, 7, 10, 12))
        total = Fraction(d * rng.randint(0, 9) + 1, d)      # in lowest terms, denominator d
        x = exact_simplex_projection(v, total)
        assert x == _reference_projection(v, total)
        assert all(type(xi) is Fraction and xi >= 0 for xi in x)
        assert sum(x) == total
        taus = {Fraction(vi) - xi for vi, xi in zip(v, x) if xi > 0}
        assert len(taus) == 1
        tau = taus.pop()
        assert x == [max(Fraction(vi) - tau, 0) for vi in v]


def test_equal_entries_project_to_the_uniform_point():
    # the projection commutes with a shift along the all-ones vector, so k equal entries
    # land on total / k each whatever their value: the subgradient keeps that point
    # without a call
    for total in (1, 7, Fraction(5, 3), Fraction(1, 12)):
        for k in range(1, 6):
            for value in (-1e300, -3.75, -1e-30, -0.0, 0.0, 0.1, 2.0 ** 40, 1e300):
                assert exact_simplex_projection([value] * k, total) == [Fraction(total, k)] * k


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
    with pytest.raises(InvalidParameters, match="True"):
        StepSchedule(kind=True)
    with pytest.raises(InvalidParameters):
        step_size(StepSchedule(), 0)


@pytest.mark.parametrize("kind, params", [
    (1, {"a": float("inf")}), (1, {"a": 1e300, "b": 0, "c": 1e-300}),
    (1, {"b": float("inf")}), (1, {"c": float("nan")}), (1, {"b": 0, "c": Fraction(1, 10 ** 400)}),
    (2, {"a": float("inf")}), (2, {"a": float("nan")}),
], ids=["a inf", "a/(b + c) overflows", "b inf", "c nan", "b + c underflows", "kind 2 a inf",
        "kind 2 a nan"])
def test_a_step_that_is_not_a_finite_float_is_refused(kind, params):
    # each used to reach the projection, which died with a bare OverflowError or ValueError
    with pytest.raises(InvalidParameters) as err:
        StepSchedule(kind, **params)
    assert all(str(value) in str(err.value) for value in params.values())


def test_an_ascent_step_that_overflows_is_refused():
    # a finite first step times a rate of 2 overflows a float: the projection names the entry
    for v in ([1.0, float("inf")], [float("nan"), 0.5]):
        with pytest.raises(InvalidParameters, match="finite"):
            exact_simplex_projection(v, 1)
    instance, oracle, _ = random_feasible_instance(random.Random(152), n_sources=6, n_clients=3)
    with pytest.raises(InvalidParameters, match="inf"):
        solve_multi_subgradient(instance, oracle, schedule=StepSchedule(1, 1e308, 0, 1),
                                max_iters=5, gap_tol=0)


def test_an_overflowing_step_keeps_the_partial_result():
    # Random(266)'s first non-finite step has equal entries, [inf, inf, inf], which must
    # not pass for a uniform step; Random(152)'s mixes finite and infinite ones.  Either
    # way the error carries the best point and the best dual that the run already holds
    for seed, entries in ((266, "[inf, inf, inf]"), (152, "[0.3333333333333333, inf")):
        instance, oracle, _ = random_feasible_instance(random.Random(seed), n_sources=6,
                                                       n_clients=3)
        with pytest.raises(InvalidParameters, match=re.escape(entries)) as err:
            solve_multi_subgradient(instance, oracle, schedule=StepSchedule(1, 1e308, 0, 1),
                                    max_iters=5, gap_tol=0)
        partial = err.value.result
        assert type(partial) is SubgradientResult
        assert partial.warning == "step_overflow" and not partial.converged
        assert partial.iterations == len(partial.trace) == len(partial.dual_history) >= 1
        assert partial.best_dual <= solve_multi_exact(instance, oracle).cost <= partial.cost
        for t, rates in partial.per_client.items():
            sub = client_subproblem(instance, oracle, t)
            g = conditional_entropy_function(oracle, sub.sources)
            assert in_base_polyhedron(boundary_vector(rates, sub), g).member


@pytest.mark.parametrize("options", [{"max_iters": 0}, {"gap_tol": -1},
                                     {"gap_tol": Fraction(-1, 100)}, {"gap_tol": float("nan")},
                                     {"gap_tol": float("inf")}, {"max_iters": 2.5},
                                     {"max_iters": True}, {"gap_tol": True},
                                     {"gap_tol": 1e-13}, {"gap_tol": Fraction(1, 10 ** 13)}],
                         ids=["max_iters 0", "gap_tol -1", "gap_tol -1/100", "gap_tol nan",
                              "gap_tol inf", "max_iters 2.5", "max_iters True", "gap_tol True",
                              "gap_tol 1e-13", "gap_tol 1/10^13"])
def test_subgradient_parameter_validation(f2, options):
    # a relative gap is never negative: a negative tolerance could only run to the cap;
    # the iteration cap is an int and the tolerance a finite number, neither a bool; a
    # positive tolerance that the 10**-12 rounding would make 0 could only run to the cap
    instance, oracle, _ = f2
    with pytest.raises(InvalidParameters) as err:
        solve_multi_subgradient(instance, oracle, **options)
    assert repr(*options.values()) in str(err.value)


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


def test_subgradient_zero_entropy_converges_at_once():
    # the sources observe nothing: every inner optimum is x = 0, so the dual,
    # the primal and the gap are 0 and the first iteration converges
    edges = [("ab", "a", "b"), ("b1", "b", "t1"), ("b2", "b", "t2")]
    doc = {"nodes": ["a", "b", "t1", "t2"], "clients": ["t1", "t2"],
           "edges": [{"id": e, "tail": u, "head": v, "capacity": "3", "cost": "1"}
                     for e, u, v in edges],
           "source_model": {"kind": "linear", "q": 5, "N": 2, "matrices": {}}}
    instance, oracle, _ = load_instance(doc)
    result = solve_multi_subgradient(instance, oracle, max_iters=50)
    assert result.cost == 0 and result.converged and result.warning is None
    assert result.iterations == 1
    assert result.trace == [TraceEntry(n=1, dual=0.0, primal=0.0, gap=0.0)]
    assert set(result.envelope.values()) == {0}
    assert solve_multi_exact(instance, oracle).cost == 0


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


def test_subgradient_envelope_and_cost_of_the_recovered_point(f2):
    # on F2 the first iterate stays the best; on the 3-client draw the envelope of
    # iteration 2's vertices improves on it, and on the benchmark pool's member
    # subgradient:m8:1 the average of 19 iterations does, so its point is an average
    # of many inner solutions
    rng = random.Random(140)
    doc = random_instance_doc(random.Random("subgradient:m8:1"), n_sources=8, n_clients=3,
                              max_capacity=8)
    cases = [f2[:2], random_feasible_instance(rng, n_clients=3)[:2], load_instance(doc)[:2]]
    for instance, oracle in cases:
        result = solve_multi_subgradient(instance, oracle, max_iters=100)
        assert len(result.per_client) == len(instance.clients)
        for e in instance.edges:
            rates = [r[e.id] for r in result.per_client.values() if e.id in r]
            assert result.envelope[e.id] == max(rates, default=0)
        assert result.cost == sum(e.cost * result.envelope[e.id] for e in instance.edges)
        values = list(result.envelope.values())
        values += [r for rates in result.per_client.values() for r in rates.values()]
        assert all(type(z) is Fraction for z in values + [result.cost])
        # the returned point is the best recovered one
        assert float(result.cost) == min(entry.primal for entry in result.trace)
    assert result.trace[0].primal > result.cost
    assert result.iterations == 19 and 19 in {z.denominator for z in result.envelope.values()}


def test_subgradient_stops_once_the_returned_point_is_within_the_gap():
    # the trace's primal is the point returned so far, the cheapest recovered one, so
    # it and the gap never rise, and the run stops at the first iteration where the gap
    # is within the tolerance.  The first draw is the benchmark pool's member
    # subgradient:m8:11: the point it returned, its first iterate, was within 1% of the
    # best dual from iteration 6 on, yet the gap of the current average sent the run on
    # to the cap of 30
    doc = random_instance_doc(random.Random("subgradient:m8:11"), n_sources=8, n_clients=3,
                              max_capacity=8)
    rng = random.Random(152)
    cases = [load_instance(doc)[:2]]
    cases += [random_feasible_instance(rng, n_sources=8, n_clients=3, max_capacity=8)[:2]
              for _ in range(5)]
    tol, cap = Fraction(1, 100), 30
    results = [solve_multi_subgradient(instance, oracle, max_iters=cap, gap_tol=tol)
               for instance, oracle in cases]
    assert results[0].converged
    for (instance, oracle), result in zip(cases, results):
        primals = [entry.primal for entry in result.trace]
        gaps = [entry.gap for entry in result.trace]
        assert primals == sorted(primals, reverse=True)
        assert gaps == sorted(gaps, reverse=True)
        within = [entry.n for entry in result.trace if entry.gap <= tol]
        assert within == ([result.iterations] if result.converged else [])
        assert result.converged or result.iterations == cap
        assert float(result.cost) == min(primals)
        if result.converged:
            assert result.cost - result.best_dual <= tol * result.best_dual
        for t, rates in result.per_client.items():
            sub = client_subproblem(instance, oracle, t)
            g = conditional_entropy_function(oracle, sub.sources)
            assert in_base_polyhedron(boundary_vector(rates, sub), g).member


def test_subgradient_trace_is_deterministic(f2):
    instance, oracle, _ = f2
    a = solve_multi_subgradient(instance, oracle, max_iters=500)
    b = solve_multi_subgradient(instance, oracle, max_iters=500)
    assert [(t.n, t.dual, t.primal, t.gap) for t in a.trace] == \
        [(t.n, t.dual, t.primal, t.gap) for t in b.trace]
    assert a.cost == b.cost and a.envelope == b.envelope


def test_subgradient_inner_solutions_pass_separation(f2, monkeypatch):
    # an inner solve skips separation only for a vertex its own optimizer
    # certified before: every returned vector and every remembered one must
    # pass separation, no optimizer separates a vertex twice, and the skips
    # happen: fewer separations than LP solves
    import mmcast.single_client as single_client
    separate, minimize = single_client.most_violated, single_client.RegionOptimizer.minimize
    separated = Counter()       # (region, vertex) -> separations
    returned = {}               # optimizer -> the vertices it returned
    solves = 0

    def counted(region, rates):
        separated[region, tuple(rates)] += 1
        return separate(region, rates)

    def checked(self, costs):
        nonlocal solves
        x, value, count = minimize(self, costs)
        assert separate(self.region, x) is None
        returned.setdefault(self, set()).add(tuple(x))
        solves += count
        return x, value, count

    monkeypatch.setattr(single_client, "most_violated", counted)
    monkeypatch.setattr(single_client.RegionOptimizer, "minimize", checked)
    for instance, oracle in _subgradient_cases(f2):
        solve_multi_subgradient(instance, oracle, max_iters=30)
    assert max(separated.values()) == 1
    assert sum(separated.values()) < solves
    for opt, vertices in returned.items():
        remembered = {tuple(Fraction(*ratio) for ratio in key) for key in opt._certified}
        for x in remembered:
            assert separate(opt.region, x) is None
        assert remembered <= vertices


def test_exact_route_separates_a_passed_slice_once(f2, monkeypatch):
    # within one solve_multi_exact, a client's slice that passed separation
    # is skipped when a later round returns it, and a violated one is cut
    # off: no client's slice is separated twice, every remembered slice
    # passes separation, and the skips happen: fewer separations than
    # slices presented (each round presents every client's slice)
    import mmcast.single_client as single_client
    from mmcast.lp import SimplexSolver
    separate = single_client.most_violated
    separated = Counter()       # (region, slice) -> separations
    made = []                   # every client of every LP
    presented = 0
    add_rows = SimplexSolver.add_rows

    class Recorded(single_client.ClientCuts):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    def counted(region, rates):
        separated[region, tuple(rates)] += 1
        return separate(region, rates)

    def rounds(self, rows):
        nonlocal presented
        presented += n_clients
        return add_rows(self, rows)

    monkeypatch.setattr(multi_client, "ClientCuts", Recorded)
    monkeypatch.setattr(single_client, "most_violated", counted)
    monkeypatch.setattr(SimplexSolver, "add_rows", rounds)
    rng = random.Random(151)
    cases = [f2[:2]] + [random_feasible_instance(rng, n_sources=6 + i % 2, n_clients=2 + i % 2,
                                                 max_capacity=8)[:2] for i in range(12)]
    for instance, oracle in cases:
        n_clients = len(instance.clients)
        solve_multi_exact(instance, oracle)
        presented += n_clients          # the last round, which adds no row
    assert max(separated.values()) == 1
    assert sum(separated.values()) < presented
    for c in made:
        for key in c._certified:
            x = tuple(Fraction(*ratio) for ratio in key)
            assert separate(c.region, x) is None
            assert (c.region, x) in separated


def _subgradient_cases(f2):
    rng = random.Random(150)
    return [f2[:2]] + [random_feasible_instance(rng, n_sources=8, n_clients=3,
                                                max_capacity=8)[:2] for _ in range(10)]


def _dict_keyed_subgradient(instance, oracle, max_iters=DEFAULT_MAX_ITERS,
                            gap_tol=DEFAULT_GAP_TOL):
    """Reference: the subgradient loop on dicts keyed by edge id and (edge id, client).

    Each inner call builds its weights dict and reads the optimizer's x
    back into a rates dict; the step reads float() of each multiplier.  The
    best primal is the ergodic average, or the envelope of the iteration's
    rates dicts when that is strictly cheaper; the trace and the gap read it.
    """
    schedule = StepSchedule()
    gap_tol = Fraction(gap_tol).limit_denominator(10 ** 12)
    subs = {t: client_subproblem(instance, oracle, t) for t in instance.clients}
    clients = instance.clients
    caps = instance.capacities()
    costs = instance.costs()
    sharing = {}
    for t in clients:
        for e in subs[t].edges:
            sharing.setdefault(e.id, []).append(t)
    lam = {}
    for eid, ts in sharing.items():
        share = costs[eid] / len(ts)
        for t in ts:
            lam[(eid, t)] = share
    optimizers = {t: RegionOptimizer(subs[t], oracle, caps) for t in clients}
    rate_sum = {t: {e.id: 0 for e in subs[t].edges} for t in clients}
    int_costs = {eid: integral(c) for eid, c in costs.items()}
    trace, dual_history = [], []
    best_dual = best_primal = best_gap = None
    since_improvement = 0
    converged = False
    warning = None

    def inner(t):
        weights = {e.id: lam[(e.id, t)] for e in subs[t].edges}
        x, value, _ = optimizers[t].minimize([weights[e.id] for e in subs[t].edges])
        return {e.id: r for e, r in zip(subs[t].edges, x)}, value

    n = 0
    for n in range(1, max_iters + 1):
        results = [inner(t) for t in clients]
        dual_value = sum((value for _, value in results), Fraction(0))
        dual_history.append(dual_value)
        if best_dual is None or dual_value > best_dual:
            best_dual = dual_value
        top = dict.fromkeys(costs, 0)
        vertex_top = dict.fromkeys(costs, 0)
        for t, (rates, _) in zip(clients, results):
            acc = rate_sum[t]
            for eid, r in rates.items():
                acc[eid] = total = acc[eid] + integral(r)
                if total > top[eid]:
                    top[eid] = total
                if r > vertex_top[eid]:
                    vertex_top[eid] = r
        ergodic_cost = Fraction(sum(c * top[eid] for eid, c in int_costs.items()), n)
        if best_primal is None or ergodic_cost < best_primal[0]:
            best_primal = (ergodic_cost, top, {t: dict(rate_sum[t]) for t in clients}, n)
        vertex_cost = sum(c * vertex_top[eid] for eid, c in int_costs.items())
        if vertex_cost < best_primal[0]:
            best_primal = (Fraction(vertex_cost), vertex_top,
                           {t: rates for t, (rates, _) in zip(clients, results)}, 1)
        primal_cost = best_primal[0]
        if best_dual > 0:
            gap = (primal_cost - best_dual) / best_dual
        elif primal_cost == 0:
            gap = Fraction(0)
        else:
            gap = None
        trace.append(TraceEntry(n, float(dual_value), float(primal_cost),
                                float(gap) if gap is not None else float("inf")))
        if gap is not None and gap <= gap_tol:
            converged = True
            break
        if best_gap is None or (gap is not None and gap < best_gap):
            best_gap = gap
            since_improvement = 0
        else:
            since_improvement += 1
            if since_improvement >= multi_client.PATIENCE:
                warning = "no_progress"
                break
        theta = step_size(schedule, n)
        t_rates = {t: rates for t, (rates, _) in zip(clients, results)}
        for eid, ts in sharing.items():
            if len(ts) == 1:
                continue
            moved = [float(lam[(eid, t)]) + theta * float(t_rates[t].get(eid, 0))
                     for t in ts]
            for t, value in zip(ts, exact_simplex_projection(moved, costs[eid])):
                lam[(eid, t)] = value
    else:
        warning = "max_iters"
    cost, top, sums, k = best_primal
    envelope = {eid: Fraction(z, k) for eid, z in top.items()}
    per_client = {t: {eid: Fraction(v, k) for eid, v in acc.items()} for t, acc in sums.items()}
    return SubgradientResult(envelope, per_client, cost, trace, n,
                             converged, warning, best_dual, dual_history)


def test_subgradient_matches_the_dict_keyed_loop(f2):
    # the column-ordered loop returns the reference's result field for field
    # (multipliers, inner solves, averages, cost and trace alike)
    instance, oracle = f2[:2]
    runs = [(instance, oracle, {}), (instance, oracle, {"max_iters": 500}),
            (instance, oracle, {"max_iters": 500, "gap_tol": 0})]
    runs += [(instance, oracle, {"max_iters": cap})
             for instance, oracle in _subgradient_cases(f2)[1:] for cap in (30, 200)]
    warnings = set()
    for instance, oracle, options in runs:
        want = _dict_keyed_subgradient(instance, oracle, **options)
        got = solve_multi_subgradient(instance, oracle, **options)
        assert repr(got) == repr(want)
        warnings.add(got.warning)
    assert warnings == {None, "max_iters"}


def test_the_subgradient_projects_only_steps_with_unequal_entries(f2, monkeypatch):
    # the dict-keyed reference projects every shared edge's step; the loop calls the
    # projection once for each of those steps whose moved entries differ, in the same
    # order, and for no other step
    project = exact_simplex_projection
    calls = {"loop": [], "reference": []}

    def spy(name):
        def projection(v, total):
            calls[name].append((list(v), total))
            return project(v, total)
        return projection
    monkeypatch.setattr(multi_client, "exact_simplex_projection", spy("loop"))
    monkeypatch.setitem(globals(), "exact_simplex_projection", spy("reference"))
    uniform = projected = 0
    for instance, oracle in _subgradient_cases(f2):
        calls["loop"].clear()
        calls["reference"].clear()
        got = solve_multi_subgradient(instance, oracle, max_iters=30)
        assert repr(got) == repr(_dict_keyed_subgradient(instance, oracle, max_iters=30))
        unequal = [(v, total) for v, total in calls["reference"] if len(set(v)) > 1]
        assert calls["loop"] == unequal
        uniform += len(calls["reference"]) - len(unequal)
        projected += len(unequal)
    assert uniform > 0 and projected > 0


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
        edges = {e.id: e for e in instance.edges}
        for (t, eid), idx in var.items():
            cap = float(edges[eid].capacity)
            if t == "Z":
                c[idx] = float(edges[eid].cost)
                bounds[idx] = (0.0, cap if eid in covered else 0.0)
            else:
                bounds[idx] = (0.0, cap)
        ref = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                      bounds=bounds, method="highs")
        assert ref.status == 0
        mine = solve_multi_exact(instance, oracle)
        assert abs(float(mine.cost) - ref.fun) < 1e-7


def test_subgradient_no_progress_warning(monkeypatch, f2):
    # one iteration without a better gap is enough to stop
    monkeypatch.setattr(multi_client, "PATIENCE", 1)
    instance, oracle, _ = f2
    result = solve_multi_subgradient(instance, oracle, gap_tol=0, max_iters=10000)
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


def _le_form(coeffs, rel, rhs):
    """The ``<=`` rows of one LP row over dict coefficients: ``>=`` is negated, ``==`` gives two."""
    rows = [] if rel == ">=" else [(coeffs, rhs)]
    if rel != "<=":
        rows.append(({j: -a for j, a in coeffs.items()}, -rhs))
    return rows


def test_final_tableau_holds_an_exact_dual_certificate(monkeypatch):
    # after the last resolve, the objective row's entries at the slack
    # columns give a dual y of the <= rows (the LP rows, then the caps, then
    # the cuts); checked exactly against the LP's own rows: y <= 0,
    # c - A^T y >= 0 and b.y equal to the optimal cost
    from mmcast.lp import SimplexSolver
    solvers = []

    class Recorded(SimplexSolver):
        def __init__(self, lp):
            self.seed_rows = len(lp.rows)
            super().__init__(lp)
            solvers.append(self)

    monkeypatch.setattr(multi_client, "SimplexSolver", Recorded)
    rng = random.Random(139)
    optima = cut = 0
    while optima < 24:
        m = 6 + optima % 7
        instance, oracle, _ = load_instance(random_instance_doc(rng, n_sources=m, n_clients=3,
                                                                max_capacity=8))
        solvers.clear()
        try:
            rates = solve_multi_exact(instance, oracle)
        except Infeasible:
            continue
        solver, = solvers
        lp, n = solver.lp, len(solver.lp.objective)
        rows = [r for row in lp.rows[:solver.seed_rows] for r in _le_form(*row)]
        rows += [({j: 1}, u) for j, u in enumerate(lp.upper) if u is not None]
        rows += [r for row in lp.rows[solver.seed_rows:] for r in _le_form(*row)]
        assert len(rows) == len(solver.tableau)
        obj, gamma = solver._objective_row(lp.objective)
        y = [Fraction(-obj[n + i], solver.det * gamma) for i in range(len(rows))]
        assert all(yi <= 0 for yi in y)
        for j, c in enumerate(lp.objective):
            assert c - sum(yi * row.get(j, 0) for yi, (row, _) in zip(y, rows)) >= 0
        assert sum(yi * b for yi, (_, b) in zip(y, rows)) == rates.cost
        optima += 1
        cut += len(lp.rows) > solver.seed_rows
    assert cut >= 15


def test_the_lp_has_z_on_used_edges_and_couplings_on_shared_edges_only(monkeypatch):
    # t1 and t2 share e2 and e3; e1 and e4 are t1's alone, e5 and e6 t2's alone, and
    # e7 runs into the relay r, which reaches no client
    import mmcast.multi_client as multi_client
    from mmcast.lp import SimplexSolver
    from mmcast.single_client import layout
    built = []

    class Recorded(SimplexSolver):
        def __init__(self, lp):
            super().__init__(lp)
            built.append(lp)

    monkeypatch.setattr(multi_client, "SimplexSolver", Recorded)
    instance, oracle, _ = load_instance(REPO / "tests" / "data" / "layout.json")
    subs = [client_subproblem(instance, oracle, t) for t in instance.clients]
    assert [[e.id for e in sub.edges] for sub in subs] == [["e1", "e2", "e3", "e4"],
                                                           ["e2", "e3", "e5", "e6"]]
    used = {f"e{i}": i - 1 for i in range(1, 7)}
    assert layout(instance.edges, subs) == (used, [[0, 6, 7, 3], [8, 9, 4, 5]])
    exact = solve_multi_exact(instance, oracle)
    brute = solve_multi_bruteforce(instance, oracle)
    assert len(built) == 2
    edges = {e.id: e for e in instance.edges}
    couplings = [({1: 1, 6: -1}, ">=", 0), ({2: 1, 7: -1}, ">=", 0),     # t1 on e2, e3
                 ({1: 1, 8: -1}, ">=", 0), ({2: 1, 9: -1}, ">=", 0)]     # t2 on e2, e3
    for lp in built:
        # Z on the six used edges, costed and capped, then the four shared rate columns
        assert lp.objective == [edges[e].cost for e in used] + [0] * 4
        assert lp.upper == [edges[e].capacity for e in used] + [None] * 4
        assert [row for row in lp.rows if row in couplings] == couplings
        # every other row is a region row: on one client's columns, none of them a coupling
        for coeffs, rel, rhs in lp.rows:
            if (coeffs, rel, rhs) not in couplings:
                assert set(coeffs) <= {0, 6, 7, 3} or set(coeffs) <= {8, 9, 4, 5}
    assert exact.envelope["e7"] == brute.envelope["e7"] == 0
    assert (exact.cost, exact.envelope, exact.per_client) == (brute.cost, brute.envelope,
                                                             brute.per_client)
    assert exact.cost == 10
