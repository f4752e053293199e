import random
from collections import Counter
from fractions import Fraction

import pytest

from helpers import chain_instance, random_feasible_instance, single_edge_instance
from mmcast import load_instance
from mmcast.errors import Infeasible
from mmcast.feasibility import check_feasible_single
from mmcast.model import boundary, boundary_vector, client_subproblem
from mmcast.single_client import solve_single_client, solve_single_client_bruteforce
from mmcast.submodular import (conditional_entropy_function, entropy_function,
                               in_base_polyhedron, members)


def test_chain_forced_rates():
    instance, oracle, _ = load_instance(chain_instance())
    sub = client_subproblem(instance, oracle, "t")
    s = solve_single_client(sub, oracle, instance.costs(), instance.capacities())
    assert s.rates == {"c1": Fraction(1), "c2": Fraction(2)}
    assert s.cost == 3


def test_fixture_t2_cost_seven(f2):
    instance, oracle, _ = f2
    sub = client_subproblem(instance, oracle, "t2")
    s = solve_single_client(sub, oracle, instance.costs(), instance.capacities())
    assert s.cost == 7
    assert s.rates["e7"] == 4
    assert s.rates["e2"] + s.rates["e3"] == 3
    assert 1 <= s.rates["e2"] <= 2
    assert 1 <= s.rates["e3"] <= 2


def test_single_edge_weighted_cost():
    instance, oracle, _ = load_instance(single_edge_instance(entropy_rows=3, capacity="3",
                                                             cost="5"))
    sub = client_subproblem(instance, oracle, "t")
    s = solve_single_client(sub, oracle, instance.costs(), instance.capacities())
    assert s.rates == {"e": Fraction(3)}
    assert s.cost == 15


def test_fixture_t1_pinned_regression(f2):
    # frozen after the first full-enumeration run: unit-cost optimum for t1
    instance, oracle, _ = f2
    sub = client_subproblem(instance, oracle, "t1")
    cutting = solve_single_client(sub, oracle, instance.costs(), instance.capacities())
    brute = solve_single_client_bruteforce(sub, oracle, instance.costs(),
                                           instance.capacities())
    assert cutting.cost == brute.cost == 6


def test_bruteforce_matches_on_examples(f2):
    instance, oracle, _ = f2
    for doc in (chain_instance(), single_edge_instance()):
        inst, orc, _ = load_instance(doc)
        sub = client_subproblem(inst, orc, inst.clients[0])
        a = solve_single_client(sub, orc, inst.costs(), inst.capacities())
        b = solve_single_client_bruteforce(sub, orc, inst.costs(), inst.capacities())
        assert a.cost == b.cost
    sub = client_subproblem(instance, oracle, "t2")
    a = solve_single_client(sub, oracle, instance.costs(), instance.capacities())
    b = solve_single_client_bruteforce(sub, oracle, instance.costs(), instance.capacities())
    assert a.cost == b.cost


def test_infeasible_chain_raises():
    instance, oracle, _ = load_instance(chain_instance(cap1="0"))
    sub = client_subproblem(instance, oracle, "t")
    cert = check_feasible_single(sub, oracle, instance.capacities())
    # the certificate is computed only after the LP comes back empty
    for solve in (solve_single_client, solve_single_client_bruteforce):
        with pytest.raises(Infeasible) as err:
            solve(sub, oracle, instance.costs(), instance.capacities())
        assert err.value.certificates == (cert,)


def test_cutting_plane_equals_bruteforce_random():
    rng = random.Random(97)
    for _ in range(40):
        instance, oracle, _ = random_feasible_instance(rng)
        for t in instance.clients:
            sub = client_subproblem(instance, oracle, t)
            a = solve_single_client(sub, oracle, instance.costs(), instance.capacities())
            b = solve_single_client_bruteforce(sub, oracle, instance.costs(),
                                               instance.capacities())
            assert a.cost == b.cost
            g = conditional_entropy_function(oracle, sub.sources)
            assert in_base_polyhedron(boundary_vector(a.rates, sub), g).member


def test_optimum_membership_in_both_polyhedra():
    rng = random.Random(101)
    for _ in range(15):
        instance, oracle, _ = random_feasible_instance(rng)
        t = instance.clients[0]
        sub = client_subproblem(instance, oracle, t)
        s = solve_single_client(sub, oracle, instance.costs(), instance.capacities())
        x = boundary_vector(s.rates, sub)
        g = conditional_entropy_function(oracle, sub.sources)
        f = entropy_function(oracle, sub.sources)
        assert in_base_polyhedron(x, g).member
        assert in_base_polyhedron(x, f).member


def test_sink_equality_at_optimum():
    rng = random.Random(103)
    for _ in range(15):
        instance, oracle, _ = random_feasible_instance(rng)
        for t in instance.clients:
            sub = client_subproblem(instance, oracle, t)
            s = solve_single_client(sub, oracle, instance.costs(), instance.capacities())
            inflow = sum(s.rates[e.id] for e in sub.edges if e.head == t)
            assert inflow == oracle.entropy(sub.sources)


def test_integral_vertices_on_integer_data():
    rng = random.Random(107)
    for _ in range(15):
        instance, oracle, _ = random_feasible_instance(rng)
        t = instance.clients[0]
        sub = client_subproblem(instance, oracle, t)
        s = solve_single_client(sub, oracle, instance.costs(), instance.capacities())
        assert all(r.denominator == 1 for r in s.rates.values())


def test_tight_sets_reported(f2):
    instance, oracle, _ = f2
    sub = client_subproblem(instance, oracle, "t2")
    s = solve_single_client(sub, oracle, instance.costs(), instance.capacities())
    assert tuple(sub.sources) in s.tight_sets  # the ground equality is always tight


def test_both_routes_list_every_tight_subset():
    # tight_sets has one definition: every nonempty subset S, in mask order, with
    # boundary(R, S) == g(S) at the returned rates; so both routes list the same
    # sets wherever they return the same vertex
    rng = random.Random(173)
    same = 0
    for _ in range(30):
        instance, oracle, _ = random_feasible_instance(rng, half_integral=rng.random() < 0.5)
        for t in instance.clients:
            sub = client_subproblem(instance, oracle, t)
            routes = [solve(sub, oracle, instance.costs(), instance.capacities())
                      for solve in (solve_single_client, solve_single_client_bruteforce)]
            for s in routes:
                subsets = [members(sub.sources, mask) for mask in range(1, 1 << len(sub.sources))]
                assert s.tight_sets == [
                    subset for subset in subsets
                    if boundary(s.rates, subset, sub.edges) == oracle.conditional(subset,
                                                                                  sub.sources)]
            if routes[0].rates == routes[1].rates:
                same += 1
                assert routes[0].tight_sets == routes[1].tight_sets
    assert same >= 30


def test_zero_weights_still_return_region_point(f2):
    # degenerate objectives appear inside the dual decomposition; any vertex
    # the deterministic pivot picks must still be a region member
    instance, oracle, _ = f2
    sub = client_subproblem(instance, oracle, "t1")
    zero = {e.id: Fraction(0) for e in sub.edges}
    s = solve_single_client(sub, oracle, zero, instance.capacities())
    assert s.cost == 0
    x = boundary_vector(s.rates, sub)
    assert in_base_polyhedron(x, conditional_entropy_function(oracle, sub.sources)).member


def test_bruteforce_source_limit():
    from mmcast.errors import GroundTooLarge
    from helpers import long_chain_doc
    instance, oracle, _ = load_instance(long_chain_doc(17))
    sub = client_subproblem(instance, oracle, "t0")
    with pytest.raises(GroundTooLarge):
        solve_single_client_bruteforce(sub, oracle, instance.costs(),
                                       instance.capacities())


def test_each_cut_round_builds_one_objective_row(monkeypatch):
    # add_rows only appends, and the resolve after it repairs the cuts and
    # finishes on one objective row: a cold solve builds one row (no cost is
    # negative), and each round of cuts one more.  F2's seed rows need no
    # cut, so the LPs are random 6-7 source draws, on both routes.
    from mmcast.lp import SimplexSolver
    from mmcast.multi_client import solve_multi_exact
    calls = []
    for name in ("_objective_row", "add_rows"):
        def counted(self, *args, method=getattr(SimplexSolver, name), name=name, **kwargs):
            calls.append(name)
            return method(self, *args, **kwargs)
        monkeypatch.setattr(SimplexSolver, name, counted)
    rng = random.Random(163)
    rounds = Counter()
    for i in range(10):
        instance, oracle, _ = random_feasible_instance(rng, n_sources=6 + i % 2, n_clients=2,
                                                       max_capacity=8)
        sub = client_subproblem(instance, oracle, instance.clients[0])
        for route, solve in (("exact", lambda: solve_multi_exact(instance, oracle)),
                             ("single", lambda: solve_single_client(
                                 sub, oracle, instance.costs(), instance.capacities()))):
            calls.clear()
            solve()
            rounds[route] += calls.count("add_rows")
            assert calls.count("_objective_row") == 1 + calls.count("add_rows")
    assert rounds["exact"] >= 5 and rounds["single"] >= 5


def test_each_cut_round_resolves_once_before_the_next_separation(monkeypatch):
    # a round of cuts is repaired by one traced resolve: after each add_rows
    # the solver resolves exactly once before the client separates again, on
    # the subgradient route's inner LPs and on a single client's LP alone.  A
    # round that re-optimized outside resolve, or resolved twice, breaks it.
    from mmcast.lp import SimplexSolver
    from mmcast.multi_client import solve_multi_subgradient
    from mmcast.single_client import ClientCuts
    calls = []
    for owner, name in ((SimplexSolver, "add_rows"), (SimplexSolver, "resolve"),
                        (ClientCuts, "separate")):
        def logged(self, *args, method=getattr(owner, name), name=name):
            calls.append(name)
            return method(self, *args)
        monkeypatch.setattr(owner, name, logged)
    rng = random.Random(167)
    rounds = Counter()
    for _ in range(30):
        instance, oracle, _ = random_feasible_instance(rng, n_sources=8, n_clients=3,
                                                       max_capacity=8)
        sub = client_subproblem(instance, oracle, instance.clients[0])
        for route, solve in (("subgradient", lambda: solve_multi_subgradient(
                                 instance, oracle, max_iters=30)),
                             ("single", lambda: solve_single_client(
                                 sub, oracle, instance.costs(), instance.capacities()))):
            calls.clear()
            solve()
            separations = [i for i, name in enumerate(calls) if name == "separate"]
            for i in [i for i, name in enumerate(calls) if name == "add_rows"]:
                after = next((j for j in separations if j > i), len(calls))
                assert calls[i + 1:after] == ["resolve"]
            rounds[route] += calls.count("add_rows")
    assert rounds["subgradient"] >= 50 and rounds["single"] >= 10


def _lone_client(f2, client, seeds):
    """(client cuts, solver) of one F2 client alone in its LP, from ``seeds``."""
    from mmcast.lp import SimplexSolver
    from mmcast.single_client import ClientCuts, layout, program
    instance, oracle, _ = f2
    sub, caps = client_subproblem(instance, oracle, client), instance.capacities()
    z, (columns,) = layout(sub.edges, [sub])
    cuts = ClientCuts(sub, oracle, caps, columns, seeds)
    costs = instance.costs()
    return cuts, SimplexSolver(program(z, caps, [cuts], [costs[e.id] for e in sub.edges]))


def test_a_resolve_that_leaves_x_in_place_is_refused(f2):
    # from the ground equality alone, t2's first vertex violates a region row; a solver
    # whose resolve hands back that vertex after the real cut is refused before the
    # client separates again (where the cut, now in its pool, would be refused too)
    from mmcast.single_client import cutting_planes
    cuts, solver = _lone_client(f2, "t2", [])
    first = solver.solve()
    masks, separate = [], cuts.separate
    cuts.separate = lambda x: masks.append(separate(x)) or masks[-1]
    solver.resolve = lambda objective: first
    with pytest.raises(RuntimeError, match=r"the cuts of masks \{'t2': \d+\} keep their vertex"):
        cutting_planes(solver, first, solver.lp.objective, [cuts])
    assert len(masks) == 1 and masks[0] is not None and cuts.pool == masks


def test_rates_below_the_ground_entropy_are_refused(f2):
    # all-zero rates pass no row with g > 0: the ground set is not tight, so no solution
    from mmcast.single_client import _solution
    cuts, _ = _lone_client(f2, "t1", [])
    assert cuts.region.g[cuts.region.full] > 0
    with pytest.raises(RuntimeError, match="client t1: the rates miss the ground equality"):
        _solution(cuts, [Fraction(0)] * len(cuts.columns), Fraction(0))
