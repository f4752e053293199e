import random
from fractions import Fraction

import pytest

from helpers import chain_instance, random_feasible_instance, single_edge_instance
from mmcast import load_instance
from mmcast.errors import Infeasible
from mmcast.feasibility import check_feasible_single
from mmcast.model import boundary_vector, client_subproblem
from mmcast.single_client import solve_single_client, solve_single_client_bruteforce
from mmcast.submodular import (conditional_entropy_function, entropy_function,
                               in_base_polyhedron)


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
    with pytest.raises(Infeasible) as err:
        solve_single_client(sub, oracle, instance.costs(), instance.capacities())
    # the certificate is computed only after the LP comes back empty
    assert err.value.certificates == (check_feasible_single(sub, oracle, instance.capacities()),)
    with pytest.raises(Infeasible):
        solve_single_client_bruteforce(sub, oracle, instance.costs(), instance.capacities())


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
            assert inflow == sub.ground_entropy


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
