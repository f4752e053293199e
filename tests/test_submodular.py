import random
from fractions import Fraction

import pytest

from helpers import random_submodular_function
from mmcast import client_subproblem
from mmcast.errors import GroundTooLarge, InvalidParameters
from mmcast.model import boundary_vector, cut_capacity
from mmcast.submodular import (SetFunction, conditional_entropy_function, entropy_function,
                               greedy_base_vertex, in_base_polyhedron, min_norm_point,
                               sfm_brute_force)


def modular(weights):
    ground = tuple(range(1, len(weights) + 1))
    table = dict(zip(ground, (Fraction(w) for w in weights)))
    return SetFunction(ground, lambda s: sum((table[v] for v in s), Fraction(0)), "submodular")


def test_sfm_cardinality():
    f = SetFunction((1, 2, 3), lambda s: Fraction(len(tuple(s))), "submodular")
    assert sfm_brute_force(f) == ((), Fraction(0))


def test_sfm_modular():
    members, value = sfm_brute_force(modular([-1, 2, -3]))
    assert members == (1, 3)
    assert value == -4


def test_sfm_tie_break_prefers_small_and_lexicographic():
    f = SetFunction(("a", "b"), lambda s: Fraction(0), "submodular")
    assert sfm_brute_force(f) == ((), Fraction(0))
    assert sfm_brute_force(f, include_empty=False) == (("a",), Fraction(0))


def test_sfm_fixture_slack_nonnegative(f2):
    instance, oracle, _ = f2
    sub = client_subproblem(instance, oracle, "t2")
    g = conditional_entropy_function(oracle, sub.sources)
    caps = instance.capacities()
    f = SetFunction(
        sub.sources,
        lambda s: cut_capacity(caps, s, sub.edges) - g.evaluate(s),
        "submodular")
    _, value = sfm_brute_force(f)
    assert value >= 0


def test_sfm_ground_too_large():
    f = SetFunction(tuple(range(21)), lambda s: Fraction(0), "submodular")
    with pytest.raises(GroundTooLarge):
        sfm_brute_force(f)


def test_greedy_fixture_rank_differences(f2):
    _, oracle, _ = f2
    f = entropy_function(oracle, ("m1", "m2", "m3", "m4"))
    x = greedy_base_vertex(f, ("m1", "m2", "m3", "m4"))
    assert [x[m] for m in ("m1", "m2", "m3", "m4")] == [2, 1, 0, 1]


def test_greedy_modular_any_ordering():
    f = modular([3, -2, 5])
    for ordering in [(1, 2, 3), (3, 1, 2), (2, 3, 1)]:
        x = greedy_base_vertex(f, ordering)
        assert (x[1], x[2], x[3]) == (3, -2, 5)


def test_greedy_telescopes_to_ground_value():
    rng = random.Random(41)
    for _ in range(20):
        f = random_submodular_function(rng, 6)
        order = list(f.ground)
        rng.shuffle(order)
        x = greedy_base_vertex(f, order)
        assert sum(x.values()) == f(f.ground)


def test_greedy_vertices_are_members():
    rng = random.Random(43)
    for _ in range(15):
        f = random_submodular_function(rng, 5)
        order = list(f.ground)
        rng.shuffle(order)
        assert in_base_polyhedron(greedy_base_vertex(f, order), f).member


def test_membership_violation_certificate():
    rng = random.Random(47)
    f = random_submodular_function(rng, 5)
    x = greedy_base_vertex(f, f.ground)
    x[f.ground[0]] += 1
    result = in_base_polyhedron(x, f)
    assert not result.member
    assert result.violating_set == f.ground   # ground sum is now too large
    assert result.deficit == 1


def test_membership_fixture_optimal_boundary(f2):
    from mmcast import solve_single_client_bruteforce
    instance, oracle, _ = f2
    sub = client_subproblem(instance, oracle, "t1")
    solution = solve_single_client_bruteforce(sub, oracle, instance.costs(),
                                              instance.capacities())
    g = conditional_entropy_function(oracle, sub.sources)
    assert in_base_polyhedron(boundary_vector(solution.rates, sub), g).member


def test_membership_requires_declared_kind():
    f = SetFunction((1, 2), lambda s: Fraction(len(tuple(s))), "unknown")
    with pytest.raises(InvalidParameters):
        in_base_polyhedron({1: Fraction(1), 2: Fraction(1)}, f)
    with pytest.raises(InvalidParameters):      # the ground totals differ: 6 against 2
        in_base_polyhedron({1: Fraction(1), 2: Fraction(5)}, f)


def test_base_polyhedra_of_dual_pair_coincide(f2):
    # greedy vertices of the entropy function satisfy the conditional form's
    # region constraints with equality at the ground set, and vice versa
    instance, oracle, _ = f2
    rng = random.Random(53)
    for t in instance.clients:
        sub = client_subproblem(instance, oracle, t)
        f = entropy_function(oracle, sub.sources)
        g = conditional_entropy_function(oracle, sub.sources)
        for _ in range(12):
            order = list(sub.sources)
            rng.shuffle(order)
            x = greedy_base_vertex(f, order)
            y = greedy_base_vertex(g, order)
            assert in_base_polyhedron(x, g).member
            assert in_base_polyhedron(y, f).member


def test_min_norm_point_modular():
    x, members, value = min_norm_point(modular([-1, 2, -3]))
    assert members == (1, 3)
    assert value == -4
    assert abs(x[1] + 1) < 1e-9 and abs(x[2] - 2) < 1e-9 and abs(x[3] + 3) < 1e-9


def test_min_norm_point_matroid_cut():
    f = SetFunction(tuple(range(4)), lambda s: Fraction(min(len(tuple(s)), 1)), "submodular")
    _, members, value = min_norm_point(f)
    assert members == ()
    assert value == 0


def test_min_norm_point_requires_normalized():
    f = SetFunction((1,), lambda s: Fraction(1), "submodular")
    with pytest.raises(InvalidParameters):
        min_norm_point(f)


def test_min_norm_point_matches_brute_force():
    rng = random.Random(59)
    for _ in range(15):
        f = random_submodular_function(rng, 8)
        _, value = sfm_brute_force(f)
        _, _, wolfe_value = min_norm_point(f, eps=1e-9)
        assert 0 <= wolfe_value - value <= Fraction(1, 10 ** 9)


def test_sfm_lower_bounds_random_subsets():
    rng = random.Random(61)
    f = random_submodular_function(rng, 8)
    _, value = sfm_brute_force(f)
    n = len(f.ground)
    for _ in range(1000):
        mask = rng.randrange(1 << n)
        assert value <= f.value(mask)


def test_dual_pair_membership_on_random_instances():
    import random as _random
    from helpers import random_instance_doc
    from mmcast import client_subproblem, load_instance
    rng = _random.Random(431)
    for _ in range(10):
        instance, oracle, _ = load_instance(random_instance_doc(rng))
        t = instance.clients[0]
        sub = client_subproblem(instance, oracle, t)
        f = entropy_function(oracle, sub.sources)
        g = conditional_entropy_function(oracle, sub.sources)
        order = list(sub.sources)
        rng.shuffle(order)
        assert in_base_polyhedron(greedy_base_vertex(f, order), g).member
        assert in_base_polyhedron(greedy_base_vertex(g, order), f).member


def test_min_norm_point_iteration_cap():
    from mmcast.errors import MaxIterationsExceeded
    rng = random.Random(433)
    f = random_submodular_function(rng, 6)
    with pytest.raises(MaxIterationsExceeded) as err:
        min_norm_point(f, max_major=0)
    assert err.value.best_set is not None
    assert err.value.gap is not None
