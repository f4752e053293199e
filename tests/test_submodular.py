import random
from fractions import Fraction

import pytest

from helpers import random_instance_doc, random_submodular_function, slack_function
from mmcast import client_subproblem, load_instance
from mmcast.errors import GroundTooLarge, InvalidParameters, MaxIterationsExceeded
from mmcast.model import boundary_vector, cut_capacity
from mmcast.submodular import (MembershipResult, SetFunction, conditional_entropy_function,
                               entropy_function, greedy_base_vertex, in_base_polyhedron,
                               members, min_norm_point, modular_table, sfm_brute_force)


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


def test_membership_names_the_minimizing_violated_inequality():
    # the ground totals agree, so the answer comes from the slack table: the set
    # of the most violated inequality and by how much, for either kind: ``rank`` is
    # the rank function of the uniform matroid U(2, 3), ``dual`` is rank(N) - rank(N - S)
    rank = SetFunction((1, 2, 3), lambda s: Fraction(min(len(tuple(s)), 2)), "submodular")
    dual = SetFunction((1, 2, 3), lambda s: Fraction(max(len(tuple(s)) - 1, 0)), "supermodular")
    x = {1: Fraction(2), 2: Fraction(0), 3: Fraction(0)}
    assert in_base_polyhedron(x, rank) == MembershipResult(False, (1,), 1)      # x(1) = 2 > 1
    assert in_base_polyhedron(x, dual) == MembershipResult(False, (2, 3), 1)    # x(23) = 0 < 1
    y = {1: Fraction(1), 2: Fraction(1), 3: Fraction(0)}
    assert in_base_polyhedron(y, rank).member and in_base_polyhedron(y, dual).member


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


def test_base_polyhedron_helpers_raise_typed_errors():
    f = SetFunction((1, "a"), lambda s: Fraction(len(tuple(s))), "submodular")
    assert greedy_base_vertex(f, ("a", 1)) == {"a": 1, 1: 1}   # a mixed ground needs no sort
    for ordering in [(1, "b"), (1, 1), (1,), (1, "a", 1), ([1], "a")]:
        with pytest.raises(InvalidParameters):
            greedy_base_vertex(f, ordering)
    with pytest.raises(InvalidParameters):      # a ground element has no coordinate
        in_base_polyhedron({1: Fraction(1)}, f)
    with pytest.raises(InvalidParameters):      # a coordinate outside the ground
        in_base_polyhedron({1: Fraction(1), "a": Fraction(1), "b": Fraction(0)}, f)


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
    assert x == {1: -1, 2: 2, 3: -3}


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
        _, _, wolfe_value = min_norm_point(f)
        assert 0 <= wolfe_value - value <= Fraction(1, 10 ** 9)


def assert_wolfe_certified(f):
    x, found, value = min_norm_point(f)
    assert (found, value) == sfm_brute_force(f)
    assert all(type(v) is Fraction for v in x.values())
    assert in_base_polyhedron(x, f).member
    assert sum(min(v, 0) for v in x.values()) == value


def test_min_norm_point_returns_brute_force_witness():
    rng = random.Random(67)
    for k in range(210):
        assert_wolfe_certified(random_submodular_function(rng, 1 + k % 10))


@pytest.mark.parametrize("m", [8, 12, 16])
def test_min_norm_point_on_region_slacks(m):
    for seed in range(3):
        doc = random_instance_doc(random.Random(seed), n_sources=m, n_clients=2, max_capacity=2)
        instance, oracle, _ = load_instance(doc)
        sub = client_subproblem(instance, oracle, instance.clients[0])
        assert_wolfe_certified(slack_function(sub, oracle, instance.capacities()))


def test_min_norm_point_rejects_non_submodular():
    # f({0}) + f({1}) = -3 < f({0, 1}) + f({}) = -1; x* = (0, -1) but f({1}) = -3:
    # the Edmonds check catches the false declaration
    f = SetFunction.tabulated((0, 1), [0, 0, -3, -1], "submodular")
    with pytest.raises(InvalidParameters):
        min_norm_point(f)
    # an undeclared kind is refused up front: this table is not submodular
    # (f({0}) + f({1}) = -5 < f({0, 1}) = 0), and the Edmonds check passes
    # on ({0}, -2) although brute force finds ({1}, -3)
    f = SetFunction.tabulated((0, 1), [0, -2, -3, 0])
    with pytest.raises(InvalidParameters):
        min_norm_point(f)


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
    rng = random.Random(433)
    f = random_submodular_function(rng, 6)
    with pytest.raises(MaxIterationsExceeded) as err:
        min_norm_point(f, max_major=0)
    assert err.value.best_set is not None
    assert err.value.gap is not None
    lower = sum(min(v, 0) for v in err.value.best_point.values())
    assert type(err.value.gap) is Fraction
    assert err.value.gap == f(err.value.best_set) - lower >= 0


def test_sfm_tie_break_with_many_planted_ties():
    def generator_scan(values, start, n):
        best_val = min(values)
        return min((mask for mask, v in enumerate(values, start) if v == best_val),
                   key=lambda mask: (mask.bit_count(), members(range(n), mask)))

    rng = random.Random(23)
    cases = []
    for n in (1, 4, 9, 12):
        for low in (0, -1, Fraction(-1, 3)):
            # about half the masks tie at the minimum, ints and Fractions mixed
            cases.append((n, [rng.choice([low, Fraction(low), 1, 2]) for _ in range(1 << n)]))
            # a few ties, so the lowest tied mask is seldom the answer
            sparse = [rng.choice([1, 2]) for _ in range(1 << n)]
            for mask in rng.sample(range(1 << n), max(2, (1 << n) // 16)):
                sparse[mask] = low
            cases.append((n, sparse))
    for n, values in cases:
        ground = tuple(f"e{i}" for i in range(n))
        for include_empty in (True, False):
            start = 0 if include_empty else 1
            mask = generator_scan(values[start:], start, n)
            expected = (members(ground, mask), Fraction(min(values[start:])))
            tabulated = SetFunction.tabulated(ground, values)
            assert sfm_brute_force(tabulated, include_empty) == expected
            lazy = SetFunction(ground, lambda s: values[tabulated.mask(s)])
            assert sfm_brute_force(lazy, include_empty) == expected
    # ties at masks 6 = {b, c}, 7 = {a, b, c}, 9 = {a, d} and 12 = {c, d}: {a, d} wins
    values = [1] * 16
    for mask in (6, 7, 9, 12):
        values[mask] = 0
    assert sfm_brute_force(SetFunction.tabulated("abcd", values)) == (("a", "d"), Fraction(0))


@pytest.mark.parametrize("weights", [
    [], [0], [Fraction(0)], [0, 3, -2], [3, -2, 0], [0, 0, 5, 0, 0, -1, 0], [0] * 6,
    [Fraction(0)] * 4, [-1, Fraction(0), Fraction(1, 2), 0, Fraction(0)],
    [Fraction(0), Fraction(-3, 2), 0, 4, Fraction(0), Fraction(5, 3), -7]])
def test_modular_table_with_zero_weights_equals_each_masks_sum(weights):
    # a zero weight, int or Fraction, doubles the table by copy instead of a pass
    for first in (0, -3, Fraction(7, 2)):
        table = modular_table(iter(weights), first)
        assert len(table) == 1 << len(weights)
        for mask, value in enumerate(table):
            assert value == first + sum(w for i, w in enumerate(weights) if mask >> i & 1)
    assert all(type(x) is int for x in modular_table([0, 3, 0, -2, 0]))


def test_a_search_with_no_set_is_refused():
    # the empty ground without its empty set leaves no set to minimize over
    f = SetFunction((), lambda s: Fraction(0), "submodular")
    with pytest.raises(InvalidParameters, match="empty search space"):
        sfm_brute_force(f, include_empty=False)
    assert sfm_brute_force(f) == ((), 0)
