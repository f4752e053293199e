"""The paper's case (ii), dense linear observations over F_5, through feasibility, rates and codes.

Each draw is ``random_instance_doc(..., dense=True)``: every observing source
holds 1-3 uniform rows, so the rank tables come from the elimination sweep,
and each route is checked against its reference on the same draw.
"""

import random

import pytest

from helpers import random_instance_doc
from mmcast import load_instance
from mmcast.errors import Infeasible
from mmcast.feasibility import check_feasible_multi, check_feasible_single, enumerate_feasibility
from mmcast.model import client_subproblems
from mmcast.multi_client import solve_multi_bruteforce, solve_multi_exact
from mmcast.netcode import assign_coefficients, build_coded_network, simulate
from mmcast.single_client import solve_single_client, solve_single_client_bruteforce


def _dense_draws(seed: int, count: int):
    """Seeded dense instances at m = 3..7 with 1-3 clients, as (instance, oracle)."""
    rng = random.Random(seed)
    for _ in range(count):
        m, k = rng.randint(3, 7), rng.randint(1, 3)
        instance, oracle, model = load_instance(
            random_instance_doc(rng, n_sources=m, n_clients=k, dense=True))
        yield instance, oracle, model


def _outcome(solve, *args):
    """``(cost, solution)`` of a solve, or ``("infeasible", certificates)`` if it raises."""
    try:
        solution = solve(*args)
    except Infeasible as err:
        return "infeasible", err.certificates
    return solution.cost, solution


def test_dense_feasibility_equals_the_enumeration():
    verdicts = set()
    for instance, oracle, model in _dense_draws(21, 30):
        assert None in model._held.values()         # a dense row: the elimination sweep runs
        caps = instance.capacities()
        for sub in client_subproblems(instance, oracle).values():
            assert check_feasible_single(sub, oracle, caps) == enumerate_feasibility(
                sub, oracle, caps)
        verdicts.add(check_feasible_multi(instance, oracle).feasible)
    assert verdicts == {True, False}


def test_dense_single_client_routes_agree():
    verdicts = set()
    for instance, oracle, _ in _dense_draws(22, 20):
        costs, caps = instance.costs(), instance.capacities()
        for sub in client_subproblems(instance, oracle).values():
            lazy, lazy_value = _outcome(solve_single_client, sub, oracle, costs, caps)
            full, full_value = _outcome(solve_single_client_bruteforce, sub, oracle, costs, caps)
            assert lazy == full
            verdicts.add(lazy != "infeasible")
            if lazy == "infeasible":
                assert lazy_value == full_value
            elif lazy_value.rates == full_value.rates:
                assert lazy_value.tight_sets == full_value.tight_sets
    assert verdicts == {True, False}


def test_dense_multi_client_routes_agree():
    verdicts = set()
    for instance, oracle, _ in _dense_draws(23, 20):
        exact, exact_value = _outcome(solve_multi_exact, instance, oracle)
        full, full_value = _outcome(solve_multi_bruteforce, instance, oracle)
        assert exact == full
        verdicts.add(exact != "infeasible")
        if exact == "infeasible":
            assert exact_value == full_value
        else:
            assert sum(e.cost * exact_value.envelope[e.id] for e in instance.edges) == exact
    assert verdicts == {True, False}


def test_dense_codes_at_the_exact_envelope_decode_everywhere():
    # draws whose joint rank is below N leave the file undetermined: not coded here
    rng = random.Random(25)
    coded = 0
    for instance, oracle, model in _dense_draws(24, 120):
        if oracle.entropy(instance.sources) < model.n_packets:
            continue
        exact, solution = _outcome(solve_multi_exact, instance, oracle)
        if exact == "infeasible":
            continue
        net = build_coded_network(instance, model, solution.envelope, oracle=oracle)
        assignment = assign_coefficients(net, seed=coded)
        w = [rng.randrange(net.q) for _ in range(net.n_symbols)]
        result = simulate(net, assignment, w)
        assert result.clients.keys() == set(instance.clients)
        assert all(c.exact and c.decoded == w for c in result.clients.values())
        coded += 1
    assert coded >= 40


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_dense_option_keeps_the_default_draw(seed):
    # the dense rows are drawn after the default stream: the network is the same
    default = random_instance_doc(random.Random(seed))
    dense = random_instance_doc(random.Random(seed), dense=True)
    assert {k: v for k, v in default.items() if k != "source_model"} == {
        k: v for k, v in dense.items() if k != "source_model"}
    assert dense["source_model"]["matrices"].keys() == default["source_model"]["matrices"].keys()
