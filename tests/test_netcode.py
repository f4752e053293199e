import random
from collections import Counter
from fractions import Fraction

import pytest

from helpers import single_edge_instance
from mmcast import gf, load_instance
from mmcast.entropy import LinearSource, TabularSource
from mmcast.errors import (FieldTooSmall, InfeasibleRates, InvalidParameters, NotLinearModel,
                           RankDeficient, ReconstructabilityViolated, ScaleOverflow,
                           UnknownEdgeRate, VerificationFailedAllAttempts)
from mmcast.gf import FieldMatrix
from mmcast.netcode import (assign_coefficients, assignment_from_coefficients,
                            build_coded_network, build_decoder, propagate_global_vectors,
                            simulate, transfer_matrix)

FIXTURE_RATES = {"e1": 0, "e2": 1, "e3": 2, "e4": 0, "e5": 0, "e6": 4, "e7": 4}


@pytest.fixture(scope="module")
def f2_net():
    from helpers import load_f2
    instance, oracle, sm = load_f2()
    rates = {k: Fraction(v) for k, v in FIXTURE_RATES.items()}
    net = build_coded_network(instance, sm, rates, oracle=oracle)
    return instance, oracle, sm, net


def identity_network(n=3):
    instance, oracle, sm = load_instance(single_edge_instance(entropy_rows=n,
                                                              capacity=str(n)))
    net = build_coded_network(instance, sm, {"e": Fraction(n)}, oracle=oracle)
    return net


def test_channel_counts(f2_net):
    _, _, _, net = f2_net
    source = [c for c in net.channels if c.kind == "source"]
    edge = [c for c in net.channels if c.kind == "edge"]
    assert len(source) == 6        # source ranks 2 + 2 + 1 + 1
    assert len(edge) == 11         # total integral rate
    assert net.beta == 1
    assert net.n_symbols == 4


def test_fractional_rates_double_the_network(f2_net):
    instance, oracle, sm, _ = f2_net
    rates = {"e1": 0, "e2": Fraction(3, 2), "e3": Fraction(3, 2), "e4": 0,
             "e5": 0, "e6": 4, "e7": 4}
    net = build_coded_network(instance, sm, rates, oracle=oracle)
    assert net.beta == 2
    assert net.n_symbols == 8
    assert sum(1 for c in net.channels if c.kind == "source") == 12
    assert sum(1 for c in net.channels if c.kind == "edge") == 2 * 11
    # the per-edge counts that simulate reports are the channels built on each edge
    built = Counter(c.edge_id for c in net.channels if c.kind == "edge")
    assert net.edge_symbol_counts() == {e.id: built[e.id] for e in instance.edges}


def test_non_linear_model_rejected(f2_net):
    instance, oracle, _, _ = f2_net
    tabular = TabularSource(instance.sources, {frozenset([s]): Fraction(1)
                                               for s in instance.sources})
    with pytest.raises(NotLinearModel):
        build_coded_network(instance, tabular, {})


def test_region_violating_rates_rejected(f2_net):
    instance, oracle, sm, _ = f2_net
    bad = dict(FIXTURE_RATES)
    bad["e7"] = 3                   # t2 can no longer pull the whole file
    with pytest.raises(InfeasibleRates):
        build_coded_network(instance, sm, {k: Fraction(v) for k, v in bad.items()},
                            oracle=oracle)


def test_capacity_violation_rejected(f2_net):
    instance, oracle, sm, _ = f2_net
    bad = dict(FIXTURE_RATES)
    bad["e7"] = 5
    with pytest.raises(InfeasibleRates):
        build_coded_network(instance, sm, {k: Fraction(v) for k, v in bad.items()},
                            oracle=oracle)


def test_scale_overflow(f2_net):
    # region-feasible rates whose denominator outruns the block-scale cap
    instance, oracle, sm, _ = f2_net
    rates = {k: Fraction(v) for k, v in FIXTURE_RATES.items()}
    rates["e2"] = Fraction(1) + Fraction(1, 8191)
    rates["e3"] = Fraction(2) - Fraction(1, 8191)
    with pytest.raises(ScaleOverflow):
        build_coded_network(instance, sm, rates, oracle=oracle)


def test_identity_network_with_unit_coefficients():
    net = identity_network(3)
    source = [c for c in net.channels if c.kind == "source"]
    edge = [c for c in net.channels if c.kind == "edge"]
    coeffs = {(s.index, e.index): 1 if s.index == e.index - len(source) else 0
              for s in source for e in edge}
    assignment = assignment_from_coefficients(net, coeffs)
    m = transfer_matrix(net, assignment, "t")
    assert m == net.source_matrix.select_columns([c.index for c in source])
    assert m == FieldMatrix.identity(3, net.q)
    decoder = build_decoder(net, assignment, "t")
    assert decoder == FieldMatrix.identity(3, net.q)


def test_fixture_assignment_full_rank(f2_net):
    _, _, _, net = f2_net
    assignment = assign_coefficients(net, seed=0)
    assert assignment.attempts <= 64
    for t in net.clients:
        assert gf.rank(transfer_matrix(net, assignment, t)) == 4


def over_field(sm, q):
    """The same observation matrices read over F_q."""
    matrices = {n: FieldMatrix(m.rows, m.cols,
                               [x for row in m.to_lists() for x in row], q)
                for n, m in sm.matrices.items()}
    return LinearSource(q, sm.n_packets, matrices)


def test_field_too_small(f2_net):
    instance, oracle, sm, _ = f2_net
    sm2 = over_field(sm, 2)
    net = build_coded_network(instance, sm2,
                              {k: Fraction(v) for k, v in FIXTURE_RATES.items()})
    with pytest.raises(FieldTooSmall):
        assign_coefficients(net, seed=0)


def test_transfer_equals_propagation(f2_net):
    _, _, _, net = f2_net
    assignment = assign_coefficients(net, seed=0)
    vectors = propagate_global_vectors(net, assignment)
    assert tuple(vectors) == assignment.global_vectors
    for t in net.clients:
        m = transfer_matrix(net, assignment, t)
        for j, c in enumerate(net.sink_channels[t]):
            assert tuple(m[i, j] for i in range(m.rows)) == vectors[c]


def test_zero_coefficients_give_zero_vectors(f2_net):
    _, _, _, net = f2_net
    assignment = assignment_from_coefficients(net, {})
    for ch in net.channels:
        vec = assignment.global_vectors[ch.index]
        if ch.kind == "edge":
            assert all(v == 0 for v in vec)
        else:
            assert any(v != 0 for v in vec)


def test_non_integer_coefficients_rejected(f2_net):
    _, _, _, net = f2_net
    pair = next(iter(assign_coefficients(net, seed=0).coefficients))
    for coeff in (1.5, "2", Fraction(1, 2)):
        with pytest.raises(InvalidParameters, match="not an integer"):
            assignment_from_coefficients(net, {pair: coeff})
    assert assignment_from_coefficients(net, {pair: -1}).coefficients == {pair: net.q - 1}


def test_corrupted_assignment_rank_deficient(f2_net):
    _, _, _, net = f2_net
    assignment = assign_coefficients(net, seed=0)
    victim = net.sink_channels["t1"][0]
    coeffs = {k: (0 if k[1] == victim else v)
              for k, v in assignment.coefficients.items()}
    broken = assignment_from_coefficients(net, coeffs)
    true_rank = gf.rank(transfer_matrix(net, broken, "t1"))
    assert true_rank < net.n_symbols
    with pytest.raises(RankDeficient, match=f"rank {true_rank} < {net.n_symbols}"):
        build_decoder(net, broken, "t1")


def test_simulate_zero_vector(f2_net):
    _, _, _, net = f2_net
    assignment = assign_coefficients(net, seed=0)
    result = simulate(net, assignment, [0, 0, 0, 0])
    assert all(m == 0 for m in result.messages)
    for rep in result.clients.values():
        assert rep.decoded == [0, 0, 0, 0] and rep.exact


def test_simulate_fixture_and_symbol_conservation(f2_net):
    _, _, _, net = f2_net
    assignment = assign_coefficients(net, seed=0)
    result = simulate(net, assignment, [1, 2, 3, 4])
    for t, rep in result.clients.items():
        assert rep.exact and rep.decoded == [1, 2, 3, 4]
    assert result.edge_symbols == {k: v * net.beta for k, v in FIXTURE_RATES.items()}
    # sink conservation: each client receives exactly beta * H symbols
    for t in net.clients:
        assert len(net.sink_channels[t]) == net.beta * 4


def test_random_messages_decode(f2_net):
    _, _, _, net = f2_net
    assignment = assign_coefficients(net, seed=0)
    rng = random.Random(131)
    for _ in range(25):
        w = [rng.randrange(net.q) for _ in range(net.n_symbols)]
        result = simulate(net, assignment, w)
        assert all(rep.exact for rep in result.clients.values())


def test_messages_match_coding_vectors(f2_net):
    # numeric message passing realizes exactly the symbols the vectors predict
    _, _, _, net = f2_net
    assignment = assign_coefficients(net, seed=0)
    rng = random.Random(137)
    w = [rng.randrange(net.q) for _ in range(net.n_symbols)]
    result = simulate(net, assignment, w)
    for ch in net.channels:
        vec = assignment.global_vectors[ch.index]
        assert result.messages[ch.index] == sum(a * b for a, b in zip(vec, w)) % net.q


def test_assignment_success_rate(f2_net):
    # with retries (the shipped behaviour) every seed must practically succeed;
    # single draws land around 35% here, so the retry loop is what's load-bearing
    _, _, _, net = f2_net
    retried = 0
    single_draw = 0
    for seed in range(100):
        try:
            assign_coefficients(net, seed=seed, max_attempts=1)
            single_draw += 1
        except VerificationFailedAllAttempts:
            pass
        try:
            assign_coefficients(net, seed=seed, max_attempts=64)
            retried += 1
        except VerificationFailedAllAttempts:
            pass
    assert retried >= 90
    assert single_draw >= 20


def test_verification_failure_reports_ranks(f2_net):
    _, _, _, net = f2_net
    assert assign_coefficients(net, seed=0).attempts > 1     # so its first attempt fails
    with pytest.raises(VerificationFailedAllAttempts) as err:
        assign_coefficients(net, seed=0, max_attempts=1)
    assert err.value.attempts == 1
    assert set(err.value.best_ranks) == set(net.clients)
    assert min(err.value.best_ranks.values()) < net.n_symbols


def test_unrecoverable_file_rejected():
    doc = single_edge_instance(entropy_rows=2, capacity="3")
    doc["source_model"]["N"] = 3
    doc["source_model"]["matrices"]["m"] = [[1, 0, 0], [0, 1, 0]]
    instance, oracle, sm = load_instance(doc)
    with pytest.raises(InfeasibleRates):
        build_coded_network(instance, sm, {"e": Fraction(2)}, oracle=oracle)


def test_a_client_that_cannot_see_the_file_is_refused_as_infeasible_rates():
    # the joint rank is N, so the file is determined, but t1 reaches only a, which
    # holds packet 0 of 2: the rate check's ReconstructabilityViolated becomes
    # InfeasibleRates, the code stage's one refusal of a rate vector
    doc = {
        "nodes": ["a", "b", "t1", "t2"],
        "edges": [{"id": f"e{i}", "tail": u, "head": v, "capacity": "2", "cost": "1"}
                  for i, (u, v) in enumerate((("a", "t1"), ("b", "t2"), ("a", "t2")), 1)],
        "clients": ["t1", "t2"],
        "source_model": {"kind": "linear", "q": 5, "N": 2,
                         "matrices": {"a": [[1, 0]], "b": [[0, 1]]}},
    }
    instance, oracle, sm = load_instance(doc)
    assert oracle.entropy(instance.sources) == sm.n_packets
    with pytest.raises(InfeasibleRates, match=r"\['t1'\] cannot see the full process") as err:
        build_coded_network(instance, sm, {"e1": 1, "e2": 1, "e3": 1}, oracle=oracle)
    assert type(err.value.__cause__) is ReconstructabilityViolated


def test_assignment_deterministic_per_seed(f2_net):
    _, _, _, net = f2_net
    a = assign_coefficients(net, seed=7)
    b = assign_coefficients(net, seed=7)
    assert a.coefficients == b.coefficients
    assert a.global_vectors == b.global_vectors
    assert a.attempts == b.attempts


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_code_seed_must_be_an_int_of_at_least_zero(f2_net, seed):
    # Random seeds by the absolute value, so seed -1 would draw seed 1's attempts
    assert random.Random(-1_000_003).getrandbits(64) == random.Random(1_000_003).getrandbits(64)
    _, _, _, net = f2_net
    with pytest.raises(InvalidParameters, match="seed"):
        assign_coefficients(net, seed=seed)


@pytest.mark.parametrize("max_attempts", [-1, 0, 1.5, True])
def test_max_attempts_must_be_an_int_of_at_least_one(f2_net, max_attempts):
    # no attempt count below 1 can find an assignment, and True is no count
    _, _, _, net = f2_net
    with pytest.raises(InvalidParameters, match="max_attempts"):
        assign_coefficients(net, seed=0, max_attempts=max_attempts)


def test_simulate_rejects_wrong_length(f2_net):
    _, _, _, net = f2_net
    assignment = assign_coefficients(net, seed=0)
    with pytest.raises(InvalidParameters, match="length"):
        simulate(net, assignment, [1, 2, 3])


@pytest.mark.parametrize("entry", ["q", -1, 1.5])
def test_simulate_rejects_entries_outside_the_field(f2_net, entry):
    _, _, _, net = f2_net
    assignment = assign_coefficients(net, seed=0)
    w = [net.q if entry == "q" else entry, 0, 0, 0]
    with pytest.raises(InvalidParameters, match="outside F_5"):
        simulate(net, assignment, w)
    with pytest.raises(InvalidParameters, match="length"):     # the length is checked first
        simulate(net, assignment, w[:3])


def test_random_end_to_end_pipeline():
    # random feasible instances: exact envelope -> code -> decode, whenever
    # the sources jointly determine the file
    import random as _random
    from helpers import random_feasible_instance
    from mmcast.multi_client import solve_multi_exact

    rng = _random.Random(347)
    coded = 0
    while coded < 10:
        instance, oracle, sm = random_feasible_instance(rng, n_clients=2)
        if gf.rank(sm.stacked(instance.sources)) < sm.n_packets:
            continue
        result = solve_multi_exact(instance, oracle)
        net = build_coded_network(instance, sm, result.envelope, oracle=oracle)
        assignment = assign_coefficients(net, seed=0)
        w = [rng.randrange(net.q) for _ in range(net.n_symbols)]
        sim = simulate(net, assignment, w)
        assert all(rep.exact for rep in sim.clients.values())
        coded += 1


def test_a_node_named_s_moves_the_super_node_to_s_star():
    doc = {
        "nodes": ["S", "b", "t1", "t2"],
        "edges": [{"id": f"e{i}", "tail": u, "head": v, "capacity": "2", "cost": "1"}
                  for i, (u, v) in enumerate((("S", "b"), ("S", "t1"), ("b", "t1"),
                                              ("b", "t2"), ("S", "t2")), 1)],
        "clients": ["t1", "t2"],
        "source_model": {"kind": "linear", "q": 5, "N": 2,
                         "matrices": {"S": [[1, 0]], "b": [[0, 1]]}},
    }
    instance, oracle, sm = load_instance(doc)
    from mmcast.multi_client import solve_multi_exact
    net = build_coded_network(instance, sm, solve_multi_exact(instance, oracle).envelope,
                              oracle=oracle)
    source = [c for c in net.channels if c.kind == "source"]
    assert {c.tail for c in source} == {"S*"} and {c.head for c in source} == {"S", "b"}
    assert all(c.label.startswith("S*->") for c in source)
    assignment = assign_coefficients(net, seed=0)
    for w in ([1, 2], [4, 0], [0, 3]):
        assert all(rep.exact for rep in simulate(net, assignment, w).clients.values())


def test_envelope_beyond_literal_membership_is_accepted():
    # an envelope can violate a client's own subset boundary while still
    # dominating a region point; the builder must accept it
    doc = {
        "nodes": ["s1", "s2", "u", "t1", "t2"],
        "edges": [
            {"id": "a", "tail": "s1", "head": "u", "capacity": "4", "cost": "1"},
            {"id": "b", "tail": "s2", "head": "u", "capacity": "4", "cost": "1"},
            {"id": "c1", "tail": "u", "head": "t1", "capacity": "4", "cost": "1"},
            {"id": "c2", "tail": "u", "head": "t2", "capacity": "4", "cost": "1"},
            {"id": "d", "tail": "s1", "head": "t1", "capacity": "4", "cost": "1"},
        ],
        "clients": ["t1", "t2"],
        "source_model": {"kind": "linear", "q": 5, "N": 2,
                         "matrices": {"s1": [[1, 0]], "s2": [[0, 1]]}},
    }
    from mmcast import load_instance
    from mmcast.model import boundary_vector, client_subproblem
    from mmcast.submodular import conditional_entropy_function, in_base_polyhedron
    instance, oracle, sm = load_instance(doc)
    # t1 takes s1's packet directly (d) and s2's through u (c1); t2 needs both
    # through u, so the envelope carries 2 on a..c even though t1 alone would not
    envelope = {"a": Fraction(1), "b": Fraction(1), "c1": Fraction(2),
                "c2": Fraction(2), "d": Fraction(1)}
    sub1 = client_subproblem(instance, oracle, "t1")
    g1 = conditional_entropy_function(oracle, sub1.sources)
    assert not in_base_polyhedron(boundary_vector(
        {e.id: envelope[e.id] for e in sub1.edges}, sub1), g1).member
    net = build_coded_network(instance, sm, envelope, oracle=oracle)
    assignment = assign_coefficients(net, seed=0)
    sim = simulate(net, assignment, [3, 4])
    assert all(rep.exact for rep in sim.clients.values())


def dense_transfer(net, assignment, t):
    """A (I - Gamma)^-1 B(t) with a dense Gamma and one c x c inverse."""
    c = len(net.channels)
    entries = [int(i == j) for i in range(c) for j in range(c)]
    for (src, dst), coeff in assignment.coefficients.items():
        entries[src * c + dst] = -coeff
    inv = gf.inverse(FieldMatrix(c, c, entries, net.q))
    return net.source_matrix.matmul(inv).select_columns(net.sink_channels[t])


def two_pass_decoder(net, assignment, t):
    """The decoder by a greedy row basis of the received vectors, then one block inverse."""
    received = [assignment.global_vectors[c] for c in net.sink_channels[t]]
    n, cols = net.n_symbols, len(received)
    basis = gf.row_basis(received, net.q)
    block_inv = gf.inverse(FieldMatrix.from_rows([received[k] for k in basis], net.q, cols=n))
    entries = [0] * (n * cols)
    for k, c in enumerate(basis):
        for i in range(n):
            entries[i * cols + c] = block_inv[i, k]
    return FieldMatrix(n, cols, entries, net.q)


def test_transfer_and_decoder_match_dense_formula():
    from helpers import load_f2, random_feasible_instance
    instance, oracle, sm = load_f2()
    fixture_rates = {k: Fraction(v) for k, v in FIXTURE_RATES.items()}
    half = dict(fixture_rates, e2=Fraction(3, 2), e3=Fraction(3, 2))
    cases = []
    for rates, seed in ((fixture_rates, 0), (half, 3), (instance.capacities(), 0)):
        net = build_coded_network(instance, sm, rates, oracle=oracle)
        cases.append((net, assign_coefficients(net, seed=seed)))
    # the narrowest lanes (q = 3, which also retries) and lanes wider than 64 bits
    for q in (3, 2 ** 64 - 59):
        for rates, seed in ((fixture_rates, 0), (half, 3)):
            net = build_coded_network(instance, over_field(sm, q), rates)
            cases.append((net, assign_coefficients(net, seed=seed)))
    net3 = identity_network(3)
    cases.append((net3, assign_coefficients(net3, seed=0)))

    # t1 gets 8 symbols of a 4-symbol file at capacity; silence its first one
    net, assignment = cases[2]
    first = net.sink_channels["t1"][0]
    muted = assignment_from_coefficients(net, {k: (0 if k[1] == first else v)
                                               for k, v in assignment.coefficients.items()})
    cases.append((net, muted))

    rng = random.Random(353)
    coded = 0
    while coded < 3:
        inst, orc, model = random_feasible_instance(rng, n_clients=2)
        if gf.rank(model.stacked(inst.sources)) < model.n_packets:
            continue
        net = build_coded_network(inst, model, inst.capacities(), oracle=orc)
        if len(net.channels) <= 64:
            cases.append((net, assign_coefficients(net, seed=coded)))
            coded += 1

    skipped_first = False
    for net, assignment in cases:
        assert len(net.channels) <= 64
        identity = FieldMatrix.identity(net.n_symbols, net.q)
        for t in net.clients:
            m = dense_transfer(net, assignment, t)
            assert transfer_matrix(net, assignment, t) == m
            decoder = build_decoder(net, assignment, t)
            assert decoder == two_pass_decoder(net, assignment, t)
            assert decoder == gf.solve_right(m, identity).transpose()
            assert decoder.matmul(m.transpose()) == identity
            if not any(m[i, 0] for i in range(m.rows)):
                assert not any(decoder[i, 0] for i in range(decoder.rows))
                skipped_first = True
    assert skipped_first
    assert any(net.beta == 2 for net, _ in cases)
    assert {net.q for net, _ in cases} == {3, 5, 2 ** 64 - 59}
    assert any(assignment.attempts > 1 for net, assignment in cases if net.q == 3)
    assert any(len(sinks) > net.n_symbols for net, _ in cases
               for sinks in net.sink_channels.values())


def input_pairs(net):
    """(feeding, fed) channel pairs, fed channels in order, each with its inputs in order."""
    return [(src, ch.index) for ch in net.channels for src in net.inputs[ch.index]]


def test_coefficient_stream_is_randrange_per_attempt(f2_net):
    # attempt i draws Random(seed * 1_000_003 + i).randrange(q) per channel pair in
    # channel-input order, for a first attempt and for attempts after three retries
    instance, _, sm, net = f2_net
    half = {k: Fraction(v) for k, v in FIXTURE_RATES.items()}
    half.update(e2=Fraction(3, 2), e3=Fraction(3, 2))
    net3 = build_coded_network(instance, over_field(sm, 3), half)
    for coded, seed, attempts in ((net, 5, 1), (net, 0, 4), (net3, 3, 4)):
        assignment = assign_coefficients(coded, seed=seed)
        assert assignment.attempts == attempts
        rng = random.Random(seed * 1_000_003 + assignment.attempts - 1)
        pairs = input_pairs(coded)
        assert list(assignment.coefficients) == pairs
        assert list(assignment.coefficients.values()) == [rng.randrange(coded.q)
                                                          for _ in pairs]


@pytest.mark.parametrize("call, exc, message", [
    (lambda instance, sm, net: build_coded_network(instance, sm, {"e1": 0, "zz": 1, "yy": 2}),
     UnknownEdgeRate, r"rates given for unknown edges \['yy', 'zz'\]"),
    (lambda instance, sm, net: assignment_from_coefficients(net, {(0, 0): 1}),
     InvalidParameters, r"coefficients on non-adjacent channel pairs: \[\(0, 0\)\]"),
])
def test_every_code_input_check_names_its_input(f2_net, call, exc, message):
    # each case reaches one check, named by its message
    instance, _, sm, net = f2_net
    with pytest.raises(exc, match=message):
        call(instance, sm, net)
