import random
from fractions import Fraction

import pytest

from helpers import long_chain_doc, random_instance_doc, tabular_from_oracle
from mmcast import client_subproblem, gf, load_instance
from mmcast.entropy import (POLYMATROID_EXHAUSTIVE, POLYMATROID_SAMPLES, EntropyOracle,
                            LinearSource, TabularSource, pmf_from_nested, validate_polymatroid)
from mmcast.errors import GroundTooLarge, InvalidParameters, UnknownSubset
from mmcast.gf import FieldMatrix
from mmcast.model import Region
from mmcast.submodular import members


def test_fixture_linear_entropies(f2):
    _, oracle, _ = f2
    assert oracle.entropy(["m1"]) == 2
    assert oracle.entropy(["m2"]) == 2
    assert oracle.entropy(["m3"]) == 1
    assert oracle.entropy(["m4"]) == 1
    assert oracle.entropy(["m1", "m2", "m3", "m4"]) == 4
    assert oracle.entropy([]) == 0


def test_fixture_conditionals(f2):
    _, oracle, _ = f2
    m_t1 = ("m1", "m2", "m3", "m4")
    assert oracle.conditional(["m2"], m_t1) == 0
    assert oracle.conditional(["m4"], ("m1", "m2", "m4")) == 1
    assert oracle.conditional(m_t1, m_t1) == oracle.entropy(m_t1)
    assert oracle.conditional([], m_t1) == 0


def test_pmf_two_fair_bits():
    quarter = Fraction(1, 4)
    nested = [[quarter, quarter], [quarter, quarter]]
    model = pmf_from_nested(["x", "y"], {"x": 2, "y": 2}, nested)
    oracle = EntropyOracle.from_model(("x", "y"), model)
    assert oracle.entropy(["x"]) == 1
    assert oracle.entropy(["x", "y"]) == 2


def test_pmf_biased_bit_is_rationalized():
    model = pmf_from_nested(["x"], {"x": 2}, [Fraction(1, 3), Fraction(2, 3)])
    oracle = EntropyOracle.from_model(("x",), model)
    h = oracle.entropy(["x"])
    assert h.denominator <= 2 ** 40
    assert abs(float(h) - 0.9182958340544896) < 1e-10


def test_tabular_submodularity_violation_reported():
    table = TabularSource(("a", "b"), {
        frozenset(["a"]): Fraction(1),
        frozenset(["b"]): Fraction(1),
        frozenset(["a", "b"]): Fraction(3),
    })
    oracle = EntropyOracle.from_model(("a", "b"), table)
    report = validate_polymatroid(oracle)
    assert not report.monotone_violations
    assert report.submodular_violations
    assert not report.ok


def test_tabular_copy_matches_linear(f2):
    _, oracle, _ = f2
    copy = EntropyOracle.from_model(oracle.ground, tabular_from_oracle(oracle))
    n = len(oracle.ground)
    for mask in range(1 << n):
        subset = [oracle.ground[i] for i in range(n) if mask >> i & 1]
        assert copy.entropy(subset) == oracle.entropy(subset)


def test_tabular_copy_above_the_brute_force_limit_is_refused():
    _, oracle, _ = load_instance(long_chain_doc(21))
    with pytest.raises(GroundTooLarge):
        tabular_from_oracle(oracle)


def test_oracle_table_checks_the_cap_before_building(monkeypatch):
    _, oracle, _ = load_instance(long_chain_doc(21))

    def boom(*args):
        raise AssertionError("a rank table was built above the brute-force limit")

    monkeypatch.setattr(LinearSource, "rank_table", boom)
    with pytest.raises(GroundTooLarge):
        oracle.table(oracle.ground)
    with pytest.raises(GroundTooLarge):
        tabular_from_oracle(oracle)


def test_tabular_missing_subset():
    table = TabularSource(("a", "b"), {frozenset(["a"]): Fraction(1)})
    with pytest.raises(UnknownSubset):
        table.entropy(["b"])


def test_fixture_polymatroid(f2):
    _, oracle, _ = f2
    report = validate_polymatroid(oracle)
    assert report.ok and report.exhaustive
    assert report.pairs_checked == 28           # 4 + C(4, 2) * 2^2 elemental inequalities


def test_duality_of_conditional_form(f2):
    # f(S) = g(M) - g(M \ S) must reproduce the plain entropy, subset for subset
    _, oracle, _ = f2
    ground = ("m1", "m2", "m3", "m4")
    n = len(ground)
    for mask in range(1 << n):
        s = [ground[i] for i in range(n) if mask >> i & 1]
        rest = [ground[i] for i in range(n) if not mask >> i & 1]
        dual = oracle.conditional(ground, ground) - oracle.conditional(rest, ground)
        assert dual == oracle.entropy(s)


def test_conditional_supermodular_exhaustive(f2):
    instance, oracle, _ = f2
    from mmcast import client_subproblem
    for t in instance.clients:
        sub = client_subproblem(instance, oracle, t)
        ground = sub.sources
        n = len(ground)
        subsets = [[ground[i] for i in range(n) if mask >> i & 1] for mask in range(1 << n)]
        for a_mask, a in enumerate(subsets):
            for b_mask, b in enumerate(subsets):
                union = subsets[a_mask | b_mask]
                inter = subsets[a_mask & b_mask]
                lhs = oracle.conditional(a, ground) + oracle.conditional(b, ground)
                rhs = oracle.conditional(union, ground) + oracle.conditional(inter, ground)
                assert lhs <= rhs


def test_random_linear_oracles_are_polymatroids():
    rng = random.Random(3)
    for _ in range(10):
        _, oracle, _ = load_instance(random_instance_doc(rng))
        assert validate_polymatroid(oracle).ok


def test_memo_consistency(f2):
    _, oracle, _ = f2
    first = oracle.entropy(["m1", "m2"])
    assert oracle.entropy(["m2", "m1"]) == first


def test_pmf_perfectly_correlated_sources():
    # y is a copy of x: joint entropy stays 1 bit
    quarter = Fraction(1, 2)
    nested = [[quarter, Fraction(0)], [Fraction(0), quarter]]
    model = pmf_from_nested(["x", "y"], {"x": 2, "y": 2}, nested)
    oracle = EntropyOracle.from_model(("x", "y"), model)
    assert oracle.entropy(["x"]) == 1
    assert oracle.entropy(["y"]) == 1
    assert oracle.entropy(["x", "y"]) == 1
    assert validate_polymatroid(oracle).ok


def test_sampled_polymatroid_path_on_large_ground():
    rng = random.Random(151)
    n_sources, n_packets = 13, 6
    matrices = {}
    for i in range(n_sources):
        rows = [[rng.randrange(5) for _ in range(n_packets)] for _ in range(rng.randint(1, 2))]
        matrices[f"s{i}"] = FieldMatrix.from_rows(rows, 5, cols=n_packets)
    model = LinearSource(5, n_packets, matrices)
    oracle = EntropyOracle.from_model(tuple(matrices), model)
    report = validate_polymatroid(oracle)
    assert not report.exhaustive
    assert report.pairs_checked == n_sources + POLYMATROID_SAMPLES
    assert report.ok


@pytest.mark.parametrize("n_sources", [12, 13])
def test_planted_monotone_violation_is_reported(n_sources):
    # s1 adds nothing to the other sources here, so H(N - {s1}) = H(N); raising
    # H(N - {s1}) by one breaks exactly one monotone elemental inequality
    _, oracle, _ = load_instance(random_instance_doc(random.Random(5), n_sources=n_sources,
                                                     n_clients=2))
    table = tabular_from_oracle(oracle)
    ground = oracle.ground
    rest = frozenset(ground) - {"s1"}
    top = table.entropies[frozenset(ground)]
    assert table.entropies[rest] == top
    table.entropies[rest] = top + 1
    report = validate_polymatroid(EntropyOracle.from_model(ground, table))
    assert report.exhaustive == (n_sources <= POLYMATROID_EXHAUSTIVE)
    assert report.monotone_violations == [(ground[1:], ground, top + 1, top)]
    assert not report.ok


def test_sampled_submodular_violations_are_reported():
    # H(S) = |S|^2 grows, so no monotone inequality fails, but every submodular
    # elemental one does: 2 (k + 1)^2 < (k + 2)^2 + k^2 for |K| = k
    ground = tuple(f"s{i}" for i in range(13))
    table = TabularSource(ground, {frozenset(members(ground, mask)): Fraction(mask.bit_count() ** 2)
                                   for mask in range(1, 1 << 13)})
    report = validate_polymatroid(EntropyOracle.from_model(ground, table))
    assert not report.exhaustive and not report.monotone_violations
    assert len(report.submodular_violations) == POLYMATROID_SAMPLES
    for i_k, j_k, lhs, rhs in report.submodular_violations:
        k = len(i_k) - 1
        assert len(j_k) == k + 1 and len(set(i_k) ^ set(j_k)) == 2
        assert (lhs, rhs) == (2 * (k + 1) ** 2, (k + 2) ** 2 + k ** 2)


def test_pmf_rounding_does_not_fake_violations():
    # independent sources sit exactly on the submodularity boundary; the
    # grid snapping must not turn that into a reported violation
    for num in range(1, 20):
        p = Fraction(num, 41)
        nested = [[p * p, p * (1 - p)], [(1 - p) * p, (1 - p) * (1 - p)]]
        model = pmf_from_nested(["x", "y"], {"x": 2, "y": 2}, nested)
        oracle = EntropyOracle.from_model(("x", "y"), model)
        assert validate_polymatroid(oracle).ok


def _random_linear_case(rng, q, m, n_packets, saturate=False):
    """Fresh dense model over F_q with relays, zero-row blocks, zero rows and repeated rows."""
    seen = []
    matrices = {}
    nodes = [f"v{i}" for i in range(m)]
    for i, node in enumerate(nodes):
        kind = rng.random()
        if saturate and i == 1:                         # unit upper triangular: rank N
            rows = [[int(j == r) if j <= r else rng.randrange(q) for j in range(n_packets)]
                    for r in range(n_packets)]
        elif kind < 0.15:
            continue                                    # relay: absent from the model
        elif kind < 0.25:
            rows = []                                   # present with no rows
        else:
            rows = [[rng.randrange(q) for _ in range(n_packets)]
                    for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.3:
                rows.append([0] * n_packets)
            if seen and rng.random() < 0.4:
                rows.append(rng.choice(seen))          # repeats a row of an earlier node
            if rng.random() < 0.2:
                rows.append(rows[0])
        seen += rows
        matrices[node] = FieldMatrix.from_rows(rows, q, cols=n_packets)
    rng.shuffle(nodes)
    return LinearSource(q, n_packets, matrices), tuple(nodes)


@pytest.mark.parametrize("q", [2, 3, 5, 2 ** 61 - 1])
def test_rank_table_matches_per_subset_rank(q):
    rng = random.Random(q)
    cases = [(m, rng.randint(1, 6), False) for m in (1, 3, 6, 8, 10)]
    cases += [(8, 3, True), (10, 4, True)]              # one node alone has rank N
    for m, n_packets, saturate in cases:
        model, nodes = _random_linear_case(rng, q, m, n_packets, saturate)
        table = model.rank_table(nodes)
        assert len(table) == 1 << m
        if saturate:
            assert table[-1] == n_packets
        for mask in range(1 << m):
            expected = gf.rank(model.stacked(members(nodes, mask)))
            assert table[mask] == expected, (q, m, n_packets, mask)


def test_rank_table_all_relays_and_no_packets():
    model = LinearSource(3, 2, {"a": FieldMatrix.from_rows([[1, 2]], 3)})
    assert model.rank_table(("x", "y")) == [0, 0, 0, 0]
    assert model.rank_table(("x", "a", "y")) == [0, 0, 1, 1, 0, 0, 1, 1]
    assert model.rank_table(()) == [0]
    empty = LinearSource(5, 0, {"a": FieldMatrix.from_rows([], 5, cols=0)})
    assert empty.rank_table(("a", "b")) == [0, 0, 0, 0]


@pytest.mark.parametrize("layout", ["rhh", "hrh", "hhr", "rrhrrhrr", "hrrrh", "r", "rhrhr"])
def test_rank_table_with_relays_anywhere_matches_per_subset_rank(layout):
    # a relay (h: a holder of packets, r: a relay) doubles the union table by copy:
    # absent from the model, present with no rows, or with zero rows only
    rng = random.Random(layout)
    n_packets, matrices, nodes = 4, {}, []
    for i, kind in enumerate(layout):
        node = f"{kind}{i}"
        nodes.append(node)
        if kind == "h":
            rows = [[rng.randrange(1, 5) * (j == p) for j in range(n_packets)]
                    for p in rng.sample(range(n_packets), rng.randint(1, 3))]
        else:
            rows = [[], [[0] * n_packets], None][i % 3]
        if rows is not None:
            matrices[node] = FieldMatrix.from_rows(rows, 5, cols=n_packets)
    model = LinearSource(5, n_packets, matrices)
    assert None not in model._held.values()
    table = model.rank_table(tuple(nodes))
    assert len(table) == 1 << len(nodes)
    for mask in range(1 << len(nodes)):
        assert table[mask] == gf.rank(model.stacked(members(nodes, mask))), (layout, mask)


def _assert_region_matches(instance, oracle, model, entropy):
    # g(S) = H(G) - H(G \ S) over the client's sources G, against a per-subset
    # entropy; building the Region writes nothing to a fresh oracle's memo
    for t in instance.clients:
        sub = client_subproblem(instance, oracle, t)
        fresh = EntropyOracle.from_model(oracle.ground, model)
        memo = dict(fresh._memo)
        region = Region(sub, fresh)
        assert fresh._memo == memo
        full = (1 << len(sub.sources)) - 1
        for mask in range(full + 1):
            rest = members(sub.sources, full ^ mask)
            assert region.g[mask] == entropy(sub.sources) - entropy(rest)


def test_region_matches_per_mask_evaluation_without_memo_writes():
    rng = random.Random(17)
    for doc in [random_instance_doc(rng, n_sources=7, n_clients=2) for _ in range(3)]:
        model_doc = doc["source_model"]
        # dense observations instead of the generator's 0/1 selectors
        model_doc["matrices"] = {node: [[rng.randrange(5) for _ in row] for row in rows]
                                 for node, rows in model_doc["matrices"].items()}
        instance, oracle, model = load_instance(doc)
        _assert_region_matches(instance, oracle, model, model.entropy)


def test_oracle_table_falls_back_per_mask_for_tabular_models(f2):
    _, oracle, _ = f2
    ground = ("m3", "m1", "m4")
    copy = EntropyOracle.from_model(oracle.ground, tabular_from_oracle(oracle))
    expected = [oracle.entropy(members(ground, mask)) for mask in range(8)]
    assert copy.table(ground) == expected
    assert EntropyOracle.from_model(oracle.ground, oracle.model).table(ground) == expected


def test_oracle_table_refuses_a_repeated_node(f2):
    # a repeated node would carry into another node's bit of the global masks
    _, oracle, _ = f2
    memo = dict(oracle._memo)
    with pytest.raises(InvalidParameters):
        oracle.table(("m1", "m3", "m1"))
    assert oracle._memo == memo


def _random_selector_case(rng, q, m, n_packets, scaled=False, dense=False):
    """Fresh case-(i) model: rows c * e_j (c = 1 unless scaled), with relays, zero-row
    blocks, zero rows and packets repeated within and across nodes.  With ``dense``,
    one node also gets a row of two or more nonzeros."""
    matrices = {}
    nodes = [f"v{i}" for i in range(m)]
    for node in nodes:
        kind = rng.random()
        if kind < 0.15:
            continue                                    # relay: absent from the model
        rows = []
        if kind >= 0.25:                                # else present with no rows
            for _ in range(rng.randint(1, 3)):
                j, c = rng.randrange(n_packets), rng.randrange(1, q) if scaled else 1
                rows.append([c if k == j else 0 for k in range(n_packets)])
            if rng.random() < 0.3:
                rows.append([0] * n_packets)
            if rng.random() < 0.3:
                rows.append([rows[0][k] * (q - 1) % q for k in range(n_packets)])  # same packet
        matrices[node] = FieldMatrix.from_rows(rows, q, cols=n_packets)
    if dense:
        rows = [[rng.randrange(1, q) for _ in range(n_packets)], [0] * n_packets]
        matrices[rng.choice(nodes)] = FieldMatrix.from_rows(rows, q, cols=n_packets)
    rng.shuffle(nodes)
    return LinearSource(q, n_packets, matrices), tuple(nodes)


@pytest.mark.parametrize("q, scaled, dense", [
    (2, False, False), (5, False, False), (5, True, False), (2 ** 64 - 59, True, False),
    (2, False, True), (3, True, True), (2 ** 64 - 59, True, True)])
def test_union_rank_table_matches_per_subset_rank(q, scaled, dense):
    assert gf.is_field_modulus(q)
    rng = random.Random(q + 2 * scaled + dense)
    for m, n_packets in [(1, 1), (3, 2), (6, 4), (8, 3), (9, 7)]:
        model, nodes = _random_selector_case(rng, q, m, n_packets, scaled, dense)
        table = model.rank_table(nodes)
        assert len(table) == 1 << m
        for mask in range(1 << m):
            subset = members(nodes, mask)
            expected = gf.rank(model.stacked(subset))
            assert table[mask] == expected, (q, m, n_packets, mask)
            assert model.entropy(subset) == expected


def test_selector_tuple_takes_no_elimination(monkeypatch):
    rng = random.Random(4)
    model, nodes = _random_selector_case(rng, 5, 8, 5, scaled=True)
    expected = [gf.rank(model.stacked(members(nodes, mask))) for mask in range(1 << 8)]

    def boom(*args):
        raise AssertionError("elimination ran on a selector tuple")

    monkeypatch.setattr(LinearSource, "_rank_sweep", boom)
    monkeypatch.setattr(gf, "rank", boom)
    assert model.rank_table(nodes) == expected


@pytest.mark.parametrize("scaled, dense", [(False, False), (True, False), (True, True)])
def test_subset_entropy_counts_held_packets(monkeypatch, scaled, dense):
    # selector, scaled-selector and mixed models, all with relays: the
    # per-subset entropy equals gf.rank of the stacked observations, and
    # only a subset holding the dense node reaches the elimination
    rng = random.Random(8 + scaled + dense)
    calls = []
    rank = gf.rank
    for q, m, n_packets in [(2, 5, 3), (5, 7, 4), (2 ** 64 - 59, 6, 5)]:
        model, nodes = _random_selector_case(rng, q, m, n_packets, scaled, dense)
        subsets = [members(nodes, mask) for mask in range(1 << m)]
        expected = [rank(model.stacked(subset)) for subset in subsets]
        monkeypatch.setattr(gf, "rank", lambda matrix: calls.append(matrix) or rank(matrix))
        for subset, want in zip(subsets, expected):
            before = len(calls)
            h = model.entropy(subset)
            assert h == want and type(h) is Fraction
            assert len(calls) - before == any(model._held.get(v, 0) is None for v in subset)
        monkeypatch.undo()
    assert bool(calls) == dense


def test_mixed_tuple_runs_the_elimination(monkeypatch):
    rng = random.Random(6)
    model, nodes = _random_selector_case(rng, 3, 6, 4, scaled=True, dense=True)
    expected = [gf.rank(model.stacked(members(nodes, mask))) for mask in range(1 << 6)]
    sweeps = []
    sweep = LinearSource._rank_sweep
    monkeypatch.setattr(LinearSource, "_rank_sweep",
                        lambda self, nodes: sweeps.append(nodes) or sweep(self, nodes))
    assert model.rank_table(nodes) == expected
    assert sweeps == [nodes]


def test_region_matches_per_mask_evaluation_without_memo_writes_on_selector_models():
    rng = random.Random(17)
    for doc in [random_instance_doc(rng, n_sources=7, n_clients=2) for _ in range(3)]:
        instance, oracle, model = load_instance(doc)
        assert None not in model._held.values()        # the generator draws 0/1 selectors
        _assert_region_matches(instance, oracle, model,
                               lambda nodes: gf.rank(model.stacked(nodes)))


@pytest.mark.parametrize("call, message", [
    (lambda oracle: oracle.mask(["m1", "zz"]), "'zz' is not in the ground set"),
    (lambda oracle: oracle.conditional(["m1", "m3"], ["m1", "m2"]),
     r"\['m3'\] not contained in the conditioning ground set"),
])
def test_a_subset_outside_the_ground_set_is_unknown(f2, call, message):
    # each case reaches one check, named by its message
    _, oracle, _ = f2
    with pytest.raises(UnknownSubset, match=message):
        call(oracle)
