import json
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import FIXTURE_F2
from mmcast.entropy import LinearSource, PmfSource
from mmcast.errors import InvalidInstance
from mmcast.gf import FieldMatrix
from mmcast.instance_io import frac_str, load_instance, parse_rates, parse_source_model
from mmcast.model import parse_rational


def test_parse_rational_forms():
    assert parse_rational("4") == 4
    assert parse_rational("0.5") == Fraction(1, 2)
    assert parse_rational("1/3") == Fraction(1, 3)
    assert parse_rational(7) == 7
    assert parse_rational(2.0) == 2


def test_parse_rational_rejects_drift():
    with pytest.raises(InvalidInstance):
        parse_rational(0.1)      # binary float, not exact
    with pytest.raises(InvalidInstance):
        parse_rational("abc")
    with pytest.raises(InvalidInstance):
        parse_rational(True)


def test_frac_str_round_trip():
    for value in (Fraction(3), Fraction(1, 3), Fraction(-7, 2), Fraction(0)):
        assert parse_rational(frac_str(value)) == value


def test_parse_rates_accepts_solver_output():
    assert parse_rates({"e1": "1/2"}) == {"e1": Fraction(1, 2)}
    assert parse_rates({"Z": {"e1": "2"}}) == {"e1": Fraction(2)}
    assert parse_rates({"rates": {"e1": 3}}) == {"e1": Fraction(3)}


def test_a_path_is_read_whatever_its_first_character(tmp_path, monkeypatch):
    # a relative path may start with a brace; it is still a file name, not JSON text
    monkeypatch.chdir(tmp_path)
    Path("{f2}.json").write_text(FIXTURE_F2.read_text())
    want = load_instance(FIXTURE_F2)[0].edges
    for source in ("{f2}.json", Path("{f2}.json")):
        assert load_instance(source)[0].edges == want


def test_tabular_requires_all_subsets():
    with pytest.raises(InvalidInstance):
        parse_source_model({"kind": "tabular", "entropies": {"a": 1}}, ("a", "b"))


def test_tabular_subset_keys_are_order_insensitive():
    model = parse_source_model(
        {"kind": "tabular", "unit": "packets",
         "entropies": {"a": 1, "b": 1, "b,a": "3/2"}}, ("a", "b"))
    assert model.entropy(["a", "b"]) == Fraction(3, 2)
    assert model.entropy(["b"]) == 1


def test_unknown_kind_rejected():
    with pytest.raises(InvalidInstance):
        parse_source_model({"kind": "gaussian"}, ("a",))


def test_linear_matrix_for_unknown_node_rejected():
    with pytest.raises(InvalidInstance):
        parse_source_model({"kind": "linear", "q": 5, "N": 2,
                            "matrices": {"zz": [[1, 0]]}}, ("a",))


def test_pmf_instance_loads_and_solves():
    doc = {
        "nodes": ["x", "y", "t"],
        "edges": [
            {"id": "a", "tail": "x", "head": "y", "capacity": "2", "cost": "1"},
            {"id": "b", "tail": "y", "head": "t", "capacity": "3", "cost": "1"},
        ],
        "clients": ["t"],
        "source_model": {"kind": "pmf", "order": ["x", "y"],
                         "alphabets": {"x": 2, "y": 2},
                         "table": [["1/4", "1/4"], ["1/4", "1/4"]]},
    }
    instance, oracle, _ = load_instance(doc)
    assert oracle.entropy(["x", "y"]) == 2
    from mmcast import check_feasible_multi
    assert check_feasible_multi(instance, oracle).feasible


def test_missing_source_model():
    doc = json.loads(FIXTURE_F2.read_text())
    del doc["source_model"]
    with pytest.raises(InvalidInstance):
        load_instance(doc)


def test_linear_model_ignores_a_blocklength_key():
    # no code reads a block length, so the key is ignored like any other unknown key
    model = parse_source_model({"kind": "linear", "q": 5, "N": 2, "blocklength": "two",
                                "matrices": {"a": [[1, 0]]}}, ("a",))
    assert model.entropy(["a"]) == 1


def test_ragged_linear_matrix_rejected_naming_the_node():
    # N = 4: a 5-entry row is not folded into the next one
    doc = json.loads(FIXTURE_F2.read_text())
    doc["source_model"]["matrices"]["m1"] = [[1, 0, 0, 0], [0, 1, 0, 0, 3], [2, 0, 0]]
    with pytest.raises(InvalidInstance, match="row 1 of the matrix of m1 has 5 entries"):
        load_instance(doc)
    with pytest.raises(InvalidInstance, match="matrix of m2"):
        parse_source_model({"kind": "linear", "q": 5, "N": 2,
                            "matrices": {"m2": [[1, 0], [1]]}}, ("m2",))


@pytest.mark.parametrize("matrices", [{"a": [[1]]}, {}])
def test_linear_model_rejects_a_composite_modulus_as_invalid(matrices):
    # the modulus is checked before any observation matrix is built
    with pytest.raises(InvalidInstance, match="prime q"):
        parse_source_model({"kind": "linear", "q": 4, "N": 1, "matrices": matrices}, ("a",))


def test_linear_model_rejects_a_negative_packet_count():
    with pytest.raises(InvalidInstance, match="N >= 0"):
        parse_source_model({"kind": "linear", "q": 5, "N": -1, "matrices": {}}, ("a",))
    with pytest.raises(InvalidInstance, match="N >= 0"):
        LinearSource(5, -1, {})
    assert parse_source_model({"kind": "linear", "q": 5, "N": 0, "matrices": {}},
                              ("a",)).rank_table(("a",)) == [0, 0]


def _load(**changes):
    """Load two sources a, b and a client t, the top-level keys in ``changes`` replaced."""
    doc = {"nodes": ["a", "b", "t"],
           "edges": [{"id": f"e{i}", "tail": v, "head": "t", "capacity": "1", "cost": "1"}
                     for i, v in enumerate("ab", 1)],
           "clients": ["t"],
           "source_model": {"kind": "linear", "q": 5, "N": 2,
                            "matrices": {"a": [[1, 0]], "b": [[0, 1]]}}}
    return load_instance({**doc, **changes})


_LINEAR = {"kind": "linear", "q": 5, "N": 2, "matrices": {"a": [[1, 0]]}}
_PMF = {"kind": "pmf", "order": ["a"], "alphabets": {"a": 2}, "table": ["1/2", "1/2"]}


def _without(model, key):
    return {k: v for k, v in model.items() if k != key}


INPUT_CHECKS = {
    "model without kind": (lambda: _load(source_model={"q": 5}), "must declare a kind"),
    "linear without q": (lambda: _load(source_model=_without(_LINEAR, "q")), "malformed linear"),
    "linear without N": (lambda: _load(source_model=_without(_LINEAR, "N")), "malformed linear"),
    "linear without matrices": (lambda: _load(source_model=_without(_LINEAR, "matrices")),
                                "malformed linear"),
    "tabular without entropies": (lambda: _load(source_model={"kind": "tabular"}),
                                  "needs an entropies table"),
    "tabular entry of an unknown node": (
        lambda: _load(source_model={"kind": "tabular",
                                    "entropies": {"a": 1, "b": 1, "a,b": 2, "a,z": 2}}),
        "'a,z' references unknown nodes"),
    "malformed pmf": (lambda: _load(source_model=_without(_PMF, "table")), "malformed pmf"),
    "pmf order is not its alphabet nodes": (lambda: _load(source_model={**_PMF, "order": ["b"]}),
                                            "exactly the alphabet nodes"),
    "pmf of an unknown node": (
        lambda: _load(source_model={**_PMF, "order": ["z"], "alphabets": {"z": 2}}),
        "pmf references unknown nodes"),
    "source neither a path nor a dict": (lambda: load_instance(42), "cannot load an instance"),
    "duplicate node ids": (lambda: _load(nodes=["a", "b", "a", "t"]), "duplicate node ids"),
    "malformed edge entry": (lambda: _load(edges=[{"id": "e1", "tail": "a", "head": "t"}]),
                             "malformed edge entry"),
    "edge to an unknown node": (
        lambda: _load(edges=[{"id": "e1", "tail": "a", "head": "z", "capacity": 1, "cost": 1}]),
        "edge e1 references unknown node"),
    "duplicate client ids": (lambda: _load(clients=["t", "t"]), "duplicate client ids"),
    "client that is not a node": (lambda: _load(clients=["t", "z"]),
                                  "client list references unknown node"),
    "matrix with the wrong column count": (
        lambda: LinearSource(5, 3, {"a": FieldMatrix.from_rows([[1, 0]], 5)}),
        "has 2 columns, expected 3"),
    "matrix over another field": (
        lambda: LinearSource(5, 2, {"a": FieldMatrix.from_rows([[1, 0]], 7)}),
        "over F_7, expected F_5"),
    "joint alphabet above the cap": (
        lambda: PmfSource(("a", "b"), {"a": 2 ** 10, "b": 2 ** 11}, {}), "exceeds cap"),
    "pmf that does not sum to 1": (lambda: _load(source_model={**_PMF, "table": ["1/2", "1/4"]}),
                                   "sums to 3/4"),
    "negative probability": (lambda: _load(source_model={**_PMF, "table": ["-1/2", "3/2"]}),
                             "negative probability"),
}


@pytest.mark.parametrize("name", INPUT_CHECKS)
def test_every_input_check_raises_invalid_instance(name):
    # each case reaches one check, named by its message
    make, message = INPUT_CHECKS[name]
    with pytest.raises(InvalidInstance, match=message):
        make()
