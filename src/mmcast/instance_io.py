"""Loading instances from the documented JSON format.

Top-level keys: ``nodes``, ``edges`` (id/tail/head/capacity/cost with
capacity and cost as exact-rational strings or integers), ``clients`` and
``source_model``.  Source models:

* ``{"kind": "linear", "q": 5, "N": 4, "matrices": {"m1": [[...]], ...}}``
* ``{"kind": "tabular", "entropies": {"m1": 2, "m1,m2": 3, ...}}``
  (one entry per nonempty source subset, keys are comma-joined node ids)
* ``{"kind": "pmf", "order": [...], "alphabets": {...}, "table": [...]}``
  (dense nested table of rational probability strings)

Rationals are serialized back out as ``"p/q"`` strings (plain ``"p"``
when integral) so outputs never pick up floating-point drift.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .entropy import (EntropyOracle, LinearSource, TabularSource, check_linear_parameters,
                      pmf_from_nested)
from .errors import InvalidInstance
from .gf import FieldMatrix
from .model import parse_rational, validate_instance


def frac_str(value: Fraction) -> str:
    return str(Fraction(value))


def rates_to_json(rates: dict) -> dict:
    return {eid: frac_str(r) for eid, r in sorted(rates.items())}


def _object(value, what: str) -> dict:
    """``value``, which must be a JSON object; InvalidInstance otherwise."""
    if not isinstance(value, dict):
        raise InvalidInstance(f"{what} must be a JSON object")
    return value


def parse_rates(data: dict) -> dict:
    """Accept a plain {edge: rational} mapping or solver output with Z/rates."""
    _object(data, "rates document")
    for key in ("Z", "rates"):
        if key in data and isinstance(data[key], dict):
            data = data[key]
            break
    return {str(eid): parse_rational(v) for eid, v in data.items()}


def parse_integer(value) -> int:
    """An integer field: a rational (see ``parse_rational``) that is integral."""
    r = parse_rational(value)
    if r.denominator != 1:
        raise InvalidInstance(f"expected an integer, got {value!r}")
    return r.numerator


def parse_source_model(description: dict, sources):
    try:
        kind = description["kind"]
    except (KeyError, TypeError) as exc:
        raise InvalidInstance("source_model must declare a kind") from exc
    if kind == "linear":
        try:
            q = parse_integer(description["q"])
            n = parse_integer(description["N"])
            raw = _object(description["matrices"], "linear source model matrices")
        except (KeyError, TypeError) as exc:
            raise InvalidInstance(f"malformed linear source model: {exc}") from exc
        check_linear_parameters(q, n)       # before any FieldMatrix rejects q its own way
        unknown = set(raw) - set(sources)
        if unknown:
            raise InvalidInstance(f"observation matrices for unknown nodes {sorted(unknown)}")
        matrices = {}
        for node, rows in raw.items():
            try:
                entries = [[parse_integer(x) for x in row] for row in rows]
            except TypeError as exc:
                raise InvalidInstance(f"matrix of {node} must be a list of rows: {exc}") from exc
            for i, row in enumerate(entries):
                if len(row) != n:
                    raise InvalidInstance(
                        f"row {i} of the matrix of {node} has {len(row)} entries, expected N = {n}")
            matrices[node] = FieldMatrix.from_rows(entries, q, cols=n)
        return LinearSource(q, n, matrices)
    if kind == "tabular":
        try:
            raw = _object(description["entropies"], "tabular entropies")
        except KeyError as exc:
            raise InvalidInstance("tabular source model needs an entropies table") from exc
        table, keys = {}, {}
        for key, value in raw.items():
            subset = frozenset(part.strip() for part in str(key).split(","))
            if not subset <= set(sources):
                raise InvalidInstance(f"entropy entry {key!r} references unknown nodes")
            if subset in keys:
                raise InvalidInstance(
                    f"entropy entries {keys[subset]!r} and {key!r} name the same subset")
            keys[subset] = key
            table[subset] = parse_rational(value)
        n = len(sources)
        if len(table) < (1 << n) - 1:
            raise InvalidInstance(
                f"tabular model has {len(table)} entries, needs all {(1 << n) - 1} nonempty subsets")
        return TabularSource(tuple(sources), table)
    if kind == "pmf":
        try:
            alphabets = {str(k): parse_integer(v)
                         for k, v in _object(description["alphabets"], "pmf alphabets").items()}
            nested = description["table"]
        except (KeyError, TypeError) as exc:
            raise InvalidInstance(f"malformed pmf source model: {exc}") from exc
        order = [str(v) for v in description.get("order", sorted(alphabets))]
        if set(order) != set(alphabets):
            raise InvalidInstance("pmf order must list exactly the alphabet nodes")
        if not set(order) <= set(sources):
            raise InvalidInstance("pmf references unknown nodes")

        def convert(cell):
            if isinstance(cell, list):
                return [convert(x) for x in cell]
            return parse_rational(cell)

        return pmf_from_nested(order, alphabets, convert(nested))
    raise InvalidInstance(f"unknown source model kind {kind!r}")


def load_instance(source) -> tuple:
    """Parse and validate an instance document.

    ``source`` is a path (a ``str`` or a ``Path``) to a JSON file, or an
    already-parsed dict.  Returns ``(instance, oracle, source_model)``.
    """
    if isinstance(source, dict):
        raw = source
    elif isinstance(source, (str, Path)):
        raw = json.loads(Path(source).read_text())
    else:
        raise InvalidInstance(f"cannot load an instance from {type(source).__name__}")
    instance = validate_instance(_object(raw, "instance document"))
    if "source_model" not in raw:
        raise InvalidInstance("instance document is missing source_model")
    source_model = parse_source_model(raw["source_model"], instance.sources)
    oracle = EntropyOracle.from_model(instance.sources, source_model)
    return instance, oracle, source_model

