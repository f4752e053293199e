"""Feasibility of the multicast problem: does an achievable rate vector exist.

For one client the criterion is that every source subset S can push its
innovative information out: cut capacity c(out-edges of S) must cover the
conditional entropy H(X_S | X_{rest}).  The slack function
``c(out(S)) - g(S)`` is submodular, so the worst subset comes from a single
submodular minimization; the whole instance is feasible iff every client's
worst subset has nonnegative slack.  The solvers' own LPs decide
feasibility; they compute these certificates only to explain an empty LP,
in :func:`infeasible`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from . import model
from .errors import Infeasible
from .model import ClientSubproblem, NetworkInstance, Region, cut_capacity
from .submodular import SetFunction, members, sfm_brute_force


@dataclass(frozen=True)
class FeasibilityCertificate:
    client: str
    feasible: bool
    witness_set: tuple          # argmin of the slack over nonempty subsets
    cut: Fraction               # c(out-edges of witness)
    required: Fraction          # g(witness)
    slack: Fraction             # cut - required; negative iff infeasible

    @property
    def deficit(self) -> Fraction:
        return max(self.required - self.cut, Fraction(0))


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    certificates: tuple

    def by_client(self) -> dict:
        return {c.client: c for c in self.certificates}


def _slack_table(sub: ClientSubproblem, oracle, capacities: dict, scale: int) -> list:
    """scale * (c(out(S)) - g(S)) for every mask, from scale * capacity on each edge."""
    region = Region(sub, oracle)
    cut = region.cut([capacities[e.id] * scale for e in sub.edges])
    g = region.g if scale == 1 else [scale * x for x in region.g]
    return list(map(operator.sub, cut, g))


def check_feasible_single(sub: ClientSubproblem, oracle, capacities: dict) -> FeasibilityCertificate:
    """Certificate for one client: worst subset of the slack function.

    The slack is tabulated over one common denominator: D, the lcm of the
    denominators of the client's edge capacities.  When D > 1 the cut table
    is filled in ints of D * capacity, ``cut - D * g`` is minimized (a
    positive scale keeps the minimizer and its tie-break) and the minimum
    is divided by D once; when D = 1 the table is the slack itself.  The
    empty set is skipped (its slack is identically zero).  The cut and the
    requirement of the witness are evaluated again from their per-subset
    definitions, the requirement from the oracle's per-subset entropies
    (a linear model's rank table writes none of them, so they come from the
    model itself), and a slack other than ``cut - required`` raises
    RuntimeError: the tables, the oracle's shared conditional table
    included, disagree with them.
    """
    scale = math.lcm(*(capacities[e.id].denominator for e in sub.edges))
    f = SetFunction.tabulated(sub.sources, _slack_table(sub, oracle, capacities, scale),
                              "submodular")
    witness, worst = sfm_brute_force(f, include_empty=False)
    if scale > 1:
        worst /= scale
    required = oracle.conditional(witness, sub.sources)
    cut = cut_capacity(capacities, witness, sub.edges)
    if worst != cut - required:
        raise RuntimeError(f"client {sub.client}: the tables give slack {worst} at "
                           f"{witness}, its cut and requirement give {cut - required}")
    return FeasibilityCertificate(sub.client, worst >= 0, witness, cut, required, worst)


def check_feasible_multi(instance: NetworkInstance, oracle,
                         capacities: dict | None = None) -> FeasibilityReport:
    """Per-client certificates plus the overall verdict.

    Requires the reconstructability precondition; certificates are returned
    in instance client order.
    """
    subs = model.client_subproblems(instance, oracle)
    caps = capacities if capacities is not None else instance.capacities()
    certs = tuple(check_feasible_single(sub, oracle, caps) for sub in subs.values())
    return FeasibilityReport(all(c.feasible for c in certs), certs)


def infeasible(certificates) -> Infeasible:
    """The error for an empty LP, holding the failing certificates; RuntimeError if none fails."""
    bad = [c for c in certificates if not c.feasible]
    if not bad:
        raise RuntimeError("the LP found no allocation, but every client's certificate is feasible")
    return Infeasible(
        "no achievable rate vector: " + "; ".join(
            f"client {c.client} needs {c.required} through {c.witness_set} "
            f"but has capacity {c.cut}" for c in bad),
        bad)


def enumerate_feasibility(sub: ClientSubproblem, oracle, capacities: dict) -> FeasibilityCertificate:
    """Reference path: materialize every subset inequality directly.

    Same contract as :func:`check_feasible_single`, witness tie-break
    included (smallest cardinality, then earliest index tuple), kept as an
    independent cross-check route (no region tables, no submodular
    machinery).
    """
    n = len(sub.sources)
    best = None
    for mask in range(1, 1 << n):
        nodes = members(sub.sources, mask)
        cut = cut_capacity(capacities, nodes, sub.edges)
        required = oracle.conditional(nodes, sub.sources)
        key = (cut - required, len(nodes), members(range(n), mask))
        if best is None or key < best[0]:
            best = (key, nodes, cut, required)
    (slack, _, _), nodes, cut, required = best
    return FeasibilityCertificate(sub.client, slack >= 0, nodes, cut, required, slack)

