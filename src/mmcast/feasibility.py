"""Feasibility of the multicast problem: does an achievable rate vector exist.

For one client the criterion is that every source subset S can push its
innovative information out: cut capacity c(out-edges of S) must cover the
conditional entropy H(X_S | X_{rest}).  The slack function
``c(out(S)) - g(S)`` is submodular, so the worst subset comes from a single
submodular minimization; the whole instance is feasible iff every client's
worst subset has nonnegative slack.  The solvers' own LPs decide
feasibility; they compute these certificates only to explain an empty LP.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import model
from .errors import ReconstructabilityViolated
from .model import ClientSubproblem, NetworkInstance, Region, cut_capacity
from .submodular import SetFunction, conditional_entropy_function, members, sfm_brute_force


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


def slack_function(sub: ClientSubproblem, oracle, capacities: dict) -> SetFunction:
    """S -> c(out(S)) - g(S) over the client's sources; submodular, tabulated."""
    region = Region(sub, oracle)
    slack = [c - g for c, g in zip(region.cut(capacities), region.g)]
    return SetFunction.tabulated(sub.sources, slack, "submodular")


def check_feasible_single(sub: ClientSubproblem, oracle, capacities: dict) -> FeasibilityCertificate:
    """Certificate for one client: worst subset of the slack function.

    The empty set is skipped (its slack is identically zero).  The cut and
    the requirement of the witness are evaluated again from their per-subset
    definitions, so ``slack == cut - required`` checks the tables.
    """
    f = slack_function(sub, oracle, capacities)
    witness, worst = sfm_brute_force(f, include_empty=False)
    required = oracle.conditional(witness, sub.sources)
    cut = cut_capacity(capacities, witness, sub.edges)
    return FeasibilityCertificate(sub.client, worst >= 0, witness, cut, required, worst)


def require_reconstructable(instance: NetworkInstance, oracle) -> None:
    """Raise ReconstructabilityViolated, naming the clients, unless every client sees the process."""
    recon = model.check_reconstructability(instance, oracle)
    if not recon.ok:
        failed = [c.client for c in recon.clients if not c.complete]
        raise ReconstructabilityViolated(
            f"clients {failed} cannot see the full process", recon)


def check_feasible_multi(instance: NetworkInstance, oracle,
                         capacities: dict | None = None) -> FeasibilityReport:
    """Per-client certificates plus the overall verdict.

    Requires the reconstructability precondition; certificates are returned
    in instance client order.
    """
    require_reconstructable(instance, oracle)
    caps = capacities if capacities is not None else instance.capacities()
    certs = tuple(check_feasible_single(model.client_subproblem(instance, oracle, t), oracle, caps)
                  for t in instance.clients)
    return FeasibilityReport(all(c.feasible for c in certs), certs)


def enumerate_feasibility(sub: ClientSubproblem, oracle, capacities: dict) -> FeasibilityCertificate:
    """Reference path: materialize every subset inequality directly.

    Same contract as :func:`check_feasible_single`, witness tie-break
    included (smallest cardinality, then earliest index tuple), kept as an
    independent cross-check route (no region tables, no submodular
    machinery).
    """
    g = conditional_entropy_function(oracle, sub.sources)
    n = len(sub.sources)
    best = None
    for mask in range(1, 1 << n):
        nodes = members(sub.sources, mask)
        cut = cut_capacity(capacities, nodes, sub.edges)
        required = g(nodes)
        key = (cut - required, len(nodes), tuple(i for i in range(n) if mask >> i & 1))
        if best is None or key < best[0]:
            best = (key, nodes, cut, required)
    (slack, _, _), nodes, cut, required = best
    return FeasibilityCertificate(sub.client, slack >= 0, nodes, cut, required, slack)


def achievable_point(sub: ClientSubproblem, oracle, capacities: dict) -> dict:
    """A rate vector in the client's region and capacity box: the unit-cost single-client optimum."""
    from . import single_client

    costs = {e.id: Fraction(1) for e in sub.edges}
    return single_client.solve_single_client(sub, oracle, costs, capacities).rates
