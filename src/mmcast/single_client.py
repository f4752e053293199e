"""Minimum-cost rate allocation for a single client.

The feasible set is the client's rate-flow region: every source subset S
must satisfy boundary(R, S) >= H(X_S | X_rest), with equality at the full
source set, intersected with the capacity box.  Two solvers cover it:

* :func:`solve_single_client` -- cutting planes.  The LP starts from a
  small constraint pool (singletons, their complements, the ground
  equality) and grows it with the most violated subset found by exact
  submodular minimization until none is violated.  Each cut is appended
  to the solved LP and re-optimized warm by dual simplex.  The LP decides
  feasibility; the certificate is computed only to explain an empty region.
* :func:`solve_single_client_bruteforce` -- materializes all 2^m - 2
  subset inequalities at once; the oracle baseline the cutting-plane
  path is tested against.

Both return exact rational optima.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import feasibility
from .errors import GroundTooLarge, Infeasible
from .lp import LinearProgram, SimplexSolver
from .model import ClientSubproblem, Region
from .submodular import SetFunction, members, sfm_brute_force

BRUTE_FORCE_SOURCES = 16


@dataclass
class SingleClientSolution:
    rates: dict                 # edge id -> Fraction on E_t
    cost: Fraction
    tight_sets: list            # subsets whose region inequality is tight
    iterations: int             # LP solves performed


def seed_pool(m: int) -> list:
    """Masks the cutting planes start from: the m singletons and their complements."""
    full = (1 << m) - 1
    pool = {1 << i for i in range(m)} | {full ^ (1 << i) for i in range(m) if m > 1}
    return sorted(pool - {0, full})


def most_violated(region: Region, rates: dict):
    """Exact separation: the mask minimizing boundary(R, S) - g(S), if that is negative.

    None certifies that the rates satisfy every region inequality.
    """
    slack = [b - g for b, g in zip(region.boundary(rates), region.g)]
    h = SetFunction.tabulated(region.sub.sources, slack, "submodular")
    witness, worst = sfm_brute_force(h)
    return None if worst >= 0 else h.mask(witness)


class RegionOptimizer:
    """Repeatedly minimize linear objectives over one client's region.

    Keeps the constraint pool and the simplex basis across calls: a cut is
    appended to the solved LP and re-optimized warm, and a new objective
    (the Lagrangian inner problems: same region, changing weights) starts
    from the last basis, so each costs a few pivots once the pool settles.
    """

    def __init__(self, sub: ClientSubproblem, oracle, capacities: dict):
        self.sub = sub
        self.capacities = capacities
        self.region = Region(sub, oracle)
        self.pool = seed_pool(len(sub.sources))
        self._solver = None

    def _row(self, mask: int) -> tuple:
        return self.region.row(mask), ">=", self.region.g[mask]

    def _build(self, objective: list) -> SimplexSolver:
        rows = [self._row(mask) for mask in self.pool]
        rows.append((self.region.row(self.region.full), "==", self.sub.ground_entropy))
        upper = [self.capacities[e.id] for e in self.sub.edges]
        return SimplexSolver(LinearProgram(objective, rows, upper))

    def minimize(self, costs: dict):
        """Exact minimum of sum(costs[e] * R_e) over the region.

        Returns (rates, value, lp_solves); raises Infeasible when the
        region is empty within the capacity box.
        """
        objective = [Fraction(costs[e.id]) for e in self.sub.edges]
        if self._solver is None:
            self._solver = self._build(objective)
            solution = self._solver.solve()
        else:
            solution = self._solver.resolve(objective)
        solves = 1
        while solution.status == "optimal":
            rates = {e.id: x for e, x in zip(self.sub.edges, solution.x)}
            violated = most_violated(self.region, rates)
            if violated is None:
                return rates, solution.value, solves
            self.pool.append(violated)
            if not self._solver.add_rows([self._row(violated)]):
                break
            solution = self._solver.resolve(objective)
            solves += 1
        self._solver = None
        raise Infeasible(f"client {self.sub.client}: region is empty under capacities")

    def tight_sets(self, rates: dict) -> list:
        b, g = self.region.boundary(rates), self.region.g
        return [members(self.sub.sources, mask) for mask in sorted(self.pool) + [self.region.full]
                if b[mask] == g[mask]]


def solve_single_client(sub: ClientSubproblem, oracle, costs: dict,
                        capacities: dict) -> SingleClientSolution:
    """Cutting-plane optimum of the single-client allocation problem.

    Infeasible carries the client's certificate, computed only once the LP
    comes back empty; a feasible certificate then means the routes disagree.
    """
    opt = RegionOptimizer(sub, oracle, capacities)
    try:
        rates, value, solves = opt.minimize(costs)
    except Infeasible:
        cert = feasibility.check_feasible_single(sub, oracle, capacities)
        if cert.feasible:
            raise RuntimeError(
                f"client {sub.client}: empty LP, but its certificate is feasible") from None
        raise Infeasible(
            f"client {sub.client}: subset {cert.witness_set} needs rate "
            f"{cert.required} but has cut capacity {cert.cut}", (cert,)) from None
    # the last separation found no violated subset; with the ground equality
    # that puts the boundary vector in the base polyhedron of g
    full_row = opt.region.row(opt.region.full)
    if sum(c * rates[e.id] for c, e in zip(full_row, sub.edges)) != sub.ground_entropy:
        raise RuntimeError(f"client {sub.client}: the rates miss the ground equality")
    return SingleClientSolution(rates, value, opt.tight_sets(rates), solves)


def solve_single_client_bruteforce(sub: ClientSubproblem, oracle, costs: dict,
                                   capacities: dict) -> SingleClientSolution:
    """Oracle baseline: one LP with every subset inequality materialized."""
    m = len(sub.sources)
    if m > BRUTE_FORCE_SOURCES:
        raise GroundTooLarge(f"{m} sources exceeds brute-force limit {BRUTE_FORCE_SOURCES}")
    region = Region(sub, oracle)
    g, full = region.g, region.full
    rows = []
    for mask in range(1, full):
        base = region.row(mask)
        if g[mask] <= 0 and all(c >= 0 for c in base):
            continue                # implied by the nonnegativity bounds
        rows.append((base, ">=", g[mask]))
    rows.append((region.row(full), "==", sub.ground_entropy))
    upper = [capacities[e.id] for e in sub.edges]
    objective = [Fraction(costs[e.id]) for e in sub.edges]
    solution = SimplexSolver(LinearProgram(objective, rows, upper)).solve()
    if solution.status == "infeasible":
        raise Infeasible(f"client {sub.client}: region is empty under capacities")
    rates = {e.id: x for e, x in zip(sub.edges, solution.x)}
    b = region.boundary(rates)
    tight = [members(sub.sources, mask) for mask in range(1, full + 1) if b[mask] == g[mask]]
    return SingleClientSolution(rates, solution.value, tight, 1)
