"""Minimum-cost rate allocation for a single client.

The feasible set is the client's rate-flow region: every source subset S
must satisfy boundary(R, S) >= H(X_S | X_rest), with equality at the full
source set, intersected with the capacity box.  Two solvers cover it:

* :func:`solve_single_client` -- cutting planes.  The LP starts from a
  small constraint pool (singletons, their complements, the ground
  equality) and grows it with the most violated subset found by exact
  submodular minimization until none is violated.  Each cut is appended
  to the solved LP and re-optimized warm by dual simplex.
* :func:`solve_single_client_bruteforce` -- materializes at once every
  subset inequality that x >= 0 does not imply; the oracle baseline the
  cutting-plane path is tested against.

Both assemble the LP alike from ``Region.constraint`` rows (the ground
equality after those of their masks) and return exact rational optima.
The LP decides feasibility; the client's certificate is computed only to
explain an empty LP, in ``feasibility.infeasible``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import feasibility
from .errors import GroundTooLarge
from .lp import LinearProgram, SimplexSolver
from .model import ClientSubproblem, Region
from .submodular import SetFunction, sfm_brute_force

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


def most_violated(region: Region, rates: list):
    """Exact separation: the mask minimizing boundary(R, S) - g(S), if that is negative.

    R is listed in ``sub.edges`` order.  None certifies that R satisfies every
    region inequality; it is decided by the minimum of the slack table alone.
    Only a negative minimum goes on to :func:`sfm_brute_force` for its tie-broken witness.
    """
    slack = [b - g for b, g in zip(region.boundary(rates), region.g)]
    if min(slack) >= 0:
        return None
    h = SetFunction.tabulated(region.sub.sources, slack, "submodular")
    witness, _ = sfm_brute_force(h)
    return h.mask(witness)


def _simplex(region: Region, masks, objective: list, capacities: dict) -> SimplexSolver:
    """The client's LP: the region rows of ``masks``, the ground equality, the capacity caps."""
    rows = [region.constraint(mask) for mask in [*masks, region.full]]
    return SimplexSolver(LinearProgram(objective, rows,
                                       [capacities[e.id] for e in region.sub.edges]))


class RegionOptimizer:
    """Repeatedly minimize linear objectives over one client's region.

    Objectives and rate vectors are lists in the client's LP column order,
    ``sub.edges``.  Keeps the constraint pool and the simplex basis across
    calls: a cut is appended to the solved LP and re-optimized warm, and a
    new objective (the Lagrangian inner problems: same region, changing
    weights) starts from the last basis, so each costs a few pivots once the
    pool settles.  It also remembers every vertex that separation passed.
    The region never changes and cuts only remove points outside it, so a
    remembered vertex stays inside and is not separated again when a later
    solve returns it.
    """

    def __init__(self, sub: ClientSubproblem, oracle, capacities: dict):
        self.sub, self.oracle, self.capacities = sub, oracle, capacities
        self.region = Region(sub, oracle)
        self.pool = seed_pool(len(sub.sources))
        self._solver = None
        self._certified = set()     # each x that separation passed, as its exact ratios

    def minimize(self, costs: list):
        """Exact minimum of sum(costs[j] * x[j]) over the region, both in ``sub.edges`` order.

        Returns (x, value, lp_solves), x a list of Fractions; raises
        Infeasible when the region is empty within the capacity box, and
        RuntimeError when a cut keeps its vertex: a violated cut moves x.
        """
        if self._solver is None:
            self._solver = _simplex(self.region, self.pool, costs, self.capacities)
            solution = self._solver.solve()
        else:
            solution = self._solver.resolve(costs)
        solves = 1
        while solution.status == "optimal":
            vertex = tuple(x.as_integer_ratio() for x in solution.x)
            if vertex in self._certified:
                return solution.x, solution.value, solves
            violated = most_violated(self.region, solution.x)
            if violated is None:
                self._certified.add(vertex)
                return solution.x, solution.value, solves
            self.pool.append(violated)
            if not self._solver.add_rows([self.region.constraint(violated)]):
                break
            x, solution = solution.x, self._solver.resolve(costs)
            if solution.x == x:
                raise RuntimeError(
                    f"client {self.sub.client}: the cut of mask {violated} keeps its vertex")
            solves += 1
        self._solver = None
        raise feasibility.infeasible(
            [feasibility.check_feasible_single(self.sub, self.oracle, self.capacities)])

    def tight_sets(self, rates: list) -> list:
        return self.region.tight(rates, sorted(self.pool) + [self.region.full])


def solve_single_client(sub: ClientSubproblem, oracle, costs: dict,
                        capacities: dict) -> SingleClientSolution:
    """Cutting-plane optimum of the single-client allocation problem."""
    opt = RegionOptimizer(sub, oracle, capacities)
    x, value, solves = opt.minimize([costs[e.id] for e in sub.edges])
    # no violated subset and the full set tight (listed last): b(R) is in the base polyhedron of g
    tight = opt.tight_sets(x)
    if tight[-1:] != [sub.sources]:
        raise RuntimeError(f"client {sub.client}: the rates miss the ground equality")
    return SingleClientSolution(dict(zip((e.id for e in sub.edges), x)), value, tight, solves)


def solve_single_client_bruteforce(sub: ClientSubproblem, oracle, costs: dict,
                                   capacities: dict) -> SingleClientSolution:
    """Oracle baseline: one LP with every subset inequality materialized."""
    m = len(sub.sources)
    if m > BRUTE_FORCE_SOURCES:
        raise GroundTooLarge(f"{m} sources exceeds brute-force limit {BRUTE_FORCE_SOURCES}")
    region = Region(sub, oracle)
    masks = [mask for mask in range(1, region.full) if not region.implied(mask)]
    solution = _simplex(region, masks, [costs[e.id] for e in sub.edges], capacities).solve()
    if solution.status == "infeasible":
        raise feasibility.infeasible([feasibility.check_feasible_single(sub, oracle, capacities)])
    return SingleClientSolution(dict(zip((e.id for e in sub.edges), solution.x)), solution.value,
                                region.tight(solution.x, range(1, region.full + 1)), 1)


def achievable_point(sub: ClientSubproblem, oracle, capacities: dict) -> dict:
    """A rate vector in the client's region and capacity box: the unit-cost single-client optimum."""
    costs = {e.id: Fraction(1) for e in sub.edges}
    return solve_single_client(sub, oracle, costs, capacities).rates
