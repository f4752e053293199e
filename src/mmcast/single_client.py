"""Minimum-cost rate allocation for a single client, and the one cutting-plane loop.

The feasible set is the client's rate-flow region: every source subset S
must satisfy boundary(R, S) >= H(X_S | X_rest), with equality at the full
source set, intersected with the capacity box.  Two solvers cover it, both
taking their rows from ``ClientCuts.rows``, the one place where a client's
masks become LP rows (here and in ``multi_client``), and returning exact optima:

* :func:`solve_single_client` -- :func:`cutting_planes`, the package's one
  cutting-plane loop, which ``multi_client.solve_multi_exact`` runs too.
  The LP starts from :func:`seed_pool` (singletons, their complements, the
  ground equality); each most violated subset, found by exact submodular
  minimization, is appended and re-optimized warm until none is violated.
  Whoever builds an LP chooses its seed masks: the multi-client LP starts
  from the :func:`singletons` alone.
* :func:`solve_single_client_bruteforce` -- every subset inequality at
  once; the baseline the cutting planes are tested against.

The LP decides feasibility; certificates only explain an empty LP.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import feasibility
from .errors import GroundTooLarge
from .lp import LinearProgram, LpSolution, SimplexSolver
from .model import ClientSubproblem, Region
from .submodular import SetFunction, sfm_brute_force

BRUTE_FORCE_SOURCES = 16


@dataclass
class SingleClientSolution:
    rates: dict                 # edge id -> Fraction on E_t
    cost: Fraction
    tight_sets: list            # subsets whose region inequality is tight
    iterations: int             # LP solves performed


def singletons(m: int) -> list:
    """The masks of the m single sources, ascending; none when one source is the ground set."""
    return [1 << i for i in range(m)] if m > 1 else []


def seed_pool(m: int) -> list:
    """Masks a lone client's cutting planes start from: the singletons and their complements."""
    full = (1 << m) - 1
    return sorted({*singletons(m), *(full ^ s for s in singletons(m))})


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


def _simplex(client: ClientCuts, masks, objective: list) -> SimplexSolver:
    """The client's LP alone: its ``rows`` of ``masks`` and the capacity caps."""
    return SimplexSolver(LinearProgram(objective, client.rows(masks),
                                       [client.capacities[e.id] for e in client.sub.edges]))


class ClientCuts:
    """One client's columns (its rates in ``sub.edges`` order, from ``offset``) and rows in an LP.

    ``pool`` holds the masks of its region rows: the seed masks that the
    builder of the LP passes (``seed_pool`` for a client alone in its LP,
    ``singletons`` in the multi-client LP), then each cut in order.  A slice
    of x that passed separation is not separated again: the region never
    changes, and cuts only remove points outside it.
    """

    def __init__(self, sub: ClientSubproblem, oracle, capacities: dict, offset: int, seeds):
        self.sub, self.oracle, self.capacities, self.offset = sub, oracle, capacities, offset
        self.region = Region(sub, oracle)
        self.pool = list(seeds)
        self._certified = set()     # each slice that separation passed, as its exact ratios
        self._passed = None         # the last slice that passed

    def rates(self, x: list) -> list:
        """The client's slice of x."""
        return x[self.offset:self.offset + len(self.sub.edges)]

    def row(self, mask: int) -> tuple:
        """boundary(R, S) >= g(S) on the client's columns, an equality at the full set."""
        return self._posed(mask, self.region.row(mask))

    def _posed(self, mask: int, row: dict) -> tuple:
        """The LP row of S from its ``Region.row``."""
        row = {self.offset + j: c for j, c in row.items()} if self.offset else row
        return row, "==" if mask == self.region.full else ">=", self.region.g[mask]

    def rows(self, masks) -> list:
        """The rows of ``masks`` that ``Region.implied`` keeps, then the ground equality."""
        region = self.region
        rows = [(mask, region.row(mask)) for mask in masks]
        return [self._posed(mask, row) for mask, row in rows
                if not region.implied(mask, row)] + [self.row(region.full)]

    def separate(self, x: list):
        """The mask of the client's most violated row at x, None if its slice passes."""
        rates = self.rates(x)
        if rates == self._passed:   # a resolve without a pivot hands back the same Fractions
            return None
        key = tuple(r.as_integer_ratio() for r in rates)
        mask = None if key in self._certified else most_violated(self.region, rates)
        if mask is None:
            self._certified.add(key)
            self._passed = rates
        return mask

    def certificate(self):
        return feasibility.check_feasible_single(self.sub, self.oracle, self.capacities)


def cutting_planes(solver: SimplexSolver, solution, objective: list, clients: list) -> LpSolution:
    """Kelley's cutting planes from ``solution``, the solver's answer under ``objective``.

    Each round appends every client's violated row, in client order, and
    re-optimizes warm in one ``resolve``, whose dual phase repairs the new
    rows, until none is violated; returns the last solution.
    An empty LP raises ``feasibility.infeasible`` with each client's
    certificate.  A round that leaves x in place raises RuntimeError, and so
    does a cut on a row the LP already holds (the ground set or a mask of the
    client's pool), before it is appended.
    """
    while solution.status == "optimal":
        cuts = [(c, mask) for c in clients if (mask := c.separate(solution.x)) is not None]
        if not cuts:
            return solution
        named = {c.sub.client: mask for c, mask in cuts}
        if any(mask == c.region.full or mask in c.pool for c, mask in cuts):
            raise RuntimeError(f"the cuts of masks {named} keep their vertex")
        for c, mask in cuts:
            c.pool.append(mask)
        solver.add_rows([c.row(mask) for c, mask in cuts])
        x, solution = solution.x, solver.resolve(objective)
        if solution.x == x:
            raise RuntimeError(f"the cuts of masks {named} keep their vertex")
    raise feasibility.infeasible([c.certificate() for c in clients])


class RegionOptimizer(ClientCuts):
    """Repeatedly minimize linear objectives over one client's region, alone in its LP.

    The basis is kept across calls, so a new objective (the Lagrangian inner
    problems) costs a few pivots once the pool settles.
    """

    def __init__(self, sub: ClientSubproblem, oracle, capacities: dict):
        super().__init__(sub, oracle, capacities, 0, seed_pool(len(sub.sources)))
        self._solver = None

    def minimize(self, costs: list):
        """(x, value, LP solves) minimizing costs . x, both lists in ``sub.edges`` order."""
        solver, self._solver = self._solver, None   # an empty LP drops it
        cuts = len(self.pool)                       # each later LP solve follows one cut
        if solver is None:
            solver = _simplex(self, self.pool, costs)
            solution = solver.solve()
        else:
            solution = solver.resolve(costs)
        solution = cutting_planes(solver, solution, costs, [self])
        self._solver = solver
        return solution.x, solution.value, 1 + len(self.pool) - cuts


def solve_single_client(sub: ClientSubproblem, oracle, costs: dict,
                        capacities: dict) -> SingleClientSolution:
    """Cutting-plane optimum of the single-client allocation problem."""
    opt = RegionOptimizer(sub, oracle, capacities)
    x, value, solves = opt.minimize([costs[e.id] for e in sub.edges])
    # no violated subset and the full set tight (listed last): b(R) is in the base polyhedron of g
    tight = opt.region.tight(x, sorted(opt.pool) + [opt.region.full])
    if tight[-1:] != [sub.sources]:
        raise RuntimeError(f"client {sub.client}: the rates miss the ground equality")
    return SingleClientSolution(dict(zip((e.id for e in sub.edges), x)), value, tight, solves)


def solve_single_client_bruteforce(sub: ClientSubproblem, oracle, costs: dict,
                                   capacities: dict) -> SingleClientSolution:
    """Oracle baseline: one LP with every subset inequality materialized."""
    m = len(sub.sources)
    if m > BRUTE_FORCE_SOURCES:
        raise GroundTooLarge(f"{m} sources exceeds brute-force limit {BRUTE_FORCE_SOURCES}")
    client = ClientCuts(sub, oracle, capacities, 0, range(1, (1 << m) - 1))
    region = client.region
    solution = _simplex(client, client.pool, [costs[e.id] for e in sub.edges]).solve()
    if solution.status == "infeasible":
        raise feasibility.infeasible([client.certificate()])
    return SingleClientSolution(dict(zip((e.id for e in sub.edges), solution.x)), solution.value,
                                region.tight(solution.x, range(1, region.full + 1)), 1)

