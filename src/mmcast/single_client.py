"""Minimum-cost rate allocation for a single client, and the one cutting-plane loop.

The feasible set is the client's rate-flow region: every source subset S
must satisfy boundary(R, S) >= H(X_S | X_rest), with equality at the full
source set, intersected with the capacity box.  Every rate LP takes its
columns from :func:`layout` and its rows from :func:`program`, a client's from
``ClientCuts.rows``, the one place where masks become LP rows.  Two exact solvers:

* :func:`solve_single_client` -- :func:`cutting_planes`, the package's one
  cutting-plane loop, which ``multi_client.solve_multi_exact`` runs too.
  The LP starts from :func:`seed_pool` (singletons, their complements, the
  ground equality); each most violated subset, found by exact submodular
  minimization, is appended and re-optimized warm until none is violated.
  The multi-client LP starts from the :func:`singletons` alone.
* :func:`solve_single_client_bruteforce` -- every subset inequality at
  once; the baseline the cutting planes are tested against.

The LP decides feasibility; certificates only explain an empty LP.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from operator import ge

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
    tight_sets: list            # every subset whose region inequality is tight, in mask order


def singletons(m: int) -> list:
    """The masks of the m single sources, ascending; none when one source is the ground set."""
    return [1 << i for i in range(m)] if m > 1 else []


def seed_pool(m: int) -> list:
    """Masks a lone client's cutting planes start from: the singletons and their complements."""
    full = (1 << m) - 1
    return sorted({*singletons(m), *(full ^ s for s in singletons(m))})


def every_mask(m: int) -> range:
    """Every proper nonempty mask of m sources: the brute-force routes' pool."""
    return range(1, (1 << m) - 1)


def most_violated(region: Region, rates: list):
    """Exact separation: the mask minimizing boundary(R, S) - g(S), if that is negative.

    R is listed in ``sub.edges`` order.  None certifies that R satisfies every
    region inequality; it is decided by comparing the boundary table with g alone.
    Only a violated table goes on to :func:`sfm_brute_force` for its tie-broken witness.
    """
    b = region.boundary(rates)
    if all(map(ge, b, region.g)):
        return None
    slack = [x - y for x, y in zip(b, region.g)]
    h = SetFunction.tabulated(region.sub.sources, slack, "submodular")
    witness, _ = sfm_brute_force(h)
    return h.mask(witness)


def layout(edges, subs) -> tuple:
    """Every rate LP's columns: ``{edge id: Z column}`` and each client's, in ``sub.edges`` order.

    Z_e for each of ``edges`` that a client of ``subs`` uses, in order, then, client by
    client, a rate column on each edge it shares with another; elsewhere its rate is Z_e,
    as costs are positive, so Z_e >= R_e^(t) would be tight at every optimum.
    """
    users = Counter(e.id for sub in subs for e in sub.edges)
    z = {e.id: k for k, e in enumerate(e for e in edges if e.id in users)}
    fresh = count(len(z))
    return z, [[z[e.id] if users[e.id] == 1 else next(fresh) for e in sub.edges] for sub in subs]


def program(z: dict, capacities: dict, clients: list, costs: list) -> LinearProgram:
    """The rate LP on ``layout``'s columns, with ``costs`` on Z and 0 on the rates.

    Client by client, its pool's rows, then Z_e >= R_e^(t) on each edge it
    shares.  Only Z is capped, at c_e: R_e^(t) <= Z_e caps the rates."""
    rows, rates = [], sum(k >= len(z) for c in clients for k in c.columns)   # rate columns
    for c in clients:
        rows += c.rows(c.pool) + [({z[e.id]: 1, k: -1}, ">=", 0)
                                  for e, k in zip(c.sub.edges, c.columns) if k >= len(z)]
    return LinearProgram(costs + [0] * rates, rows, [capacities[e] for e in z] + [None] * rates)


class ClientCuts:
    """One client's rows in a rate LP, on its ``layout`` columns (in ``sub.edges`` order).

    ``Region.row`` writes each row on these columns.  ``pool`` holds the
    masks of its region rows: the seed masks that the builder of the LP
    passes (``seed_pool`` for a client alone in its LP, ``singletons`` in the
    multi-client LP, ``every_mask`` on the brute-force routes), then each cut
    in order.  A slice of x that passed separation is not separated again:
    the region never changes, and cuts only remove points outside it.
    """

    def __init__(self, sub: ClientSubproblem, oracle, capacities: dict, columns: list, seeds):
        self.sub, self.oracle, self.capacities, self.columns = sub, oracle, capacities, columns
        self.region = Region(sub, oracle)
        self.pool = list(seeds)
        self._certified = set()     # each slice that separation passed, as its exact ratios
        self._passed = None         # the last slice that passed

    def rates(self, x: list) -> list:
        """The client's rates in x, in ``sub.edges`` order."""
        return [x[k] for k in self.columns]

    def row(self, mask: int) -> tuple:
        """boundary(R, S) >= g(S), ``Region.row`` on the client's columns; == at the full set."""
        region = self.region
        return region.row(mask, self.columns), "==" if mask == region.full else ">=", region.g[mask]

    def rows(self, masks) -> list:
        """The rows of ``masks`` that ``Region.implied`` keeps, then the ground equality."""
        region = self.region
        return [self.row(m) for m in masks if not region.implied(m)] + [self.row(region.full)]

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
        self._z, (columns,) = layout(sub.edges, [sub])
        super().__init__(sub, oracle, capacities, columns, seed_pool(len(sub.sources)))
        self._solver = None

    def minimize(self, costs: list):
        """(x, value, LP solves) minimizing costs . x, both lists in ``sub.edges`` order."""
        solver, self._solver = self._solver, None   # an empty LP drops it
        cuts = len(self.pool)                       # each later LP solve follows one cut
        if solver is None:
            solver = SimplexSolver(program(self._z, self.capacities, [self], costs))
            solution = solver.solve()
        else:
            solution = solver.resolve(costs)
        solution = cutting_planes(solver, solution, costs, [self])
        self._solver = solver
        return solution.x, solution.value, 1 + len(self.pool) - cuts


def _solution(client: ClientCuts, x: list, value) -> SingleClientSolution:
    """The client's rates at x and every tight subset, in mask order: the ground set last."""
    region, rates = client.region, client.rates(x)
    tight = region.tight(rates)
    if tight[-1:] != [client.sub.sources]:  # with no violated subset, b(R) is in B(g) only then
        raise RuntimeError(f"client {client.sub.client}: the rates miss the ground equality")
    return SingleClientSolution(dict(zip((e.id for e in client.sub.edges), rates)), value, tight)


def solve_single_client(sub: ClientSubproblem, oracle, costs: dict,
                        capacities: dict) -> SingleClientSolution:
    """Cutting-plane optimum of the single-client allocation problem."""
    opt = RegionOptimizer(sub, oracle, capacities)
    x, value, _ = opt.minimize([costs[e.id] for e in sub.edges])
    return _solution(opt, x, value)


def solve_single_client_bruteforce(sub: ClientSubproblem, oracle, costs: dict,
                                   capacities: dict) -> SingleClientSolution:
    """Oracle baseline: one LP with every subset inequality; separation only re-checks it."""
    m = len(sub.sources)
    if m > BRUTE_FORCE_SOURCES:
        raise GroundTooLarge(f"{m} sources exceeds brute-force limit {BRUTE_FORCE_SOURCES}")
    z, (columns,) = layout(sub.edges, [sub])
    client = ClientCuts(sub, oracle, capacities, columns, every_mask(m))
    solver = SimplexSolver(program(z, capacities, [client], [costs[e.id] for e in sub.edges]))
    solution = cutting_planes(solver, solver.solve(), solver.lp.objective, [client])
    return _solution(client, solution.x, solution.value)
