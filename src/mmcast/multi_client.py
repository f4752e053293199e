"""Multi-client rate allocation: exact LP and Lagrangian subgradient.

The multi-client problem minimizes sum(alpha_e * Z_e) where Z_e dominates
every client's rate on edge e and each client's rates lie in its own
rate-flow region.  Two routes:

* :func:`solve_multi_exact` -- one exact LP on ``single_client.layout``'s
  columns: Z_e on each edge some client uses, and a rate column of a client,
  coupled by Z_e >= R_e^(t), only on an edge that another client also uses.
  Each client starts from the rows of its singletons and its ground
  equality (the complements that the single-client routes also seed would
  make this cold tableau denser), and ``single_client.cutting_planes``, the
  one loop, adds the rest lazily, so the optimum is exact and certified by
  exact separation.  :func:`solve_multi_bruteforce` poses every region row
  at once; it is the reference for the lazy route.
* :func:`solve_multi_subgradient` -- dualize the couplings that this layout
  keeps, on the shared edges, which it reads from ``single_client.layout``
  with their (client, column) pairs; an edge of one client keeps lam = alpha_e.
  The per-edge multipliers live on scaled simplices {lam >= 0,
  sum_t lam_e^(t) = alpha_e}; each iteration solves one weighted
  single-client problem per client (exact), takes a projected ascent step
  on the multipliers, and recovers a primal point as the running average
  of the inner minimizers.  Inner solutions are exact vertices and the
  average is kept as an exact sum (divided once, at return), so every
  recovered point is exactly region-feasible and every recorded dual value
  is a true lower bound.

Each route starts from ``model.client_subproblems``, which checks only
reconstructability; its own LPs decide feasibility, and an empty LP (or
inner problem) is explained by certifying each client it holds once.

The subgradient loop runs on lists in each client's LP column order
(``sub.edges``): the multipliers, handed to the client's inner LP as its
objective, and the ergodic sums.  A resolve that makes no pivot hands back
the same Fractions, so each client's vertex is read (its nonzero rates for
the sums, its floats for the step) only when it moves; the envelope of the
sums and its cost only grow, and are kept up to date.  Floating point
appears only in the ascent step, the step-size schedule and the trace's
copies of exact values: the moved multipliers are floats, which the
projection reads exactly, scales to ints by the lcm of their denominators
and returns as exact Fractions, so every multiplier, inner solve,
separation, average and cost is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import truediv

from . import feasibility, model
from .errors import BudgetExceeded, Infeasible, InvalidParameters
from .lp import SimplexSolver, integral
from .model import NetworkInstance
from .single_client import (BRUTE_FORCE_SOURCES, ClientCuts, RegionOptimizer, cutting_planes,
                            every_mask, layout, program, singletons)

DEFAULT_MAX_ITERS = 50000
DEFAULT_GAP_TOL = Fraction(1, 100)
PATIENCE = 5000
BRUTE_FORCE_MASKS = 1 << BRUTE_FORCE_SOURCES     # the single-client reference's cap


@dataclass
class MulticastRates:
    envelope: dict              # Z_e for every edge of the instance
    per_client: dict            # t -> {edge id -> Fraction} on E_t
    cost: Fraction


@dataclass
class TraceEntry:
    n: int
    dual: float
    primal: float
    gap: float                  # (primal - best dual) / best dual; 0 if both are 0


@dataclass
class SubgradientResult(MulticastRates):
    trace: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    warning: str | None = None
    best_dual: Fraction = Fraction(0)
    dual_history: list = field(default_factory=list)   # exact per-iteration duals


# -- step-size schedules -----------------------------------------------------

@dataclass(frozen=True)
class StepSchedule:
    """Diminishing step sizes: kind 1 is a/(b + c*n), kind 2 is n**(-a)."""

    kind: int = 1
    a: Fraction = Fraction(1)
    b: Fraction = Fraction(1)
    c: Fraction = Fraction(1)

    def __post_init__(self):
        if self.kind == 1:
            if not (self.a > 0 and self.b >= 0 and self.c > 0):
                raise InvalidParameters("kind 1 needs a > 0, b >= 0, c > 0")
        elif self.kind == 2:
            if not 0 < self.a < 1:
                raise InvalidParameters("kind 2 needs 0 < a < 1")
        else:
            raise InvalidParameters(f"unknown schedule kind {self.kind}")


def _float(x) -> float:
    """float(x): the correctly rounded quotient of x's integer ratio, read directly."""
    return truediv(*x.as_integer_ratio())


def step_size(schedule: StepSchedule, n: int) -> float:
    """Step size for 1-based iteration n."""
    if n < 1:
        raise InvalidParameters("iteration index starts at 1")
    if schedule.kind == 1:
        return _float(schedule.a) / (_float(schedule.b) + _float(schedule.c) * n)
    return float(n) ** -_float(schedule.a)


# -- simplex projection ------------------------------------------------------

def exact_simplex_projection(v: list, total: Fraction) -> list:
    """Euclidean projection of v onto {x >= 0, sum(x) = total}, total > 0 (sort-and-threshold).

    v holds exact numbers or floats, read exactly.  Everything is scaled
    by the lcm d of the denominators (powers of 2 for the ascent step's
    floats), so the search runs in ints: with a = d*v sorted descending,
    prefix sums acc_j and T = d*total, the support is the first rho
    entries, those with a_j*(j - 1) > acc_(j-1) - T, and x_i = max(a_i*rho
    - (acc_rho - T), 0) / (rho*d): the Fractions of the rational threshold.
    """
    t_num, t_den = total.as_integer_ratio()
    if t_num <= 0:
        raise InvalidParameters(f"the simplex total must be positive, not {total}")
    if not v:
        raise InvalidParameters(f"no empty vector sums to the simplex total {total}")
    ratios = [x.as_integer_ratio() for x in v]
    d = math.lcm(t_den, *[den for _, den in ratios])
    a = [num * (d // den) for num, den in ratios]
    rho, excess = 0, -t_num * (d // t_den)      # excess = acc_rho - T
    for aj in sorted(a, reverse=True):
        if aj * rho <= excess:
            break
        rho += 1
        excess += aj
    scale = rho * d
    return [Fraction(max(ai * rho - excess, 0), scale) for ai in a]


# -- exact LP route ----------------------------------------------------------

def _solve(instance: NetworkInstance, oracle, subs: dict, seeds) -> MulticastRates:
    """The rate LP's optimum, each pool seeded with ``seeds(m)``; Z_e = 0 off every E_t."""
    caps = instance.capacities()
    z, columns = layout(instance.edges, list(subs.values()))
    clients = [ClientCuts(sub, oracle, caps, cols, seeds(len(sub.sources)))
               for sub, cols in zip(subs.values(), columns)]
    costs = [e.cost for e in instance.edges if e.id in z]
    solver = SimplexSolver(program(z, caps, clients, costs))
    solution = cutting_planes(solver, solver.solve(), solver.lp.objective, clients)
    envelope = {e.id: solution.x[z[e.id]] if e.id in z else Fraction(0) for e in instance.edges}
    per_client = {c.sub.client: dict(zip((e.id for e in c.sub.edges), c.rates(solution.x)))
                  for c in clients}
    return MulticastRates(envelope, per_client, solution.value)


def solve_multi_exact(instance: NetworkInstance, oracle) -> MulticastRates:
    """Exact optimum of the multi-client problem by lazily added region rows.

    Runs ``single_client.cutting_planes`` from each client's singleton and
    ground rows and the couplings.  Separation reads each client's
    mask-indexed region tables, so a client may reach at most
    ``submodular.BRUTE_FORCE_LIMIT`` sources (GroundTooLarge).  Raises
    Infeasible, with the certificates of the failing clients, when the LP
    finds no allocation.
    """
    return _solve(instance, oracle, model.client_subproblems(instance, oracle), singletons)


def solve_multi_bruteforce(instance: NetworkInstance, oracle) -> MulticastRates:
    """Reference optimum: one LP with every region row of every client; separation re-checks it."""
    subs = model.client_subproblems(instance, oracle)
    masks = sum(1 << len(s.sources) for s in subs.values())
    if masks > BRUTE_FORCE_MASKS:
        raise BudgetExceeded(
            f"region tables of {masks} masks exceed the {BRUTE_FORCE_MASKS}-mask budget")
    return _solve(instance, oracle, subs, every_mask)


# -- subgradient route -------------------------------------------------------

def solve_multi_subgradient(instance: NetworkInstance, oracle,
                            schedule: StepSchedule | None = None,
                            max_iters: int = DEFAULT_MAX_ITERS,
                            gap_tol=DEFAULT_GAP_TOL) -> SubgradientResult:
    """Projected dual ascent with ergodic primal recovery.

    Stops when the relative gap between the recovered primal cost and the
    best dual value reaches ``gap_tol``, when the gap stops improving for
    ``PATIENCE`` iterations (warning ``no_progress``), or at ``max_iters``
    (warning ``max_iters``).  The returned rates are the best recovered
    primal iterate; they satisfy every region constraint exactly.  The
    first multipliers alpha_e / (clients on e) and every cost are positive,
    so the best dual is positive from the first iteration on, unless no
    client's sources hold any entropy; then every inner optimum is x = 0,
    the primal and the gap are 0, and the run converges at once.
    """
    schedule = schedule or StepSchedule()
    if type(max_iters) is not int or max_iters < 1:
        raise InvalidParameters(f"max_iters must be an int of at least 1, not {max_iters!r}")
    try:
        gap_tol = Fraction(gap_tol).limit_denominator(10 ** 12)
    except (TypeError, ValueError, ArithmeticError):     # nan, inf, not a number
        raise InvalidParameters(f"gap_tol must be a finite number, not {gap_tol!r}") from None
    if gap_tol < 0:
        raise InvalidParameters("gap_tol must be nonnegative")
    subs = model.client_subproblems(instance, oracle)
    caps = instance.capacities()
    optimizers = [RegionOptimizer(subs[t], oracle, caps) for t in instance.clients]
    # the exact LP's layout decides which edges are shared: there a client has its own column
    z, layout_columns = layout(instance.edges, [opt.sub for opt in optimizers])
    int_costs = [integral(e.cost) for e in instance.edges if e.id in z]     # on Z's columns
    # client i's LP column j is the edge of Z column columns[i][j]
    columns = [[z[e.id] for e in opt.sub.edges] for opt in optimizers]
    sharing = {}                # Z column of a shared edge -> the (client, column) pairs on it
    for i, (cols, own) in enumerate(zip(columns, layout_columns)):
        for j, (k, col) in enumerate(zip(cols, own)):
            if col >= len(z):
                sharing.setdefault(k, []).append((i, j))
    shared = [(int_costs[k], pairs) for k, pairs in sharing.items()]

    # per client, in its column order: the multipliers (the inner LP's objective), the
    # sums of its inner vertices (n times the ergodic average; the best is divided at
    # return) and its last vertex, read once: (x, (column, edge, rate) per nonzero, floats)
    lam = [[int_costs[k] for k in cols] for cols in columns]    # one client's edge: lam = alpha_e
    for k, pairs in sharing.items():
        for i, j in pairs:
            lam[i][j] = Fraction(int_costs[k], len(pairs))
    rate_sum = [[0] * len(cols) for cols in columns]
    seen = [(None, (), ())] * len(optimizers)
    # the sums only grow, so the envelope of the sums (top) and its cost do too
    top, top_cost = [0] * len(int_costs), 0

    trace, dual_history = [], []
    best_dual = best_gap = None
    best_primal = None          # (cost, envelope sums, per-client sums, n)
    since_improvement = 0
    converged = False
    warning = None

    for n in range(1, max_iters + 1):
        dual_value = Fraction(0)
        for i, (opt, acc) in enumerate(zip(optimizers, rate_sum)):
            try:
                x, value, _ = opt.minimize(lam[i])
            except Infeasible as err:   # opt certified its own client: certify only the others
                raise feasibility.infeasible([err.certificates[0] if other is opt else
                                              other.certificate() for other in optimizers]) from None
            dual_value += value
            if x != seen[i][0]:         # a resolve without a pivot hands back the same Fractions
                seen[i] = (x, [(j, columns[i][j], integral(r)) for j, r in enumerate(x) if r],
                           [_float(r) for r in x])
            for j, k, r in seen[i][1]:
                acc[j] = total = acc[j] + r
                if total > top[k]:
                    top_cost += int_costs[k] * (total - top[k])
                    top[k] = total
        dual_history.append(dual_value)
        if best_dual is None or dual_value > best_dual:
            best_dual = dual_value

        primal_cost = Fraction(top_cost, n)
        if best_primal is None or primal_cost < best_primal[0]:
            best_primal = (primal_cost, list(top), [list(acc) for acc in rate_sum], n)

        if best_dual > 0:
            gap = (primal_cost - best_dual) / best_dual
        else:                   # zero entropy: x = 0 is every inner optimum, the primal is 0
            gap = Fraction(0)
        trace.append(TraceEntry(n, _float(dual_value), _float(primal_cost), _float(gap)))

        if gap <= gap_tol:
            converged = True
            break
        if best_gap is None or gap < best_gap:
            best_gap = gap
            since_improvement = 0
        else:
            since_improvement += 1
            if since_improvement >= PATIENCE:
                warning = "no_progress"
                break

        theta = step_size(schedule, n)
        for total, pairs in shared:
            moved = [_float(lam[i][j]) + theta * seen[i][2][j] for i, j in pairs]
            for (i, j), value in zip(pairs, exact_simplex_projection(moved, total)):
                lam[i][j] = value
    else:
        warning = "max_iters"

    cost, top, sums, k = best_primal
    envelope = {e.id: Fraction(top[z[e.id]] if e.id in z else 0, k) for e in instance.edges}
    per_client = {t: {e.id: Fraction(v, k) for e, v in zip(opt.sub.edges, acc)}
                  for t, opt, acc in zip(instance.clients, optimizers, sums)}
    return SubgradientResult(envelope, per_client, cost, trace, n,
                             converged, warning, best_dual, dual_history)
