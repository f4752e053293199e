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
  on the multipliers, and recovers two primal points: the running average
  of the inner minimizers, and the envelope of this iteration's minimizers
  themselves.  Inner solutions are exact vertices and the average is kept
  as an exact sum (divided once, at return), so every recovered point is
  exactly region-feasible and every recorded dual value is a true lower
  bound.

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
copies of exact values: each multiplier's float is kept beside it and
recomputed only when the multiplier changes; the moved multipliers are
floats, which the projection reads exactly, scales to ints by the lcm of
their denominators and returns as exact Fractions, so every multiplier,
inner solve, separation, average and cost is exact.  A shared edge whose
moved multipliers are equal and finite (the step is uniform there, as
when every client's rate on it is the same) takes its uniform point
alpha_e / k without a call: the projection of equal entries, whatever
their value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul, truediv

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
    primal: float               # the best primal so far: the cost of the point returned
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
    """Diminishing step sizes: kind 1 is a/(b + c*n), kind 2 is n**(-a); each a finite float."""

    kind: int = 1
    a: Fraction = Fraction(1)
    b: Fraction = Fraction(1)
    c: Fraction = Fraction(1)

    def __post_init__(self):
        if type(self.kind) is not int:     # True == 1 would pass for kind 1
            raise InvalidParameters(f"the schedule kind must be an int, not {self.kind!r}")
        abc = f"{self.a}, {self.b}, {self.c}"
        if self.kind == 1:
            if not (self.a > 0 and self.b >= 0 and self.c > 0):     # nan fails too
                raise InvalidParameters(f"kind 1 needs a > 0, b >= 0, c > 0, not {abc}")
            try:            # inf, or a value past the float range, raises; so does b + c = 0.0
                finite = math.isfinite(step_size(self, 1))
            except (OverflowError, ZeroDivisionError):
                finite = False
            if not finite:
                raise InvalidParameters(f"kind 1 needs finite a, b, c and a/(b + c), not {abc}")
        elif self.kind == 2:
            if not 0 < self.a < 1:
                raise InvalidParameters(f"kind 2 needs 0 < a < 1, not {self.a}")
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

    v holds exact numbers or floats, read exactly; a non-finite entry is
    refused.  The projection commutes with a shift along the all-ones
    vector (Duchi et al., ICML 2008), so k equal entries, whatever their
    value, project to total/k each.  Everything is scaled
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
    try:
        ratios = [x.as_integer_ratio() for x in v]
    except (OverflowError, ValueError):     # inf or nan: an ascent step too large for its rates
        raise InvalidParameters(f"the simplex projection needs finite entries, not {v}") from None
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

def gap_tolerance(gap_tol) -> Fraction:
    """The relative gap tolerance that a subgradient run uses.

    ``gap_tol`` is a finite number >= 0, or its text, rounded to a denominator
    of at most 10**12; a positive value that this makes 0 is refused."""
    if isinstance(gap_tol, bool):
        raise InvalidParameters(f"gap_tol must be a number, not {gap_tol!r}")
    try:
        exact_tol = Fraction(gap_tol)
    except (TypeError, ValueError, ArithmeticError):     # nan, inf, not a number
        raise InvalidParameters(f"gap_tol must be a finite number, not {gap_tol!r}") from None
    if exact_tol < 0:
        raise InvalidParameters(f"gap_tol must be nonnegative, not {gap_tol!r}")
    tol = exact_tol.limit_denominator(10 ** 12)
    if exact_tol and not tol:
        raise InvalidParameters(f"gap_tol {gap_tol!r} is positive but rounds to 0 at 10**-12")
    return tol


def solve_multi_subgradient(instance: NetworkInstance, oracle,
                            schedule: StepSchedule | None = None,
                            max_iters: int = DEFAULT_MAX_ITERS,
                            gap_tol=DEFAULT_GAP_TOL) -> SubgradientResult:
    """Projected dual ascent with primal recovery from the inner vertices.

    Each iteration offers two primal points: the ergodic average of the
    inner minimizers so far, and the envelope max_t x_t,e of this
    iteration's minimizers, whose ``per_client`` rates are the vertices
    themselves.  The best primal is the cheapest point so far; the
    average is weighed first, and the envelope replaces it only when
    strictly cheaper, so on a tie the average is kept.  The gap test and
    ``TraceEntry.primal`` read the best primal's cost, and the returned
    rates are that point, so the run stops as soon as the point it returns
    is within ``gap_tol`` of the best dual value.  Both bests are monotone,
    so the gap never rises; the run also stops when it stays the same for
    ``PATIENCE`` iterations (warning ``no_progress``), or at ``max_iters``
    (warning ``max_iters``).  The returned rates satisfy every region
    constraint exactly.  A shared edge's uniform step keeps the uniform
    point alpha_e / k without a projection.  A step that overflows a float
    raises InvalidParameters naming the entry; its ``result`` is the run so
    far, its best point and best dual, with warning ``step_overflow``.
    ``gap_tol`` is read by :func:`gap_tolerance`, which checks it and
    rounds it to a denominator of at most 10**12.  The first multipliers
    alpha_e / (clients on e) and every cost are positive, so the best dual
    is positive from the first iteration on, unless no client's sources
    hold any entropy; then every inner optimum is x = 0, the primal and
    the gap are 0, and the run converges at once.
    """
    schedule = schedule or StepSchedule()
    if type(max_iters) is not int or max_iters < 1:
        raise InvalidParameters(f"max_iters must be an int of at least 1, not {max_iters!r}")
    tol = gap_tolerance(gap_tol)
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
    # per shared edge: alpha_e, its pairs and its uniform point alpha_e / k with its float
    shared = []
    for k, pairs in sharing.items():
        uniform = Fraction(int_costs[k], len(pairs))
        shared.append((int_costs[k], pairs, uniform, _float(uniform)))

    # per client, in its column order: the multipliers (the inner LP's objective) and
    # their floats, the sums of its inner vertices (n times the ergodic average; the best
    # is divided at return) and its last vertex, read once: (x, (column, edge, rate) per
    # nonzero, floats)
    lam = [[int_costs[k] for k in cols] for cols in columns]    # one client's edge: lam = alpha_e
    lam_float = [[0.0] * len(cols) for cols in columns]         # read on shared edges only
    for _, pairs, uniform, uniform_float in shared:
        for i, j in pairs:
            lam[i][j], lam_float[i][j] = uniform, uniform_float
    rate_sum = [[0] * len(cols) for cols in columns]
    seen = [(None, (), ())] * len(optimizers)
    # the sums only grow, so the envelope of the sums (top) and its cost do too
    top, top_cost = [0] * len(int_costs), 0

    trace, dual_history = [], []
    best_dual = last_gap = None
    best_primal = None          # (cost, envelope, per-client rates, divisor k)

    def result(converged, warning):
        """The best primal point so far, divided by its k, and the run's record."""
        cost, top, sums, k = best_primal
        envelope = {e.id: Fraction(top[z[e.id]] if e.id in z else 0, k) for e in instance.edges}
        per_client = {t: {e.id: Fraction(v, k) for e, v in zip(opt.sub.edges, acc)}
                      for t, opt, acc in zip(instance.clients, optimizers, sums)}
        return SubgradientResult(envelope, per_client, cost, trace, n,
                                 converged, warning, best_dual, dual_history)

    since_improvement = 0
    converged = False
    warning = None

    for n in range(1, max_iters + 1):
        dual_value = Fraction(0)
        new_vertex = False
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
                new_vertex = True
            for j, k, r in seen[i][1]:
                acc[j] = total = acc[j] + r
                if total > top[k]:
                    top_cost += int_costs[k] * (total - top[k])
                    top[k] = total
        dual_history.append(dual_value)
        if best_dual is None or dual_value > best_dual:
            best_dual = dual_value

        # the best primal: the ergodic average, then this iteration's vertices' envelope
        # when it is strictly cheaper (unmoved vertices were already weighed)
        ergodic_cost = Fraction(top_cost, n)
        if best_primal is None or ergodic_cost < best_primal[0]:
            best_primal = (ergodic_cost, list(top), [list(acc) for acc in rate_sum], n)
        if new_vertex:
            vertex_top = [0] * len(int_costs)
            for _, rates, _ in seen:
                for _, k, r in rates:
                    if r > vertex_top[k]:
                        vertex_top[k] = r
            vertex_cost = sum(map(mul, int_costs, vertex_top))
            if vertex_cost < best_primal[0]:
                best_primal = (Fraction(vertex_cost), vertex_top, [x for x, _, _ in seen], 1)

        primal_cost = best_primal[0]
        if best_dual > 0:
            gap = (primal_cost - best_dual) / best_dual
        else:                   # zero entropy: x = 0 is every inner optimum, the primal is 0
            gap = Fraction(0)
        trace.append(TraceEntry(n, _float(dual_value), _float(primal_cost), _float(gap)))

        if gap <= tol:
            converged = True
            break
        if gap != last_gap:     # the gap never rises: it fell
            last_gap = gap
            since_improvement = 0
        else:
            since_improvement += 1
            if since_improvement >= PATIENCE:
                warning = "no_progress"
                break

        theta = step_size(schedule, n)
        for total, pairs, uniform, uniform_float in shared:
            moved = [lam_float[i][j] + theta * seen[i][2][j] for i, j in pairs]
            # equal entries project to the uniform point; inf == inf, so check finiteness
            if math.isfinite(moved[0]) and moved.count(moved[0]) == len(moved):
                for i, j in pairs:
                    lam[i][j], lam_float[i][j] = uniform, uniform_float
                continue
            try:
                projected = exact_simplex_projection(moved, total)
            except InvalidParameters as err:    # a non-finite entry: the step overflowed
                raise InvalidParameters(str(err), result(False, "step_overflow")) from None
            for (i, j), value in zip(pairs, projected):
                lam[i][j], lam_float[i][j] = value, _float(value)
    else:
        warning = "max_iters"
    return result(converged, warning)
