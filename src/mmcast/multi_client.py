"""Multi-client rate allocation: exact LP and Lagrangian subgradient.

The multi-client problem minimizes sum(alpha_e * Z_e) where Z_e dominates
every client's rate on edge e and each client's rates lie in its own
rate-flow region.  Two routes:

* :func:`solve_multi_exact` -- one exact LP over the envelope and every
  client's rates, with region rows added lazily (Kelley's cutting planes).
  It starts from a seed pool per client (singletons, their complements,
  the ground equality) and the couplings Z_e >= R_e^(t); each round, exact
  submodular separation finds the most violated region row of every
  client, the rows are appended and the LP is re-optimized warm by dual
  simplex.  It stops when no client has a violated row, so the optimum is
  exact and certified by that separation.
  :func:`solve_multi_bruteforce` builds the same LP with every region row
  materialized; it is the reference the lazy route is tested against.
* :func:`solve_multi_subgradient` -- dualize the coupling Z_e >= R_e^(t).
  The per-edge multipliers live on scaled simplices {lam >= 0,
  sum_t lam_e^(t) = alpha_e}; each iteration solves one weighted
  single-client problem per client (exact), takes a projected ascent step
  on the multipliers, and recovers a primal point as the running average
  of the inner minimizers.  Inner solutions are exact vertices and the
  average is kept in exact arithmetic, so every recovered point is exactly
  region-feasible and every recorded dual value is a true lower bound.

Each route checks only reconstructability up front; its own LPs decide
feasibility, and the clients' certificates are computed only to explain an
empty LP (or inner problem) in Infeasible.

Floating point appears only in the ascent step and the step-size schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import feasibility, model
from .errors import BudgetExceeded, Infeasible, InvalidParameters
from .lp import LinearProgram, SimplexSolver
from .model import NetworkInstance, Region
from .single_client import BRUTE_FORCE_SOURCES, RegionOptimizer, most_violated, seed_pool

DEFAULT_MAX_ITERS = 50000
DEFAULT_GAP_TOL = Fraction(1, 100)
DEFAULT_PATIENCE = 5000
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
    gap: float                  # (primal - best dual) / best dual; inf if dual <= 0


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


def step_size(schedule: StepSchedule, n: int) -> float:
    """Step size for 1-based iteration n."""
    if n < 1:
        raise InvalidParameters("iteration index starts at 1")
    if schedule.kind == 1:
        return float(schedule.a) / (float(schedule.b) + float(schedule.c) * n)
    return float(n) ** (-float(schedule.a))


# -- simplex projection ------------------------------------------------------

def exact_simplex_projection(v: list, total: Fraction) -> list:
    """Euclidean projection of v onto {x >= 0, sum(x) = total}, total > 0 (sort-and-threshold)."""
    v = [Fraction(x) for x in v]
    u = sorted(v, reverse=True)
    rho, tau = 0, None
    acc = Fraction(0)
    for j, uj in enumerate(u, start=1):
        acc += uj
        candidate = (acc - total) / j
        if uj - candidate > 0:
            rho, tau = j, candidate
    return [max(x - tau, Fraction(0)) for x in v]


# -- exact LP route ----------------------------------------------------------

class _MultiLP:
    """Variables, bounds, rows and read-out of the exact multi-client LP.

    The columns are Z_e for every edge of the instance, then R_e^(t) for
    every edge of every client's subproblem.  Region rows are chosen by
    client and mask, so the lazy and the brute-force route assemble the
    same LP from different masks.
    """

    def __init__(self, instance: NetworkInstance, subs: dict, oracle):
        self.instance, self.subs = instance, subs
        self.regions = {t: Region(sub, oracle) for t, sub in subs.items()}
        self.z_index = {e.id: i for i, e in enumerate(instance.edges)}
        n = len(instance.edges)
        self.r_index = {}
        for t, sub in subs.items():
            for e in sub.edges:
                self.r_index[(t, e.id)] = n
                n += 1
        self.n = n

    def region_row(self, t, mask: int) -> tuple:
        """boundary(R^(t), S) >= g(S) for the mask of S; equality at the full set."""
        region = self.regions[t]
        row = [0] * self.n
        for e, coeff in zip(self.subs[t].edges, region.row(mask)):
            if coeff:
                row[self.r_index[(t, e.id)]] = coeff
        return row, "==" if mask == region.full else ">=", region.g[mask]

    def program(self, masks: dict) -> LinearProgram:
        """The LP with the region rows of ``masks[t]`` plus every ground equality and coupling."""
        caps = self.instance.capacities()
        covered = {eid for (_, eid) in self.r_index}
        bounds = [(0, caps[e.id] if e.id in covered else 0) for e in self.instance.edges]
        # R_e^(t) <= Z_e <= c_e already caps the rates; a bound would add a row each
        bounds += [(0, None)] * len(self.r_index)
        rows = []
        for t, sub in self.subs.items():
            for mask in masks[t]:
                row = self.region_row(t, mask)
                if row[2] <= 0 and all(c >= 0 for c in row[0]):
                    continue        # implied by the nonnegativity bounds
                rows.append(row)
            rows.append(self.region_row(t, self.regions[t].full))
            for e in sub.edges:
                row = [0] * self.n
                row[self.z_index[e.id]] = 1
                row[self.r_index[(t, e.id)]] = -1
                rows.append((row, ">=", 0))
        objective = [e.cost for e in self.instance.edges]
        objective += [0] * (self.n - len(objective))
        return LinearProgram(objective, rows, bounds)

    def per_client(self, x: list) -> dict:
        return {t: {e.id: x[self.r_index[(t, e.id)]] for e in sub.edges}
                for t, sub in self.subs.items()}

    def result(self, solution) -> MulticastRates:
        envelope = {e.id: solution.x[self.z_index[e.id]] for e in self.instance.edges}
        return MulticastRates(envelope, self.per_client(solution.x), solution.value)


def _subproblems(instance: NetworkInstance, oracle) -> dict:
    feasibility.require_reconstructable(instance, oracle)
    return {t: model.client_subproblem(instance, oracle, t) for t in instance.clients}


def _infeasible(instance: NetworkInstance, oracle) -> Infeasible:
    """The error for an empty LP, with the certificates of the clients that fail."""
    report = feasibility.check_feasible_multi(instance, oracle)
    bad = [c for c in report.certificates if not c.feasible]
    if not bad:
        raise RuntimeError("the LP found no allocation, but every client's certificate is feasible")
    return Infeasible(
        "no achievable rate vector: " + "; ".join(
            f"client {c.client} needs {c.required} through {c.witness_set} "
            f"but has capacity {c.cut}" for c in bad),
        bad)


def solve_multi_exact(instance: NetworkInstance, oracle) -> MulticastRates:
    """Exact optimum of the multi-client problem by lazily added region rows.

    Separation reads each client's mask-indexed region tables, so a client
    may reach at most ``submodular.BRUTE_FORCE_LIMIT`` sources
    (GroundTooLarge).  Raises Infeasible, with the certificates of the
    failing clients, when the LP finds no allocation.
    """
    lp = _MultiLP(instance, _subproblems(instance, oracle), oracle)
    solver = SimplexSolver(lp.program({t: seed_pool(len(s.sources))
                                       for t, s in lp.subs.items()}))
    solution = solver.solve()
    while solution.status == "optimal":
        rates = lp.per_client(solution.x)
        cuts = []
        for t in lp.subs:
            mask = most_violated(lp.regions[t], rates[t])
            if mask is not None:
                cuts.append(lp.region_row(t, mask))
        if not cuts:
            return lp.result(solution)
        if not solver.add_rows(cuts):
            break
        solution = solver.resolve(solver.lp.objective)
    raise _infeasible(instance, oracle)


def solve_multi_bruteforce(instance: NetworkInstance, oracle) -> MulticastRates:
    """Reference optimum: one LP with every region row of every client materialized."""
    subs = _subproblems(instance, oracle)
    masks = sum(1 << len(s.sources) for s in subs.values())
    if masks > BRUTE_FORCE_MASKS:
        raise BudgetExceeded(
            f"region tables of {masks} masks exceed the {BRUTE_FORCE_MASKS}-mask budget")
    lp = _MultiLP(instance, subs, oracle)
    solution = SimplexSolver(lp.program({t: range(1, r.full)
                                         for t, r in lp.regions.items()})).solve()
    if solution.status != "optimal":
        raise _infeasible(instance, oracle)
    return lp.result(solution)


# -- subgradient route -------------------------------------------------------

def solve_multi_subgradient(instance: NetworkInstance, oracle,
                            schedule: StepSchedule | None = None,
                            max_iters: int = DEFAULT_MAX_ITERS,
                            gap_tol=DEFAULT_GAP_TOL,
                            initial_multipliers: dict | None = None,
                            patience: int = DEFAULT_PATIENCE) -> SubgradientResult:
    """Projected dual ascent with ergodic primal recovery.

    Stops when the relative gap between the recovered primal cost and the
    best dual value reaches ``gap_tol``, when the gap stops improving for
    ``patience`` iterations (warning ``no_progress``), or at ``max_iters``
    (warning ``max_iters``).  The returned rates are the best recovered
    primal iterate; they satisfy every region constraint exactly.
    """
    schedule = schedule or StepSchedule()
    gap_tol = Fraction(gap_tol).limit_denominator(10 ** 12)
    if max_iters < 1:
        raise InvalidParameters("max_iters must be at least 1")
    subs = _subproblems(instance, oracle)
    clients = instance.clients
    caps = instance.capacities()
    costs = instance.costs()

    sharing = {}                # edge id -> clients whose subgraph contains it
    for t in clients:
        for e in subs[t].edges:
            sharing.setdefault(e.id, []).append(t)

    lam = {}                    # (edge id, t) -> Fraction, simplex-feasible
    if initial_multipliers is None:
        for eid, ts in sharing.items():
            share = costs[eid] / len(ts)
            for t in ts:
                lam[(eid, t)] = share
    else:
        lam = {k: Fraction(v) for k, v in initial_multipliers.items()}
        _check_dual_feasible(lam, sharing, costs)

    optimizers = {t: RegionOptimizer(subs[t], oracle, caps) for t in clients}
    rate_sum = {t: {e.id: Fraction(0) for e in subs[t].edges} for t in clients}

    trace: list = []
    dual_history: list = []
    best_dual = None
    best_primal = None          # (cost, envelope, per_client)
    best_gap = None
    since_improvement = 0
    converged = False
    warning = None

    def inner(t):
        weights = {e.id: lam[(e.id, t)] for e in subs[t].edges}
        try:
            rates, value, _ = optimizers[t].minimize(weights)
        except Infeasible:
            raise _infeasible(instance, oracle) from None
        return rates, value

    n = 0
    for n in range(1, max_iters + 1):
        results = [inner(t) for t in clients]
        dual_value = sum((value for _, value in results), Fraction(0))
        dual_history.append(dual_value)
        if best_dual is None or dual_value > best_dual:
            best_dual = dual_value

        inv_n = Fraction(1, n)
        averaged = {}
        for t, (rates, _) in zip(clients, results):
            acc = rate_sum[t]
            for eid, r in rates.items():
                acc[eid] += r
            averaged[t] = {eid: v * inv_n for eid, v in acc.items()}
        envelope = {e.id: Fraction(0) for e in instance.edges}
        for t in clients:
            for eid, r in averaged[t].items():
                if r > envelope[eid]:
                    envelope[eid] = r
        primal_cost = sum((costs[eid] * z for eid, z in envelope.items()), Fraction(0))
        if best_primal is None or primal_cost < best_primal[0]:
            best_primal = (primal_cost, envelope, averaged)

        if best_dual > 0:
            gap = (primal_cost - best_dual) / best_dual
        elif primal_cost == 0:
            gap = Fraction(0)   # zero-entropy instance: nothing to transmit
        else:
            gap = None
        trace.append(TraceEntry(n, float(dual_value), float(primal_cost),
                                float(gap) if gap is not None else float("inf")))

        if gap is not None and gap <= gap_tol:
            converged = True
            break
        if best_gap is None or (gap is not None and gap < best_gap):
            best_gap = gap
            since_improvement = 0
        else:
            since_improvement += 1
            if since_improvement >= patience:
                warning = "no_progress"
                break

        theta = step_size(schedule, n)
        t_rates = {t: rates for t, (rates, _) in zip(clients, results)}
        for eid, ts in sharing.items():
            if len(ts) == 1:
                continue        # the only dual point is lam = alpha_e
            moved = [float(lam[(eid, t)]) + theta * float(t_rates[t].get(eid, 0))
                     for t in ts]
            projected = exact_simplex_projection(moved, costs[eid])
            for t, value in zip(ts, projected):
                lam[(eid, t)] = value
    else:
        warning = "max_iters"

    cost, envelope, per_client = best_primal
    return SubgradientResult(envelope, per_client, cost, trace, n,
                             converged, warning, best_dual, dual_history)


def _check_dual_feasible(lam: dict, sharing: dict, costs: dict):
    for eid, ts in sharing.items():
        total = sum((lam.get((eid, t), Fraction(0)) for t in ts), Fraction(0))
        if total != costs[eid]:
            raise InvalidParameters(
                f"multipliers on edge {eid} sum to {total}, expected {costs[eid]}")
        if any(lam.get((eid, t), Fraction(0)) < 0 for t in ts):
            raise InvalidParameters(f"negative multiplier on edge {eid}")
