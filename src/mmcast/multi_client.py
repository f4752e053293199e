"""Multi-client rate allocation: exact LP and Lagrangian subgradient.

The multi-client problem minimizes sum(alpha_e * Z_e) where Z_e dominates
every client's rate on edge e and each client's rates lie in its own
rate-flow region.  Two routes:

* :func:`solve_multi_exact` -- one exact LP with every region constraint
  of every client materialized (desk-scale row budgets).
* :func:`solve_multi_subgradient` -- dualize the coupling Z_e >= R_e^(t).
  The per-edge multipliers live on scaled simplices {lam >= 0,
  sum_t lam_e^(t) = alpha_e}; each iteration solves one weighted
  single-client problem per client (exact), takes a projected ascent step
  on the multipliers, and recovers a primal point as the running average
  of the inner minimizers.  Inner solutions are exact vertices and the
  average is kept in exact arithmetic, so every recovered point is exactly
  region-feasible and every recorded dual value is a true lower bound.

Floating point appears only in the ascent step and the step-size schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import feasibility, model
from .errors import BudgetExceeded, InvalidParameters
from .lp import LinearProgram, SimplexSolver
from .model import NetworkInstance, Region
from .single_client import RegionOptimizer

DEFAULT_MAX_ITERS = 50000
DEFAULT_GAP_TOL = Fraction(1, 100)
DEFAULT_ROW_BUDGET = 2 ** 16
DEFAULT_PATIENCE = 5000


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

def project_scaled_simplex(v, total) -> np.ndarray:
    """Euclidean projection of v onto {x >= 0, sum(x) = total}, total > 0."""
    v = np.asarray(v, dtype=float)
    total = float(total)
    if total <= 0:
        raise InvalidParameters("simplex scale must be positive")
    u = np.sort(v)[::-1]
    cumulative = np.cumsum(u) - total
    rho = np.nonzero(u * np.arange(1, len(v) + 1) > cumulative)[0][-1]
    tau = cumulative[rho] / (rho + 1.0)
    return np.maximum(v - tau, 0.0)


def exact_simplex_projection(v: list, total: Fraction) -> list:
    """Same projection in exact rational arithmetic (sort-and-threshold)."""
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

def solve_multi_exact(instance: NetworkInstance, oracle,
                      row_budget: int = DEFAULT_ROW_BUDGET,
                      check_feasibility: bool = True) -> MulticastRates:
    """Exact optimum of the multi-client problem by full materialization."""
    subs = _subproblems(instance, oracle, check_feasibility)
    if sum(1 << len(s.sources) for s in subs.values()) > row_budget:
        raise BudgetExceeded(
            f"materialized region rows exceed the {row_budget}-row budget")

    edges = instance.edges
    z_index = {e.id: i for i, e in enumerate(edges)}
    n = len(edges)
    r_index = {}
    for t in instance.clients:
        for e in subs[t].edges:
            r_index[(t, e.id)] = n
            n += 1

    covered = {eid for (_, eid) in r_index}
    caps = instance.capacities()
    bounds = []
    for e in edges:
        hi = caps[e.id] if e.id in covered else Fraction(0)
        bounds.append((Fraction(0), hi))
    bounds += [(Fraction(0), caps[eid]) for (_, eid) in r_index]

    rows = []
    for t, sub in subs.items():
        region = Region(sub, oracle)
        full = region.full
        for mask in range(1, full + 1):
            base = region.row(mask)
            rhs = region.g[mask]
            if mask != full and rhs <= 0 and all(c >= 0 for c in base):
                continue            # implied by the nonnegativity bounds
            row = [Fraction(0)] * n
            for e, coeff in zip(sub.edges, base):
                if coeff:
                    row[r_index[(t, e.id)]] = coeff
            rel = "==" if mask == full else ">="
            rows.append((row, rel, rhs))
        for e in sub.edges:
            row = [Fraction(0)] * n
            row[z_index[e.id]] = Fraction(1)
            row[r_index[(t, e.id)]] = Fraction(-1)
            rows.append((row, ">=", Fraction(0)))

    objective = [e.cost for e in edges] + [Fraction(0)] * (n - len(edges))
    solution = SimplexSolver(LinearProgram(objective, rows, bounds)).solve()
    if solution.status != "optimal":
        raise RuntimeError(f"multi-client LP came back {solution.status} after feasibility passed")
    envelope = {e.id: solution.x[z_index[e.id]] for e in edges}
    per_client = {
        t: {e.id: solution.x[r_index[(t, e.id)]] for e in subs[t].edges}
        for t in instance.clients}
    return MulticastRates(envelope, per_client, solution.value)


def _subproblems(instance, oracle, check: bool) -> dict:
    if check:
        report = feasibility.check_feasible_multi(instance, oracle)
        if not report.feasible:
            bad = [c for c in report.certificates if not c.feasible]
            from .errors import Infeasible
            raise Infeasible(
                "no achievable rate vector: " + "; ".join(
                    f"client {c.client} needs {c.required} through {c.witness_set} "
                    f"but has capacity {c.cut}" for c in bad),
                bad)
    return {t: model.client_subproblem(instance, oracle, t) for t in instance.clients}


# -- subgradient route -------------------------------------------------------

def solve_multi_subgradient(instance: NetworkInstance, oracle,
                            schedule: StepSchedule | None = None,
                            max_iters: int = DEFAULT_MAX_ITERS,
                            gap_tol=DEFAULT_GAP_TOL,
                            initial_multipliers: dict | None = None,
                            patience: int = DEFAULT_PATIENCE,
                            check_feasibility: bool = True,
                            client_runner=map) -> SubgradientResult:
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
    subs = _subproblems(instance, oracle, check_feasibility)
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
        rates, value, _ = optimizers[t].minimize(weights)
        return rates, value

    n = 0
    for n in range(1, max_iters + 1):
        results = list(client_runner(inner, clients))
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
