"""The four benchmark workloads and how each pass picks its instances.

Every workload draws from a pool of generated instances whose exact
answers are stored in ``golden/<workload>.json`` (built once by
``make_golden.py``).  The pool is split into classes by size and by a
property that moves cost a lot: the feasibility verdict, subgradient
convergence within the cap, the LP pivot count of the exact solve, the
channel count and field size of the code.  Labels are fixed when the pool
is built.  A run's ``--seed`` picks ``draw`` of the ``pool`` members of
every class and shuffles the order, so the mix of a pass is fixed while
its instances change with the seed; that keeps the per-pass work
comparable across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

SUBGRADIENT_CAP = 30            # iteration cap of the subgradient workload
SUBGRADIENT_GAP = Fraction(1, 100)
# Channel-count bands of the code workload; simulate costs about channels^3.
CODE_BANDS = {"c80": (80, 104), "c105": (105, 130)}
# LP pivots at or above which an exact-lp instance is "heavy", per source count.
EXACT_HEAVY_PIVOTS = {6: 120, 7: 200}


@dataclass(frozen=True)
class InstanceClass:
    name: str                   # e.g. "m11-feasible"
    stream: str                 # generator stream shared by sibling classes
    params: dict                # keyword arguments of generate.instance_doc
    draw: int                   # instances per pass
    pool: int                   # golden instances kept for the class


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    classes: tuple
    extra: dict = field(default_factory=dict)


def _cls(name, stream, draw, pool, **params):
    return InstanceClass(name, stream, params, draw, pool)


def _feas_classes():
    out = []
    for m, (feasible, infeasible) in {10: ((3, 4), (1, 2)), 11: ((4, 5), (1, 2)),
                                      12: ((2, 3), (1, 2))}.items():
        params = dict(n_sources=m, n_clients=2, max_capacity=8)
        out.append(_cls(f"m{m}-feasible", f"feas-large:m{m}", *feasible, **params))
        out.append(_cls(f"m{m}-infeasible", f"feas-large:m{m}", *infeasible, **params))
    return tuple(out)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "feas-large",
            "unfiltered 10-12 source instances: subset scans in entropy, submodular "
            "and model dominate, LPs stay tiny",
            _feas_classes()),
        Workload(
            "exact-lp",
            "feasible 6-7 source instances: the dense cold Fraction tableau of "
            "solve_multi_exact dominates",
            (_cls("m6-light", "exact-lp:m6", 4, 5, n_sources=6, n_clients=2, max_capacity=8),
             _cls("m6-heavy", "exact-lp:m6", 4, 5, n_sources=6, n_clients=2, max_capacity=8),
             _cls("m7-heavy", "exact-lp:m7", 2, 3, n_sources=7, n_clients=2, max_capacity=8))),
        Workload(
            "subgradient",
            "feasible 8-source 3-client instances: many warm LP resolves plus a "
            "separation scan per iteration, to a 1% gap or the cap",
            (_cls("m8-capped", "subgradient:m8", 3, 5, n_sources=8, n_clients=3, max_capacity=8),
             _cls("m8-converged", "subgradient:m8", 4, 5, n_sources=8, n_clients=3,
                  max_capacity=8)),
            {"max_iters": SUBGRADIENT_CAP, "gap_tol": SUBGRADIENT_GAP}),
        Workload(
            "code",
            "feasible full-rank 5-6 source instances coded at their capacities: gf and "
            "netcode dominate, q=3 makes coefficient assignment retry",
            tuple(_cls(f"m{m}-q{q}-{band}", f"code:m{m}:q{q}", 2, 3, n_sources=m, n_clients=2,
                       max_capacity=8, half_integral=True, q=q)
                  for m in (5, 6) for q in (3, 5) for band in CODE_BANDS),
            {"fixture": "F2"}),
    )
}
