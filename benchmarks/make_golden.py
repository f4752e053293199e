"""Build the golden pools: ``python3 benchmarks/make_golden.py [workload ...]``.

For every workload class it generates candidate documents from the class's
generator stream, keeps the first ``pool`` that fall into the class, and
stores each one's generator seed, document digest and exact answers in
``benchmarks/golden/<workload>.json``.  Answers come from the routes that
do not share the measured code paths where such a route exists:

* per-client verdict, worst slack, witness, cut and requirement: a full
  enumeration of every subset (checked against ``enumerate_feasibility``),
  with the documented tie-break of smallest cardinality, then earliest
  index tuple;
* single-client cost: ``solve_single_client_bruteforce`` (every subset row);
* exact multi-client cost: ``solve_multi_exact``, the only exact route,
  checked against the brute-force single-client costs
  (max_t cost_t <= multi cost <= sum_t cost_t);
* coded-network shape (beta, channels, symbols) at rates equal to the
  capacities.

Class labels that depend on cost (LP pivots of the exact solve, channel
count of the code, subgradient convergence within the cap) are measured
here once and stored with the pool.

Run it once per commit that is meant to change an answer; the benchmark
itself only reads the files.
"""

from __future__ import annotations

import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import generate  # noqa: E402
from workloads import CODE_BANDS, EXACT_HEAVY_PIVOTS, WORKLOADS  # noqa: E402

from mmcast import (build_coded_network, client_subproblem, load_instance,  # noqa: E402
                    solve_multi_exact, solve_multi_subgradient)
from mmcast.feasibility import enumerate_feasibility  # noqa: E402
from mmcast.lp import SimplexSolver  # noqa: E402
from mmcast.model import cut_capacity  # noqa: E402
from mmcast.single_client import solve_single_client_bruteforce  # noqa: E402

MAX_CANDIDATES = 2000


def certificate(sub, oracle, capacities) -> dict:
    """Worst subset of c(out(S)) - H(X_S | X_rest) by full enumeration."""
    ground = sub.sources
    best = None
    for mask in range(1, 1 << len(ground)):
        idx = tuple(i for i in range(len(ground)) if mask >> i & 1)
        nodes = tuple(ground[i] for i in idx)
        cut = cut_capacity(capacities, nodes, sub.edges)
        required = oracle.conditional(nodes, ground)
        key = (cut - required, len(idx), idx)
        if best is None or key < best[0]:
            best = (key, nodes, cut, required)
    (slack, _, _), nodes, cut, required = best
    reference = enumerate_feasibility(sub, oracle, capacities)
    if reference.slack != slack:
        raise SystemExit(f"enumeration disagrees with enumerate_feasibility on {sub.client}")
    return {"feasible": slack >= 0, "slack": str(slack), "witness": list(nodes),
            "cut": str(cut), "required": str(required)}


def verdicts(instance, oracle) -> dict:
    caps = instance.capacities()
    return {t: certificate(client_subproblem(instance, oracle, t), oracle, caps)
            for t in instance.clients}


def single_costs(instance, oracle) -> dict:
    costs, caps = instance.costs(), instance.capacities()
    return {t: solve_single_client_bruteforce(client_subproblem(instance, oracle, t), oracle,
                                              costs, caps).cost
            for t in instance.clients}


def exact_cost(instance, oracle) -> Fraction:
    cost = solve_multi_exact(instance, oracle).cost
    singles = single_costs(instance, oracle).values()
    if not max(singles) <= cost <= sum(singles):
        raise SystemExit("exact multi-client cost outside its single-client bracket")
    return cost


def count_pivots(call) -> int:
    """Simplex pivots made by ``call()``; a cost proxy used only to label classes."""
    solver = SimplexSolver
    original = solver._pivot
    count = 0

    def pivot(self, *args):
        nonlocal count
        count += 1
        return original(self, *args)

    solver._pivot = pivot
    try:
        call()
    finally:
        solver._pivot = original
    return count


def classify(workload, doc, wanted):
    """(class suffix or None, golden answers) for one candidate document.

    ``wanted(suffix)`` says whether the class still needs members; the
    costly answers are computed only for candidates that will be kept.
    """
    instance, oracle, model = load_instance(doc)
    certs = verdicts(instance, oracle)
    feasible = all(c["feasible"] for c in certs.values())
    golden = {"clients": certs}
    if workload.name == "feas-large":
        if not wanted("feasible" if feasible else "infeasible"):
            return None, None
        if feasible:
            sub = client_subproblem(instance, oracle, "t1")
            golden["single_cost_t1"] = str(solve_single_client_bruteforce(
                sub, oracle, instance.costs(), instance.capacities()).cost)
        return ("feasible" if feasible else "infeasible"), golden
    if not feasible:
        return None, None
    if workload.name == "exact-lp":
        pivots = count_pivots(lambda: solve_multi_exact(instance, oracle))
        suffix = "heavy" if pivots >= EXACT_HEAVY_PIVOTS[len(instance.sources)] else "light"
        if not wanted(suffix):
            return None, None
        golden["exact_cost"] = str(exact_cost(instance, oracle))
        return suffix, golden
    if workload.name == "subgradient":
        extra = workload.extra
        result = solve_multi_subgradient(instance, oracle, max_iters=extra["max_iters"],
                                         gap_tol=extra["gap_tol"])
        if not wanted("converged" if result.converged else "capped"):
            return None, None
        golden["exact_cost"] = str(exact_cost(instance, oracle))
        return ("converged" if result.converged else "capped"), golden
    if workload.name == "code":
        if oracle.entropy(instance.sources) < model.n_packets:
            return None, None
        net = build_coded_network(instance, model, instance.capacities(), oracle=oracle)
        band = next((name for name, (lo, hi) in CODE_BANDS.items()
                     if lo <= len(net.channels) <= hi), None)
        if band is None or not wanted(band):
            return None, None
        golden.update(beta=net.beta, channels=len(net.channels), n_symbols=net.n_symbols)
        return band, golden
    raise SystemExit(f"unknown workload {workload.name}")


def build_pool(workload) -> list:
    pool = []
    streams = {}
    for cls in workload.classes:
        streams.setdefault(cls.stream, []).append(cls)
    for stream, classes in streams.items():
        want = {cls.name: cls.pool for cls in classes}
        by_suffix = {cls.name.rsplit("-", 1)[1]: cls.name for cls in classes}
        params = classes[0].params
        for i in range(MAX_CANDIDATES):
            if not any(want.values()):
                break
            seed = f"{stream}:{i}"
            doc = generate.instance_doc(random.Random(seed), **params)
            suffix, golden = classify(workload, doc,
                                      lambda sfx: want.get(by_suffix.get(sfx), 0) > 0)
            if suffix is None:
                continue
            name = by_suffix[suffix]
            want[name] -= 1
            pool.append({"class": name, "seed": seed, "params": params,
                         "digest": generate.digest(doc), "golden": golden})
            print(f"  {workload.name} {name} <- {seed}", file=sys.stderr, flush=True)
        if any(want.values()):
            raise SystemExit(f"stream {stream} did not fill {want}")
    return pool


def fixture_entry() -> dict:
    doc = json.loads((ROOT / "fixtures" / "fixture-F2.json").read_text())
    instance, oracle, _ = load_instance(doc)
    cost = exact_cost(instance, oracle)
    if cost != 11:
        raise SystemExit(f"fixture F2 costs {cost}, expected 11")
    return {"doc": doc, "digest": generate.digest(doc),
            "golden": {"clients": verdicts(instance, oracle), "exact_cost": str(cost)}}


def main(names) -> None:
    out_dir = HERE / "golden"
    out_dir.mkdir(exist_ok=True)
    for name in names or list(WORKLOADS):
        workload = WORKLOADS[name]
        start = time.perf_counter()
        data = {"workload": name, "pool": build_pool(workload)}
        if workload.extra.get("fixture") == "F2":
            data["fixture"] = fixture_entry()
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"{name}: {len(data['pool'])} instances in {time.perf_counter() - start:.0f} s",
              file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])
