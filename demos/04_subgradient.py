"""Decomposing the multi-client problem by prices.

The coupled LP of demo 03 has a region per client and an envelope on top.
Dualizing the envelope splits the edge cost alpha_e into per-client prices
lam_e^(t) that live on a scaled simplex.  Each iteration then solves one
cheap single-client problem per client at its current prices, takes a
diminishing ascent step, and projects the prices back onto the simplices.
Two primal points come out of each iteration: the running average of the
inner solutions, a convex combination of exact region points, and the
envelope of this iteration's inner solutions themselves.  Both are exactly
feasible; the cheapest point so far is the primal, and its duality gap
tells us when to stop.
"""

from pathlib import Path

from mmcast import StepSchedule, load_instance, solve_multi_exact, solve_multi_subgradient

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "fixture-F2.json"


def main():
    instance, oracle, _ = load_instance(FIXTURE)
    exact = solve_multi_exact(instance, oracle)
    print(f"exact optimum for reference: {exact.cost}\n")

    result = solve_multi_subgradient(
        instance, oracle, schedule=StepSchedule(1, 1, 1, 1), max_iters=20000,
        gap_tol="1/100")
    print(f"{'n':>4} {'dual':>10} {'primal':>10} {'gap':>10}")
    for entry in result.trace:
        print(f"{entry.n:>4} {entry.dual:>10.4f} {entry.primal:>10.4f} {entry.gap:>10.4f}")
    print(f"\nstopped after {result.iterations} iterations, converged={result.converged}")
    print(f"recovered cost {float(result.cost):.4f} vs exact {float(exact.cost):.4f}")
    print("recovered envelope:",
          {eid: str(z) for eid, z in sorted(result.envelope.items()) if z})
    print("\nevery dual value is a true lower bound:",
          all(d <= exact.cost for d in result.dual_history))


if __name__ == "__main__":
    main()
