"""Serving all clients at once: the envelope problem.

With several clients, a link must carry the maximum of what the individual
clients want on it (a coded packet can serve everyone simultaneously), so
the objective prices the per-edge envelope Z_e = max_t R_e^(t) rather than
the sum.  This script solves the exact LP coupling every client's region
through the envelope and lists the links that carry both clients' traffic
at once instead of being paid for twice.  Which links those are depends on
the optimal vertex the solver's tie-breaking picks; the cost does not.
"""

from pathlib import Path

from mmcast import client_subproblem, load_instance, solve_multi_exact, solve_single_client

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "fixture-F2.json"


def main():
    instance, oracle, _ = load_instance(FIXTURE)

    separate = 0
    for t in instance.clients:
        sub = client_subproblem(instance, oracle, t)
        s = solve_single_client(sub, oracle, instance.costs(), instance.capacities())
        separate += s.cost
        print(f"client {t} alone: cost {s.cost}")
    print(f"naive sum of separate solutions: {separate}")

    result = solve_multi_exact(instance, oracle)
    print(f"\ncoupled optimum: cost {result.cost}")
    print(f"{'edge':>6} {'Z':>5} " + " ".join(f"{t:>5}" for t in instance.clients))
    for e in instance.edges:
        row = [result.per_client[t].get(e.id, "-") for t in instance.clients]
        print(f"{e.id:>6} {str(result.envelope[e.id]):>5} "
              + " ".join(f"{str(r):>5}" for r in row))
    shared = [e.id for e in instance.edges
              if sum(1 for t in instance.clients if result.per_client[t].get(e.id))>1]
    print(f"\nlinks carrying both clients' traffic at once: {shared}")


if __name__ == "__main__":
    main()
