"""Cheapest per-link rates for one client.

The optimum lives in the client's rate-flow region: every source subset's
net outflow must cover its conditional entropy, with equality at the full
set (the client downloads exactly H packets, nothing more).  Instead of
materializing all 2^m subset constraints we grow them on demand: solve a
small LP, find the most violated subset by submodular minimization, cut,
repeat.  The brute-force LP with every constraint cross-checks the result.
"""

from pathlib import Path

from mmcast import client_subproblem, load_instance, solve_single_client, solve_single_client_bruteforce

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "fixture-F2.json"


def main():
    instance, oracle, _ = load_instance(FIXTURE)
    for t in instance.clients:
        sub = client_subproblem(instance, oracle, t)
        solution = solve_single_client(sub, oracle, instance.costs(), instance.capacities())
        brute = solve_single_client_bruteforce(sub, oracle, instance.costs(),
                                               instance.capacities())
        print(f"client {t}: optimal cost {solution.cost} "
              f"(brute force agrees: {brute.cost == solution.cost})")
        for eid, rate in sorted(solution.rates.items()):
            if rate:
                print(f"  {eid}: {rate}")
        tight = [tuple(sorted(s)) for s in solution.tight_sets]
        print(f"  binding subsets: {tight}\n")


if __name__ == "__main__":
    main()
