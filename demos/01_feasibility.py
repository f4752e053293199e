"""Can every client recover the file at all?

Walks the bundled two-client network: four source nodes hold overlapping
subsets of a four-packet file, every link has capacity 4.  We first check
that each client can in principle see the whole file (the joint entropy of
its reachable sources equals the total), then ask the sharper question:
can every source subset push its innovative information through its
outgoing links?  The worst subset per client comes from one submodular
minimization and doubles as a certificate either way.
"""

from pathlib import Path

from mmcast import check_feasible_multi, check_reconstructability, client_subproblem, load_instance

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "fixture-F2.json"


def main():
    instance, oracle, _ = load_instance(FIXTURE)
    print(f"nodes: {', '.join(instance.nodes)}")
    print(f"sources hold: " + ", ".join(
        f"{s}:{oracle.entropy([s])} packets" for s in instance.sources))
    print(f"joint entropy H = {oracle.entropy(instance.sources)} packets\n")

    recon = check_reconstructability(instance, oracle)
    for c in recon.clients:
        print(f"client {c.client}: sees {tuple(sorted(c.sources))} with H = {c.entropy} "
              f"-> {'complete' if c.complete else 'INCOMPLETE'}")
    print()

    for t in instance.clients:
        sub = client_subproblem(instance, oracle, t)
        print(f"client {t}: subgraph edges {[e.id for e in sub.edges]}")

    report = check_feasible_multi(instance, oracle)
    print(f"\noverall feasible: {report.feasible}")
    for cert in report.certificates:
        kind = "binding" if cert.slack == 0 else "slack"
        print(f"  {cert.client}: worst subset {tuple(sorted(cert.witness_set))} needs "
              f"{cert.required}, cut capacity {cert.cut} ({kind} {cert.slack})")

    # squeeze the t2 sink link below the file entropy and watch it fail
    import json
    doc = json.loads(FIXTURE.read_text())
    for e in doc["edges"]:
        if e["id"] == "e7":
            e["capacity"] = "3"
    tight_instance, tight_oracle, _ = load_instance(doc)
    tight = check_feasible_multi(tight_instance, tight_oracle)
    cert = tight.by_client()["t2"]
    print(f"\nwith c(e7)=3: t2 infeasible, deficit {cert.deficit} "
          f"at {tuple(sorted(cert.witness_set))}")


if __name__ == "__main__":
    main()
