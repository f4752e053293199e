"""Command-line front end with reproducible JSON output.

Subcommands: validate, feas, solve, code, simulate, oracle.  Every output
carries a run manifest (subcommand, input digest, resolved parameters,
tool version); reruns with an identical manifest produce byte-identical
output.  Rationals are printed as "p/q" strings; floats appear only inside
subgradient traces and are rounded to 12 significant digits.

Exit codes: 0 success, 2 infeasible or verification failure (diagnostic
JSON), 1 malformed input or parameters, usage errors included
(machine-readable error object).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__, feasibility, instance_io, model, multi_client, netcode, single_client
from .entropy import EntropyOracle, LinearSource, validate_polymatroid
from .errors import (Infeasible, InfeasibleRates, InvalidInstance, InvalidParameters, MmcastError,
                     RankDeficient, ReconstructabilityViolated, VerificationFailedAllAttempts)
from .gf import FieldMatrix, is_field_modulus
from .instance_io import frac_str, rates_to_json
from .multi_client import StepSchedule

INFEASIBLE_FAMILY = (Infeasible, ReconstructabilityViolated, InfeasibleRates,
                     VerificationFailedAllAttempts, RankDeficient)


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def _dump(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def _digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _manifest(args, parameters: dict) -> dict:
    return {
        "command": args.command,
        "input": args.instance,
        "input_sha256": _digest(args.instance),
        "parameters": parameters,
        "version": __version__,
    }


def _parse_schedule(text: str) -> StepSchedule:
    try:
        name, _, params = text.partition(":")
        if name == "s1":
            a, b, c = (Fraction(p) for p in params.split(",")) if params else (1, 1, 1)
            return StepSchedule(1, Fraction(a), Fraction(b), Fraction(c))
        if name == "s2":
            return StepSchedule(2, Fraction(params or "1/2"))
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidParameters(f"cannot parse schedule {text!r}: {exc}") from exc
    raise InvalidParameters(f"unknown schedule {text!r} (use s1:a,b,c or s2:a)")


def _override_field(source_model, q: int | None):
    if q is None:
        return source_model
    if not isinstance(source_model, LinearSource):
        raise InvalidParameters("--q only applies to the linear source model")
    if not is_field_modulus(q):
        raise InvalidParameters(f"--q must be a prime below 2^64, not {q}")
    matrices = {
        node: FieldMatrix(m.rows, m.cols, [x for row in m.to_lists() for x in row], q)
        for node, m in source_model.matrices.items()}
    return LinearSource(q, source_model.n_packets, matrices)


def _feas_json(report: feasibility.FeasibilityReport) -> dict:
    clients = {}
    for cert in report.certificates:
        clients[cert.client] = {
            "status": "feasible" if cert.feasible else "infeasible",
            "violating_set": list(cert.witness_set) if not cert.feasible else [],
            "deficit": frac_str(cert.deficit),
            "slack": frac_str(cert.slack),
        }
    return {"feasible": report.feasible, "clients": clients}


def _cert_json(cert: feasibility.FeasibilityCertificate) -> dict:
    return {
        "client": cert.client,
        "status": "feasible" if cert.feasible else "infeasible",
        "witness_set": list(cert.witness_set),
        "cut": frac_str(cert.cut),
        "required": frac_str(cert.required),
        "slack": frac_str(cert.slack),
    }


# -- subcommands -------------------------------------------------------------

def _cmd_validate(args) -> tuple:
    instance, oracle, _ = instance_io.load_instance(args.instance)
    poly = validate_polymatroid(oracle)
    recon = model.check_reconstructability(instance, oracle)
    payload = {
        "manifest": _manifest(args, {}),
        "nodes": list(instance.nodes),
        "topo_order": list(instance.topo_order),
        "sources": list(instance.sources),
        "clients": list(instance.clients),
        "edge_count": len(instance.edges),
        "entropy_total": frac_str(recon.total_entropy),
        "polymatroid": {
            "ok": poly.ok,
            "exhaustive": poly.exhaustive,
            "pairs_checked": poly.pairs_checked,
            "monotone_violations": len(poly.monotone_violations),
            "submodular_violations": len(poly.submodular_violations),
        },
        "reconstructability": {
            "ok": recon.ok,
            "clients": {c.client: {"entropy": frac_str(c.entropy), "complete": c.complete}
                        for c in recon.clients},
        },
    }
    return payload, 0


def _cmd_feas(args) -> tuple:
    instance, oracle, _ = instance_io.load_instance(args.instance)
    report = feasibility.check_feasible_multi(instance, oracle)
    payload = {"manifest": _manifest(args, {})}
    payload.update(_feas_json(report))
    return payload, 0 if report.feasible else 2


def _cmd_solve(args) -> tuple:
    given = [f"--{name}" for name in ("schedule", "iters", "gap", "trace-csv")
             if vars(args)[name.replace("-", "_")] is not None]
    if given and (args.client is not None or args.method == "exact"):
        raise InvalidParameters(f"{', '.join(given)}: only for --all-clients --method subgradient")
    instance, oracle, _ = instance_io.load_instance(args.instance)
    if args.client is not None:
        if args.client not in instance.clients:
            raise InvalidInstance(f"{args.client!r} is not a client of this instance")
        sub = model.client_subproblems(instance, oracle)[args.client]
        solution = single_client.solve_single_client(
            sub, oracle, instance.costs(), instance.capacities())
        payload = {
            "manifest": _manifest(args, {"client": args.client}),
            "rates": rates_to_json(solution.rates),
            "cost": frac_str(solution.cost),
            "tight_sets": [list(s) for s in solution.tight_sets],
        }
        return payload, 0
    params = {"method": args.method}
    if args.method == "exact":
        result = multi_client.solve_multi_exact(instance, oracle)
        trace = []
    else:
        text = "s1:1,1,1" if args.schedule is None else args.schedule
        iters = multi_client.DEFAULT_MAX_ITERS if args.iters is None else args.iters
        schedule = _parse_schedule(text)
        gap = multi_client.DEFAULT_GAP_TOL if args.gap is None else args.gap
        try:
            gap = Fraction(gap).limit_denominator(10 ** 12)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidParameters(f"cannot parse --gap {args.gap!r}: {exc}") from exc
        params.update({"schedule": text, "iters": iters, "gap": frac_str(gap)})
        result = multi_client.solve_multi_subgradient(
            instance, oracle, schedule=schedule, max_iters=iters, gap_tol=gap)
        trace = [{"n": t.n, "dual": _round12(t.dual), "primal": _round12(t.primal),
                  "gap": _round12(t.gap)} for t in result.trace]
        if args.trace_csv:
            lines = ["n,dual,primal,gap"]
            lines += [f"{t.n},{t.dual:.12g},{t.primal:.12g},{t.gap:.12g}" for t in result.trace]
            Path(args.trace_csv).write_text("\n".join(lines) + "\n")
    payload = {
        "manifest": _manifest(args, params),
        "Z": rates_to_json(result.envelope),
        "per_client": {t: rates_to_json(r) for t, r in result.per_client.items()},
        "cost": frac_str(result.cost),
        "method": args.method,
        "trace": trace,
    }
    if args.method == "subgradient":
        payload["converged"] = result.converged
        payload["iterations"] = result.iterations
        if result.warning:
            payload["warning"] = result.warning
    return payload, 0


def _load_rates(path: str) -> dict:
    return instance_io.parse_rates(json.loads(Path(path).read_text()))


def _build_code(args):
    instance, oracle, source_model = instance_io.load_instance(args.instance)
    source_model = _override_field(source_model, args.q)
    if args.q is not None:
        oracle = EntropyOracle.from_model(instance.sources, source_model)
    rates = _load_rates(args.rates)
    net = netcode.build_coded_network(instance, source_model, rates, oracle=oracle)
    assignment = netcode.assign_coefficients(net, seed=args.seed)
    return instance, net, assignment


def _cmd_code(args) -> tuple:
    _, net, assignment = _build_code(args)
    clients = {t: {"rank": len(assignment.bases[t]),      # the rank of t's transfer matrix
                   "decoder": netcode.build_decoder(net, assignment, t).to_lists()}
               for t in net.clients}
    payload = {
        "manifest": _manifest(args, {"rates": args.rates, "seed": args.seed, "q": net.q}),
        "q": net.q,
        "beta": net.beta,
        "symbols": net.n_symbols,
        "attempts": assignment.attempts,
        "channels": [{
            "index": ch.index, "kind": ch.kind, "tail": ch.tail, "head": ch.head,
            "edge": ch.edge_id, "vector": list(assignment.global_vectors[ch.index]),
        } for ch in net.channels],
        "clients": clients,
        "edge_symbols": net.edge_symbol_counts(),
    }
    return payload, 0


def _cmd_simulate(args) -> tuple:
    _, net, assignment = _build_code(args)
    try:
        w = [int(x) for x in args.w.split(",")]
    except ValueError as exc:
        raise InvalidParameters(f"cannot parse --w {args.w!r}") from exc
    result = netcode.simulate(net, assignment, w)
    payload = {
        "manifest": _manifest(args, {"rates": args.rates, "seed": args.seed, "q": net.q,
                                     "w": args.w}),
        "clients": {t: {"received": r.received, "decoded": r.decoded, "exact": r.exact}
                    for t, r in result.clients.items()},
        "edge_symbols": result.edge_symbols,
    }
    return payload, 0 if all(r.exact for r in result.clients.values()) else 2


def _cmd_oracle(args) -> tuple:
    """Brute-force baselines: enumerated feasibility and full-materialization LPs."""
    instance, oracle, _ = instance_io.load_instance(args.instance)
    subs = model.client_subproblems(instance, oracle)
    certs = [feasibility.enumerate_feasibility(sub, oracle, instance.capacities())
             for sub in subs.values()]
    feasible = all(c.feasible for c in certs)
    payload = {
        "manifest": _manifest(args, {}),
        "feasibility": {c.client: _cert_json(c) for c in certs},
        "feasible": feasible,
    }
    if feasible:
        singles = {}
        for t, sub in subs.items():
            solution = single_client.solve_single_client_bruteforce(
                sub, oracle, instance.costs(), instance.capacities())
            singles[t] = {"rates": rates_to_json(solution.rates),
                          "cost": frac_str(solution.cost)}
        multi = multi_client.solve_multi_bruteforce(instance, oracle)
        payload["single_client"] = singles
        payload["multi"] = {"Z": rates_to_json(multi.envelope),
                            "cost": frac_str(multi.cost)}
    return payload, 0 if feasible else 2


# -- entry point --------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors raise InvalidParameters (exit 1), not exit 2.

    ``add_subparsers`` builds the subcommand parsers from this class too.
    """

    def error(self, message):
        raise InvalidParameters(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mmcast",
        description="Multisource multicast: feasibility, rate allocation, network coding.")
    commands = parser.add_subparsers(dest="command", required=True)

    def add(name, run, help_text):
        sp = commands.add_parser(name, help=help_text)
        sp.add_argument("instance", help="instance JSON file")
        sp.set_defaults(run=run)
        return sp

    add("validate", _cmd_validate, "validate an instance and its source model")
    add("feas", _cmd_feas, "feasibility certificates for every client")

    solve = add("solve", _cmd_solve, "minimum-cost rate allocation")
    target = solve.add_mutually_exclusive_group(required=True)
    target.add_argument("--client", help="solve a single client's problem")
    target.add_argument("--all-clients", action="store_true")
    solve.add_argument("--method", choices=("exact", "subgradient"), default="exact")
    solve.add_argument("--schedule", help="s1:a,b,c or s2:a")    # these four: subgradient only
    solve.add_argument("--iters", type=int)
    solve.add_argument("--gap", help="relative duality gap tolerance")
    solve.add_argument("--trace-csv", help="write the per-iteration trace as CSV")

    code = add("code", _cmd_code, "construct and verify a network code")
    sim = add("simulate", _cmd_simulate, "run the coded network on a data vector")
    for coded in (code, sim):
        coded.add_argument("--rates", required=True, help="JSON file with per-edge rates")
        coded.add_argument("--seed", type=int, default=0)
        coded.add_argument("--q", type=int, help="override the coding field (prime)")
    sim.add_argument("--w", required=True, help="comma-separated field elements")

    add("oracle", _cmd_oracle, "brute-force baselines for cross-checking")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        payload, status = args.run(args)
    except INFEASIBLE_FAMILY as exc:
        context = {}
        if isinstance(exc, Infeasible):
            context["certificates"] = [_cert_json(c) for c in exc.certificates]
        if isinstance(exc, VerificationFailedAllAttempts):
            context["attempts"] = exc.attempts
            context["best_ranks"] = exc.best_ranks
        print(_dump({"error": {"code": exc.code, "message": str(exc), "context": context}}))
        return 2
    except MmcastError as exc:
        print(_dump({"error": {"code": exc.code, "message": str(exc), "context": {}}}))
        return 1
    except (json.JSONDecodeError, OSError, ValueError) as exc:
        print(_dump({"error": {"code": type(exc).__name__, "message": str(exc), "context": {}}}))
        return 1
    print(_dump(payload))
    return status


if __name__ == "__main__":
    sys.exit(main())
