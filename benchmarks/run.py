"""Seeded benchmark of the exact mmcast pipeline.

    python3 benchmarks/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout.  The seed picks each pass's instances from the
workload's golden pool (see ``workloads.py``) and the data vectors and
coefficient seeds of the code workload.  Passes over that fixed list
repeat until ``--seconds`` have elapsed; every instance starts each pass
with a fresh ``EntropyOracle`` shared by its stages.  A pass time is the
sum over instances of each instance's median time over the passes, which
keeps a burst of machine noise in one pass from moving the result.  A
fixed reference kernel is timed the same way before every instance, and
``wall_per_ref`` divides the two, so drift in the machine's speed cancels.
Every answer is compared with the golden values (``==`` on exact
rationals) or, where no golden value applies, with an exact invariant.

With ``--trace 0`` the last output line carries the end-to-end metrics;
with ``--trace 1`` untraced and traced passes alternate and it carries
the per-layer metrics of the traced passes (medians), the tracing
overhead, and a failure if a traced answer differs from an untraced one.
The line before it is a detailed report (environment, document digest,
per-stage totals and latency percentiles), which is also written with the
spans to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
STAGES = ("feas", "single", "exact", "subgradient", "code", "simulate")

sys.path.insert(0, str(HERE))
import generate  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing package, drifted inputs)."""


class Failed:
    """Result of a stage call that raised; holds the formatted traceback."""

    def __init__(self, text: str):
        self.text = text


def ok(result) -> bool:
    return result is not None and not isinstance(result, Failed)


def import_mmcast():
    src = ROOT / "src"
    if not (src / "mmcast" / "__init__.py").is_file():
        raise BenchmarkError(f"no mmcast package under {src}")
    sys.path.insert(0, str(src))
    import mmcast
    if Path(mmcast.__file__).resolve().parent != (src / "mmcast").resolve():
        raise BenchmarkError(f"imported mmcast from {mmcast.__file__}, not from {src}")
    return mmcast


# -- inputs --------------------------------------------------------------------

def select(workload, golden: dict, seed: int) -> list:
    """The seed's instance list: ``draw`` pool members per class, shuffled."""
    rng = random.Random(f"{workload.name}:{seed}")
    picked = []
    for cls in workload.classes:
        members = [e for e in golden["pool"] if e["class"] == cls.name]
        if len(members) < cls.draw:
            raise BenchmarkError(f"golden pool of {cls.name} has {len(members)} members")
        picked += rng.sample(members, cls.draw)
    rng.shuffle(picked)
    if "fixture" in golden:
        picked.append({**golden["fixture"], "class": "fixture", "seed": None})
    return [dict(entry, run_seed=rng.randrange(2 ** 32)) for entry in picked]


def document(entry: dict) -> dict:
    doc = entry.get("doc") or generate.instance_doc(random.Random(entry["seed"]),
                                                    **entry["params"])
    if generate.digest(doc) != entry["digest"]:
        raise BenchmarkError(f"document of {entry['seed']} no longer matches its golden digest")
    return doc


def setup(name: str, seed: int):
    """Import, generate the documents and load them; returns the timed result.

    numpy, a third-party dependency of the package, is imported before the
    clock starts: its import is mostly file loading, whose speed drifts with
    the machine's cache state far more than the package's own set-up does.
    """
    import numpy  # noqa: F401
    start = time.perf_counter()
    mm = import_mmcast()
    golden = json.loads((HERE / "golden" / f"{name}.json").read_text())
    entries = select(WORKLOADS[name], golden, seed)
    docs = [document(e) for e in entries]
    loaded = [mm.load_instance(doc) for doc in docs]
    return time.perf_counter() - start, mm, entries, docs, loaded


def setup_seconds(name: str, seed: int) -> list:
    """Set-up time of SETUP_PROBES fresh interpreters (cold imports each time)."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


# -- one pass ------------------------------------------------------------------

def reference_kernel() -> Fraction:
    """Fixed exact-rational work, timed before each instance to track machine speed."""
    total = Fraction(0)
    for i in range(1, 4000):
        total += Fraction(1, i % 97 + 1) * Fraction(i % 13, 7)
    return total



def _cert(c) -> dict:
    return {"feasible": c.feasible, "slack": str(c.slack), "witness": list(c.witness_set),
            "cut": str(c.cut), "required": str(c.required)}


def _rates(rates: dict) -> dict:
    return {k: str(v) for k, v in sorted(rates.items())}


class Pass:
    """One pass over the instance list; records stage times and answers."""

    def __init__(self, mm, workload, tracer=None):
        self.mm = mm
        self.workload = workload
        self.tracer = tracer
        self.times = []             # per instance: {"wall": s, "cpu": s, stage: s, ...}
        self.records = []           # per instance: (entry, instance, oracle, {stage: result})
        self.answers = []           # per instance: {stage: JSON-able answer}

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def op(self, stage: str, results: dict, call):
        start = time.perf_counter()
        try:
            with self.span("bench." + stage):
                results[stage] = call()
        except Exception:       # the benchmark counts it and carries on
            results[stage] = Failed(traceback.format_exc(limit=3))
        self.times[-1][stage] = time.perf_counter() - start
        return results[stage]

    def run(self, entries, docs, loaded) -> None:
        mm = self.mm
        for entry, doc, triple in zip(entries, docs, loaded):
            if self.tracer:         # traced passes also trace validation and loading
                with self.tracer.span("bench.load"):
                    triple = mm.instance_io.load_instance(doc)
            start = time.perf_counter()
            reference_kernel()
            self.times.append({"reference": time.perf_counter() - start})
            wall0, cpu0 = time.perf_counter(), time.process_time()
            instance, _, model = triple
            oracle = mm.entropy.EntropyOracle.from_model(instance.sources, model)
            results = {}
            with self.span("bench.instance"):
                self.pipeline(entry, instance, oracle, model, results)
            self.times[-1].update(wall=time.perf_counter() - wall0,
                                  cpu=time.process_time() - cpu0)
            self.records.append((entry, instance, oracle, results))
            self.answers.append(answers(results))

    def pipeline(self, entry, instance, oracle, model, results) -> None:
        mm, name = self.mm, self.workload.name
        if name == "feas-large":
            report = self.op("feas", results, lambda: mm.feasibility.check_feasible_multi(
                instance, oracle))
            if ok(report) and report.feasible:
                sub = mm.model.client_subproblem(instance, oracle, "t1")
                self.op("single", results, lambda: mm.single_client.solve_single_client(
                    sub, oracle, instance.costs(), instance.capacities()))
        elif name == "exact-lp":
            self.op("exact", results, lambda: mm.multi_client.solve_multi_exact(instance, oracle))
        elif name == "subgradient":
            extra = self.workload.extra
            self.op("subgradient", results, lambda: mm.multi_client.solve_multi_subgradient(
                instance, oracle, max_iters=extra["max_iters"], gap_tol=extra["gap_tol"]))
        elif name == "code":
            rng = random.Random(entry["run_seed"])
            coefficient_seed = rng.randrange(2 ** 31)
            if entry["class"] == "fixture":
                exact = self.op("exact", results,
                                lambda: mm.multi_client.solve_multi_exact(instance, oracle))
                if not ok(exact):
                    return
                rates = exact.envelope
            else:
                rates = instance.capacities()

            def code():
                net = mm.netcode.build_coded_network(instance, model, rates, oracle=oracle)
                return net, mm.netcode.assign_coefficients(net, seed=coefficient_seed)

            coded = self.op("code", results, code)
            if not ok(coded):
                return
            net, assignment = coded
            w = [rng.randrange(net.q) for _ in range(net.n_symbols)]
            results["w"] = w
            self.op("simulate", results, lambda: mm.netcode.simulate(net, assignment, w))
        else:
            raise BenchmarkError(f"unknown workload {name}")


def answers(results: dict) -> dict:
    """Exact, comparable form of every stage result of one instance."""
    out = {}
    for stage, r in results.items():
        if stage == "w":
            continue
        if not ok(r):
            out[stage] = "error"
        elif stage == "feas":
            out[stage] = {"feasible": r.feasible, "clients": [_cert(c) for c in r.certificates]}
        elif stage == "single":
            out[stage] = {"cost": str(r.cost), "rates": _rates(r.rates)}
        elif stage == "exact":
            out[stage] = {"cost": str(r.cost), "envelope": _rates(r.envelope)}
        elif stage == "subgradient":
            out[stage] = {"cost": str(r.cost), "best_dual": str(r.best_dual),
                          "iterations": r.iterations, "converged": r.converged,
                          "envelope": _rates(r.envelope)}
        elif stage == "code":
            net, assignment = r
            out[stage] = {"channels": len(net.channels), "beta": net.beta,
                          "attempts": assignment.attempts,
                          "digest": generate.digest([list(v) for v in assignment.global_vectors])}
        elif stage == "simulate":
            out[stage] = {t: c.decoded for t, c in sorted(r.clients.items())}
    return out


# -- checks --------------------------------------------------------------------

def check(mm, workload, entry, instance, oracle, results) -> list:
    """Golden and invariant mismatches of one instance, one message per failed op."""
    golden = entry["golden"]
    errors = []

    def fail(stage, message):
        errors.append(f"{entry['class']} {entry['seed']} {stage}: {message}")

    for stage, r in results.items():
        if isinstance(r, Failed):
            fail(stage, r.text.strip().splitlines()[-1])
    clients = golden["clients"]
    feasible = all(c["feasible"] for c in clients.values())
    r = results.get("feas")
    if ok(r):
        got = {c.client: _cert(c) for c in r.certificates}
        if got != clients or r.feasible != feasible:
            fail("feas", f"certificates {got} != golden {clients}")
    if workload.name == "feas-large" and feasible and "single" not in results:
        fail("single", "feasible instance was not solved")
    r = results.get("single")
    if ok(r):
        if r.cost != Fraction(golden["single_cost_t1"]):
            fail("single", f"cost {r.cost} != golden {golden['single_cost_t1']}")
    r = results.get("exact")
    if ok(r):
        if r.cost != Fraction(golden["exact_cost"]):
            fail("exact", f"cost {r.cost} != golden {golden['exact_cost']}")
    r = results.get("subgradient")
    if ok(r):
        optimum = Fraction(golden["exact_cost"])
        problems = []
        for t, rates in r.per_client.items():
            sub = mm.model.client_subproblem(instance, oracle, t)
            g = mm.submodular.conditional_entropy_function(oracle, sub.sources)
            if not mm.submodular.in_base_polyhedron(mm.model.boundary_vector(rates, sub), g):
                problems.append(f"rates of {t} leave the region")
        if not r.best_dual <= optimum <= r.cost:
            problems.append(f"best dual {r.best_dual} <= optimum {optimum} <= cost {r.cost} fails")
        if r.converged and (r.cost - r.best_dual) > workload.extra["gap_tol"] * r.best_dual:
            problems.append(f"converged with gap {(r.cost - r.best_dual) / r.best_dual}")
        if problems:
            fail("subgradient", "; ".join(problems))
    r = results.get("code")
    if ok(r) and "channels" in golden:
        net = r[0]
        shape = {"beta": net.beta, "channels": len(net.channels), "n_symbols": net.n_symbols}
        expected = {k: golden[k] for k in shape}
        if shape != expected:
            fail("code", f"coded network {shape} != golden {expected}")
    r = results.get("simulate")
    if ok(r):
        bad = [t for t, c in r.clients.items() if c.decoded != results["w"]]
        if bad:
            fail("simulate", f"clients {bad} did not decode w")
    return errors


def operations(results: dict) -> int:
    return sum(1 for stage in results if stage != "w")


# -- reporting -------------------------------------------------------------------

def latency_summary(samples: list) -> dict:
    """Sample count, median and the highest percentile with >= 10 samples beyond it."""
    out = {"n": len(samples)}
    if not samples:
        return out
    ordered = sorted(samples)
    out["median_s"] = statistics.median(ordered)
    n = len(ordered)
    for per_mille in (999, 990, 900, 500):
        rank = -(-per_mille * n // 1000)        # ceil, in integers
        if n - rank >= 10:
            out[f"p{per_mille / 10:g}_s"] = ordered[rank - 1]
            break
    return out


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(mm) -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "mmcast": mm.__version__, "commit": git_commit(), "platform": platform.platform()}


# -- main ----------------------------------------------------------------------

def per_pass_sum(passes, key: str, combine) -> float:
    """Sum over instances of ``combine`` over passes of each instance's ``key`` time."""
    return sum(combine([p.times[i].get(key, 0.0) for p in passes])
               for i in range(len(passes[0].times)))


def measure(args) -> tuple:
    setup_self, mm, entries, docs, loaded = setup(args.workload, args.seed)
    workload = WORKLOADS[args.workload]
    setups = setup_seconds(args.workload, args.seed)
    untraced, traced, layers = [], [], []
    tracer = None
    attempted = failed = 0
    errors = []
    converged = []
    start = time.perf_counter()
    while True:
        for with_trace in ((False, True) if args.trace else (False,)):
            tracer = Tracer() if with_trace else None
            if tracer:
                tracer.install()
            try:
                p = Pass(mm, workload, tracer)
                p.run(entries, docs, loaded)
            finally:
                if tracer:
                    tracer.uninstall()
            for entry, instance, oracle, results in p.records:
                attempted += operations(results)
                problems = check(mm, workload, entry, instance, oracle, results)
                failed += len(problems)
                errors += problems
                if not tracer and ok(results.get("subgradient")):
                    converged.append(results["subgradient"].converged)
            p.records = []          # results are checked; later passes must not hold them
            if tracer:
                traced.append(p)
                layers.append(tracer.layer_metrics())
            else:
                untraced.append(p)
        if time.perf_counter() - start >= args.seconds:
            break

    expected = untraced[0].answers
    for p in untraced[1:] + traced:
        for entry, got, want in zip(entries, p.answers, expected):
            if got != want:
                failed += 1
                errors.append(f"{entry['class']} {entry['seed']}: answers differ between passes"
                              f" ({'traced' if p.tracer else 'untraced'})")

    stages = {}
    for stage in STAGES:
        samples = [t[stage] for p in untraced for t in p.times if stage in t]
        if samples:
            stages[stage] = dict(total_s=per_pass_sum(untraced, stage, statistics.median),
                                 **latency_summary(samples))
    wall = per_pass_sum(untraced, "wall", statistics.median)
    reference = per_pass_sum(untraced, "reference", statistics.median)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": environment(mm),
        "documents_digest": generate.digest(docs),
        "instances": [[e["class"], e["seed"], statistics.median(p.times[i]["wall"] for p in untraced)]
                      for i, e in enumerate(entries)],
        "passes": [{"wall_s": sum(t["wall"] for t in p.times),
                    "cpu_s": sum(t["cpu"] for t in p.times)} for p in untraced],
        "setup_s": {"probes": setups, "in_process": setup_self},
        "stages": stages,
        "end_to_end": {
            "wall_s": wall,
            "cpu_s": per_pass_sum(untraced, "cpu", statistics.median),
            "reference_s": reference,
            "wall_per_ref": wall / reference,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "failed_frac": failed / attempted,
            **{f"{s}_s": v["total_s"] for s, v in stages.items()},
            **({"converged_frac": sum(converged) / len(converged)} if converged else {}),
        },
        "attempted": attempted, "failed": failed, "errors": errors[:20],
    }
    if args.trace:
        layer = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        layer["trace.overhead_s"] = per_pass_sum(traced, "wall", statistics.median) - wall
        layer["trace.spans"] = len(tracer.span_name)
        report["per_layer"] = layer
    return report, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": setup(args.workload, args.seed)[0]}))
            return 0
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        report, tracer = measure(args)
    except (BenchmarkError, OSError, ImportError, subprocess.SubprocessError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"report-{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if tracer:
        tracer.dump(OUT / f"spans-{args.workload}.json")
    print(json.dumps(report))
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": report[section][m["name"]], "unit": m["unit"]}
               for m in spec[section]}
    print(json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
