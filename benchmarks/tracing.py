"""Span tracing of the mmcast modules, installed from outside the package.

``Tracer.install()`` wraps the public functions and methods named in
``TARGETS`` at every binding of each name: the defining module, every
``mmcast`` module that imported the name directly (``feasibility`` binds
``cut_capacity`` and ``sfm_brute_force``, ``single_client`` binds
``sfm_brute_force``, ...) and the package namespace.  ``uninstall()``
puts the originals back.  The package source is not touched.

Each wrapped call records a span (name, start, end, parent) in memory;
self time is a span's duration minus the time covered by its child
spans.  Counters that only a call's arguments or result reveal (masks
scanned, cuts added, LP shape, denominator bit lengths, code size) are
taken by the per-target hooks below.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from array import array
from collections import Counter
from fractions import Fraction
from time import perf_counter


def _den_bits(values) -> int:
    return max((Fraction(v).denominator.bit_length() for v in values), default=0)


def _on_sfm(tracer, args, kwargs, result, _):
    f = args[0] if args else kwargs["f"]
    tracer.count["submodular.masks_scanned"] += 1 << len(f.ground)


def _on_minimize(tracer, args, kwargs, result, pool_before):
    tracer.count["single_client.cuts_added"] += len(args[0].pool) - pool_before
    tracer.count["single_client.lp_solves"] += result[2]


_on_minimize.before = lambda args: len(args[0].pool)   # pool size when the call starts


def _on_build(tracer, args, kwargs, result, _):
    solver = args[0]
    rows = len(solver.tableau)
    tracer.peak("lp.rows_max", rows)
    tracer.peak("lp.tableau_cells_max", rows * (solver.n_cols + 1))
    if tracer.parent_name() == "multi_client.solve_multi_exact":
        tracer.count["multi_client.exact_rows"] += len(solver.lp.rows)


def _on_lp_solution(tracer, args, kwargs, result, _):
    if result.status == "optimal":
        tracer.peak("lp.den_bits_max", _den_bits(result.x + [result.value]))


def _on_subgradient(tracer, args, kwargs, result, _):
    tracer.count["multi_client.subgradient_iters"] += result.iterations


def _on_projection(tracer, args, kwargs, result, _):
    tracer.peak("multi_client.dual_den_bits_max", _den_bits(result))


def _on_coded_network(tracer, args, kwargs, result, _):
    tracer.count["netcode.channels"] += len(result.channels)
    tracer.count["netcode.n_symbols"] += result.n_symbols
    tracer.peak("netcode.beta", result.beta)


def _on_assign(tracer, args, kwargs, result, _):
    tracer.count["netcode.attempts"] += result.attempts


# (module, attribute path, span name, result hook)
TARGETS = (
    ("mmcast.instance_io", "load_instance", "instance_io.load_instance", None),
    ("mmcast.entropy", "EntropyOracle.entropy", "entropy.oracle", None),
    ("mmcast.entropy", "LinearSource.entropy", "entropy.model", None),
    ("mmcast.gf", "rank", "gf.rank", None),
    ("mmcast.gf", "inverse", "gf.inverse", None),
    ("mmcast.gf", "solve_right", "gf.solve_right", None),
    ("mmcast.model", "client_subproblem", "model.client_subproblem", None),
    ("mmcast.model", "cut_capacity", "model.cut_capacity", None),
    ("mmcast.model", "boundary", "model.boundary", None),
    ("mmcast.submodular", "sfm_brute_force", "submodular.sfm_brute_force", _on_sfm),
    ("mmcast.submodular", "in_base_polyhedron", "submodular.in_base_polyhedron", None),
    ("mmcast.feasibility", "check_feasible_single", "feasibility.check_feasible_single", None),
    ("mmcast.feasibility", "check_feasible_multi", "feasibility.check_feasible_multi", None),
    ("mmcast.single_client", "RegionOptimizer.minimize", "single_client.minimize",
     _on_minimize),
    ("mmcast.single_client", "solve_single_client", "single_client.solve_single_client", None),
    ("mmcast.lp", "SimplexSolver.__init__", "lp.build", _on_build),
    ("mmcast.lp", "SimplexSolver.solve", "lp.solve", _on_lp_solution),
    ("mmcast.lp", "SimplexSolver.resolve", "lp.resolve", _on_lp_solution),
    ("mmcast.multi_client", "solve_multi_exact", "multi_client.solve_multi_exact", None),
    ("mmcast.multi_client", "solve_multi_subgradient", "multi_client.solve_multi_subgradient",
     _on_subgradient),
    ("mmcast.multi_client", "exact_simplex_projection", "multi_client.exact_simplex_projection",
     _on_projection),
    ("mmcast.netcode", "build_coded_network", "netcode.build_coded_network",
     _on_coded_network),
    ("mmcast.netcode", "assign_coefficients", "netcode.assign_coefficients", _on_assign),
    ("mmcast.netcode", "transfer_matrix", "netcode.transfer_matrix", None),
    ("mmcast.netcode", "simulate", "netcode.simulate", None),
)


class Tracer:
    """In-memory span recorder with per-name call counts and self times."""

    def __init__(self):
        self.names: list = []
        self._name_id: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list = []          # [span index, child time] per open span
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.count: Counter = Counter()
        self.maxima: dict = {}
        self._restore: list = []

    # -- recording -------------------------------------------------------

    def peak(self, key: str, value) -> None:
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def parent_name(self):
        """Name of the span enclosing the one being closed, if any."""
        if len(self._stack) < 2:
            return None
        return self.names[self.span_name[self._stack[-2][0]]]

    def _open(self, name: str) -> None:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        index = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_start.append(perf_counter())
        self.span_end.append(0.0)
        self._stack.append([index, 0.0])

    def _close(self, name: str) -> None:
        end = perf_counter()
        index, child = self._stack.pop()
        self.span_end[index] = end
        duration = end - self.span_start[index]
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][1] += duration

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        self._open(name)
        try:
            yield
        finally:
            self._close(name)

    # -- installation ----------------------------------------------------

    def _wrap(self, fn, name: str, hook):
        tracer = self
        before = getattr(hook, "before", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args) if before else None
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
                if hook:
                    hook(tracer, args, kwargs, result, state)
                return result
            finally:
                tracer._close(name)

        return wrapper

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        packages = [mod for key, mod in sorted(sys.modules.items())
                    if key == "mmcast" or key.startswith("mmcast.")]
        for module_name, path, name, hook in TARGETS:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, name, hook)
            if outer:               # a method: one binding, on its class
                bindings = [owner]
            else:                   # a function: every module that binds it
                bindings = [mod for mod in packages if mod.__dict__.get(attr) is original]
            for holder in bindings:
                setattr(holder, attr, wrapper)
                self._restore.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore = []

    def bindings(self) -> list:
        """Installed bindings as "holder.attr" strings (for the self-tests)."""
        return sorted(f"{getattr(h, '__name__', h)}.{a}" for h, a, _ in self._restore)

    # -- output ----------------------------------------------------------

    def layer_metrics(self) -> dict:
        calls, self_s, count = self.calls, self.self_s, self.count
        oracle_calls = calls["entropy.oracle"]
        metrics = {
            "entropy.oracle.calls": oracle_calls,
            "entropy.model.calls": calls["entropy.model"],
            "entropy.memo_hit_ratio": (1 - calls["entropy.model"] / oracle_calls
                                       if oracle_calls else 0.0),
            "lp.builds": calls["lp.build"],
        }
        for name in ("gf.rank", "gf.inverse", "submodular.sfm_brute_force", "model.cut_capacity",
                     "feasibility.check_feasible_single", "model.boundary",
                     "single_client.minimize", "lp.solve", "lp.resolve",
                     "multi_client.exact_simplex_projection", "netcode.transfer_matrix",
                     "model.client_subproblem"):
            metrics[f"{name}.calls"] = calls[name]
        for name in ("entropy.model", "gf.rank", "gf.inverse", "gf.solve_right",
                     "submodular.sfm_brute_force", "submodular.in_base_polyhedron",
                     "model.cut_capacity", "feasibility.check_feasible_single",
                     "model.boundary", "single_client.minimize", "lp.build", "lp.solve",
                     "lp.resolve", "multi_client.exact_simplex_projection",
                     "netcode.transfer_matrix", "netcode.build_coded_network",
                     "netcode.assign_coefficients", "instance_io.load_instance"):
            metrics[f"{name}.self_s"] = self_s[name]
        for key in ("submodular.masks_scanned", "single_client.cuts_added",
                    "single_client.lp_solves", "multi_client.exact_rows",
                    "multi_client.subgradient_iters", "netcode.channels", "netcode.n_symbols",
                    "netcode.attempts"):
            metrics[key] = count[key]
        for key in ("lp.rows_max", "lp.tableau_cells_max", "lp.den_bits_max",
                    "multi_client.dual_den_bits_max", "netcode.beta"):
            metrics[key] = self.maxima.get(key, 0)
        return metrics

    def dump(self, path) -> None:
        """Write every span as [name, parent, start_ns, end_ns] (relative to the first)."""
        origin = self.span_start[0] if self.span_start else 0.0
        with open(path, "w") as out:
            out.write('{"names": ' + json.dumps(self.names) + ', "spans": [\n')
            last = len(self.span_name) - 1
            for i in range(last + 1):
                out.write("[%d,%d,%d,%d]%s\n" % (
                    self.span_name[i], self.span_parent[i],
                    round((self.span_start[i] - origin) * 1e9),
                    round((self.span_end[i] - origin) * 1e9), "," if i < last else ""))
            out.write("]}\n")
