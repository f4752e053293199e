"""The rate LPs against a reference assembly of their region rows.

The reference spells every row out on its own: the sum of the incidence
rows of the sources in S, ``>=`` g(S) from the oracle's per-subset
entropies, the ground equality ``== H(X_{M_t})`` after the seed rows, every
route's filter of seed and brute-force rows that x >= 0 implies (a cut is
violated, so never implied), and the multi-client LP's columns indexed by
edge id (Z_e, on the edges some client uses) and by (client, edge id) (the
Z_e of an edge one client uses, else a rate column of its own).  Every LP
the solvers build must have the same rows, relations, right-hand sides,
caps and objective, in the same order.
"""

import mmcast.multi_client as multi_client
import mmcast.single_client as single_client
from helpers import random_pmf_doc, region_cases
from mmcast.errors import Infeasible
from mmcast.lp import LinearProgram, SimplexSolver
from mmcast.model import client_subproblem
from mmcast.single_client import RegionOptimizer, seed_pool
from mmcast.submodular import members


def _cases(f2):
    for suite in ((101, 40, {}), (102, 8, {"n_sources": 8, "max_capacity": 8}),
                  (9, 15, {"make_doc": random_pmf_doc})):
        seed, count, kwargs = suite
        for _, instance, oracle, _ in region_cases(seed, count, **kwargs):
            yield instance, oracle
    yield f2[0], f2[1]


def _incidence_sum(sub, mask: int) -> dict:
    """The sum of the incidence rows (+1 out of v, -1 into v) of the sources v in S.

    Edge j of the client is column j; zero sums are left out.
    """
    inside = {v for i, v in enumerate(sub.sources) if mask >> i & 1}
    row = {j: (e.tail in inside) - (e.head in inside) for j, e in enumerate(sub.edges)}
    return {j: c for j, c in row.items() if c}


def _g(sub, oracle, mask: int):
    return oracle.conditional(members(sub.sources, mask), sub.sources)


def _implied(sub, oracle, mask: int) -> bool:
    return _g(sub, oracle, mask) <= 0 and all(c >= 0 for c in _incidence_sum(sub, mask).values())


def _single_reference(sub, oracle, costs, caps, masks, cuts=()) -> LinearProgram:
    rows = [(_incidence_sum(sub, mask), ">=", _g(sub, oracle, mask)) for mask in masks
            if not _implied(sub, oracle, mask)]
    rows.append((_incidence_sum(sub, (1 << len(sub.sources)) - 1), "==",
                 oracle.entropy(sub.sources)))
    rows += [(_incidence_sum(sub, mask), ">=", _g(sub, oracle, mask)) for mask in cuts]
    return LinearProgram([costs[e.id] for e in sub.edges], rows,
                         [caps[e.id] for e in sub.edges])


class _MultiReference:
    """The multi-client LP with its columns indexed by edge id and by (client, edge id).

    Z_e exists for each edge that some client uses, in instance edge order.
    A client's rate on an edge that no other client uses is Z_e's column; on
    a shared edge it has its own column, after every Z, client by client, and
    a coupling Z_e >= R_e^(t).
    """

    def __init__(self, instance, subs, oracle):
        self.instance, self.subs, self.oracle = instance, subs, oracle
        users = {}
        for t, sub in subs.items():
            for e in sub.edges:
                users.setdefault(e.id, []).append(t)
        self.z_index = {}
        for e in instance.edges:
            if e.id in users:
                self.z_index[e.id] = len(self.z_index)
        n = len(self.z_index)
        self.r_index = {}
        for t, sub in subs.items():
            for e in sub.edges:
                if len(users[e.id]) == 1:
                    self.r_index[(t, e.id)] = self.z_index[e.id]
                else:
                    self.r_index[(t, e.id)] = n
                    n += 1
        self.n = n

    def region_row(self, t, mask: int) -> tuple:
        sub = self.subs[t]
        full = (1 << len(sub.sources)) - 1
        row = {self.r_index[(t, sub.edges[j].id)]: c for j, c in _incidence_sum(sub, mask).items()}
        return row, "==" if mask == full else ">=", _g(sub, self.oracle, mask)

    def program(self, masks: dict, cuts=()) -> LinearProgram:
        caps = self.instance.capacities()
        upper = [caps[e.id] for e in self.instance.edges if e.id in self.z_index]
        upper += [None] * (self.n - len(upper))
        rows = []
        for t, sub in self.subs.items():
            for mask in masks[t]:
                row = self.region_row(t, mask)
                if row[2] <= 0 and all(c >= 0 for c in row[0].values()):
                    continue
                rows.append(row)
            rows.append(self.region_row(t, (1 << len(sub.sources)) - 1))
            rows += [({self.z_index[e.id]: 1, self.r_index[(t, e.id)]: -1}, ">=", 0)
                     for e in sub.edges if self.r_index[(t, e.id)] != self.z_index[e.id]]
        rows += [self.region_row(t, mask) for t, mask in cuts]
        objective = [e.cost for e in self.instance.edges if e.id in self.z_index]
        objective += [0] * (self.n - len(objective))
        return LinearProgram(objective, rows, upper)


def _posed(lp: LinearProgram) -> tuple:
    """What an LP poses: its rows, caps and objective."""
    return lp.rows, lp.upper, lp.objective


def _record(monkeypatch, module) -> list:
    """The LinearProgram of every SimplexSolver that ``module`` builds, in order."""
    built = []

    class Recording(SimplexSolver):
        def __init__(self, lp):
            built.append(lp)
            super().__init__(lp)

    monkeypatch.setattr(module, "SimplexSolver", Recording)
    return built


def test_single_client_lps_have_the_reference_rows(monkeypatch, f2):
    built = _record(monkeypatch, single_client)
    kinds = set()
    for instance, oracle in _cases(f2):
        caps, costs = instance.capacities(), instance.costs()
        for t in instance.clients:
            sub = client_subproblem(instance, oracle, t)
            m = len(sub.sources)
            # the seed pool, the equality and the cuts in the order they were added
            built.clear()
            opt = RegionOptimizer(sub, oracle, caps)
            seeds = seed_pool(m)
            try:
                opt.minimize([costs[e.id] for e in sub.edges])
                kinds.add("feasible")
            except Infeasible:
                kinds.add("infeasible")
            assert len(built) == 1
            want = _single_reference(sub, oracle, costs, caps, seeds, opt.pool[len(seeds):])
            assert _posed(built[0]) == _posed(want)
            if len(opt.pool) > len(seeds):
                kinds.add("cut")
            if any(_implied(sub, oracle, mask) for mask in seeds):
                kinds.add("implied seed")
            # brute force: every mask that x >= 0 does not imply
            built.clear()
            try:
                single_client.solve_single_client_bruteforce(sub, oracle, costs, caps)
            except Infeasible:
                pass
            masks = range(1, (1 << m) - 1)
            if any(_implied(sub, oracle, mask) for mask in masks):
                kinds.add("implied")
            assert _posed(built[0]) == _posed(_single_reference(sub, oracle, costs, caps, masks))
    assert kinds == {"feasible", "infeasible", "cut", "implied", "implied seed"}


def test_multi_client_lps_have_the_reference_rows(monkeypatch, f2):
    built = _record(monkeypatch, multi_client)
    separated = []
    most_violated = single_client.most_violated

    def recorded(region, rates):
        mask = most_violated(region, rates)
        if mask is not None:
            separated.append((region.sub.client, mask))
        return mask

    monkeypatch.setattr(single_client, "most_violated", recorded)
    kinds = set()
    for instance, oracle in _cases(f2):
        subs = {t: client_subproblem(instance, oracle, t) for t in instance.clients}
        reference = _MultiReference(instance, subs, oracle)
        built.clear()
        separated.clear()
        try:
            multi_client.solve_multi_exact(instance, oracle)
            kinds.add("feasible")
        except Infeasible:
            kinds.add("infeasible")
        # each client's singletons (none where its one source is the ground set), its
        # equality and couplings, then the cuts in the order added
        seeds = {t: [1 << i for i in range(len(sub.sources))] if len(sub.sources) > 1 else []
                 for t, sub in subs.items()}
        assert len(built) == 1
        assert _posed(built[0]) == _posed(reference.program(seeds, separated))
        if separated:
            kinds.add("cut")
        built.clear()
        try:
            multi_client.solve_multi_bruteforce(instance, oracle)
        except Infeasible:
            pass
        every = {t: range(1, (1 << len(sub.sources)) - 1) for t, sub in subs.items()}
        assert _posed(built[0]) == _posed(reference.program(every))
    assert kinds == {"feasible", "infeasible", "cut"}

