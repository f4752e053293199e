import json
import os
import random
import subprocess
import sys

import pytest

from helpers import (FIXTURE_F2, REPO, chain_instance, load_f2, random_instance_doc,
                     tabular_from_oracle)
from mmcast.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_validate(capsys):
    code, doc = run_cli(capsys, "validate", str(FIXTURE_F2))
    assert code == 0
    assert doc["entropy_total"] == "4"
    assert doc["polymatroid"]["ok"] and doc["reconstructability"]["ok"]
    assert doc["manifest"]["command"] == "validate"
    assert len(doc["manifest"]["input_sha256"]) == 64


def test_feas_fixture_exit_zero(capsys):
    code, doc = run_cli(capsys, "feas", str(FIXTURE_F2))
    assert code == 0
    assert doc["feasible"] is True
    assert doc["clients"]["t1"]["status"] == "feasible"
    assert doc["clients"]["t2"]["slack"] == "0"


def test_feas_infeasible_exit_two(tmp_path, capsys):
    doc = json.loads(FIXTURE_F2.read_text())
    for e in doc["edges"]:
        if e["id"] == "e7":
            e["capacity"] = "3"
    path = tmp_path / "tight.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "feas", str(path))
    assert code == 2
    assert out["feasible"] is False
    assert out["clients"]["t2"]["status"] == "infeasible"
    assert out["clients"]["t2"]["deficit"] == "1"


def test_solve_single_client(capsys):
    code, doc = run_cli(capsys, "solve", str(FIXTURE_F2), "--client", "t2")
    assert code == 0
    assert doc["cost"] == "7"
    assert doc["rates"]["e7"] == "4"


def test_solve_exact_cost_eleven(capsys):
    code, doc = run_cli(capsys, "solve", str(FIXTURE_F2), "--all-clients",
                        "--method", "exact")
    assert code == 0
    assert doc["cost"] == "11"
    assert doc["method"] == "exact"


def test_solve_subgradient_with_trace(tmp_path, capsys):
    csv = tmp_path / "trace.csv"
    code, doc = run_cli(capsys, "solve", str(FIXTURE_F2), "--all-clients",
                        "--method", "subgradient", "--iters", "200",
                        "--trace-csv", str(csv))
    assert code == 0
    assert doc["converged"] is True
    assert doc["trace"][0]["n"] == 1
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "n,dual,primal,gap"
    assert len(lines) == len(doc["trace"]) + 1


def test_solve_requires_target(capsys):
    code, doc = run_cli(capsys, "solve", str(FIXTURE_F2))
    assert code == 1
    assert doc["error"]["code"] == "InvalidParameters"


def test_infeasible_solve_exit_two(tmp_path, capsys):
    path = tmp_path / "chain.json"
    doc = chain_instance(cap1="0")
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "solve", str(path), "--client", "t")
    assert code == 2
    assert out["error"]["code"] == "Infeasible"
    assert out["error"]["context"]["certificates"][0]["witness_set"] == ["m1"]


def _short_sighted(tmp_path):
    """t1 reaches only a, which holds packet 0 of 2: it cannot see the full process."""
    doc = {
        "nodes": ["a", "b", "t1", "t2"],
        "edges": [{"id": f"e{i}", "tail": u, "head": v, "capacity": "2", "cost": "1"}
                  for i, (u, v) in enumerate((("a", "t1"), ("b", "t2"), ("a", "t2")), 1)],
        "clients": ["t1", "t2"],
        "source_model": {"kind": "linear", "q": 5, "N": 2,
                         "matrices": {"a": [[1, 0]], "b": [[0, 1]]}},
    }
    path = tmp_path / "short.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_every_rate_route_checks_reconstructability(tmp_path, capsys):
    path = _short_sighted(tmp_path)
    for argv in (["feas", path], ["solve", path, "--client", "t1"],
                 ["solve", path, "--client", "t2"], ["solve", path, "--all-clients"],
                 ["oracle", path]):
        code, out = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out["error"]["code"] == "ReconstructabilityViolated", argv
        assert "['t1']" in out["error"]["message"]


def test_solve_unknown_client_exit_one(tmp_path, capsys):
    for path in (str(FIXTURE_F2), _short_sighted(tmp_path)):
        code, out = run_cli(capsys, "solve", path, "--client", "t9")
        assert code == 1
        assert out["error"] == {"code": "InvalidInstance",
                                "message": "'t9' is not a client of this instance",
                                "context": {}}


def test_malformed_input_exit_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out = run_cli(capsys, "feas", str(path))
    assert code == 1
    assert "code" in out["error"] and "message" in out["error"]


def test_validation_error_exit_one(tmp_path, capsys):
    doc = json.loads(FIXTURE_F2.read_text())
    doc["edges"][0]["capacity"] = "-1"
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "feas", str(path))
    assert code == 1
    assert out["error"]["code"] == "NegativeCapacity"


@pytest.mark.parametrize("literal", [float("inf"), float("nan")])
def test_non_finite_numbers_rejected(tmp_path, capsys, literal):
    # json accepts the Infinity and NaN literals; they are not rationals
    doc = json.loads(FIXTURE_F2.read_text())
    doc["edges"][0]["capacity"] = literal
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert "Infinity" in path.read_text() or "NaN" in path.read_text()
    code, out = run_cli(capsys, "feas", str(path))
    assert code == 1
    assert out["error"]["code"] == "InvalidInstance"
    rates = tmp_path / "rates.json"
    rates.write_text(json.dumps({"e1": "0", "e2": literal}))
    code, out = run_cli(capsys, "code", str(FIXTURE_F2), "--rates", str(rates))
    assert code == 1
    assert out["error"]["code"] == "InvalidInstance"


PMF_DOC = {
    "nodes": ["x", "y", "t"],
    "edges": [{"id": "a", "tail": "x", "head": "y", "capacity": "2", "cost": "1"},
              {"id": "b", "tail": "y", "head": "t", "capacity": "3", "cost": "1"}],
    "clients": ["t"],
    "source_model": {"kind": "pmf", "order": ["x", "y"], "alphabets": {"x": 2, "y": 2},
                     "table": [["1/4", "1/4"], ["1/4", "1/4"]]},
}


TWO_SOURCE_EDGES = [{"id": "e1", "tail": "m1", "head": "t", "capacity": "2", "cost": "1"},
                    {"id": "e2", "tail": "m2", "head": "t", "capacity": "2", "cost": "1"}]


MALFORMED = {
    "matrices list": lambda doc: doc["source_model"].update(matrices=[[[1, 0, 0, 0]]]),
    "matrices number": lambda doc: doc["source_model"].update(matrices=5),
    "entropies list": lambda doc: doc.update(
        source_model={"kind": "tabular", "entropies": [["m1", 2]]}),
    "tabular subset named twice": lambda doc: doc.update(
        nodes=["m1", "m2", "t"], edges=TWO_SOURCE_EDGES,
        clients=["t"], source_model={"kind": "tabular", "entropies": {
            "m1": 1, "m2": 1, "m1,m2": 2, "m2,m1": 5}}),
    "tabular singleton named twice": lambda doc: doc.update(
        nodes=["m1", "m2", "t"], edges=TWO_SOURCE_EDGES,
        clients=["t"], source_model={"kind": "tabular", "entropies": {
            "m1": 1, "m2": 1, "m1,m2": 2, "m1,m1": 7}}),
    "pmf order repeats a node": lambda doc: doc.update(PMF_DOC, source_model=dict(
        PMF_DOC["source_model"], order=["x", "x", "y"],
        table=[[["1/8", "1/8"], ["1/8", "1/8"]], [["1/8", "1/8"], ["1/8", "1/8"]]])),
    "alphabets list": lambda doc: doc.update(PMF_DOC, source_model=dict(
        PMF_DOC["source_model"], alphabets=[2, 2])),
    "pmf alphabet past the table": lambda doc: doc.update(PMF_DOC, source_model=dict(
        PMF_DOC["source_model"], alphabets={"x": 3, "y": 2})),
    "pmf table number": lambda doc: doc.update(PMF_DOC, source_model=dict(
        PMF_DOC["source_model"], table="1")),
    "pmf leaf list": lambda doc: doc.update(PMF_DOC, source_model=dict(
        PMF_DOC["source_model"], table=[[["1/4"], "1/4"], ["1/4", "1/4"]])),
    "pmf extra zero row": lambda doc: doc.update(PMF_DOC, source_model=dict(
        PMF_DOC["source_model"], table=[["1/4", "1/4"], ["1/4", "1/4"], ["0", "0"]])),
    "pmf extra zero entry": lambda doc: doc.update(PMF_DOC, source_model=dict(
        PMF_DOC["source_model"], table=[["1/4", "1/4", "0"], ["1/4", "1/4"]])),
    "edges number": lambda doc: doc.update(edges=7),
    "nodes object": lambda doc: doc.update(nodes={v: i for i, v in enumerate(doc["nodes"])}),
    "clients object": lambda doc: doc.update(clients=dict.fromkeys(doc["clients"], 1)),
}


@pytest.mark.parametrize("name", list(MALFORMED))
def test_malformed_document_shapes_exit_one(tmp_path, capsys, name):
    # a wrongly typed container is an InvalidInstance error object, never a traceback
    doc = json.loads(FIXTURE_F2.read_text())
    MALFORMED[name](doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "feas", str(path))
    assert code == 1
    assert out["error"]["code"] == "InvalidInstance", name


@pytest.mark.parametrize("field, value", [
    ("q", 5.9), ("q", float("inf")), ("q", True), ("N", 4.5), ("N", "4/3"),
    ("entry", 1.5), ("entry", float("nan")), ("rows", 5), ("alphabet", 2.5),
    ("alphabet", float("inf")),
])
def test_integer_fields_rejected(tmp_path, capsys, field, value):
    # q, N, matrix entries and pmf alphabet sizes are integers: never truncated
    if field == "alphabet":
        doc = json.loads(json.dumps(PMF_DOC))
        doc["source_model"]["alphabets"]["x"] = value
    else:
        doc = json.loads(FIXTURE_F2.read_text())
        model = doc["source_model"]
        if field == "entry":
            model["matrices"]["m1"][0][0] = value
        elif field == "rows":
            model["matrices"]["m1"] = value
        else:
            model[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "feas", str(path))
    assert code == 1
    assert out["error"]["code"] == "InvalidInstance"


def test_validate_ten_sources(tmp_path, capsys):
    # the elemental inequalities: 10 + C(10, 2) 2^8 checks, not 4^10 subset pairs
    path = tmp_path / "ten.json"
    path.write_text(json.dumps(random_instance_doc(random.Random(10), n_sources=10,
                                                   n_clients=2, max_capacity=8)))
    code, doc = run_cli(capsys, "validate", str(path))
    assert code == 0
    assert doc["polymatroid"]["ok"] and doc["polymatroid"]["exhaustive"]
    assert doc["polymatroid"]["pairs_checked"] == 11530


@pytest.mark.parametrize("q, code", [
    (2 ** 61 - 1, 0),       # prime: decided at once, not by trial division
    (2 ** 61 + 1, 1),       # divisible by 3
    (2 ** 64 + 13, 1),      # prime, but above the 2^64 modulus limit
])
def test_large_field_modulus(tmp_path, q, code):
    doc = json.loads(FIXTURE_F2.read_text())
    doc["source_model"]["q"] = q
    path = tmp_path / "big-q.json"
    path.write_text(json.dumps(doc))
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run([sys.executable, "-m", "mmcast.cli", "validate", str(path)],
                          capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == code, proc.stderr


def test_integral_spellings_of_integer_fields_accepted(tmp_path, capsys):
    _, expected = run_cli(capsys, "feas", str(FIXTURE_F2))
    doc = json.loads(FIXTURE_F2.read_text())
    doc["source_model"].update(q=5.0, N="4")
    doc["source_model"]["matrices"]["m1"][0][0] = "1"
    path = tmp_path / "f2.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "feas", str(path))
    assert code == 0
    assert out["clients"] == expected["clients"]


@pytest.fixture()
def rates_file(tmp_path):
    path = tmp_path / "rates.json"
    path.write_text(json.dumps({
        "e1": "0", "e2": "1", "e3": "2", "e4": "0", "e5": "0", "e6": "4", "e7": "4"}))
    return path


def test_code_fixture(rates_file, capsys):
    code, doc = run_cli(capsys, "code", str(FIXTURE_F2), "--rates", str(rates_file),
                        "--seed", "0")
    assert code == 0
    assert doc["beta"] == 1
    assert doc["attempts"] <= 64
    assert doc["clients"]["t1"]["rank"] == 4
    assert doc["clients"]["t2"]["rank"] == 4
    assert len(doc["channels"]) == 17
    assert doc["edge_symbols"]["e6"] == 4


def test_code_q2_rejected(rates_file, capsys):
    code, doc = run_cli(capsys, "code", str(FIXTURE_F2), "--rates", str(rates_file),
                        "--q", "2")
    assert code == 1
    assert doc["error"]["code"] == "FieldTooSmall"


def test_code_negative_seed_rejected(rates_file, capsys):
    code, doc = run_cli(capsys, "code", str(FIXTURE_F2), "--rates", str(rates_file),
                        "--seed", "-1")
    assert code == 1
    assert doc["error"]["code"] == "InvalidParameters"


def test_code_that_fails_every_attempt_exits_two_with_its_ranks(rates_file, capsys,
                                                                monkeypatch):
    # F2's first seed-0 attempt fails, so one attempt raises VerificationFailedAllAttempts
    from mmcast import netcode
    assign = netcode.assign_coefficients
    monkeypatch.setattr(netcode, "assign_coefficients",
                        lambda net, seed: assign(net, seed=seed, max_attempts=1))
    code, doc = run_cli(capsys, "code", str(FIXTURE_F2), "--rates", str(rates_file),
                        "--seed", "0")
    assert code == 2
    assert doc["error"]["code"] == "VerificationFailedAllAttempts"
    context = doc["error"]["context"]
    assert context["attempts"] == 1
    assert set(context["best_ranks"]) == {"t1", "t2"}
    assert min(context["best_ranks"].values()) < 4


def test_code_accepts_solver_output(tmp_path, capsys):
    code, solved = run_cli(capsys, "solve", str(FIXTURE_F2), "--all-clients",
                           "--method", "exact")
    assert code == 0
    rates = tmp_path / "z.json"
    rates.write_text(json.dumps({"Z": solved["Z"]}))
    code, doc = run_cli(capsys, "code", str(FIXTURE_F2), "--rates", str(rates),
                        "--seed", "1")
    assert code == 0
    assert all(c["rank"] == 4 for c in doc["clients"].values())


def test_simulate(rates_file, capsys):
    code, doc = run_cli(capsys, "simulate", str(FIXTURE_F2), "--rates", str(rates_file),
                        "--seed", "0", "--w", "1,2,3,4")
    assert code == 0
    for rep in doc["clients"].values():
        assert rep["exact"] is True
        assert rep["decoded"] == [1, 2, 3, 4]
    assert doc["edge_symbols"]["e7"] == 4


@pytest.mark.parametrize("w", ["99,0,0,0", "5,0,0,0", "-1,0,0,0", "1,2,3"])
def test_simulate_rejects_non_field_data(rates_file, capsys, w):
    # F2 codes over F_5: the data vector is 4 entries in [0, 5)
    code, doc = run_cli(capsys, "simulate", str(FIXTURE_F2), "--rates", str(rates_file),
                        "--seed", "0", f"--w={w}")
    assert code == 1
    assert doc["error"]["code"] == "InvalidParameters"


def test_oracle_agrees_with_primary_paths(capsys):
    code, doc = run_cli(capsys, "oracle", str(FIXTURE_F2))
    assert code == 0
    assert doc["feasible"] is True
    assert doc["multi"]["cost"] == "11"
    assert doc["single_client"]["t2"]["cost"] == "7"
    code, feas_doc = run_cli(capsys, "feas", str(FIXTURE_F2))
    for t, cert in doc["feasibility"].items():
        assert (cert["status"] == "feasible") == (feas_doc["clients"][t]["status"] == "feasible")


# Each F2 command's stdout, generated once and checked in: a change to the
# solvers that moves a pivot choice or a printed value shows up here even
# when both outputs are valid optima.  Regenerate a file by running the
# command from the repository root, e.g.
#   python -m mmcast feas fixtures/fixture-F2.json > tests/data/f2_cli/feas.json
HALF_RATES = "tests/data/f2_cli/rates-half.json"   # relative: the manifest echoes it
F2_PINNED = {
    "feas": ["feas"],
    "solve-exact": ["solve", "--all-clients", "--method", "exact"],
    "solve-subgradient": ["solve", "--all-clients", "--method", "subgradient",
                          "--iters", "150", "--gap", "0"],
    "solve-t1": ["solve", "--client", "t1"],
    "oracle": ["oracle"],
    # beta = 2 from the half rates; q = 3 retries (4 attempts) and the 64-bit
    # prime gives coding-vector lanes wider than 64 bits
    "code": ["code", "--rates", HALF_RATES, "--seed", "3"],
    "code-q3": ["code", "--rates", HALF_RATES, "--seed", "3", "--q", "3"],
    "code-q64": ["code", "--rates", HALF_RATES, "--seed", "3",
                 "--q", "18446744073709551557"],
    "simulate": ["simulate", "--rates", HALF_RATES, "--seed", "3",
                 "--w", "1,2,3,4,0,1,2,3"],
}


@pytest.mark.parametrize("name", sorted(F2_PINNED))
def test_f2_output_pinned(name, capsys, monkeypatch):
    monkeypatch.chdir(REPO)         # the manifest echoes the input path as given
    command, *options = F2_PINNED[name]
    assert main([command, "fixtures/fixture-F2.json", *options]) == 0
    expected = (REPO / "tests" / "data" / "f2_cli" / f"{name}.json").read_text()
    assert capsys.readouterr().out == expected


def test_repeat_runs_byte_identical(capsys):
    outs = []
    for _ in range(2):
        code = main(["feas", str(FIXTURE_F2)])
        assert code == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "mmcast.cli", "validate", str(FIXTURE_F2)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["reconstructability"]["ok"]


def test_import_does_not_load_numpy():
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", "import mmcast, sys; assert 'numpy' not in sys.modules"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_solve_subgradient_power_schedule(capsys):
    code, doc = run_cli(capsys, "solve", str(FIXTURE_F2), "--all-clients",
                        "--method", "subgradient", "--schedule", "s2:0.5",
                        "--iters", "5000")
    assert code == 0
    assert doc["converged"] is True


@pytest.mark.parametrize("gap", ["abc", "1/0", "-1", "-0.01", "1e-13"])
def test_bad_gap_rejected(capsys, gap):
    code, doc = run_cli(capsys, "solve", str(FIXTURE_F2), "--all-clients",
                        "--method", "subgradient", "--iters", "300", "--gap", gap)
    assert code == 1
    assert doc["error"]["code"] == "InvalidParameters"


def test_bad_schedule_rejected(capsys):
    code, doc = run_cli(capsys, "solve", str(FIXTURE_F2), "--all-clients",
                        "--method", "subgradient", "--schedule", "s3:1")
    assert code == 1
    assert doc["error"]["code"] == "InvalidParameters"


def test_overflowing_schedule_rejected(capsys):
    # its first step 1e300/1e-300 is no finite float: refused, where a traceback was printed
    code, doc = run_cli(capsys, "solve", str(FIXTURE_F2), "--all-clients", "--method",
                        "subgradient", "--schedule", "s1:1e300,0,1e-300", "--iters", "5")
    assert code == 1
    assert doc["error"]["code"] == "InvalidParameters"


def test_manifest_records_the_gap_the_run_uses(capsys):
    code, doc = run_cli(capsys, "solve", str(FIXTURE_F2), "--all-clients", "--method",
                        "subgradient", "--gap", "1/1000000000001", "--iters", "3")
    assert code == 0
    assert doc["manifest"]["parameters"]["gap"] == "1/1000000000000"


def test_every_subcommand_output_has_one_manifest(capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    runs = [["validate"], ["oracle"], *F2_PINNED.values()]
    for command, *options in runs:
        assert main([command, "fixtures/fixture-F2.json", *options]) == 0
        out = capsys.readouterr().out
        assert out.count('"manifest"') == 1, command
        manifest = json.loads(out)["manifest"]
        assert (manifest["command"], manifest["input"]) == (command, "fixtures/fixture-F2.json")


def test_a_usage_error_wins_over_an_unreadable_document(tmp_path, capsys):
    # subgradient options on another route are refused before the document is read;
    # an unparsable schedule is read after it
    missing = str(tmp_path / "missing.json")
    code, doc = run_cli(capsys, "solve", missing, "--client", "t1", "--schedule", "s1")
    assert code == 1
    assert doc["error"]["code"] == "InvalidParameters"
    code, doc = run_cli(capsys, "solve", missing, "--all-clients", "--method", "subgradient",
                        "--schedule", "s3:1")
    assert code == 1
    assert doc["error"]["code"] == "FileNotFoundError"


HALF_RATES_PATH = str(REPO / HALF_RATES)


@pytest.mark.parametrize("argv", [
    [],
    ["solve", str(FIXTURE_F2), "--all-clients", "--method", "foo"],
    ["solve", str(FIXTURE_F2), "--client", "t1", "--all-clients"],
    ["solve", str(FIXTURE_F2), "--all-clients", "--iters", "x"],
    ["solve", str(FIXTURE_F2), "--all-clients", "--method", "subgradient", "--schedule", "s1:x"],
    ["code", str(FIXTURE_F2)],
    ["code", str(FIXTURE_F2), "--rates", HALF_RATES_PATH, "--q", "4"],
    ["simulate", str(FIXTURE_F2), "--rates", HALF_RATES_PATH, "--w", "1,a"],
], ids=["no command", "unknown method", "client and all clients", "iters not an int",
        "schedule not a number", "code without rates", "q not prime", "w not a number"])
def test_malformed_parameters_exit_one(capsys, argv):
    code, doc = run_cli(capsys, *argv)
    assert code == 1
    assert doc["error"]["code"] == "InvalidParameters"
    assert capsys.readouterr().err == ""


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    assert "--all-clients" in capsys.readouterr().out


def test_q_applies_to_the_linear_model_only(tmp_path, capsys):
    doc = json.loads(FIXTURE_F2.read_text())
    _, oracle, _ = load_f2()
    table = tabular_from_oracle(oracle)
    doc["source_model"] = {"kind": "tabular", "unit": "packets",
                           "entropies": {",".join(sorted(s)): str(h)
                                         for s, h in table.entropies.items()}}
    path = tmp_path / "tabular.json"
    path.write_text(json.dumps(doc))
    assert run_cli(capsys, "validate", str(path))[0] == 0
    code, out = run_cli(capsys, "code", str(path), "--rates", HALF_RATES_PATH, "--q", "5")
    assert code == 1
    assert out["error"]["code"] == "InvalidParameters"
    assert "linear" in out["error"]["message"]


def test_subgradient_cap_is_reported(capsys):
    code, doc = run_cli(capsys, "solve", str(FIXTURE_F2), "--all-clients",
                        "--method", "subgradient", "--iters", "1", "--gap", "0")
    assert code == 0
    assert doc["warning"] == "max_iters"
    assert doc["iterations"] == 1 and doc["converged"] is False


@pytest.mark.parametrize("options", [
    ["--all-clients", "--method", "exact", "--iters", "0", "--schedule", "s9", "--trace-csv"],
    ["--client", "t1", "--method", "subgradient", "--iters", "0"],
    ["--all-clients", "--gap", "0.5"],          # --method defaults to exact
    ["--client", "t1", "--schedule", "s1:1,1,1", "--trace-csv"],
], ids=["exact", "client", "gap with the default method", "schedule with client"])
def test_subgradient_options_are_refused_on_other_routes(tmp_path, capsys, options):
    csv = tmp_path / "x.csv"
    if options[-1] == "--trace-csv":
        options = [*options, str(csv)]
    code, doc = run_cli(capsys, "solve", str(FIXTURE_F2), *options)
    assert code == 1
    assert doc["error"]["code"] == "InvalidParameters"
    assert doc["error"]["message"].endswith(": only for --all-clients --method subgradient")
    assert not csv.exists()
