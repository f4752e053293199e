import json
import subprocess
import sys

import pytest

from helpers import FIXTURE_F2, chain_instance
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


def test_oracle_agrees_with_primary_paths(capsys):
    code, doc = run_cli(capsys, "oracle", str(FIXTURE_F2))
    assert code == 0
    assert doc["feasible"] is True
    assert doc["multi"]["cost"] == "11"
    assert doc["single_client"]["t2"]["cost"] == "7"
    code, feas_doc = run_cli(capsys, "feas", str(FIXTURE_F2))
    for t, cert in doc["feasibility"].items():
        assert (cert["status"] == "feasible") == (feas_doc["clients"][t]["status"] == "feasible")


def test_byte_identical_across_thread_counts(capsys):
    # The solver runs in one thread; the subgradient path must still repeat byte for byte.
    argv = ["solve", str(FIXTURE_F2), "--all-clients", "--method", "subgradient",
            "--iters", "150", "--gap", "0"]
    outputs = []
    for _ in range(2):
        code = main(argv)
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


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


def test_solve_subgradient_power_schedule(capsys):
    code, doc = run_cli(capsys, "solve", str(FIXTURE_F2), "--all-clients",
                        "--method", "subgradient", "--schedule", "s2:0.5",
                        "--iters", "5000")
    assert code == 0
    assert doc["converged"] is True


def test_bad_schedule_rejected(capsys):
    code, doc = run_cli(capsys, "solve", str(FIXTURE_F2), "--all-clients",
                        "--method", "subgradient", "--schedule", "s3:1")
    assert code == 1
    assert doc["error"]["code"] == "InvalidParameters"
