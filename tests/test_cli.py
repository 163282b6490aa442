import json
import math
import subprocess
import sys

import pytest

from fockjoin import __version__
from fockjoin.cli import canonical_json, cli_dispatch
from fockjoin.fock import state_from_dict, state_to_dict
from fockjoin.schemes import two_qubit_input, joined_ququart


@pytest.fixture()
def two_qubit_file(tmp_path):
    r = 1 / math.sqrt(2)
    state = two_qubit_input([r, 0, 0, r])
    path = tmp_path / "input.json"
    path.write_text(json.dumps(state_to_dict(state)))
    return path


@pytest.fixture()
def ququart_file(tmp_path):
    state = joined_ququart([0.6, 0, 0.8, 0])
    path = tmp_path / "ququart.json"
    path.write_text(json.dumps(state_to_dict(state)))
    return path


def test_canonical_json_is_sorted_and_17_digits():
    text = canonical_json({"b": 1 / 3, "a": 1, "c": [True, None, "x"]})
    assert text == '{"a":1,"b":0.33333333333333331,"c":[true,null,"x"]}'
    assert json.loads(text)["b"] == 1 / 3


def test_join_deterministic_report(two_qubit_file, tmp_path):
    report_path = tmp_path / "report.json"
    code = cli_dispatch(
        ["join", "--input", str(two_qubit_file), "--variant", "deterministic", "--report", str(report_path)]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["tool"] == "fockjoin"
    assert report["version"] == __version__
    assert report["success_probability"] == 1
    assert report["fidelity"] >= 1 - 1e-10
    assert len(report["input_digest"]) == 64
    state_from_dict(report["output"])  # payload parses back into a state


def test_reports_are_byte_identical(two_qubit_file, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code = cli_dispatch(
            ["join", "--input", str(two_qubit_file), "--branch", "sample", "--seed", "9", "--report", str(path)]
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_join_projective_branch_flags(two_qubit_file, tmp_path):
    report_path = tmp_path / "minus.json"
    code = cli_dispatch(
        [
            "join",
            "--input",
            str(two_qubit_file),
            "--branch",
            "minus",
            "--no-feed-forward",
            "--report",
            str(report_path),
        ]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["branch"] == "minus"
    assert not report["feed_forward_applied"]
    assert report["success_probability"] == pytest.approx(0.5)


def test_split_verb(ququart_file, tmp_path):
    report_path = tmp_path / "split.json"
    code = cli_dispatch(["split", "--input", str(ququart_file), "--report", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["success_probability"] == pytest.approx(0.5)
    assert report["fidelity"] >= 1 - 1e-10


def test_usage_error_exits_one(capsys):
    assert cli_dispatch(["join"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_verb_exits_one():
    assert cli_dispatch(["frobnicate"]) == 1


def test_help_exits_zero(capsys):
    assert cli_dispatch(["--help"]) == 0
    assert "join" in capsys.readouterr().out


def test_encoding_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"modes": 4, "terms": [{"occ": [1, 1, 0, 0], "re": 1.0, "im": 0.0}]}))
    assert cli_dispatch(["join", "--input", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("literal", ["NaN", "Infinity"])
def test_non_finite_amplitude_exits_two(tmp_path, capsys, literal):
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"modes": 4, "terms": [{"occ": [1, 0, 1, 0], "re": 1.0, "im": 0.0},'
        ' {"occ": [0, 1, 0, 1], "re": %s, "im": 0.0}]}' % literal
    )
    assert cli_dispatch(["join", "--input", str(bad), "--variant", "deterministic"]) == 2
    assert "occupation (0, 1, 0, 1) is not finite" in capsys.readouterr().err


def test_malformed_json_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli_dispatch(["join", "--input", str(bad)]) == 2


def test_nogo_scan_verb(tmp_path):
    out = tmp_path / "cert.json"
    code = cli_dispatch(["nogo-scan", "--modes", "4", "--trials", "300", "--seed", "7", "--out", str(out)])
    assert code == 0
    cert = json.loads(out.read_text())
    assert cert["verdict"] == "rank-deficient"
    assert cert["max_sigma_min"] < 1e-8
    assert cert["seed"] == 7


def test_tpes_verb(tmp_path):
    out = tmp_path / "tpes.json"
    code = cli_dispatch(["tpes", "--pol", "Phi-", "--path", "phi-", "--report", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["joining_fidelity"] >= 1 - 1e-10
    assert state_from_dict(report["output"]).modes == 12


def test_teleport_join_verb(tmp_path):
    out = tmp_path / "tp.json"
    code = cli_dispatch(
        [
            "teleport-join",
            "--alpha", "0.6", "--beta", "0.8j", "--gamma", "1", "--delta", "0",
            "--outcome", "5",
            "--report", str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["branch"] == "Phi-/phi-"
    assert report["fidelity"] >= 1 - 1e-10
    assert report["success_probability"] == pytest.approx(1 / 16)


def test_run_verb_on_interference_script(tmp_path):
    circuit = tmp_path / "hom.pc"
    circuit.write_text("modes 2\nbs 0 1 0.7853981633974483 0\n")
    state = tmp_path / "fock11.json"
    state.write_text(json.dumps({"modes": 2, "terms": [{"occ": [1, 1], "re": 1.0, "im": 0.0}]}))
    out = tmp_path / "out.json"
    code = cli_dispatch(["run", "--circuit", str(circuit), "--input", str(state), "--report", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    final = state_from_dict(report["output"])
    assert abs(final.amplitude((0, 2)) - 1 / math.sqrt(2)) < 1e-12
    assert report["probability"] == 1


def test_run_verb_reports_parse_diagnostics(tmp_path, capsys):
    circuit = tmp_path / "bad.pc"
    circuit.write_text("modes 2\nbs 0 9 0 0\n")
    state = tmp_path / "s.json"
    state.write_text(json.dumps({"modes": 2, "terms": [{"occ": [1, 0], "re": 1.0, "im": 0.0}]}))
    assert cli_dispatch(["run", "--circuit", str(circuit), "--input", str(state)]) == 2
    assert "out of range" in capsys.readouterr().err


def test_cnot_demo_verb(tmp_path):
    out = tmp_path / "demo.json"
    assert cli_dispatch(["cnot-demo", "--report", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["demonstrates_failure"] is True
    assert len(report["truth_table"]) == 4
    for row in report["truth_table"]:
        assert row["success_probability"] == pytest.approx(1 / 9, abs=1e-12)


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "fockjoin.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert __version__ in result.stdout


def test_verb_level_help_exits_zero(capsys):
    assert cli_dispatch(["join", "--help"]) == 0
    assert "--variant" in capsys.readouterr().out
