import contextlib
import hashlib
import io
import itertools
import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from fockjoin import __version__, cli, optics
from fockjoin.cli import canonical_json, cli_dispatch
from fockjoin.fock import FockState, state_from_dict, state_to_dict
from fockjoin.optics import apply_unitary, beamsplitter, hadamard_pair
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


@pytest.mark.parametrize("part", ["re", "im"])
def test_a_boolean_amplitude_part_exits_two(tmp_path, capsys, part):
    state, report = tmp_path / "bool.json", tmp_path / "report.json"
    term = {"occ": [1, 0, 1, 0], "re": 1.0, "im": 0.0} | {part: True}
    state.write_text(json.dumps({"modes": 4, "terms": [term]}))
    assert cli_dispatch(["join", "--input", str(state), "--report", str(report)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {part} part of occupation (1, 0, 1, 0) is a boolean (True), not a number\n"
    assert not report.exists()


def test_malformed_json_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli_dispatch(["join", "--input", str(bad)]) == 2


def test_overflowing_amplitude_exits_two(tmp_path, capsys):
    bad = tmp_path / "big.json"
    bad.write_text('{"modes": 4, "terms": [{"occ": [1, 0, 1, 0], "re": 1e200, "im": 0.0}]}')
    assert cli_dispatch(["join", "--input", str(bad)]) == 2
    assert "amplitude (1e+200+0j) of occupation (1, 0, 1, 0) is too large to square" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["join", "run"])
def test_amplitude_whose_magnitude_overflows_exits_two(tmp_path, capsys, verb):
    # abs() of this finite amplitude raises OverflowError; the input check must name it instead.
    state, circuit, report = tmp_path / "big.json", tmp_path / "c.pc", tmp_path / "report.json"
    state.write_text('{"modes": 4, "terms": [{"occ": [1, 0, 1, 0], "re": 1.5e308, "im": 1.5e308}]}')
    circuit.write_text("modes 4\nbs 0 1 0.3 0\n")
    argv = {"join": ["join"], "run": ["run", "--circuit", str(circuit)]}[verb]
    assert cli_dispatch([*argv, "--input", str(state), "--report", str(report)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: amplitude (1.5e+308+1.5e+308j) of occupation (1, 0, 1, 0) is too large to square\n"
    assert captured.out == ""
    assert not report.exists()


@pytest.mark.parametrize("verb", ["join", "run"])
def test_a_repeated_occupation_exits_two_naming_it(tmp_path, capsys, verb):
    # make_state would sum the two entries: 0.6 - 0.6 cancels, and the file would load as |0101>.
    state, circuit, report = tmp_path / "twice.json", tmp_path / "c.pc", tmp_path / "report.json"
    state.write_text(
        '{"modes": 4, "terms": [{"occ": [1, 0, 1, 0], "re": 0.6, "im": 0.0},'
        ' {"occ": [1, 0, 1, 0], "re": -0.6, "im": 0.0}, {"occ": [0, 1, 0, 1], "re": 1.0, "im": 0.0}]}'
    )
    circuit.write_text("modes 4\nbs 0 1 0.3 0\n")
    argv = {"join": ["join"], "run": ["run", "--circuit", str(circuit)]}[verb]
    assert cli_dispatch([*argv, "--input", str(state), "--report", str(report)]) == 2
    assert capsys.readouterr() == ("", "error: occupation (1, 0, 1, 0) is listed twice\n")
    assert not report.exists()


def test_deeply_nested_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 100_000)
    assert cli_dispatch(["join", "--input", str(bad)]) == 2
    assert f"malformed state: {bad} is nested too deeply" in capsys.readouterr().err


def test_nogo_scan_verb(tmp_path):
    out = tmp_path / "cert.json"
    code = cli_dispatch(["nogo-scan", "--modes", "4", "--trials", "300", "--seed", "7", "--out", str(out)])
    assert code == 0
    cert = json.loads(out.read_text())
    assert cert["verdict"] == "rank-deficient"
    assert cert["max_sigma_min"] < 1e-8
    assert cert["seed"] == 7


@pytest.mark.parametrize(
    "extra",
    [["--trials", "0"], ["--trials", "-3"], ["--restarts", "-1"], ["--restarts", "1", "--iterations", "0"]],
)
def test_nogo_scan_rejects_empty_budgets(tmp_path, capsys, extra):
    out = tmp_path / "cert.json"
    argv = ["nogo-scan", "--trials", "5", *extra, "--out", str(out)]
    assert cli_dispatch(argv) == 2
    assert "must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--trials", "20000", "--restarts", "1", "--iterations", "0"], "iterations must be at least 1, got 0"),
        (["--trials", "20000", "--restarts", "-1"], "restarts must be at least 1, got -1"),
        (["--trials", "0", "--restarts", "1", "--iterations", "0"], "trials must be at least 1, got 0"),
        (["--modes", "3", "--restarts", "1"], "need at least four modes"),
    ],
)
def test_nogo_scan_checks_every_budget_before_the_scan(tmp_path, capsys, monkeypatch, extra, message):
    def no_scan(*args, **kwargs):
        raise AssertionError("rank_scan ran before a bad budget was reported")

    monkeypatch.setattr(cli, "rank_scan", no_scan)
    out = tmp_path / "cert.json"
    assert cli_dispatch(["nogo-scan", *extra, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_nogo_scan_reads_iterations_only_with_a_search(tmp_path):
    out = tmp_path / "cert.json"
    assert cli_dispatch(["nogo-scan", "--trials", "2", "--restarts", "0", "--iterations", "0", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["optimizer_iterations"] == 0


def test_nogo_scan_digest_covers_iterations(tmp_path):
    digests = []
    for iterations in ("3", "4"):
        out = tmp_path / f"cert{iterations}.json"
        argv = ["nogo-scan", "--trials", "2", "--restarts", "1", "--iterations", iterations, "--out", str(out)]
        assert cli_dispatch(argv) == 0
        digests.append(json.loads(out.read_text())["input_digest"])
    assert digests[0] != digests[1]
    # Without restarts the digest text, and so the report, is as before.
    out = tmp_path / "plain.json"
    assert cli_dispatch(["nogo-scan", "--trials", "2", "--iterations", "3", "--out", str(out)]) == 0
    expected = hashlib.sha256(b"m=4 trials=2 restarts=0").hexdigest()
    assert json.loads(out.read_text())["input_digest"] == expected



# nogo-scan reports with search restarts, pinned while the search still ran on
# scipy.optimize.minimize; the in-repo Nelder-Mead must keep their bytes. In
# each case the search, not the scan, sets max_sigma_min (restart 1 at m = 5).
# The values are LAPACK rounding noise near 1e-16, so their bits belong to the
# numpy build the pins were made with: the scan and the search both run
# numpy's LAPACK.
_PINNED_SEARCH_BUILD = np.__version__.startswith("2.4.")


@pytest.mark.skipif(not _PINNED_SEARCH_BUILD, reason="pinned with numpy 2.4 wheels")
@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["--modes", "4", "--trials", "200", "--restarts", "2", "--iterations", "100", "--seed", "7"],
            "205f299417c25d2288ab8fb907a972a886204c93d25fcc626205cf6ddf452f0d",
        ),
        (
            ["--modes", "5", "--trials", "20", "--restarts", "2", "--iterations", "100", "--seed", "21"],
            "486ad2c05cc38f5a04b14aac1d9bffee5cda852e16d564d0092a8029739b2f05",
        ),
        (
            ["--modes", "6", "--trials", "100", "--restarts", "2", "--iterations", "100", "--seed", "12"],
            "d60f6119cdaa91c2874afe723b2e2162145b01aed015b4d2f90dada06f7609bf",
        ),
    ],
    ids=["m4", "m5", "m6"],
)
def test_nogo_scan_search_report_bytes_are_pinned(tmp_path, argv, expected):
    out = tmp_path / "cert.json"
    assert cli_dispatch(["nogo-scan", *argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected

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


def test_cached_parser_reports_match_a_fresh_parser(two_qubit_file, tmp_path, monkeypatch):
    # One parser serves every call: no flag, default or exclusive-group choice may carry over.
    circuit, state, cert = tmp_path / "hom.pc", tmp_path / "fock11.json", tmp_path / "cert.json"
    circuit.write_text("modes 2\nbs 0 1 0.7853981633974483 0\n")
    state.write_text(json.dumps({"modes": 2, "terms": [{"occ": [1, 1], "re": 1.0, "im": 0.0}]}))
    amplitudes = ["--alpha", "0.6", "--beta", "0.8j", "--gamma", "1", "--delta", "0"]
    calls = [
        ["teleport-join", *amplitudes, "--outcome", "3"],
        ["teleport-join", *amplitudes, "--sample", "--seed", "5"],
        ["teleport-join", *amplitudes],
        ["join", "--input", str(two_qubit_file), "--branch", "sample", "--seed", "9", "--no-feed-forward"],
        ["join", "--input", str(two_qubit_file)],
        ["join", "--input", str(two_qubit_file), "--branch", "minus"],
        ["nogo-scan", "--trials", "50", "--seed", "7", "--out", str(cert)],
        ["run", "--circuit", str(circuit), "--input", str(state)],
    ]

    def reports():
        """(stdout, --out file bytes or None) of each call, in order."""
        out = []
        for argv in calls:
            cert.unlink(missing_ok=True)
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                assert cli_dispatch(argv) == 0, argv
            out.append((stdout.getvalue(), cert.read_bytes() if cert.exists() else None))
        return out

    cached = reports()
    assert cli._build_parser() is cli._build_parser()
    assert cli._build_parser.cache_info().misses == 1
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = reports()
    assert cached == fresh
    assert [text == "" for text, _ in fresh] == [False] * 6 + [True, False]
    assert [json.loads(text or data)["seed"] for text, data in fresh] == [None, 5, 0, 9, None, None, 7, None]
    assert [json.loads(text)["branch"] for text, _ in fresh[4:6]] == ["plus", "minus"]
    assert json.loads(fresh[5][0])["feed_forward_applied"]


def test_cached_parser_keeps_exit_codes_and_stdout(two_qubit_file, capsys):
    assert cli_dispatch(["join", "--input", str(two_qubit_file)]) == 0
    capsys.readouterr()
    assert cli_dispatch(["join", "--branch", "sample"]) == 1
    argv = ["teleport-join", "--alpha", "1", "--beta", "0", "--gamma", "1", "--delta", "0", "--outcome", "3", "--sample"]
    assert cli_dispatch(argv) == 1
    assert capsys.readouterr().err.count("usage error") == 2
    for argv, expected in ((["--help"], "usage: fockjoin"), (["--version"], f"fockjoin {__version__}\n")):
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            assert cli_dispatch(argv) == 0
        assert expected in stdout.getvalue()
    assert capsys.readouterr().out == ""


def test_a_search_loads_no_scipy(tmp_path):
    # The search runs an in-repo Nelder-Mead and numpy's own LAPACK SVD: neither importing the CLI nor a
    # search in a fresh process loads any scipy module.
    code = (
        "import sys; from fockjoin.cli import cli_dispatch; "
        "scipy = lambda: sorted(n for n in sys.modules if n.split('.')[0] == 'scipy'); print(scipy()); "
        "code = cli_dispatch(['nogo-scan', '--trials', '2', '--restarts', '1', '--iterations', '5', '--out', sys.argv[1]]); "
        "print(code, scipy())"
    )
    result = subprocess.run([sys.executable, "-c", code, str(tmp_path / "cert.json")], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split("\n") == ["[]", "0 []", ""]
    assert json.loads((tmp_path / "cert.json").read_text())["optimizer_iterations"] == 5


# Golden reports: SHA-256 of the report bytes for fixed inputs. The input
# files are literal text, so their digests inside the reports are fixed
# too. nogo-scan and cnot-demo are left out: their floats pass through
# BLAS/LAPACK and may differ in the last bits between builds.
_TWO_QUBIT_JSON = (
    '{"modes": 4, "terms": ['
    '{"occ": [1, 0, 1, 0], "re": 0.36, "im": 0.0}, {"occ": [1, 0, 0, 1], "re": 0.0, "im": 0.48}, '
    '{"occ": [0, 1, 1, 0], "re": 0.48, "im": 0.0}, {"occ": [0, 1, 0, 1], "re": -0.64, "im": 0.0}]}'
)
_QUQUART_JSON = (
    '{"modes": 4, "terms": ['
    '{"occ": [1, 0, 0, 0], "re": 0.36, "im": 0.0}, {"occ": [0, 1, 0, 0], "re": 0.0, "im": 0.48}, '
    '{"occ": [0, 0, 1, 0], "re": 0.48, "im": 0.0}, {"occ": [0, 0, 0, 1], "re": -0.64, "im": 0.0}]}'
)
_QUBITS = ["--alpha", "0.6", "--beta", "0.8j", "--gamma", "0.28", "--delta=-0.96j"]
_GOLDEN = {
    "join-deterministic": (
        ["join", "--input", "{two}", "--variant", "deterministic"],
        "5a4405c64a77dbb00b6382922fcdd415a0d0b603b584dc78b8035f9d83ab47a3",
    ),
    "join-minus": (
        ["join", "--input", "{two}", "--branch", "minus"],
        "247987495c457f28ef26be163be2edb5c2cb9a71792895528e1b1b294775eb42",
    ),
    "join-minus-no-ff": (
        ["join", "--input", "{two}", "--branch", "minus", "--no-feed-forward"],
        "4042a55222aaeee504d74a2ce6bed434aa2b0794e335c932a8ac33bb12b70668",
    ),
    "join-sample": (
        ["join", "--input", "{two}", "--branch", "sample", "--seed", "13"],
        "11f29376c63f1e2db7d17f93450e9cae489cdc06d069095c41bac3805c718374",
    ),
    "split-deterministic": (
        ["split", "--input", "{quart}", "--variant", "deterministic"],
        "e221f79d6e981937e788df4afc53e20831de23753f7d3751ed17bd2165311eac",
    ),
    "split-minus": (
        ["split", "--input", "{quart}", "--branch", "minus"],
        "33c76c7bb826d1152a7b5484861b75bd5ed26cd6ea49bbc86f827edc73d0a830",
    ),
    "split-minus-no-ff": (
        ["split", "--input", "{quart}", "--branch", "minus", "--no-feed-forward"],
        "b08510689becb987229ac5337910ff760c24bc587b5baed01a7a8c7952944b4b",
    ),
    "split-sample": (
        ["split", "--input", "{quart}", "--branch", "sample", "--seed", "13"],
        "2b009c31e12259ea386bf84d978a3ea847daa29e2334a1a7c7addae4ddccdd20",
    ),
    "teleport-outcome": (
        ["teleport-join", *_QUBITS, "--outcome", "6"],
        "1ba5a7e5e0aadf08a94b696fd419886277ee1469bc3b1615050674fdf6033ce4",
    ),
    "teleport-sample": (
        ["teleport-join", *_QUBITS, "--sample", "--seed", "3"],
        "4c22743ab684c478f6eb783cd165614ef40adb3781b9c32a9cf03d59855ee619",
    ),
    "tpes": (
        ["tpes", "--pol", "Psi+", "--path", "phi-"],
        "0a00a551cce2d2e403ed238f87827aa54ebe5c9127a95ea21b30eaff406546ab",
    ),
}


@pytest.mark.parametrize("case", sorted(_GOLDEN))
def test_golden_report_bytes(tmp_path, case):
    two, quart = tmp_path / "two.json", tmp_path / "quart.json"
    two.write_text(_TWO_QUBIT_JSON)
    quart.write_text(_QUQUART_JSON)
    argv, expected = _GOLDEN[case]
    report = tmp_path / "report.json"
    argv = [arg.format(two=two, quart=quart) for arg in argv] + ["--report", str(report)]
    assert cli_dispatch(argv) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == expected


# A run report over every non-BLAS op (had, bs, cnot, zflip, project, vac).
_RUN_CIRCUIT = (
    "# joining-style circuit on the unfolded register, then detection\n"
    "modes 6\nhad 4 5\ncnot 4 5 0 1\ncnot 4 5 2 3\nzflip 2 3\nbs 0 2 0.3 0.1\n"
    "project 4 0.6 0 5 0 0.8\nvac 1\n"
)
_RUN_STATE = (
    '{"modes": 6, "terms": [{"occ": [1, 0, 1, 0, 1, 0], "re": 0.6, "im": 0.0},'
    ' {"occ": [0, 1, 1, 0, 1, 0], "re": 0.0, "im": 0.8}]}'
)


def test_golden_run_report_bytes(tmp_path):
    circuit, state, report = tmp_path / "c.pc", tmp_path / "s.json", tmp_path / "report.json"
    circuit.write_text(_RUN_CIRCUIT)
    state.write_text(_RUN_STATE)
    assert cli_dispatch(["run", "--circuit", str(circuit), "--input", str(state), "--report", str(report)]) == 0
    expected = "09553110360f40806dde05818d69600791166a99129cbaacefe9e4d3a1ee663a"
    assert hashlib.sha256(report.read_bytes()).hexdigest() == expected


def test_run_parse_diagnostic_stderr_is_exact(tmp_path, capsys):
    circuit, state, report = tmp_path / "bad.pc", tmp_path / "s.json", tmp_path / "report.json"
    circuit.write_text("modes 2\nbs 0 9 0 0\n")
    state.write_text('{"modes": 2, "terms": [{"occ": [1, 0], "re": 1.0, "im": 0.0}]}')
    argv = ["run", "--circuit", str(circuit), "--input", str(state), "--report", str(report)]
    assert cli_dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"{circuit}:2:6: mode 9 out of range for 2 modes\n"
    assert captured.out == ""
    assert not report.exists()



@pytest.mark.parametrize(
    "amplitudes, column, message",
    [
        pytest.param("nan 0", 14, "nan is not a finite number", id="nan 0"),
        pytest.param("1 0 0 nan", 20, "nan is not a finite number", id="1 0 0 nan"),
        # abs() of this finite amplitude raises OverflowError; the run must still exit 2 with a message.
        pytest.param("1.5e308 1.5e308", 1, "vacuum-port amplitudes cannot exceed unit magnitude", id="1.5e308 1.5e308"),
    ],
)
def test_run_rejects_a_nan_vacuum_amplitude(tmp_path, capsys, amplitudes, column, message):
    # A NaN eta used to pass the magnitude check; the NaN term was then
    # pruned and the run reported an empty output with "probability": 1.
    circuit, state, report = tmp_path / "nan.pc", tmp_path / "s.json", tmp_path / "report.json"
    circuit.write_text(f"modes 4\ncnot 0 1 2 3 {amplitudes}\n")
    state.write_text('{"modes": 4, "terms": [{"occ": [1, 0, 0, 0], "re": 1.0, "im": 0.0}]}')
    argv = ["run", "--circuit", str(circuit), "--input", str(state), "--report", str(report)]
    assert cli_dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"{circuit}:2:{column}: {message}\n"
    assert captured.out == ""
    assert not report.exists()

@pytest.mark.parametrize(
    "line, column, token",
    [
        ("ps 0 inf", 6, "inf"),
        ("bs 0 1 nan 0", 8, "nan"),
        ("bs 1 0 0.3 1e400", 12, "1e400"),
        ("project 0 nan 0 1 0.6 0", 11, "nan"),
    ],
)
def test_run_names_a_non_finite_angle(tmp_path, capsys, line, column, token):
    # The angles used to reach numpy: a RuntimeWarning from np.exp, then "matrix is not unitary (max defect nan)".
    # A projection amplitude was blamed on the keyword, as "squared norm nan"; every number now names its token.
    circuit, state, report = tmp_path / "angle.pc", tmp_path / "s.json", tmp_path / "report.json"
    circuit.write_text(f"modes 2\n{line}\n")
    state.write_text('{"modes": 2, "terms": [{"occ": [1, 0], "re": 1.0, "im": 0.0}]}')
    argv = ["run", "--circuit", str(circuit), "--input", str(state), "--report", str(report)]
    assert cli_dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"{circuit}:2:{column}: {token} is not a finite number\n"
    assert captured.out == ""
    assert not report.exists()


@pytest.mark.parametrize(
    "circuit_text, state_text, message",
    [
        # OSError: the input file is missing.
        ("modes 2\n", None, "No such file or directory"),
        # ValueError: the circuit and the state disagree on the mode count.
        ("modes 3\nbs 0 1 0 0\n", '{"modes": 2, "terms": [{"occ": [1, 0], "re": 1.0, "im": 0.0}]}', "program declares 3"),
        # CircuitError: a cnot on a rail pair holding two photons.
        (
            "modes 4\ncnot 0 1 2 3\n",
            '{"modes": 4, "terms": [{"occ": [2, 0, 1, 0], "re": 1.0, "im": 0.0}]}',
            "instruction 0 (line 2, cnot): pattern (2, 0)",
        ),
        # CircuitError: a project line detecting on a mode that holds two photons.
        (
            "modes 2\nproject 0 1 0\n",
            '{"modes": 2, "terms": [{"occ": [2, 0], "re": 1.0, "im": 0.0}]}',
            "instruction 0 (line 2, project): term (2, 0) holds more than one photon on the detected modes (0,)\n",
        ),
    ],
    ids=["missing-input", "mode-mismatch", "two-photon-rail", "two-photon-detection"],
)
def test_run_data_errors_exit_two(tmp_path, capsys, circuit_text, state_text, message):
    circuit, state = tmp_path / "c.pc", tmp_path / "s.json"
    circuit.write_text(circuit_text)
    if state_text is not None:
        state.write_text(state_text)
    assert cli_dispatch(["run", "--circuit", str(circuit), "--input", str(state)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert message in captured.err
    assert captured.out == ""


def test_run_rejects_a_non_normalized_input(tmp_path, capsys):
    # A norm-3 input used to run through and report "probability": 1.
    circuit, state, report = tmp_path / "c.pc", tmp_path / "s.json", tmp_path / "report.json"
    circuit.write_text("modes 2\nbs 0 1 0.5 0\n")
    state.write_text(
        '{"modes": 2, "terms": [{"occ": [1, 0], "re": 3.0, "im": 0.0}, {"occ": [0, 1], "re": 0.0, "im": 0.0}]}'
    )
    argv = ["run", "--circuit", str(circuit), "--input", str(state), "--report", str(report)]
    assert cli_dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: input state must be normalized (norm=3)\n"
    assert captured.out == ""
    assert not report.exists()


def test_run_rejects_an_input_amplitude_it_would_prune(tmp_path, capsys):
    # (1, 1e-13) used to load as the single term (1, 0), with no word of the drop.
    circuit, state, report = tmp_path / "c.pc", tmp_path / "s.json", tmp_path / "report.json"
    circuit.write_text("modes 2\nbs 0 1 0.5 0\n")
    state.write_text(
        '{"modes": 2, "terms": [{"occ": [1, 0], "re": 1.0, "im": 0.0}, {"occ": [0, 1], "re": 0.0, "im": 1e-13}]}'
    )
    argv = ["run", "--circuit", str(circuit), "--input", str(state), "--report", str(report)]
    assert cli_dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: amplitude 1e-13j of occupation (0, 1) is at or below the pruning tolerance 1e-12\n"
    assert captured.out == ""
    assert not report.exists()


@pytest.mark.parametrize("squared_norm, code", [(1 + 0.9e-8, 0), (1 + 1.01e-8, 2)])
def test_teleport_join_accepts_pairs_within_the_norm_tolerance(capsys, squared_norm, code):
    # Both pairs off norm 1 by 0.9e-8 pass the input check, so the run reports; past 1e-8 it exits 2 at the input.
    scale = math.sqrt(squared_norm)
    flags = [f"--alpha={0.6 * scale!r}", f"--beta={0.8 * scale!r}j", f"--gamma={0.28 * scale!r}", f"--delta={-0.96 * scale!r}j"]
    assert cli_dispatch(["teleport-join", *flags, "--outcome", "5"]) == code
    captured = capsys.readouterr()
    if code == 0:
        assert json.loads(captured.out)["fidelity"] >= 1 - 1e-7
        assert captured.err == ""
    else:
        assert captured.err == "error: alpha/beta amplitudes must be normalized\n"
        assert captured.out == ""


@pytest.mark.parametrize(
    "amplitudes, blamed",
    [
        (["--alpha", "nan", "--beta", "0", "--gamma", "0", "--delta", "0"], "alpha/beta"),
        (["--alpha", "1", "--beta", "0", "--gamma", "nan", "--delta", "0"], "gamma/delta"),
        # Squaring this finite amplitude raises OverflowError; the run must still exit 2 with a message.
        (["--alpha", "1e200", "--beta", "0", "--gamma", "1", "--delta", "0"], "alpha/beta"),
    ],
    ids=["alpha-nan", "gamma-nan", "alpha-overflow"],
)
def test_teleport_join_names_the_nan_pair(capsys, amplitudes, blamed):
    assert cli_dispatch(["teleport-join", *amplitudes, "--outcome", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {blamed} amplitudes must be normalized\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["join", "--input", "{two}", "--branch", "sample"],
        ["split", "--input", "{quart}", "--branch", "sample"],
        ["teleport-join", *_QUBITS],
        ["teleport-join", *_QUBITS, "--sample"],
    ],
    ids=["join", "split", "teleport", "teleport-sample"],
)
def test_unseeded_sampling_uses_seed_zero(tmp_path, argv):
    two, quart = tmp_path / "two.json", tmp_path / "quart.json"
    two.write_text(_TWO_QUBIT_JSON)
    quart.write_text(_QUQUART_JSON)
    argv = [arg.format(two=two, quart=quart) for arg in argv]
    runs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.json"
        assert cli_dispatch([*argv, "--report", str(out)]) == 0
        runs.append(out.read_bytes())
    assert runs[0] == runs[1]
    assert json.loads(runs[0])["seed"] == 0
    seeded = tmp_path / "seeded.json"
    assert cli_dispatch([*argv, "--seed", "0", "--report", str(seeded)]) == 0
    assert seeded.read_bytes() == runs[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["join", "--input", "{two}", "--variant", "deterministic"],
        ["join", "--input", "{two}", "--branch", "plus"],
        ["split", "--input", "{quart}", "--variant", "deterministic"],
        ["split", "--input", "{quart}", "--branch", "minus"],
        ["teleport-join", *_QUBITS, "--outcome", "3"],
    ],
    ids=["join-deterministic", "join-plus", "split-deterministic", "split-minus", "teleport-outcome"],
)
def test_runs_that_sample_nothing_ignore_seed(tmp_path, argv):
    two, quart = tmp_path / "two.json", tmp_path / "quart.json"
    two.write_text(_TWO_QUBIT_JSON)
    quart.write_text(_QUQUART_JSON)
    argv = [arg.format(two=two, quart=quart) for arg in argv]
    runs = []
    for name, extra in (("bare", []), ("seed5", ["--seed", "5"]), ("seed4", ["--seed", "4"]), ("negative", ["--seed=-1"])):
        out = tmp_path / f"{name}.json"
        assert cli_dispatch([*argv, *extra, "--report", str(out)]) == 0
        runs.append(out.read_bytes())
    assert runs[0] == runs[1] == runs[2] == runs[3]
    assert json.loads(runs[0])["seed"] is None


@pytest.mark.parametrize(
    "argv",
    [
        ["join", "--input", "{two}", "--branch", "sample"],
        ["split", "--input", "{quart}", "--branch", "sample", "--no-feed-forward"],
        ["teleport-join", *_QUBITS],
        ["teleport-join", *_QUBITS, "--sample"],
        ["nogo-scan", "--trials", "5", "--out", "{tmp}/nogo.json"],
    ],
    ids=["join-sample", "split-sample", "teleport", "teleport-sample", "nogo-scan"],
)
def test_a_negative_seed_of_a_sampling_run_exits_2_naming_the_flag(tmp_path, capsys, argv):
    two, quart = tmp_path / "two.json", tmp_path / "quart.json"
    two.write_text(_TWO_QUBIT_JSON)
    quart.write_text(_QUQUART_JSON)
    argv = [arg.format(two=two, quart=quart, tmp=tmp_path) for arg in argv]
    for seed in (["--seed=-1"], ["--seed", str(-(2**70))]):
        assert cli_dispatch([*argv, *seed]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: --seed must be a non-negative integer, got {seed[-1].removeprefix('--seed=')}\n"
    assert not (tmp_path / "nogo.json").exists()


@pytest.mark.parametrize(
    "state",
    [
        '{"modes": 4, "terms": [{"occ": [1.9, 0, 1, 0], "re": 1.0, "im": 0.0}]}',
        '{"modes": 4.6, "terms": [{"occ": [1, 0, 1, 0], "re": 1.0, "im": 0.0}]}',
        '{"modes": 4, "terms": [{"occ": [true, false, true, false], "re": 1.0, "im": 0.0}]}',
    ],
)
def test_non_integer_occupations_and_modes_exit_2(tmp_path, capsys, state):
    # int(...) used to truncate these into a valid input and report fidelity 1.
    path, report = tmp_path / "f.json", tmp_path / "report.json"
    path.write_text(state)
    argv = ["join", "--input", str(path), "--variant", "deterministic", "--report", str(report)]
    assert cli_dispatch(argv) == 2
    assert "must hold integers" in capsys.readouterr().err
    assert not report.exists()


def _mesh_circuit(modes, seed):
    """A phase column, then brick-wall couplers with a mode permutation halfway, as circuit text."""
    rng = np.random.default_rng(seed)
    lines = [f"modes {modes}"] + [f"ps {i} {float(rng.uniform(-math.pi, math.pi))!r}" for i in range(modes)]
    for layer in range(modes):
        if layer == modes // 2:
            lines.append("perm " + " ".join(str(int(p)) for p in rng.permutation(modes)))
        for i in range(layer % 2, modes - 1, 2):
            theta, phase = float(rng.uniform(0, math.pi / 2)), float(rng.uniform(-math.pi, math.pi))
            lines.append(f"bs {i} {i + 1} {theta!r} {phase!r}")
    return "\n".join(lines) + "\n"


def test_mesh_run_report_bytes_are_pinned(tmp_path):
    # An (8, 4) mesh whose output holds 330 terms: the array splice and the
    # term-list emitter both run at full size.
    circuit, state, report = tmp_path / "mesh.pc", tmp_path / "s.json", tmp_path / "report.json"
    circuit.write_text(_mesh_circuit(8, 2024))
    state.write_text('{"modes": 8, "terms": [{"occ": [1, 0, 1, 0, 1, 0, 1, 0], "re": 1.0, "im": 0.0}]}')
    assert cli_dispatch(["run", "--circuit", str(circuit), "--input", str(state), "--report", str(report)]) == 0
    assert len(json.loads(report.read_bytes())["output"]["terms"]) == 330
    expected = "4cb68898bb9dc141ffdb43a20115948a88d4f5575f189019ba94638fec03b1fe"
    assert hashlib.sha256(report.read_bytes()).hexdigest() == expected


def _mesh_input(modes, photons):
    """The circuits bench's mesh input: one photon on each of the first `photons` even modes."""
    occ = [1 if j < 2 * photons and j % 2 == 0 else 0 for j in range(modes)]
    return json.dumps({"modes": modes, "terms": [{"occ": occ, "re": 1.0, "im": 0.0}]})


# An 8-mode had/bs chain, pairs in either order, on an input with a
# photon-free term, complex amplitudes and photons outside each pair.
_CHAIN_CIRCUIT = (
    "modes 8\nhad 0 1\nbs 2 1 0.7 0.3\nbs 3 4 1.1 -2.0\nhad 5 2\nbs 6 7 0.4 1.3\nbs 7 3 0.9 0.2\n"
    "had 4 6\nbs 1 5 0.25 -0.8\nbs 0 7 1.3 2.9\nhad 3 2\nbs 5 6 0.6 0.0\nbs 4 0 0.8 -1.4\n"
)
_CHAIN_STATE = json.dumps(
    {
        "modes": 8,
        "terms": [
            {"occ": [0, 0, 0, 0, 0, 0, 0, 0], "re": 0.1, "im": 0.0},
            {"occ": [1, 1, 1, 1, 0, 0, 0, 0], "re": 0.5, "im": 0.3},
            {"occ": [0, 2, 0, 1, 0, 0, 1, 0], "re": 0.0, "im": -0.4},
            {"occ": [1, 0, 1, 0, 1, 0, 1, 0], "re": 0.6, "im": 0.0},
            {"occ": [1, 0, 0, 0, 0, 0, 0, 2], "re": 0.3, "im": -0.2},
        ],
    }
)


@pytest.mark.parametrize(
    "circuit_text, state_text, terms, expected",
    [
        (_mesh_circuit(8, 11), _mesh_input(8, 4), 330, "d8bb60161b68075030b8c7f6f174bc4e9029d17f469dd46bfa5adacdd83ded3f"),
        (_mesh_circuit(6, 29), _mesh_input(6, 3), 56, "2433cf0275008be193813b6dc3d058229368959002d698e21c5e8806da359921"),
        (_CHAIN_CIRCUIT, _CHAIN_STATE, 442, "1e88b0a7aad8f129bbd353f4603aac31279d696b81567594f3e72b6e4a4dee73"),
    ],
    ids=["mesh-8-4", "mesh-6-3", "had-bs-chain"],
)
def test_coupler_run_report_bytes_are_pinned(tmp_path, circuit_text, state_text, terms, expected):
    # Pinned before couplers got their own array kernel; the bytes must not move.
    circuit, state, report = tmp_path / "c.pc", tmp_path / "s.json", tmp_path / "report.json"
    circuit.write_text(circuit_text)
    state.write_text(state_text)
    assert cli_dispatch(["run", "--circuit", str(circuit), "--input", str(state), "--report", str(report)]) == 0
    assert len(json.loads(report.read_bytes())["output"]["terms"]) == terms
    assert hashlib.sha256(report.read_bytes()).hexdigest() == expected


def _reference_state_json(s):
    """canonical_json(state_to_dict(s)), built here term by term from sorted(s.terms.items())."""
    terms = []
    for occ, amp in sorted(s.terms.items()):
        occ_text = "[" + ",".join(format(n, "d") for n in occ) + "]"
        terms.append('{"im":' + format(float(amp.imag), ".17g") + ',"occ":' + occ_text + ',"re":' + format(float(amp.real), ".17g") + "}")
    return '{"modes":' + format(s.modes, "d") + ',"terms":[' + ",".join(terms) + "]}"


# Amplitude parts: signed zeros, subnormals, magnitudes near 1e300 (whose abs() still fits) and plain floats.
_EDGE_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300]),
    st.floats(1e299, 1e301),
    st.floats(-1e301, -1e299),
    st.floats(-1e-310, 1e-310),
    st.floats(-1.0, 1.0),
)


@st.composite
def _dict_states(draw):
    """(modes, terms, ()) of 0 to 6 terms on 1 to 12 modes, occupations 0 to 25: a state that holds its dict."""
    modes = draw(st.integers(1, 12))
    occs = draw(st.lists(st.tuples(*[st.integers(0, 25)] * modes), max_size=6, unique=True))
    return modes, {occ: complex(draw(_EDGE_PARTS), draw(_EDGE_PARTS)) for occ in occs}, ()


@st.composite
def _coupler_chain_states(draw):
    """(modes, terms, couplers) of 32 to 48 terms on 4 to 8 modes, then 1 to 4 couplers: each output carries its arrays."""
    modes = draw(st.integers(4, 8))
    occs = draw(st.lists(st.tuples(*[st.integers(0, 2)] * modes), min_size=32, max_size=48, unique=True))
    nonzero = st.floats(-1.0, 1.0).filter(lambda x: abs(x) > 1e-6)
    terms = {occ: complex(draw(nonzero), draw(st.sampled_from([0.0, -0.0]) | nonzero)) for occ in occs}
    angle = st.floats(-math.pi, math.pi)
    couplers = []
    for _ in range(draw(st.integers(1, 4))):
        i, j = draw(st.lists(st.integers(0, modes - 1), min_size=2, max_size=2, unique=True))
        couplers.append(beamsplitter(modes, i, j, draw(angle), draw(angle)) if draw(st.booleans()) else hadamard_pair(modes, i, j))
    return modes, terms, couplers


def _crowded_terms(modes, heavy, photons, small, amplitudes):
    """photons on mode heavy and on the next mode, then the small occupations, with the amplitudes in turn."""
    occs = [tuple(photons if j == (heavy + k) % modes else 0 for j in range(modes)) for k in (0, 1)]
    occs += [occ for occ in small if occ not in occs]
    return dict(zip(occs, amplitudes))


@st.composite
def _crowded_chain_states(draw):
    """(modes, terms, couplers) of 32 to 40 terms on 4 to 6 modes, two of them 10 to 20 photons on one mode, then
    1 to 4 couplers off the first heavy mode: each output carries its arrays and keeps a two-digit count."""
    modes, photons = draw(st.integers(4, 6)), draw(st.integers(10, 20))
    heavy = draw(st.integers(0, modes - 1))
    small = draw(st.lists(st.tuples(*[st.integers(0, 2)] * modes), min_size=32, max_size=38, unique=True))
    nonzero = st.floats(-1.0, 1.0).filter(lambda x: abs(x) > 1e-6)
    amplitudes = [complex(draw(nonzero), draw(nonzero)) for _ in range(len(small) + 2)]
    others = [j for j in range(modes) if j != heavy]
    angle = st.floats(-math.pi, math.pi)
    couplers = []
    for _ in range(draw(st.integers(1, 4))):
        i, j = draw(st.lists(st.sampled_from(others), min_size=2, max_size=2, unique=True))
        couplers.append(beamsplitter(modes, i, j, draw(angle), draw(angle)) if draw(st.booleans()) else hadamard_pair(modes, i, j))
    return modes, _crowded_terms(modes, heavy, photons, small, amplitudes), couplers


# 20 photons on mode 3 and on mode 0, which the couplers spread over modes 0 to 2, beside 32 small terms.
_TWENTY_PHOTONS = (
    4,
    _crowded_terms(4, 3, 20, list(itertools.product(range(3), repeat=4))[:32], [complex(0.1, -0.01 * k) for k in range(34)]),
    (beamsplitter(4, 0, 1, 0.7, 0.3), hadamard_pair(4, 2, 1)),
)


# No shrink phase: shrinking a failing 32- to 48-term state took minutes, and the first failing example is reported as drawn.
@settings(max_examples=150, deadline=None, phases=[p for p in Phase if p is not Phase.shrink])
@given(st.one_of(st.just((3, {}, ())), _dict_states(), _coupler_chain_states(), _crowded_chain_states()))
@example(_TWENTY_PHOTONS)
def test_rendered_states_match_an_independent_reference(case):
    # cli._state_json writes every state of a report; its bytes must be canonical_json(state_to_dict(s)).
    modes, terms, couplers = case
    s = last_input = FockState(modes, terms)
    for u in couplers:
        last_input, s = s, apply_unitary(s, u)
    carried = type(s) is optics._Packed
    assert carried == (bool(couplers) and len(last_input.terms) >= 32)  # a coupler's array pass
    text, as_dict = cli._state_json(s), state_to_dict(s)
    if carried:
        assert "terms" not in vars(s)  # listed from its arrays, not from a terms dict built for the report
        if max(map(max, terms)) >= 10:  # a crowded chain: the untouched heavy mode keeps its two-digit count
            assert max(max(t["occ"]) for t in as_dict["terms"]) >= 10
    expected = _reference_state_json(s)
    assert text == expected
    assert canonical_json({"output": text}) == '{"output":' + expected + "}"
    assert canonical_json(as_dict) == expected
    assert repr(as_dict) == repr(state_to_dict(FockState(modes, dict(s.terms))))


_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**20), 10**20),
    st.text(max_size=8),
    st.sampled_from([-0.0, 5e-324, 1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=20,
)


def _floats_marked(tree, floats):
    """tree with tuples as lists and float k (in walk order, appended to floats) as the string "float #k#",
    which no drawn text (8 characters at most) can be."""
    if isinstance(tree, float):
        floats.append(tree)
        return f"float #{len(floats) - 1}#"
    if isinstance(tree, (list, tuple)):
        return [_floats_marked(item, floats) for item in tree]
    if isinstance(tree, dict):
        return {key: _floats_marked(value, floats) for key, value in tree.items()}
    return tree


@settings(max_examples=150, deadline=None)
@given(_JSON_TREES)
def test_canonical_json_matches_sorted_compact_json_dumps(tree):
    # canonical JSON is json.dumps with sorted keys and no spaces, tuples as lists and each float as
    # format(x, ".17g"); the generic walk in cli._emit is the only path for every leaf.
    text, floats = canonical_json(tree), []
    marked = json.dumps(_floats_marked(tree, floats), sort_keys=True, separators=(",", ":"))
    assert text == re.sub(r'"float #(\d+)#"', lambda k: format(floats[int(k[1])], ".17g"), marked)
    assert json.loads(text) == json.loads(json.dumps(tree))  # json.dumps writes tuples as lists, floats by repr


def test_canonical_json_floats_and_type_rules():
    assert canonical_json({"b": [0.1, -0.0, 1e300], "a": (True, 1, None)}) == (
        '{"a":[true,1,null],"b":[0.10000000000000001,-0,1.0000000000000001e+300]}'
    )
    assert canonical_json([[1, 2], [], {}]) == "[[1,2],[],{}]"
    for bad in (np.int64(1), {1, 2}, [np.float32(0.5)], b"x"):
        with pytest.raises(TypeError):
            canonical_json(bad)
