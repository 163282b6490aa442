"""Seeded op streams for the benchmark's three workloads.

An op is one closed-loop request. ``call()`` is the only part that is
timed; ``check(result)`` runs afterwards and raises ``CheckFailed`` when
the result disagrees with a reference that shares no code with the path
under test (hand-derived amplitudes, the permanent oracle, the expected
certificate verdicts, a zero CLI exit code). Ops come in rounds: every
round holds the same multiset of op kinds in a seeded order, so a run made
of whole rounds always has the same mix, and per-op call counts of the
traced run repeat exactly between seeds.

``rounds(workload, seed, workdir)`` yields the rounds. The same seed gives
the same ops (compare ``Op.desc``); the library sees only the generated
inputs. The circuits workload writes its circuit and state files into
``workdir`` while a round is generated, before any of its ops is timed.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from fockjoin import cli, fock, nogo, optics, permanent, schemes, tpes

WORKLOADS = ("protocols", "circuits", "certify")

FIDELITY_FLOOR = 1.0 - 1e-10
AMP_ATOL = 1e-10
PROB_ATOL = 1e-12
ROOT_HALF = 1.0 / math.sqrt(2.0)
RESOURCES = tuple(tpes.ALL_BELL_OUTCOMES)
PROJECTIVE_VARIANTS = (
    ("plus", True),
    ("plus", False),
    ("minus", True),
    ("minus", False),
    ("sample", True),
    ("sample", False),
)


class CheckFailed(AssertionError):
    """An op's result disagrees with its independent reference."""


@dataclass
class Op:
    kind: str
    desc: tuple
    call: Callable[[], object] = field(repr=False)
    check: Callable[[object], None] = field(repr=False)
    # CLI ops: the report bytes the call printed, for the byte-identity digest.
    report: Callable[[object], str] | None = field(default=None, repr=False)


def _require(cond, message: str):
    if not cond:
        raise CheckFailed(message)


# --- independent references ---------------------------------------------------


def _onehot(k: int, n: int) -> tuple[int, ...]:
    return tuple(1 if j == k else 0 for j in range(n))


def _check_state(terms: dict, expected: dict, what: str):
    """Normalized output whose overlap with ``expected`` has fidelity >= FIDELITY_FLOOR."""
    norm2 = sum(abs(a) ** 2 for a in terms.values())
    _require(abs(norm2 - 1.0) <= AMP_ATOL, f"{what}: squared norm {norm2!r}")
    exp_norm2 = sum(abs(a) ** 2 for a in expected.values())
    overlap = sum(np.conj(a) * terms.get(occ, 0j) for occ, a in expected.items())
    fid = abs(overlap) ** 2 / exp_norm2
    _require(fid >= FIDELITY_FLOOR, f"{what}: fidelity {fid!r}")


def _check_prob(value: float, expected: float, what: str):
    _require(abs(value - expected) <= PROB_ATOL, f"{what}: probability {value!r}, expected {expected!r}")


def _random_amplitudes(rng: np.random.Generator, n: int) -> list[complex]:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    return [complex(x) for x in v]


def _haar(rng: np.random.Generator, m: int) -> np.ndarray:
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _joined(alphas, signs=(1, 1, 1, 1)) -> dict:
    """a_k on mode k of a four-mode photon."""
    return {_onehot(k, 4): s * a for k, (a, s) in enumerate(zip(alphas, signs))}


_TWO_QUBIT_OCC = ((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1))


def _two_qubit(alphas, signs=(1, 1, 1, 1)) -> dict:
    """a_k with k = 2*q0 + q1, first qubit on modes (0, 1), second on (2, 3)."""
    return {occ: s * a for occ, a, s in zip(_TWO_QUBIT_OCC, alphas, signs)}


def _teleport_reference(alpha, beta, gamma, delta) -> dict:
    return _joined([alpha * gamma, beta * gamma, alpha * delta, beta * delta])


def _check_against_permanent(u: np.ndarray, inputs: dict, outputs: dict, picks, what: str):
    """Output amplitudes at ``picks`` equal sum_in a_in <out|U|in> by permanents."""
    for occ_out in picks:
        want = sum(a * permanent.transition_amplitude(u, occ_in, occ_out) for occ_in, a in inputs.items())
        got = outputs.get(occ_out, 0j)
        _require(abs(got - want) <= AMP_ATOL, f"{what}: amplitude of {occ_out} is {got!r}, oracle {want!r}")


def _pick(rng: np.random.Generator, keys, k: int) -> list:
    keys = sorted(keys)
    idx = rng.choice(len(keys), size=min(k, len(keys)), replace=False)
    return [keys[i] for i in sorted(idx)]


# --- protocols ----------------------------------------------------------------
#
# Small sparse states (<= 20 modes, <= 5 photons): fock, gates, schemes and
# tpes do nearly all the work and optics almost none. Weights keep the
# cheap kinds at about three quarters of the ops, with p50 inside the
# round-trip band, and teleport_join at about a quarter, so p90 sits in
# the teleport band.

PROTOCOL_MIX = {
    "join_projective": 6,
    "join_deterministic": 5,
    "split_projective": 6,
    "split_deterministic": 5,
    "round_trip": 8,
    "tpes_via_joining": 5,
    "teleport_forced": 6,
    "teleport_sampled": 6,
}


def _projective_expectation(branch, ff, chosen):
    if chosen == "plus":
        return 0.5, (1, 1, 1, 1)
    if ff:
        return 1.0, (1, 1, 1, 1)
    return 0.5, (1, -1, 1, -1)


def _join_projective(rng, counter):
    branch, ff = PROJECTIVE_VARIANTS[counter % len(PROJECTIVE_VARIANTS)]
    alphas = _random_amplitudes(rng, 4)
    seed = _seed(rng)
    state = fock.make_state(4, list(_two_qubit(alphas).items()))

    def check(report):
        _require(branch == "sample" or report.branch == branch, f"branch {report.branch}")
        prob, signs = _projective_expectation(branch, ff, report.branch)
        _check_prob(report.success_probability, prob, "join_projective")
        _require(report.output.modes == 4, "join_projective: output modes")
        _check_state(report.output.terms, _joined(alphas, signs), "join_projective")

    return Op(
        "join_projective",
        ("join_projective", branch, ff, seed, tuple(alphas)),
        lambda: schemes.join_projective(state, branch=branch, feed_forward=ff, seed=seed),
        check,
    )


def _join_deterministic(rng, counter):
    alphas = _random_amplitudes(rng, 4)
    state = fock.make_state(4, list(_two_qubit(alphas).items()))
    expected = {occ + (1, 0): a for occ, a in _joined(alphas).items()}

    def check(report):
        _check_prob(report.success_probability, 1.0, "join_deterministic")
        _check_state(report.output.terms, expected, "join_deterministic")

    return Op(
        "join_deterministic",
        ("join_deterministic", tuple(alphas)),
        lambda: schemes.join_deterministic(state),
        check,
    )


def _split_projective(rng, counter):
    branch, ff = PROJECTIVE_VARIANTS[counter % len(PROJECTIVE_VARIANTS)]
    alphas = _random_amplitudes(rng, 4)
    seed = _seed(rng)
    ququart = fock.make_state(4, list(_joined(alphas).items()))

    def check(report):
        _require(branch == "sample" or report.branch == branch, f"branch {report.branch}")
        prob, signs = _projective_expectation(branch, ff, report.branch)
        _check_prob(report.success_probability, prob, "split_projective")
        _check_state(report.output.terms, _two_qubit(alphas, signs), "split_projective")

    return Op(
        "split_projective",
        ("split_projective", branch, ff, seed, tuple(alphas)),
        lambda: schemes.split_projective(ququart, branch=branch, feed_forward=ff, seed=seed),
        check,
    )


def _split_deterministic(rng, counter):
    alphas = _random_amplitudes(rng, 4)
    ququart = fock.make_state(4, list(_joined(alphas).items()))

    def check(report):
        _check_prob(report.success_probability, 1.0, "split_deterministic")
        _check_state(report.output.terms, _two_qubit(alphas), "split_deterministic")

    return Op(
        "split_deterministic",
        ("split_deterministic", tuple(alphas)),
        lambda: schemes.split_deterministic(ququart),
        check,
    )


def _round_trip(rng, counter):
    alphas = _random_amplitudes(rng, 4)
    state = fock.make_state(4, list(_two_qubit(alphas).items()))

    def call():
        joined = schemes.join_deterministic(state)
        return schemes.split_deterministic(schemes.drop_control_photon(joined.output))

    def check(report):
        _check_prob(report.success_probability, 1.0, "round_trip")
        _check_state(report.output.terms, _two_qubit(alphas), "round_trip")

    return Op("round_trip", ("round_trip", tuple(alphas)), call, check)


def _check_tpes_terms(terms: dict, what: str):
    _require(len(terms) == 4, f"{what}: {len(terms)} terms")
    for occ, amp in terms.items():
        _require(len(occ) == 12 and sum(occ) == 3, f"{what}: term {occ}")
        _require(abs(abs(amp) - 0.5) <= AMP_ATOL, f"{what}: amplitude {amp!r}")


def _tpes_via_joining(rng, counter):
    pol, path = RESOURCES[counter % len(RESOURCES)]

    def check(pair):
        joined, built = pair
        _check_tpes_terms(built.terms, "build_tpes")
        _check_state(joined.terms, built.terms, "tpes_via_joining")

    return Op(
        "tpes_via_joining",
        ("tpes_via_joining", pol, path),
        lambda: (tpes.tpes_via_joining(pol, path), tpes.build_tpes(pol, path)),
        check,
    )


def _teleport(kind):
    def make(rng, counter):
        resource = RESOURCES[counter % len(RESOURCES)]
        alpha, beta = _random_amplitudes(rng, 2)
        gamma, delta = _random_amplitudes(rng, 2)
        if kind == "teleport_forced":
            outcome, seed = int(rng.integers(0, 16)), None
        else:
            outcome, seed = "sample", _seed(rng)
        reference = _teleport_reference(alpha, beta, gamma, delta)

        def check(report):
            _check_prob(report.success_probability, 1.0 / 16.0, kind)
            if outcome != "sample":
                want = "/".join(tpes.ALL_BELL_OUTCOMES[outcome])
                _require(report.branch == want, f"{kind}: branch {report.branch}, forced {want}")
            _check_state(report.output.terms, reference, kind)

        return Op(
            kind,
            (kind, resource, outcome, seed, alpha, beta, gamma, delta),
            lambda: tpes.teleport_join((alpha, beta), (gamma, delta), outcome=outcome, seed=seed, resource=resource),
            check,
        )

    return make


_PROTOCOL_MAKERS = {
    "join_projective": _join_projective,
    "join_deterministic": _join_deterministic,
    "split_projective": _split_projective,
    "split_deterministic": _split_deterministic,
    "round_trip": _round_trip,
    "tpes_via_joining": _tpes_via_joining,
    "teleport_forced": _teleport("teleport_forced"),
    "teleport_sampled": _teleport("teleport_sampled"),
}


# --- circuits -----------------------------------------------------------------
#
# Every op is one in-process cli_dispatch call with stdout captured. About
# 60% are small paper circuits and verbs (p50 band), 25% brick-wall
# meshes at (6, 3) and 15% at (8, 4) (p90 band). Mesh angles are fresh per
# op, so no two ops share an output. (10, 5) meshes are left out: about
# 2 s each leaves too few ops per run for a tail percentile.

CIRCUIT_MIX = {
    "hom": 2,
    "join_script": 2,
    "split_script": 2,
    "cnot_network": 2,
    "cli_join": 1,
    "cli_split": 1,
    "cli_tpes": 1,
    "cli_teleport": 1,
    "cli_cnot_demo": 1,
    "mesh_6_3": 5,
    "mesh_8_4": 3,
}

_CNOT_THETA = math.acos(1.0 / math.sqrt(3.0))


def _bs(m, i, j, theta, phase):
    mat = np.eye(m, dtype=complex)
    c, s = math.cos(theta), math.sin(theta)
    mat[i, i], mat[i, j] = c, np.exp(1j * phase) * s
    mat[j, i], mat[j, j] = -np.exp(-1j * phase) * s, c
    return mat


def _ps(m, i, phase):
    mat = np.eye(m, dtype=complex)
    mat[i, i] = np.exp(1j * phase)
    return mat


def _perm(m, *perm):
    mat = np.zeros((m, m), dtype=complex)
    for i, p in enumerate(perm):
        mat[i, p] = 1.0
    return mat


def _had(m, i, j):
    mat = np.eye(m, dtype=complex)
    mat[i, i], mat[i, j], mat[j, i], mat[j, j] = ROOT_HALF, ROOT_HALF, ROOT_HALF, -ROOT_HALF
    return mat


_ELEMENTS = {"bs": _bs, "ps": _ps, "perm": _perm, "had": _had}


def _unitary_of(lines, m) -> np.ndarray:
    """Substitution-convention product of the listed unitary elements, in order."""
    total = np.eye(m, dtype=complex)
    for op, *args in lines:
        total = total @ _ELEMENTS[op](m, *args)
    return total


def _circuit_text(m, lines) -> str:
    out = [f"modes {m}"]
    for op, *args in lines:
        out.append(" ".join([op] + [repr(float(a)) if isinstance(a, float) else str(a) for a in args]))
    return "\n".join(out) + "\n"


def _state_text(m, terms: dict) -> str:
    items = [{"occ": list(occ), "re": complex(a).real, "im": complex(a).imag} for occ, a in sorted(terms.items())]
    return json.dumps({"modes": m, "terms": items})


def _report_terms(report: dict) -> dict:
    return {tuple(t["occ"]): complex(t["re"], t["im"]) for t in report["output"]["terms"]}


def _dispatch(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.cli_dispatch(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_op(kind, workdir, index, files, argv, check_report):
    """Op running ``fockjoin <argv>``; {name} in argv becomes that file's path."""
    paths = {}
    for name, text in files.items():
        paths[name] = os.path.join(workdir, f"op{index}-{name}")
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(text)
    real_argv = [a.format(**paths) for a in argv]

    def check(result):
        code, stdout, stderr = result
        _require(code == 0, f"{kind}: exit code {code}: {stderr.strip()}")
        check_report(json.loads(stdout))

    desc = (kind, tuple(sorted(files.items())), tuple(argv))
    return Op(kind, desc, lambda: _dispatch(real_argv), check, report=lambda result: result[1])


def _run_op(kind, workdir, index, circuit_text, state_text, check_report):
    files = {"circuit": circuit_text, "state": state_text}
    return _cli_op(kind, workdir, index, files, ["run", "--circuit", "{circuit}", "--input", "{state}"], check_report)


def _unitary_check(kind, rng, m, lines, inputs):
    u = _unitary_of(lines, m)
    pick_rng = np.random.default_rng(_seed(rng))

    def check_report(report):
        _check_prob(report["probability"], 1.0, kind)
        terms = _report_terms(report)
        norm2 = sum(abs(a) ** 2 for a in terms.values())
        _require(abs(norm2 - 1.0) <= AMP_ATOL, f"{kind}: squared norm {norm2!r}")
        _check_against_permanent(u, inputs, terms, _pick(pick_rng, terms, 4), kind)

    return check_report


def _hom(rng, counter, workdir, index):
    phase = float(rng.uniform(-math.pi, math.pi))
    lines = [("bs", 0, 1, math.pi / 4, phase)]
    inputs = {(1, 1): 1.0}
    permanent_check = _unitary_check("hom", rng, 2, lines, inputs)

    def check_report(report):
        permanent_check(report)
        weights = {occ: abs(a) ** 2 for occ, a in _report_terms(report).items()}
        _require(set(weights) == {(2, 0), (0, 2)}, f"hom: outputs {sorted(weights)}")
        for w in weights.values():
            _check_prob(w, 0.5, "hom bunching")

    return _run_op("hom", workdir, index, _circuit_text(2, lines), _state_text(2, inputs), check_report)


def _join_script(rng, counter, workdir, index):
    alphas = _random_amplitudes(rng, 4)
    sign = 1 if counter % 2 == 0 else -1
    # Unfolded register: first qubit's rails on modes 0 and 2, control on (4, 5).
    inputs = {}
    for k, a in enumerate(alphas):
        occ = [0] * 6
        occ[0 if k < 2 else 2] = 1
        occ[4 + k % 2] = 1
        inputs[tuple(occ)] = a
    text = (
        "modes 6\ncnot 4 5 0 1\ncnot 4 5 2 3\n"
        f"project 4 {ROOT_HALF!r} 0 5 {sign * ROOT_HALF!r} 0\n"
    )
    signs = (1, 1, 1, 1) if sign > 0 else (1, -1, 1, -1)
    expected = {occ + (0, 0): a for occ, a in _joined(alphas, signs).items()}

    def check_report(report):
        _check_prob(report["probability"], 0.5, "join_script")
        _check_state(_report_terms(report), expected, "join_script")

    return _run_op("join_script", workdir, index, text, _state_text(6, inputs), check_report)


def _split_script(rng, counter, workdir, index):
    alphas = _random_amplitudes(rng, 4)
    inputs = {_onehot(k, 4) + (1, 0): a for k, a in enumerate(alphas)}
    head = "modes 6\ncnot 0 1 4 5\ncnot 2 3 4 5\nhad 0 1\nhad 2 3\n"
    if counter % 2 == 0:
        text, rails = head + "vac 1 3\n", (0, 2)
    else:
        text, rails = head + "vac 0 2\nzflip 4 5\n", (1, 3)
    expected = {}
    for k, a in enumerate(alphas):
        occ = [0] * 6
        occ[rails[k // 2]] = 1
        occ[4 + k % 2] = 1
        expected[tuple(occ)] = a

    def check_report(report):
        _check_prob(report["probability"], 0.5, "split_script")
        _check_state(_report_terms(report), expected, "split_script")

    return _run_op("split_script", workdir, index, text, _state_text(6, inputs), check_report)


def _cnot_network(rng, counter, workdir, index):
    # Control rails (1, 2), target rails (3, 4), ancillas 0 and 5.
    lines = [
        ("had", 3, 4),
        ("bs", 0, 1, _CNOT_THETA, 0.0),
        ("bs", 2, 4, _CNOT_THETA, 0.0),
        ("bs", 3, 5, _CNOT_THETA, 0.0),
        ("had", 3, 4),
    ]
    inputs = {}
    for (c, t), a in zip(((0, 0), (0, 1), (1, 0), (1, 1)), _random_amplitudes(rng, 4)):
        occ = [0] * 6
        occ[1 + c] = 1
        occ[3 + t] = 1
        inputs[tuple(occ)] = a
    check_report = _unitary_check("cnot_network", rng, 6, lines, inputs)
    return _run_op("cnot_network", workdir, index, _circuit_text(6, lines), _state_text(6, inputs), check_report)


def _mesh(m, n):
    kind = f"mesh_{m}_{n}"

    def make(rng, counter, workdir, index):
        # A phase column, then m brick-wall layers of couplers with a mode
        # permutation halfway.
        lines = [("ps", i, float(rng.uniform(-math.pi, math.pi))) for i in range(m)]
        for layer in range(m):
            if layer == m // 2:
                lines.append(("perm", *(int(p) for p in rng.permutation(m))))
            for i in range(layer % 2, m - 1, 2):
                lines.append(("bs", i, i + 1, float(rng.uniform(0, math.pi / 2)), float(rng.uniform(-math.pi, math.pi))))
        inputs = {tuple(1 if j < 2 * n and j % 2 == 0 else 0 for j in range(m)): 1.0}
        check_report = _unitary_check(kind, rng, m, lines, inputs)
        return _run_op(kind, workdir, index, _circuit_text(m, lines), _state_text(m, inputs), check_report)

    return make


def _cli_join(rng, counter, workdir, index):
    alphas = _random_amplitudes(rng, 4)
    branch = ("plus", "minus")[counter % 2]

    def check_report(report):
        _check_prob(report["success_probability"], 0.5 if branch == "plus" else 1.0, "cli join")
        _check_state(_report_terms(report), _joined(alphas), "cli join")

    files = {"state": _state_text(4, _two_qubit(alphas))}
    return _cli_op("cli_join", workdir, index, files, ["join", "--input", "{state}", "--branch", branch], check_report)


def _cli_split(rng, counter, workdir, index):
    alphas = _random_amplitudes(rng, 4)
    branch = ("plus", "minus")[counter % 2]

    def check_report(report):
        _check_prob(report["success_probability"], 0.5 if branch == "plus" else 1.0, "cli split")
        _check_state(_report_terms(report), _two_qubit(alphas), "cli split")

    files = {"state": _state_text(4, _joined(alphas))}
    return _cli_op("cli_split", workdir, index, files, ["split", "--input", "{state}", "--branch", branch], check_report)


def _cli_tpes(rng, counter, workdir, index):
    pol, path = RESOURCES[counter % len(RESOURCES)]

    def check_report(report):
        _require(report["joining_fidelity"] >= FIDELITY_FLOOR, f"cli tpes: fidelity {report['joining_fidelity']!r}")
        _check_tpes_terms(_report_terms(report), "cli tpes")

    return _cli_op("cli_tpes", workdir, index, {}, ["tpes", "--pol", pol, "--path", path], check_report)


def _cli_teleport(rng, counter, workdir, index):
    alpha, beta = _random_amplitudes(rng, 2)
    gamma, delta = _random_amplitudes(rng, 2)
    outcome = int(rng.integers(0, 16))
    reference = _teleport_reference(alpha, beta, gamma, delta)

    def check_report(report):
        _check_prob(report["success_probability"], 1.0 / 16.0, "cli teleport-join")
        _check_state(_report_terms(report), reference, "cli teleport-join")

    argv = ["teleport-join", f"--alpha={alpha!r}", f"--beta={beta!r}", f"--gamma={gamma!r}", f"--delta={delta!r}", "--outcome", str(outcome)]
    return _cli_op("cli_teleport", workdir, index, {}, argv, check_report)


def _cli_cnot_demo(rng, counter, workdir, index):
    def check_report(report):
        _require(report["demonstrates_failure"] is True, "cnot-demo: vacuum failure not shown")
        for row in report["truth_table"]:
            _check_prob(row["success_probability"], 1.0 / 9.0, "cnot-demo truth table")

    return _cli_op("cli_cnot_demo", workdir, index, {}, ["cnot-demo"], check_report)


_CIRCUIT_MAKERS = {
    "hom": _hom,
    "join_script": _join_script,
    "split_script": _split_script,
    "cnot_network": _cnot_network,
    "cli_join": _cli_join,
    "cli_split": _cli_split,
    "cli_tpes": _cli_tpes,
    "cli_teleport": _cli_teleport,
    "cli_cnot_demo": _cli_cnot_demo,
    "mesh_6_3": _mesh(6, 3),
    "mesh_8_4": _mesh(8, 4),
}


# --- certify ------------------------------------------------------------------
#
# The paper's numerical certificates plus dense Haar evolutions: the same
# optics layer as in circuits, reached through dense unitaries. (8, 4) and
# the small certificate units sit below the (10, 5) band that holds p50;
# rank_scan sits between (10, 5) and (12, 6); one adversarial restart is
# the slowest op, so p90 falls inside the (12, 6) band.

CERTIFY_MIX = {
    "dense_8_4": 5,
    "dense_10_5": 8,
    "dense_12_6": 3,
    "rank_scan": 1,
    "rank_scan_control": 1,
    "adversarial_search": 1,
    "projection_check": 1,
    "core_determinant": 1,
}

RANK_SCAN_TRIALS = 500
CONTROL_TRIALS = 200
ADVERSARIAL_ITERATIONS = 500
PROJECTION_BATCH = 10
CORE_SAMPLES = 5000
CORE_DET_ATOL = 1e-12


def _dense(m, n):
    kind = f"dense_{m}_{n}"

    def make(rng, counter):
        mat = _haar(rng, m)
        occupied = set(rng.choice(m, size=n, replace=False).tolist())
        occ_in = tuple(1 if j in occupied else 0 for j in range(m))
        pick_rng = np.random.default_rng(_seed(rng))
        u = optics.ModeUnitary(m, mat)
        state = fock.make_state(m, [(occ_in, 1.0)])
        terms_expected = math.comb(m + n - 1, n)

        def check(out):
            norm2 = sum(abs(a) ** 2 for a in out.terms.values())
            _require(abs(norm2 - 1.0) <= AMP_ATOL, f"{kind}: squared norm {norm2!r}")
            _require(len(out.terms) <= terms_expected, f"{kind}: {len(out.terms)} terms")
            _check_against_permanent(mat, {occ_in: 1.0}, out.terms, _pick(pick_rng, out.terms, 4), kind)

        return Op(kind, (kind, occ_in, mat.tobytes()), lambda: optics.apply_unitary(state, u), check)

    return make


def _check_verdict(kind, trials, verdict):
    def check(cert):
        _require(cert.verdict == verdict, f"{kind}: verdict {cert.verdict}, expected {verdict}")
        if trials is not None:
            _require(cert.trials == trials, f"{kind}: {cert.trials} trials")

    return check


def _rank_scan(rng, counter):
    m, seed = 4 + counter % 3, _seed(rng)
    return Op(
        "rank_scan",
        ("rank_scan", m, seed),
        lambda: nogo.rank_scan(m, RANK_SCAN_TRIALS, seed=seed),
        _check_verdict("rank_scan", RANK_SCAN_TRIALS, nogo.VERDICT_RANK_DEFICIENT),
    )


def _rank_scan_control(rng, counter):
    m, seed = 4 + counter % 3, _seed(rng)
    return Op(
        "rank_scan_control",
        ("rank_scan_control", m, seed),
        lambda: nogo.rank_scan_control(m, CONTROL_TRIALS, seed=seed),
        _check_verdict("rank_scan_control", CONTROL_TRIALS, nogo.VERDICT_COUNTEREXAMPLE),
    )


def _adversarial_search(rng, counter):
    seed = _seed(rng)

    def check(cert):
        _check_verdict("adversarial_search", 1, nogo.VERDICT_RANK_DEFICIENT)(cert)
        _require(cert.optimizer_iterations > 0, "adversarial_search: no iterations")

    return Op(
        "adversarial_search",
        ("adversarial_search", seed),
        lambda: nogo.adversarial_search(4, restarts=1, iterations=ADVERSARIAL_ITERATIONS, seed=seed),
        check,
    )


def _projection_check(rng, counter):
    cases = []
    for k in range(PROJECTION_BATCH):
        m = 4 + (counter + k) % 3
        alpha = _random_amplitudes(rng, 4)
        mat = _haar(rng, m)
        phi = np.asarray(_random_amplitudes(rng, m))
        cases.append((alpha, optics.ModeUnitary(m, mat), optics.ProjectorSpec(phi)))

    def call():
        return [nogo.end_to_end_projection_check(alpha, u, phi) for alpha, u, phi in cases]

    def check(gaps):
        _require(len(gaps) == PROJECTION_BATCH, "projection_check: batch size")
        _require(max(gaps) <= AMP_ATOL, f"projection_check: gap {max(gaps)!r}")

    desc = ("projection_check",) + tuple((tuple(a), u.matrix.tobytes(), p.phi.tobytes()) for a, u, p in cases)
    return Op("projection_check", desc, call, check)


def _core_determinant(rng, counter):
    seed = _seed(rng)

    def check(value):
        _require(value <= CORE_DET_ATOL, f"core_determinant: {value!r}")

    return Op(
        "core_determinant",
        ("core_determinant", seed),
        lambda: nogo.max_abs_core_determinant(CORE_SAMPLES, seed),
        check,
    )


_CERTIFY_MAKERS = {
    "dense_8_4": _dense(8, 4),
    "dense_10_5": _dense(10, 5),
    "dense_12_6": _dense(12, 6),
    "rank_scan": _rank_scan,
    "rank_scan_control": _rank_scan_control,
    "adversarial_search": _adversarial_search,
    "projection_check": _projection_check,
    "core_determinant": _core_determinant,
}

MIXES = {"protocols": PROTOCOL_MIX, "circuits": CIRCUIT_MIX, "certify": CERTIFY_MIX}


# --- streams ------------------------------------------------------------------


MAKERS = {"protocols": _PROTOCOL_MAKERS, "circuits": _CIRCUIT_MAKERS, "certify": _CERTIFY_MAKERS}


def _stream(workload: str, rng: np.random.Generator, workdir: str | None, one_each: bool) -> Iterator[list[Op]]:
    if workload not in MIXES:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    mix, makers = MIXES[workload], MAKERS[workload]
    counters = dict.fromkeys(mix, 0)
    serial = itertools.count()
    bag = list(mix) if one_each else [kind for kind, weight in mix.items() for _ in range(weight)]
    while True:
        ops = []
        for i in rng.permutation(len(bag)):
            kind = bag[i]
            if workload == "circuits":
                ops.append(makers[kind](rng, counters[kind], workdir, next(serial)))
            else:
                ops.append(makers[kind](rng, counters[kind]))
            counters[kind] += 1
        yield ops


def rounds(workload: str, seed: int, workdir: str | None = None) -> Iterator[list[Op]]:
    """Endless rounds of the workload's mix, all drawn from ``seed``."""
    _, main = np.random.SeedSequence(seed).spawn(2)
    return _stream(workload, np.random.default_rng(main), workdir, one_each=False)


def warmup_ops(workload: str, seed: int, workdir: str | None = None) -> list[Op]:
    """One op of each kind, from a stream independent of the measured one."""
    warm, _ = np.random.SeedSequence(seed).spawn(2)
    return next(_stream(workload, np.random.default_rng(warm), workdir, one_each=True))
