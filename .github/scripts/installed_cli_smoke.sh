#!/usr/bin/env bash
# Smoke test of an installed fockjoin: the console script, not the source tree.
#
#   .github/scripts/installed_cli_smoke.sh VENV_BIN
#
# VENV_BIN holds the installed `fockjoin` script and the `python` it runs under.
# The checks run in a temporary directory, so nothing is imported from `src/`.
set -euo pipefail
bin="$(cd "$1" && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work"

fail() { echo "installed fockjoin: $*" >&2; exit 1; }
# The report REPORT parses and its field FIELD is a probability in [0, 1].
probability_in_unit_range() {
    "$bin/python" -c 'import json, sys; p = json.load(open(sys.argv[1]))[sys.argv[2]]; sys.exit(not 0 <= p <= 1)' "$1" "$2"
}

"$bin/fockjoin" --version || fail "--version exited $?"
"$bin/python" -c 'import fockjoin, sys; sys.exit("/src/fockjoin/" in fockjoin.__file__)' || fail "fockjoin imports from a source tree"
# fockjoin does not depend on scipy: importing it loads none (a search loads none either; see below).
"$bin/python" -c 'import fockjoin, sys; sys.exit(any(name.split(".")[0] == "scipy" for name in sys.modules))' \
    || fail "import fockjoin loads scipy"

# A short no-go scan with one search restart, in a fresh process: the search runs and finds nothing.
"$bin/fockjoin" nogo-scan --modes 4 --trials 50 --restarts 1 --iterations 50 --seed 3 --out nogo.json \
    || fail "nogo-scan with a search restart exited $?"
"$bin/python" -c 'import json, sys; r = json.load(open("nogo.json")); sys.exit(not (r["verdict"] == "rank-deficient" and r["optimizer_iterations"] >= 1))' \
    || fail "nogo-scan does not report rank-deficient after at least one optimizer iteration"
# A search budget of no iterations exits 2 before the scan starts; a scan of 1e8 trials would outlast the timeout.
code=0
timeout 60 "$bin/fockjoin" nogo-scan --trials 100000000 --restarts 1 --iterations 0 > out.txt 2> err.txt || code=$?
[ "$code" -eq 2 ] || fail "nogo-scan --trials 100000000 --restarts 1 --iterations 0 exited $code, expected 2 before the scan"
[ "$(wc -l < err.txt)" -eq 1 ] && grep -q '^error: iterations must be at least 1, got 0$' err.txt \
    || fail "expected one error: line naming iterations, got: $(cat err.txt)"
# Scans whose 64 trials cross seed 2**32, 2**64 and 2**128, where a seed gains a second, a third and a fifth 32-bit
# entropy word: every trial's 40 normals (m = 4) are default_rng(s)'s for its seed s, to the bit, and each certificate
# has the max_sigma_min bits and argmax_seed of a loop that builds default_rng(s) for every trial seed s.
for seed in 4294967264 18446744073709551584 340282366920938463463374607431768211424; do
    "$bin/fockjoin" nogo-scan --modes 4 --trials 64 --seed "$seed" --out scan.json \
        || fail "nogo-scan --trials 64 --seed $seed exited $?"
    "$bin/python" - scan.json "$seed" <<'PY' || fail "nogo-scan from seed $seed does not match a per-trial default_rng loop"
import json, sys
import numpy as np
from fockjoin import nogo, optics
report = json.load(open(sys.argv[1]))
seed = int(sys.argv[2])
normals = nogo._trial_normals(seed, 64, 40)
for s in range(seed, seed + 64):
    if normals[s - seed].tobytes() != np.random.default_rng(s).standard_normal(40).tobytes():
        sys.exit(f"trial seed {s}: its normals are not default_rng({s}).standard_normal(40)")
best, best_seed = -1.0, seed
for s in range(seed, seed + 64):
    rng = np.random.default_rng(s)
    u = optics.haar_from_rng(4, rng)
    phi = optics.random_projector(4, rng)
    sigma = float(np.linalg.svd(nogo.symmetrized_modes(u, phi), compute_uv=False)[-1])
    if sigma > best:
        best, best_seed = sigma, s
sys.exit(not (report["max_sigma_min"].hex() == best.hex() and report["argmax_seed"] == best_seed))
PY
done
# Nelder-Mead is in-repo and the SVD is numpy's: a search in a fresh process loads no scipy module at all.
"$bin/python" -c 'import sys; from fockjoin.nogo import adversarial_search; adversarial_search(4, restarts=1, iterations=5); sys.exit(any(n.split(".")[0] == "scipy" for n in sys.modules))' \
    || fail "a search loads scipy"

# A valid two-qubit input: the report parses and names its verb.
echo '{"modes": 4, "terms": [{"occ": [1, 0, 1, 0], "re": 0.6, "im": 0.0}, {"occ": [0, 1, 0, 1], "re": 0.0, "im": 0.8}]}' > valid.json
"$bin/fockjoin" join --input valid.json --report report.json || fail "join on a valid input exited $?"
"$bin/python" -c 'import json, sys; sys.exit(json.load(open("report.json"))["verb"] != "join")' || fail "the join report does not parse"

# A sampled join branch without feed-forward: its probability is the one branch's weight.
"$bin/fockjoin" join --input valid.json --branch sample --seed 9 --no-feed-forward --report sampled.json \
    || fail "join --branch sample --seed 9 --no-feed-forward exited $?"
probability_in_unit_range sampled.json success_probability || fail "the sampled join report does not parse or its probability is outside [0, 1]"

# A negative seed of a sampling run: exit 2 with one error line naming --seed.
code=0
"$bin/fockjoin" join --input valid.json --branch sample --seed=-1 > out.txt 2> err.txt || code=$?
[ "$code" -eq 2 ] || fail "join --branch sample --seed=-1 exited $code, expected 2"
[ "$(wc -l < err.txt)" -eq 1 ] && grep -q '^error: .*--seed' err.txt || fail "expected one error: line naming --seed, got: $(cat err.txt)"

# A state file whose real part is the JSON boolean true (complex() would read it as 1): exit 2 with one error line
# naming the part.
echo '{"modes": 4, "terms": [{"occ": [1, 0, 1, 0], "re": true, "im": 0.0}]}' > boolean.json
code=0
"$bin/fockjoin" join --input boolean.json > out.txt 2> err.txt || code=$?
[ "$code" -eq 2 ] || fail "join on a boolean amplitude part exited $code, expected 2"
[ "$(wc -l < err.txt)" -eq 1 ] && grep -q '^error: re part of occupation (1, 0, 1, 0) is a boolean' err.txt \
    || fail "expected one error: line naming the boolean part, got: $(cat err.txt)"

# The split's minus branch, a measured branch folded back by feed-forward.
echo '{"modes": 4, "terms": [{"occ": [1, 0, 0, 0], "re": 0.6, "im": 0.0}, {"occ": [0, 0, 1, 0], "re": 0.0, "im": 0.8}]}' > ququart.json
"$bin/fockjoin" split --input ququart.json --branch minus --report split.json || fail "split --branch minus exited $?"
probability_in_unit_range split.json success_probability || fail "the split report does not parse or its probability is outside [0, 1]"

# The deterministic variants, which measure nothing: probability 1, fidelity 1 up to rounding, and each output
# register (the join keeps all six modes, the carrier factored out on 4 and 5; the split gives two dual-rail qubits).
"$bin/fockjoin" join --input valid.json --variant deterministic --report join_det.json || fail "join --variant deterministic exited $?"
"$bin/fockjoin" split --input ququart.json --variant deterministic --report split_det.json || fail "split --variant deterministic exited $?"
for pair in join_det.json:6 split_det.json:4; do
    "$bin/python" -c 'import json, sys; r = json.load(open(sys.argv[1])); sys.exit(not (r["success_probability"] == 1 and r["fidelity"] >= 1 - 1e-12 and r["output"]["modes"] == int(sys.argv[2])))' "${pair%:*}" "${pair#*:}" \
        || fail "${pair%:*} does not report probability 1, fidelity 1 and ${pair#*:} output modes"
done

# A circuit that measures: a carrier projection, then a vacuum check.
printf 'modes 6\ncnot 4 5 0 1\ncnot 4 5 2 3\nproject 4 0.7071067811865476 0 5 0.7071067811865476 0\nvac 3\n' > measure.pc
echo '{"modes": 6, "terms": [{"occ": [1, 0, 0, 0, 1, 0], "re": 0.6, "im": 0.0}, {"occ": [0, 0, 1, 0, 0, 1], "re": 0.0, "im": 0.8}]}' > unfolded.json
"$bin/fockjoin" run --circuit measure.pc --input unfolded.json --report run.json || fail "run with project and vac lines exited $?"
probability_in_unit_range run.json probability || fail "the run report does not parse or its probability is outside [0, 1]"

# Teleportation-based joining in a fresh process: the Pauli correction of outcome 5 restores the joined state.
# The branch weight is 1/16 up to rounding (0.062499999999999944 for this input).
"$bin/fockjoin" teleport-join --alpha 0.6 --beta 0.8j --gamma 0.28 --delta=-0.96j --outcome 5 --report teleport.json \
    || fail "teleport-join --outcome 5 exited $?"
"$bin/python" -c 'import json, sys; r = json.load(open("teleport.json")); sys.exit(not (r["fidelity"] >= 1 - 1e-12 and abs(r["success_probability"] - 0.0625) <= 1e-12))' \
    || fail "teleport-join --outcome 5 does not report fidelity 1 and probability 1/16"

# The TPES built by joining, in a fresh process: four output terms, joining fidelity 1 up to rounding
# (0.9999999999999996 for this resource).
"$bin/fockjoin" tpes --pol Phi- --path phi- --report tpes.json || fail "tpes --pol Phi- --path phi- exited $?"
"$bin/python" -c 'import json, sys; r = json.load(open("tpes.json")); sys.exit(not (r["joining_fidelity"] >= 1 - 1e-12 and len(r["output"]["terms"]) == 4))' \
    || fail "tpes --pol Phi- --path phi- does not report joining fidelity 1 and four output terms"

# The postselected CNOT's vacuum failure: a report of floats and int lists in nested dicts, written by the generic walk.
"$bin/fockjoin" cnot-demo --report cnot.json || fail "cnot-demo exited $?"
"$bin/python" -c 'import json, sys; r = json.load(open("cnot.json")); rows = r["truth_table"]; sys.exit(not (r["demonstrates_failure"] is True and len(rows) == 4 and all(abs(row["success_probability"] - 1 / 9) <= 1e-12 for row in rows)))' \
    || fail "cnot-demo does not demonstrate the failure with four truth-table rows of probability 1/9"

# A fixed (8, 4) brick-wall mesh on |10101010>: 330 terms in lexicographic order, probability and squared norm 1,
# and the report's own bytes are what canonical_json gives for its parsed form (the one-pass state renderer
# against the generic walk).
{
    echo "modes 8"
    for i in 0 1 2 3 4 5 6 7; do echo "ps $i 0.$((i + 3))"; done
    for layer in 0 1 2 3 4 5 6 7; do
        if [ "$layer" -eq 4 ]; then echo "perm 3 0 6 1 7 2 5 4"; fi
        for i in $(seq $((layer % 2)) 2 6); do echo "bs $i $((i + 1)) 0.$((layer + 2))$i 1.$i$layer"; done
    done
} > mesh.pc
echo '{"modes": 8, "terms": [{"occ": [1, 0, 1, 0, 1, 0, 1, 0], "re": 1.0, "im": 0.0}]}' > four.json
"$bin/fockjoin" run --circuit mesh.pc --input four.json --report mesh.json || fail "run of the (8, 4) mesh exited $?"
"$bin/python" - mesh.json <<'PY' || fail "the (8, 4) mesh report is not 330 sorted terms of norm 1, or not canonical_json of itself"
import json, sys
from fockjoin.cli import canonical_json
text = open(sys.argv[1], encoding="utf-8").read()
report = json.loads(text)
terms = report["output"]["terms"]
occs = [t["occ"] for t in terms]
squared_norm = sum(t["re"] ** 2 + t["im"] ** 2 for t in terms)
sys.exit(not (
    len(terms) == 330
    and all(a < b for a, b in zip(occs, occs[1:]))
    and abs(report["probability"] - 1) <= 1e-10
    and abs(squared_norm - 1) <= 1e-10
    and canonical_json(report) + "\n" == text
))
PY
# The same mesh through the installed script under -W error, where a numpy warning from the coupler pass fails the
# run: at most 330 terms of squared norm 1, and 8 sampled amplitudes equal the permanent formula's for the matrix
# composed here from the circuit's lines (applying u then v is u @ v).
"$bin/python" -W error "$bin/fockjoin" run --circuit mesh.pc --input four.json --report mesh_w.json \
    || fail "run of the (8, 4) mesh under -W error exited $?"
"$bin/python" -W error - mesh.pc mesh_w.json <<'PY' || fail "the (8, 4) mesh under -W error is not at most 330 terms of norm 1 matching permanents"
import json, math, sys
from pathlib import Path
import numpy as np
from fockjoin import permanent
lines = [line.split() for line in Path(sys.argv[1]).read_text().splitlines()]
m = int(lines[0][1])
total = np.eye(m, dtype=complex)
for op, *args in lines[1:]:
    mat = np.eye(m, dtype=complex)
    if op == "ps":
        mat[int(args[0]), int(args[0])] = np.exp(1j * float(args[1]))
    elif op == "perm":  # the photon in mode i exits in mode args[i]
        mat = np.zeros((m, m), dtype=complex)
        mat[range(m), [int(p) for p in args]] = 1.0
    else:  # bs i j theta phi: [[cos, e^{i phi} sin], [-e^{-i phi} sin, cos]] on (i, j)
        i, j, theta, phi = int(args[0]), int(args[1]), float(args[2]), float(args[3])
        mat[i, i] = mat[j, j] = math.cos(theta)
        mat[i, j], mat[j, i] = np.exp(1j * phi) * math.sin(theta), -np.exp(-1j * phi) * math.sin(theta)
    total = total @ mat
terms = {tuple(t["occ"]): complex(t["re"], t["im"]) for t in json.loads(Path(sys.argv[2]).read_text())["output"]["terms"]}
occ_in = (1, 0) * 4
keys = sorted(terms)
picks = [keys[k] for k in np.random.default_rng(8).choice(len(keys), 8, replace=False)]
sys.exit(not (
    len(terms) <= 330
    and abs(sum(abs(a) ** 2 for a in terms.values()) - 1) <= 1e-10
    and all(abs(terms[occ] - permanent.transition_amplitude(total, occ_in, occ)) <= 1e-10 for occ in picks)
))
PY

# One dense evolution under -W error: a seeded (10, 5) Haar unitary on |1111100000> gives 2002 terms of squared
# norm 1, and 8 sampled amplitudes equal the permanent formula's; a warning (say, from the pruning mask) fails here.
"$bin/python" -W error - <<'PY' || fail "the dense (10, 5) evolution is not 2002 terms of norm 1 matching permanents, or it warned"
import sys
import numpy as np
from fockjoin import fock, optics, permanent
u = optics.haar_random_unitary(10, 34)
occ_in = (1,) * 5 + (0,) * 5
terms = optics.apply_unitary(fock.basis_state(10, occ_in), u).terms
keys = sorted(terms)
picks = [keys[k] for k in np.random.default_rng(34).choice(len(keys), 8, replace=False)]
sys.exit(not (
    len(terms) == 2002
    and abs(sum(abs(a) ** 2 for a in terms.values()) - 1) <= 1e-10
    and all(abs(terms[occ] - permanent.transition_amplitude(u.matrix, occ_in, occ)) <= 1e-10 for occ in picks)
))
PY

# Twelve photons through a 4-mode chain of couplers under -W error: past 32 terms the chain runs on carried arrays,
# whose report renders two-digit counts in one numpy pass. Some output occupation holds at least 10 photons, the squared
# norm is 1, the report's bytes are canonical_json of its parsed form, and 8 sampled amplitudes equal the permanent
# formula's for the matrix composed from the circuit's lines.
printf 'modes 4\nbs 0 1 0.4 0.3\nbs 1 2 0.5 -1.1\nbs 2 3 0.3 2.0\nbs 0 1 0.6 0.7\nbs 1 2 0.2 -0.4\nbs 2 3 0.45 1.2\n' > crowded.pc
echo '{"modes": 4, "terms": [{"occ": [12, 0, 0, 0], "re": 1.0, "im": 0.0}]}' > twelve.json
"$bin/python" -W error "$bin/fockjoin" run --circuit crowded.pc --input twelve.json --report crowded.json \
    || fail "run of the 4-mode coupler chain on |12,0,0,0> under -W error exited $?"
"$bin/python" -W error - crowded.pc crowded.json <<'PY' || fail "the coupler chain on |12,0,0,0> is not carried, holds no count of 10, or does not match permanents"
import json, math, sys
from pathlib import Path
import numpy as np
from fockjoin import circuit, fock, optics, permanent
from fockjoin.cli import canonical_json
text = Path(sys.argv[1]).read_text()
occ_in = (12, 0, 0, 0)
final = circuit.run_circuit(circuit.parse_circuit(text), fock.basis_state(4, occ_in))[0]
total = np.eye(4, dtype=complex)
for op, *args in (line.split() for line in text.splitlines()[1:]):  # bs i j theta phi, as in the mesh check above
    i, j, theta, phi = int(args[0]), int(args[1]), float(args[2]), float(args[3])
    mat = np.eye(4, dtype=complex)
    mat[i, i] = mat[j, j] = math.cos(theta)
    mat[i, j], mat[j, i] = np.exp(1j * phi) * math.sin(theta), -np.exp(-1j * phi) * math.sin(theta)
    total = total @ mat
report_text = Path(sys.argv[2]).read_text(encoding="utf-8")
report = json.loads(report_text)
terms = {tuple(t["occ"]): complex(t["re"], t["im"]) for t in report["output"]["terms"]}
keys = sorted(terms)
picks = [keys[k] for k in np.random.default_rng(12).choice(len(keys), 8, replace=False)]
sys.exit(not (
    type(final) is optics._Packed
    and max(map(max, keys)) >= 10
    and abs(sum(abs(a) ** 2 for a in terms.values()) - 1) <= 1e-10
    and canonical_json(report) + "\n" == report_text
    and all(abs(terms[occ] - permanent.transition_amplitude(total, occ_in, occ)) <= 1e-10 for occ in picks)
))
PY

# A state file that lists an occupation twice: exit 2 with one error line naming it (make_state would sum them).
echo '{"modes": 4, "terms": [{"occ": [1, 0, 1, 0], "re": 0.6, "im": 0.0}, {"occ": [1, 0, 1, 0], "re": -0.6, "im": 0.0}, {"occ": [0, 1, 0, 1], "re": 1.0, "im": 0.0}]}' > twice.json
code=0
"$bin/fockjoin" join --input twice.json > out.txt 2> err.txt || code=$?
[ "$code" -eq 2 ] || fail "join on a repeated occupation exited $code, expected 2"
[ "$(wc -l < err.txt)" -eq 1 ] && grep -q '^error: occupation (1, 0, 1, 0) is listed twice$' err.txt \
    || fail "expected one error: line naming the repeated occupation, got: $(cat err.txt)"

# A project line on a mode holding two photons: exit 2 with one error line.
printf 'modes 2\nproject 0 1 0\n' > detect.pc
echo '{"modes": 2, "terms": [{"occ": [2, 0], "re": 1.0, "im": 0.0}]}' > twenty.json
code=0
"$bin/fockjoin" run --circuit detect.pc --input twenty.json > out.txt 2> err.txt || code=$?
[ "$code" -eq 2 ] || fail "project on |20> exited $code, expected 2"
[ "$(wc -l < err.txt)" -eq 1 ] && grep -q '^error: ' err.txt || fail "expected one error: line, got: $(cat err.txt)"

# An amplitude whose abs() overflows: exit 2 with one error line.
echo '{"modes": 4, "terms": [{"occ": [1, 0, 1, 0], "re": 1.5e308, "im": 1.5e308}]}' > overflow.json
code=0
"$bin/fockjoin" join --input overflow.json > out.txt 2> err.txt || code=$?
[ "$code" -eq 2 ] || fail "join on an overflowing amplitude exited $code, expected 2"
[ "$(wc -l < err.txt)" -eq 1 ] && grep -q '^error: ' err.txt || fail "expected one error: line, got: $(cat err.txt)"

# An unknown verb is a usage error.
code=0
"$bin/fockjoin" no-such-verb 2> /dev/null || code=$?
[ "$code" -eq 1 ] || fail "an unknown verb exited $code, expected 1"

echo "installed fockjoin: every check passed"
