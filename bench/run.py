"""fockjoin benchmark entry point.

    python3 bench/run.py --workload {protocols,circuits,certify} --seed N --seconds S --trace {0,1}

Run from the repository root. Each run starts fresh worker processes with
the BLAS thread count pinned to 1. With ``--trace 0`` it first starts
SETUP_PROBES processes that only set up, then one that sets up and
measures; ``setup_s`` is the median set-up time over all of them. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``). The
line before it records the environment and the op count per kind.

Exits with code 2, printing no result, when the fockjoin sources are not
at ``src/fockjoin`` beside this directory.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORKLOADS = ("protocols", "circuits", "certify")

SETUP_PROBES = 4
BLAS_THREADS = "1"
PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Every run must finish within 180 s; the worker gets what the probes left.
RUN_BUDGET_S = 170.0


def _worker(args: list[str], env: dict, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fockjoin benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fockjoin" / "__init__.py").is_file():
        print(f"error: no fockjoin sources under {ROOT / 'src'}; run from a repository checkout", file=sys.stderr)
        return 2

    started = time.monotonic()
    env = dict(os.environ, PYTHONHASHSEED="0", **{var: BLAS_THREADS for var in PIN_VARS})
    env.pop("PYTHONPATH", None)
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    probes = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probes.append(_worker(common + ["--setup-only"], env, timeout=60))
    remaining = RUN_BUDGET_S - (time.monotonic() - started)
    result = _worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], env, timeout=remaining)
    metrics = result["metrics"]
    setups = probes + [result]
    if not args.trace:
        metrics["setup_s"]["value"] = statistics.median(p["setup_s"] for p in setups)

    info = dict(result["environment"])
    info.update(
        {
            "blas_threads": {var: env[var] for var in PIN_VARS},
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "seconds": args.seconds,
            "rounds": result["rounds"],
            "ops_per_kind": result["ops_per_kind"],
            "failures": result["failures"],
            "setup_samples_s": [p["setup_s"] for p in setups],
            "raw_setup_samples_s": [p["raw_setup_s"] for p in setups],
            "raw": result.get("raw"),
            "cli_report_sha256": result.get("cli_report_sha256"),
            "spans_file": result.get("spans_file"),
        }
    )
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
