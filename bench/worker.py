"""One fresh benchmark process: set up, then measure one workload.

Started by ``run.py``. Set-up time runs from just before ``fockjoin`` (and
numpy with it) is imported to the end of the warm-up. With
``--setup-only`` the process stops there and prints its set-up time.
Otherwise it runs whole rounds of the workload in a closed loop (one
client, one thread) until ``--seconds`` have passed and prints one JSON
object.

With ``--trace 1`` it first runs the rounds untraced for half the time,
then runs the same rounds again with every public ``fockjoin`` function
wrapped, and reports per-layer metrics from the second pass; the ratio of
the two passes' op times is the tracing overhead.

Every time is scaled to nominal machine speed by ``calibrate``.
"""
import time

import calibrate

# Calibration samples before, during and just after set-up scale its time.
# The first loop of a fresh process runs cold and is dropped.
_SETUP_SAMPLES = 10
_SETUP_PRE = [calibrate.sample()[1] for _ in range(_SETUP_SAMPLES + 1)][1:]
T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import fockjoin  # noqa: E402
import fockjoin.cli  # noqa: E402,F401
import numpy  # noqa: E402
import scipy  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# CLI reports of the first rounds are hashed, for later byte-identity comparisons.
REPORT_ROUNDS = 3
OUT = ROOT / ".bench_out"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
    }


def set_up(workload: str, seed: int, workdir: str) -> tuple[float, float]:
    """Finish the lazy set-up and warm every op kind; returns (scaled, raw) seconds."""
    paused = 0.0
    samples = list(_SETUP_PRE)

    def calibrate_between_steps():
        nonlocal paused
        start = time.perf_counter()
        samples.append(calibrate.sample()[1])
        paused += time.perf_counter() - start

    for resource_kinds in workloads.RESOURCES:
        fockjoin.tpes.derive_correction_table(resource_kinds)
    calibrate_between_steps()
    for op in workloads.warmup_ops(workload, seed, workdir):
        try:
            op.call()
        except Exception:  # a broken kind is counted by the measured loop, not here
            pass
        calibrate_between_steps()
    raw = time.perf_counter() - T_START - paused
    samples += [calibrate.sample()[1] for _ in range(_SETUP_SAMPLES)]
    return raw * calibrate.scale(samples), raw


class Loop:
    """Closed-loop runner: whole rounds, each op timed alone and checked afterwards."""

    def __init__(self):
        self.intervals_ns: list[tuple[int, int]] = []
        self.ok = 0
        self.failures: Counter = Counter()
        self.kinds: Counter = Counter()
        self.rounds = 0
        self.calibration = calibrate.Calibration()
        self.reports = 0
        self._digest = hashlib.sha256()

    def run_op(self, op, tracer=None):
        self.calibration.maybe_sample()
        root = tracer.begin_op(len(self.intervals_ns)) if tracer else None
        start = time.perf_counter_ns()
        try:
            result = op.call()
            error = None
        except Exception as exc:  # counted by type; the loop goes on
            error = type(exc).__name__
        end = time.perf_counter_ns()
        if tracer:
            tracer.end_op(root, op.kind, start, end)
        self.intervals_ns.append((start, end))
        self.kinds[op.kind] += 1
        if error is None:
            try:
                op.check(result)
                self.ok += 1
                if op.report is not None and self.rounds < REPORT_ROUNDS:
                    self.reports += 1
                    self._digest.update(op.report(result).encode("utf-8"))
                return
            except Exception as exc:  # a failed check, or a report the check cannot read
                error = type(exc).__name__
        self.failures[f"{op.kind}:{error}"] += 1

    def run(self, stream, seconds=None, rounds=None, tracer=None):
        deadline = time.perf_counter() + seconds if seconds is not None else None
        for ops in stream:
            for op in ops:
                self.run_op(op, tracer)
            self.rounds += 1
            if rounds is not None and self.rounds >= rounds:
                break
            if deadline is not None and time.perf_counter() >= deadline:
                break
        self.calibration.maybe_sample()
        return self

    @property
    def attempted(self) -> int:
        return len(self.intervals_ns)

    def latencies_ms(self, scaled=True) -> list[float]:
        out = []
        for start, end in self.intervals_ns:
            factor = self.calibration.scale_at(start / 1e9, end / 1e9) if scaled else 1.0
            out.append((end - start) / 1e6 * factor)
        return out

    @property
    def report_sha256(self):
        return self._digest.hexdigest() if self.reports else None


def end_to_end(loop: Loop, setup_s: float) -> dict:
    lat_ms = loop.latencies_ms()
    cuts = statistics.quantiles(lat_ms, n=10, method="inclusive")
    return {
        "ops_per_s": {"value": loop.ok / (sum(lat_ms) / 1e3), "unit": "1/s"},
        "op_p50_ms": {"value": cuts[4], "unit": "ms"},
        "op_p90_ms": {"value": cuts[8], "unit": "ms"},
        "ok_ratio": {"value": loop.ok / loop.attempted, "unit": "ratio"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }


def raw_summary(loop: Loop) -> dict:
    """Unscaled latencies and the calibration level, for the info record."""
    raw = loop.latencies_ms(scaled=False)
    cuts = statistics.quantiles(raw, n=10, method="inclusive")
    return {
        "raw_op_p50_ms": cuts[4],
        "raw_op_p90_ms": cuts[8],
        "raw_ops_per_s": loop.ok / (sum(raw) / 1e3),
        "calibration_median_ms": statistics.median(loop.calibration.durations) * 1e3,
        "calibration_samples": len(loop.calibration.durations),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setup_s, raw_setup_s = set_up(args.workload, args.seed, workdir)
        result = {"setup_s": setup_s, "raw_setup_s": raw_setup_s}
        if args.setup_only:
            print(json.dumps(result))
            return 0
        if args.trace:
            plain = Loop().run(workloads.rounds(args.workload, args.seed, workdir), seconds=args.seconds / 2)
            tracer = tracing.Tracer()
            with tracer.installed():
                traced = Loop().run(workloads.rounds(args.workload, args.seed, workdir), rounds=plain.rounds, tracer=tracer)
            overhead = sum(traced.latencies_ms()) / sum(plain.latencies_ms()) - 1.0
            time_scale = calibrate.scale(traced.calibration.durations)
            result["metrics"] = tracing.per_layer_metrics(tracer.spans, tracer.work, traced.attempted, overhead, time_scale)
            spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.csv.gz")
            tracer.write(spans_path)
            result["spans_file"] = os.path.relpath(spans_path, ROOT)
            loops = (plain, traced)
        else:
            loop = Loop().run(workloads.rounds(args.workload, args.seed, workdir), seconds=args.seconds)
            result["metrics"] = end_to_end(loop, setup_s)
            result["raw"] = raw_summary(loop)
            result["cli_report_sha256"] = loop.report_sha256
            loops = (loop,)
        result["attempted"] = sum(lp.attempted for lp in loops)
        result["failed"] = sum(sum(lp.failures.values()) for lp in loops)
        result["failures"] = dict(sum((lp.failures for lp in loops), Counter()))
        result["environment"] = environment()
        result["ops_per_kind"] = dict(loops[-1].kinds)
        result["rounds"] = loops[-1].rounds
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
