"""Self-time arithmetic and the wrap/restore contract of the tracer."""
import json
from pathlib import Path

import fockjoin.cli  # noqa: F401  (the CLI module must be loaded for wrapping)
import pytest

import run
import tracer as tracing
import worker
import workloads

ROOT = Path(__file__).resolve().parents[2]


def _span(name, start, end, parent, op=0):
    return (name, start, end, parent, op)


def test_self_time_subtracts_union_of_children():
    spans = [
        _span("op.x", 0, 100, -1),
        _span("fock.a", 10, 40, 0),
        _span("fock.b", 30, 60, 0),  # overlaps its sibling: the union counts once
        _span("fock.c", 90, 120, 0),  # runs past its parent: only the inside counts
        _span("fock.d", 35, 38, 2),
    ]
    assert tracing.self_times(spans) == [100 - 50 - 10, 30, 30 - 3, 30, 3]


def test_self_time_of_nested_same_name_spans():
    spans = [
        _span("op.x", 0, 100, -1),
        _span("optics.apply_unitary", 10, 90, 0),
        _span("optics.apply_unitary", 20, 70, 1),
        _span("optics.apply_unitary", 30, 40, 2),
        _span("optics.apply_unitary", 50, 60, 2),
    ]
    assert tracing.self_times(spans) == [20, 30, 30, 10, 10]


def _fact(n):
    return 1 if n <= 1 else n * fact(n - 1)


fact = _fact


def test_recursive_wrapped_calls_nest_and_self_times_add_up():
    global fact
    tracer = tracing.Tracer()
    fact = tracer._wrap("fock.fact", _fact)
    try:
        root = tracer.begin_op(0)
        start = tracing.perf_counter_ns()
        assert fact(5) == 120
        end = tracing.perf_counter_ns()
        tracer.end_op(root, "fact", start, end)
    finally:
        fact = _fact
    spans = tracer.spans
    assert [s[0] for s in spans] == ["op.fact"] + ["fock.fact"] * 5
    assert [s[3] for s in spans] == [-1, 0, 1, 2, 3, 4]
    selfs = tracing.self_times(spans)
    for i in range(1, 5):
        assert selfs[i] == (spans[i][2] - spans[i][1]) - (spans[i + 1][2] - spans[i + 1][1])
    assert sum(selfs) == end - start


def _snapshot():
    return {(mod.__name__, key): value for mod in tracing.fockjoin_modules() for key, value in vars(mod).items()}


def _traced_bindings():
    return [
        f"{mod.__name__}.{key}"
        for mod in tracing.fockjoin_modules()
        for key, value in vars(mod).items()
        if getattr(value, "__bench_traced__", False)
    ]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_leaves_every_function_unwrapped(workload, tmp_path):
    before = _snapshot()
    loop = worker.Loop().run(workloads.rounds(workload, 3, str(tmp_path)), rounds=1)
    assert loop.failures == {}
    assert _traced_bindings() == []
    assert _snapshot() == before


def test_installed_wraps_every_binding_and_restores_them():
    before = _snapshot()
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = set(_traced_bindings())
        # One function, bound in its own module, the package and every importer.
        for where in ("fockjoin.optics", "fockjoin", "fockjoin.schemes", "fockjoin.tpes", "fockjoin.circuit", "fockjoin.cli", "fockjoin.nogo", "fockjoin.gates"):
            assert f"{where}.apply_unitary" in traced
        assert "fockjoin.tpes.derive_correction_table" in traced
        assert not any(name.startswith("fockjoin.permanent.") for name in traced)
    assert _traced_bindings() == []
    assert _snapshot() == before


def test_traced_round_reports_every_per_layer_metric(tmp_path):
    tracer = tracing.Tracer()
    with tracer.installed():
        loop = worker.Loop().run(workloads.rounds("protocols", 5, str(tmp_path)), rounds=1, tracer=tracer)
    assert loop.failures == {}
    metrics = tracing.per_layer_metrics(tracer.spans, tracer.work, loop.attempted, 0.1)
    assert list(metrics) == [name for name, _, _ in tracing.PER_LAYER]
    ops = sum(workloads.PROTOCOL_MIX.values())
    teleports = workloads.PROTOCOL_MIX["teleport_forced"] + workloads.PROTOCOL_MIX["teleport_sampled"]
    assert metrics["tpes.teleport_join.calls_per_op"]["value"] == teleports / ops
    assert metrics["schemes.join_projective.calls_per_op"]["value"] == workloads.PROTOCOL_MIX["join_projective"] / ops
    per_call = metrics["tpes.teleport_join.partial_inner_per_call"]["value"]
    assert metrics["tpes.teleport_join.branch_use_ratio"]["value"] * per_call == pytest.approx(2.0)
    shares = sum(metrics[f"{layer}.self_share"]["value"] for layer in tracing.LAYERS)
    assert 0.0 < shares <= 1.0


def test_unitary_classes():
    import numpy as np

    from fockjoin import optics

    assert tracing.unitary_class(optics.phase_shifter(5, 2, 0.3).matrix) == "diag_perm"
    assert tracing.unitary_class(optics.mode_permutation(4, (2, 0, 3, 1)).matrix) == "diag_perm"
    assert tracing.unitary_class(optics.beamsplitter(6, 1, 4, 0.4, 0.2).matrix) == "two_mode"
    assert tracing.unitary_class(optics.hadamard_pair(3, 0, 2).matrix) == "two_mode"
    assert tracing.unitary_class(optics.haar_random_unitary(4, 1).matrix) == "dense"
    assert tracing.unitary_class(np.eye(3, dtype=complex)) == "diag_perm"


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)
    loop = worker.Loop()
    loop.intervals_ns = [(0, 1_000_000), (0, 2_000_000)]
    loop.ok = 2
    loop.calibration.times, loop.calibration.durations = [0.0], [0.5e-3]
    emitted = worker.end_to_end(loop, 1.0)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [(k, v["unit"]) for k, v in emitted.items()]
