"""Outside-in layer tracing for the benchmark's traced run.

Nothing inside ``fockjoin`` records spans. Instead ``Tracer.installed()``
wraps every public function of each layer module and rebinds the wrapper
in every ``fockjoin`` module namespace that binds the original, so calls
between modules (``schemes`` calling ``gates.apply_cnot``) and within a
module (``tpes.teleport_join`` calling ``expand_five_photon``) are both
seen. Leaving the context restores the original objects.

A span is ``(name, start_ns, end_ns, parent_index, op_id)``. The benchmark
opens one root span per op (``op.<kind>``, parent -1) around exactly the
timed interval; spans are recorded only while an op is open. They stay in
memory and are written once, at the end of the run.

A layer's self time is its span's duration minus the union of its child
spans. The permanent oracle is not a layer: only the benchmark's checks
call it, outside timed regions.
"""
from __future__ import annotations

import csv
import functools
import gzip
import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

LAYERS = ("fock", "optics", "gates", "schemes", "tpes", "nogo", "circuit", "cli")

# Functions with their own calls_per_op / self_us_per_call metrics.
REPORTED_FUNCTIONS = {
    "fock": (
        "make_state",
        "tensor",
        "partial_inner",
        "normalize",
        "fidelity",
        "postselect_vacuum",
        "add_vacuum_modes",
        "discard_empty_modes",
        "permute_modes",
        "state_from_dict",
        "state_to_dict",
    ),
    "optics": ("apply_projector",),
    "gates": ("apply_cnot", "apply_reversed_cnot", "logical_phase_flip"),
    "schemes": ("join_projective", "join_deterministic", "split_projective", "split_deterministic", "drop_control_photon"),
    "tpes": ("teleport_join", "expand_five_photon", "tpes_via_joining", "build_tpes", "bell_pair", "derive_correction_table"),
    "nogo": ("rank_scan", "rank_scan_control", "adversarial_search", "end_to_end_projection_check", "max_abs_core_determinant"),
    "circuit": ("parse_circuit", "run_circuit"),
    "cli": ("cli_dispatch", "canonical_json"),
}

# apply_unitary spans are named by the structure of the matrix, the split a
# structure-aware optics engine would dispatch on.
UNITARY_CLASSES = ("diag_perm", "two_mode", "dense")


def unitary_class(matrix) -> str:
    """diag_perm: one nonzero per row; two_mode: differs from identity on two modes; else dense."""
    nonzero = matrix != 0
    if (nonzero.sum(axis=1) == 1).all():
        return "diag_perm"
    moved = nonzero.copy()
    moved.flat[:: matrix.shape[0] + 1] = matrix.diagonal() != 1
    touched = moved.any(axis=0) | moved.any(axis=1)
    return "two_mode" if touched.sum() <= 2 else "dense"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _probe_unitary(args, kwargs, result):
    u = _arg(args, kwargs, 1, "u")
    state = _arg(args, kwargs, 0, "s")
    return "." + unitary_class(u.matrix), {"terms_in": len(state.terms), "terms_out": len(result.terms)}


# Work counted where the work happens: (name suffix, counts) per call.
PROBES = {
    "optics.apply_unitary": _probe_unitary,
    "gates.apply_cnot": lambda a, k, r: ("", {"terms_in": len(_arg(a, k, 0, "s").terms)}),
    "fock.partial_inner": lambda a, k, r: ("", {"terms_in": len(_arg(a, k, 1, "ket").terms)}),
    "nogo.rank_scan": lambda a, k, r: ("", {"trials": _arg(a, k, 1, "trials")}),
    "nogo.adversarial_search": lambda a, k, r: ("", {"iterations": r.optimizer_iterations}),
}


def _per_layer_spec():
    spec = [(f"{layer}.self_share", "ratio", "lower") for layer in LAYERS]
    for layer, names in REPORTED_FUNCTIONS.items():
        for name in names:
            spec.append((f"{layer}.{name}.calls_per_op", "calls/op", "lower"))
            spec.append((f"{layer}.{name}.self_us_per_call", "us", "lower"))
    for cls in UNITARY_CLASSES:
        base = f"optics.apply_unitary.{cls}"
        spec += [
            (f"{base}.calls_per_op", "calls/op", "lower"),
            (f"{base}.self_us_per_call", "us", "lower"),
            (f"{base}.terms_in_per_call", "terms", "lower"),
            (f"{base}.terms_out_per_call", "terms", "lower"),
        ]
    spec += [
        ("gates.apply_cnot.terms_in_per_call", "terms", "lower"),
        ("fock.partial_inner.terms_in_per_call", "terms", "lower"),
        ("nogo.rank_scan.us_per_trial", "us", "lower"),
        ("nogo.adversarial_search.iterations_per_call", "iterations", "lower"),
        ("nogo.adversarial_search.ms_per_iteration", "ms", "lower"),
        ("tpes.teleport_join.partial_inner_per_call", "calls", "lower"),
        ("tpes.teleport_join.branch_use_ratio", "ratio", "higher"),
        ("schemes.join_projective.apply_projector_per_call", "calls", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return spec


# (metric name, unit, better) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = _per_layer_spec()


def fockjoin_modules():
    return [mod for name, mod in sorted(sys.modules.items()) if name == "fockjoin" or name.startswith("fockjoin.")]


def public_functions():
    """{id(original): (layer.name, original)} for every public function of each layer."""
    found = {}
    for layer in LAYERS:
        mod = sys.modules[f"fockjoin.{layer}"]
        for key, obj in vars(mod).items():
            if key.startswith("_") or inspect.isclass(obj) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) == mod.__name__:
                found[id(obj)] = (f"{layer}.{key}", obj)
    return found


class Tracer:
    """In-memory span recorder; one op open at a time, single thread."""

    def __init__(self):
        self.spans: list = []
        self.work: dict[int, dict] = {}
        self._stack: list[int] = []
        self._op: int | None = None

    def begin_op(self, op_id: int) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self._stack = [index]
        self._op = op_id
        return index

    def end_op(self, index: int, kind: str, start_ns: int, end_ns: int):
        self.spans[index] = (f"op.{kind}", start_ns, end_ns, -1, self._op)
        self._stack = []
        self._op = None

    def _wrap(self, name, fn):
        probe = PROBES.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer._stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer._op)
            if probe is not None:
                suffix, counts = probe(args, kwargs, result)
                spans[index] = (name + suffix, start, end, parent, tracer._op)
                tracer.work[index] = counts
            return result

        traced.__bench_traced__ = True
        return traced

    @contextmanager
    def installed(self):
        """Rebind every public layer function to a tracing wrapper, then restore."""
        originals = public_functions()
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in originals.items()}
        patched = []
        try:
            for mod in fockjoin_modules():
                for attr, value in list(vars(mod).items()):
                    if id(value) in wrappers and value is originals[id(value)][1]:
                        setattr(mod, attr, wrappers[id(value)])
                        patched.append((mod, attr, value))
            yield self
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)

    def write(self, path: str):
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("index", "name", "start_ns", "end_ns", "parent", "op"))
            for index, span in enumerate(self.spans):
                out.writerow((index, *span))


def covered_ns(intervals) -> int:
    """Length of the union of [start, end) intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start >= reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> list[int]:
    """Each span's duration minus the union of its direct children's intervals."""
    children = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        inside = [(max(s, start), min(e, end)) for s, e in children[index] if e > start and s < end]
        out.append(end - start - covered_ns(inside))
    return out


def _count_under(spans, ancestor: str, target: str) -> int:
    count = 0
    for name, _, _, parent, _ in spans:
        if name != target:
            continue
        while parent >= 0:
            if spans[parent][0] == ancestor:
                count += 1
                break
            parent = spans[parent][3]
    return count


def per_layer_metrics(spans, work: dict, ops: int, overhead_ratio: float, time_scale: float = 1.0) -> dict:
    """Every PER_LAYER metric as {name: {"value", "unit"}}; 0 where a function is never called.

    ``time_scale`` converts measured times to nominal machine speed.
    """
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    incl_ns = defaultdict(int)
    counts = defaultdict(int)
    layer_ns = defaultdict(int)
    op_ns = 0
    for index, (name, start, end, parent, _) in enumerate(spans):
        if parent < 0:
            op_ns += end - start
            continue
        calls[name] += 1
        self_ns[name] += selfs[index]
        incl_ns[name] += end - start
        layer_ns[name.split(".", 1)[0]] += selfs[index]
        for key, value in work.get(index, {}).items():
            counts[(name, key)] += value

    def ratio(a, b):
        return a / b if b else 0.0

    values = {}
    for layer in LAYERS:
        values[f"{layer}.self_share"] = ratio(layer_ns[layer], op_ns)
    names = [f"{layer}.{fn}" for layer, fns in REPORTED_FUNCTIONS.items() for fn in fns]
    names += [f"optics.apply_unitary.{cls}" for cls in UNITARY_CLASSES]
    for name in names:
        values[f"{name}.calls_per_op"] = ratio(calls[name], ops)
        values[f"{name}.self_us_per_call"] = ratio(self_ns[name], calls[name]) / 1e3 * time_scale
    for cls in UNITARY_CLASSES:
        name = f"optics.apply_unitary.{cls}"
        values[f"{name}.terms_in_per_call"] = ratio(counts[(name, "terms_in")], calls[name])
        values[f"{name}.terms_out_per_call"] = ratio(counts[(name, "terms_out")], calls[name])
    values["gates.apply_cnot.terms_in_per_call"] = ratio(counts[("gates.apply_cnot", "terms_in")], calls["gates.apply_cnot"])
    values["fock.partial_inner.terms_in_per_call"] = ratio(counts[("fock.partial_inner", "terms_in")], calls["fock.partial_inner"])
    values["nogo.rank_scan.us_per_trial"] = ratio(incl_ns["nogo.rank_scan"], counts[("nogo.rank_scan", "trials")]) / 1e3 * time_scale
    iterations = counts[("nogo.adversarial_search", "iterations")]
    values["nogo.adversarial_search.iterations_per_call"] = ratio(iterations, calls["nogo.adversarial_search"])
    values["nogo.adversarial_search.ms_per_iteration"] = ratio(incl_ns["nogo.adversarial_search"], iterations) / 1e6 * time_scale
    contractions = _count_under(spans, "tpes.teleport_join", "fock.partial_inner")
    values["tpes.teleport_join.partial_inner_per_call"] = ratio(contractions, calls["tpes.teleport_join"])
    # Each Bell branch costs two contractions and one branch is used.
    values["tpes.teleport_join.branch_use_ratio"] = ratio(2 * calls["tpes.teleport_join"], contractions)
    projections = _count_under(spans, "schemes.join_projective", "optics.apply_projector")
    values["schemes.join_projective.apply_projector_per_call"] = ratio(projections, calls["schemes.join_projective"])
    values["trace.overhead_ratio"] = overhead_ratio
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
