"""Span recording around the public functions of the qqinv modules.

``Tracer.install`` replaces every public function in each ``qqinv.<module>``
namespace with a wrapper that records one span per call: name, start, end,
parent span and op id.  Calls between modules and within a module look the
function up in the module namespace, so they go through the wrappers too.
The package re-exports in ``qqinv/__init__`` are left untouched.

Spans stay in memory until the run ends; ``layer_metrics`` turns them into
per-module and per-function self times.  A span's self time is its duration
minus the time covered by its child spans.  Calls run on one thread, so the
children of a span are disjoint and their durations simply add up.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

LAYERS = ("su_algebra", "states", "casimir_positivity", "molien",
          "local_invariants", "cli")

#: root span of one op; its self time is the benchmark's own work in the op
OP_SPAN = "bench.op"


def _random_density_key(bound) -> list:
    return [bound.arguments["seed"], bound.arguments["ensemble"]]


def _molien_series_key(bound) -> list:
    ws = bound.arguments["ws"]
    return [ws.label, [list(w) for w in ws.weights], [list(r) for r in ws.roots],
            bound.arguments["max_degree"], bound.arguments["backend"]]


#: functions whose arguments are recorded, as [op_id, key] pairs: distinct
#: state seeds per op, box sizes
KEYED = {"states.random_density": _random_density_key,
         "molien.molien_series": _molien_series_key}


def public_functions(module) -> dict[str, object]:
    """Public functions (plain or lru-cached) defined in ``module`` itself."""
    out = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            out[name] = obj
    return out


def layer_modules() -> list:
    return [importlib.import_module(f"qqinv.{layer}") for layer in LAYERS]


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # [name_id, start_ns, end_ns, parent_index, op_id]
        self.spans: list[list[int] | None] = []
        self.keys: dict[str, list] = defaultdict(list)
        self.op_id = -1
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self._op_span = self._wrap(OP_SPAN, lambda fn, *args: fn(*args))

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        spans, stack = self.spans, self._stack
        key_of = KEYED.get(name)
        if key_of is not None:
            keys, signature = self.keys[name], inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            if key_of is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                keys.append([self.op_id, key_of(bound)])
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = [name_id, start, end, parent, self.op_id]

        return wrapper

    def run_op(self, op_id: int, fn, *args):
        """Call ``fn(*args)`` as the root span of one op; every span inside
        it carries ``op_id``."""
        self.op_id = op_id
        return self._op_span(fn, *args)

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer is already installed")
        for module in layer_modules():
            layer = module.__name__.rsplit(".", 1)[1]
            for name, fn in public_functions(module).items():
                self._originals.append((module, name, fn))
                setattr(module, name, self._wrap(f"{layer}.{name}", fn))

    def uninstall(self) -> None:
        for module, name, fn in self._originals:
            setattr(module, name, fn)
        self._originals.clear()

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans, "keys": dict(self.keys)}


def write_trace(doc: dict, path) -> None:
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(doc, fh)


def merge(docs: list[dict]) -> dict:
    """Concatenate span dumps of several processes into one."""
    names, spans, keys = [], [], defaultdict(list)
    ids: dict[str, int] = {}
    for doc in docs:
        remap = []
        for name in doc["names"]:
            if name not in ids:
                ids[name] = len(names)
                names.append(name)
            remap.append(ids[name])
        base = len(spans)
        for name_id, start, end, parent, op_id in doc["spans"]:
            spans.append([remap[name_id], start, end,
                          parent + base if parent >= 0 else -1, op_id])
        for k, v in doc["keys"].items():
            keys[k].extend(v)
    return {"names": names, "spans": spans, "keys": dict(keys)}


def self_times(doc: dict) -> tuple[Counter, Counter]:
    """Per span name: total self time in seconds, and call count."""
    spans = doc["spans"]
    child = [0] * len(spans)
    for name_id, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s, calls = Counter(), Counter()
    for i, (name_id, start, end, _, _) in enumerate(spans):
        name = doc["names"][name_id]
        self_s[name] += (end - start - child[i]) / 1e9
        calls[name] += 1
    return self_s, calls


FUNCTION_SELF = {
    "molien": ("molien_series", "rational_series"),
    "states": ("random_density", "from_matrix", "to_matrix", "random_su",
               "conjugate"),
    "casimir_positivity": ("positivity_report", "moments", "char_poly_coeffs",
                           "casimirs_from_traces", "casimirs_from_vee",
                           "eigenvalue_oracle"),
    "local_invariants": ("rank_at_degree", "degree4_completion_rank",
                         "kernel_at_degree", "nonkernel_words",
                         "invariance_test", "finite_difference_jacobian"),
    "su_algebra": ("symmetrized_trace", "symmetrized_trace_closed",
                   "verify_structure_identities", "structure_constants_of",
                   "closure_max_violation"),
}

FUNCTION_CALLS = ("states.random_density", "states.from_matrix",
                  "states.to_matrix", "local_invariants.eval_trace_complex")


def layer_metrics(doc: dict) -> dict[str, float]:
    """Named per-layer metrics of a span dump (see perfbench/README.md)."""
    self_s, calls = self_times(doc)
    out: dict[str, float] = {}
    for layer in LAYERS:
        prefix = layer + "."
        out[f"{layer}.self_s"] = sum(v for k, v in self_s.items()
                                     if k.startswith(prefix))
        if layer != "cli":
            out[f"{layer}.calls"] = sum(v for k, v in calls.items()
                                        if k.startswith(prefix))
    for layer, functions in FUNCTION_SELF.items():
        for fn in functions:
            out[f"{layer}.{fn}.self_s"] = self_s[f"{layer}.{fn}"]
    for name in FUNCTION_CALLS:
        out[f"{name}.calls"] = calls[name]
    out["bench.self_s"] = self_s[OP_SPAN]
    seeds = doc["keys"].get("states.random_density", [])
    distinct = {(op_id, tuple(key)) for op_id, key in seeds}
    out["local_invariants.panel_state_reuse"] = (
        len(distinct) / len(seeds) if seeds else 0.0)
    return out
