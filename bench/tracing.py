"""Spans and counts at the layer boundaries of the package, from outside it.

``Tracer.install`` wraps the public functions and methods of every layer
module (plus ``__init__`` and ``__mul__``) and rebinds each wrapped name in
every package module that imported it, so calls made inside the package
are seen too.  A call that crosses into another layer opens a span (name,
start, end, parent span, op id); a call within the caller's own layer is
only counted, and its time stays with the enclosing span of that layer.
A layer's self time is its spans' time minus the time of their child
spans.  Consecutive leaf spans with the same name and parent are kept as
one record with a count, so that a hot helper called from a loop does not
fill memory.  Everything stays in memory until ``write``.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import json
import time

LAYERS = (
    "permutations",
    "tree",
    "almost_automorphisms",
    "shift_model",
    "abelianization",
    "covolume",
    "intervals",
    "cli",
)
ROOT = "bench"
WRAPPED_DUNDERS = ("__init__", "__mul__")

# per-layer counters: name -> the wrapped callables whose calls it counts
CALL_COUNTERS = {
    "tree.subtrees_built_per_op": ("tree.CompleteSubtree.__init__",),
    "tree.contractions_per_op": ("tree.CompleteSubtree.contract",),
    "almost_automorphisms.expansions_per_op": (
        "almost_automorphisms.TreePairElement.expand_at",
    ),
    "almost_automorphisms.elements_built_per_op": (
        "almost_automorphisms.TreePairElement.__init__",
    ),
    "permutations.closures_per_op": ("permutations.closure_enumerate",),
    "permutations.products_per_op": (
        "permutations.Permutation.__mul__",
        "permutations.Permutation.inverse",
    ),
    "shift_model.bisections_validated_per_op": ("shift_model.validate_bisection",),
    "intervals.decisions_per_op": ("intervals.decide_sign",),
    "abelianization.snf_per_op": ("abelianization.smith_normal_form",),
}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = [
            importlib.import_module("%s.%s" % (package.__name__, name)) for name in LAYERS
        ]
        self.layers = (ROOT,) + LAYERS
        # name 0 is the op itself, the root span of every op
        self.names = [ROOT + ".op"]
        self.name_layer = [0]
        self.calls = [0]
        self.self_time = [0.0] * len(self.layers)
        self.records = []
        self.stack = []
        self.next_span = 0
        self.op_id = -1
        self.sums = {
            "tree.leaves_validated": 0,
            "permutations.closure_elements": 0,
            "intervals.escalations": 0,
        }
        self.max_bits = 0
        self._default_precision = package.intervals.default_precision
        self.bindings = self._prepare()

    # -- wrapping --------------------------------------------------------------

    def _prepare(self):
        originals = {}
        for layer_id, module in enumerate(self.modules, start=1):
            layer = self.layers[layer_id]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    name = "%s.%s" % (layer, attr)
                    originals[obj] = (module, attr, self._wrap(obj, name, layer_id))
                elif (
                    inspect.isclass(obj)
                    and obj.__module__ == module.__name__
                    and not issubclass(obj, BaseException)
                ):
                    for method, raw in list(vars(obj).items()):
                        if method.startswith("_") and method not in WRAPPED_DUNDERS:
                            continue
                        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
                        fn = raw.__func__ if kind else raw
                        if not inspect.isfunction(fn):
                            continue
                        wrapped = self._wrap(fn, "%s.%s.%s" % (layer, attr, method), layer_id)
                        originals[raw] = (obj, method, kind(wrapped) if kind else wrapped)
        bindings = []
        modules = [self.package] + self.modules
        for original, (owner, attr, wrapped) in originals.items():
            bindings.append((owner, attr, original, wrapped))
            if inspect.isclass(owner):
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original and module is not owner:
                        bindings.append((module, name, original, wrapped))
        return bindings

    def install(self):
        for owner, attr, _, wrapped in self.bindings:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original, _ in self.bindings:
            setattr(owner, attr, original)

    def _probe(self, name):
        sums = self.sums
        if name == "tree.CompleteSubtree.__init__":
            def probe(args, kwargs, result):
                sums["tree.leaves_validated"] += len(args[0].leaves)
        elif name == "permutations.closure_enumerate":
            def probe(args, kwargs, result):
                sums["permutations.closure_elements"] += len(result)
        elif name == "intervals.decide_sign":
            def probe(args, kwargs, result):
                start = args[1] if len(args) > 1 else kwargs.get("start_bits")
                if start is None:
                    start = self._default_precision()
                bits = result[2]
                if bits > start:
                    sums["intervals.escalations"] += 1
                self.max_bits = max(self.max_bits, bits)
        else:
            probe = None
        return probe

    def _wrap(self, fn, name, layer_id):
        name_id = len(self.names)
        self.names.append(name)
        self.name_layer.append(layer_id)
        self.calls.append(0)
        calls, stack, self_time = self.calls, self.stack, self.self_time
        probe = self._probe(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name_id] += 1
            parent = stack[-1]
            if parent[0] == layer_id:
                result = fn(*args, **kwargs)
            else:
                span = tracer.next_span
                tracer.next_span = span + 1
                frame = [layer_id, span, clock(), 0.0, False]
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    duration = end - frame[2]
                    self_time[layer_id] += duration - frame[3]
                    parent[3] += duration
                    parent[4] = True
                    tracer._record(span, name_id, parent[1], frame[2], end, frame[4])
            if probe is not None:
                probe(args, kwargs, result)
            return result

        return wrapper

    # -- spans -------------------------------------------------------------------

    def _record(self, span, name_id, parent, start, end, has_children):
        records = self.records
        if not has_children and records:
            last = records[-1]
            if last[7] and last[1] == name_id and last[2] == parent:
                last[5] = end
                last[6] += 1
                return
        records.append([span, name_id, parent, self.op_id, start, end, 1, not has_children])

    def begin_op(self):
        self.op_id += 1
        span = self.next_span
        self.next_span = span + 1
        self.stack.append([0, span, time.perf_counter(), 0.0, False])

    def end_op(self):
        end = time.perf_counter()
        frame = self.stack.pop()
        self.self_time[0] += end - frame[2] - frame[3]
        self.records.append([frame[1], 0, None, self.op_id, frame[2], end, 1, False])

    # -- results -------------------------------------------------------------------

    def snapshot(self):
        """Frozen copy of every accumulator, taken when the measured ops end."""
        return {
            "calls": list(self.calls),
            "self_time": list(self.self_time),
            "records": len(self.records),
            "sums": dict(self.sums),
            "max_bits": self.max_bits,
        }

    def metrics(self, snap, ops, groups_alive):
        by_name = dict(zip(self.names, snap["calls"]))
        out = {}
        for layer_id, layer in enumerate(self.layers):
            if layer == ROOT:
                continue
            layer_calls = sum(
                c for c, l in zip(snap["calls"], self.name_layer) if l == layer_id
            )
            out[layer + ".self_ms_per_op"] = (1000.0 * snap["self_time"][layer_id] / ops, "ms")
            out[layer + ".calls_per_op"] = (layer_calls / ops, "count")
        for metric, names in CALL_COUNTERS.items():
            out[metric] = (sum(by_name[n] for n in names) / ops, "count")
        for key, total in snap["sums"].items():
            out[key + "_per_op"] = (total / ops, "count")
        out["intervals.max_bits"] = (snap["max_bits"], "bits")
        out["permutations.groups_alive_after_run"] = (groups_alive, "count")
        return out

    def write(self, path, snap):
        with open(path, "w") as handle:
            handle.write(json.dumps({"layers": self.layers, "names": self.names}) + "\n")
            handle.write(
                json.dumps(["span", "name", "parent", "op", "start", "end", "count", "leaf"])
                + "\n"
            )
            for record in self.records[: snap["records"]]:
                handle.write(json.dumps(record) + "\n")


def groups_alive(package):
    """ColourGroup objects still reachable, after a full collection."""
    gc.collect()
    cls = package.permutations.ColourGroup
    return sum(1 for obj in gc.get_objects() if type(obj) is cls)
