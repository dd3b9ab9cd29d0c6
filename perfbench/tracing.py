"""Per-layer tracing from outside the program.

`Tracer.install(rd)` rebinds public functions of the package's modules to
wrappers that record one span per call: name, parent span, start and end.
A function is wrapped at every module binding that a caller in another
layer reaches it through (``raagdecomp.cli.relative_jsj``,
``raagdecomp.jsj.clique_separators``, ...). The functions reported one by
one (`REPORTED`) are also wrapped where they are defined, which catches
calls made through the module attribute (``kernels.canonicalize``) and
calls inside their own layer (``jsj.reduce``).

Spans stay in memory, in one flat integer array, until the run ends; the
per-layer numbers are computed from them afterwards. A layer's self time
is the time of its spans minus the time their child spans cover.
Wrappers record nothing while `enabled` is false, so the benchmark's own
output checks do not show up in the trace.
"""

from array import array
from collections import Counter
import functools
import gzip
import json
import time

LAYER_OF_MODULE = {
    "raagdecomp.cli": "cli",
    "raagdecomp.graphs": "graphs",
    "raagdecomp.jsj": "jsj",
    "raagdecomp.words": "words",
    "raagdecomp.kernels": "kernels",
    "raagdecomp._pykernel": "kernels",
    "raagdecomp.oracles": "oracles",
}
LAYERS = ("cli", "graphs", "jsj", "words", "kernels", "oracles")

REPORTED = (
    "cli.main",
    "graphs.parse_graph", "graphs.clique_separators", "graphs.induced_subgraph",
    "graphs.join_factors", "graphs.hanging_vertices",
    "jsj.relative_jsj", "jsj.abelian_jsj", "jsj.reduce", "jsj.validate",
    "jsj.gog_to_json_obj", "jsj.gog_to_dot",
    "words.parse_word", "words.normal_form", "words.support",
    "words.cyclically_reduce", "words.centralizer_descriptor",
    "kernels.canonicalize", "kernels.closure_canonical",
    "kernels.closure_equal",
    "oracles.brute_clique_separators", "oracles.bfs_equal",
    "oracles.commuting_words",
)

# called by the oracles op directly, wrapped where defined so that their
# own time is charged to `words` rather than to the op
ENTRY_POINTS = ("words.equal", "words.CentralizerDescriptor.contains")

COUNTERS = (
    "graphs.clique_separators.found",
    "jsj.gog_nodes", "jsj.gog_edges",
    "words.letters_in", "words.nf_letters", "words.conjugator_letters",
    "kernels.canonicalize.letters",
    "oracles.budget_exceeded", "words.budget_exceeded",
)
RATIOS = ("graphs.clique_separators.repeat_share",
          "kernels.canonicalize.amplification")

OP_SPAN = "op"


def metric_names():
    names = []
    for f in REPORTED:
        names += [f + ".calls", f + ".busy_s"]
    names += [layer + ".self_s" for layer in LAYERS]
    names += list(COUNTERS) + list(RATIOS)
    names += ["trace.ops", "trace.spans", "trace.overhead_s",
              "trace.overhead_share"]
    return names


def unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "amplification")):
        return "ratio"
    return "count"


class Tracer:
    def __init__(self):
        self.enabled = False
        self.names = []
        self._ids = {}
        # four integers per span: name id, parent span, start ns, end ns
        self.spans = array("q")
        self._stack = []
        # keyed by metric name, plus the two parts of repeat_share
        self._counts = Counter()
        self._layer = {}
        self._seen_graphs = set()
        self._budget_error = None
        self._escaped = []

    # --- recording ------------------------------------------------------

    def _name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid):
        spans = self.spans
        idx = len(spans) >> 2
        spans.extend((nid, self._stack[-1] if self._stack else -1, 0, 0))
        self._stack.append(idx)
        return idx

    def _close(self, idx, start, end):
        self._stack.pop()
        self.spans[4 * idx + 2] = start
        self.spans[4 * idx + 3] = end

    def begin_op(self):
        self._seen_graphs.clear()
        self.enabled = True
        self._op_idx = self._open(self._name_id(OP_SPAN))
        self._op_start = time.perf_counter_ns()

    def end_op(self):
        self._close(self._op_idx, self._op_start, time.perf_counter_ns())
        self.enabled = False

    def _wrap(self, name, layer, fn):
        nid = self._name_id(name)
        self._layer[name] = layer
        probe = _PROBES.get(name)
        perf = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(idx, start, perf())
                if isinstance(exc, tracer._budget_error):
                    tracer._note_budget(layer, exc)
                raise
            tracer._close(idx, start, perf())
            if probe is not None:
                probe(tracer, args, result)
            return result

        return traced

    def _note_budget(self, layer, exc):
        if layer in ("oracles", "words") and \
                not any(e is exc and l == layer for e, l in self._escaped):
            self._escaped.append((exc, layer))
            self._counts[layer + ".budget_exceeded"] += 1

    # --- installing -----------------------------------------------------

    def install(self, rd):
        """Rebind functions of the freshly imported package `rd`.

        Spans and counters keep accumulating across installs on successive
        imports.
        """
        self._budget_error = rd.errors.BudgetExceededError
        modules = {name: getattr(rd, name.split(".", 1)[1])
                   for name in LAYER_OF_MODULE}
        wrappers = {}
        for modname, module in modules.items():
            site_layer = LAYER_OF_MODULE[modname]
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_") or not callable(obj) \
                        or isinstance(obj, type):
                    continue
                home = getattr(obj, "__module__", "")
                owner = LAYER_OF_MODULE.get(home)
                if owner is None:
                    continue
                name = "%s.%s" % (home.rsplit(".", 1)[1], obj.__name__)
                if owner == site_layer and name not in REPORTED \
                        and name not in ENTRY_POINTS:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(name, owner, obj)
                setattr(module, attr, wrappers[id(obj)])
        cls = rd.words.CentralizerDescriptor
        cls.contains = self._wrap(
            "words.CentralizerDescriptor.contains", "words", cls.contains)
        missing = [f for f in REPORTED if f not in self._ids]
        if missing:  # a renamed or removed function would read as idle
            raise RuntimeError("no binding found for %s" % ", ".join(missing))

    # --- results --------------------------------------------------------

    def aggregate(self):
        """Per-function calls and busy time, per-layer self time, counters."""
        spans, names = self.spans, self.names
        n = len(spans) >> 2
        dur = [spans[4 * i + 3] - spans[4 * i + 2] for i in range(n)]
        child = [0] * n
        for i in range(n):
            parent = spans[4 * i + 1]
            if parent >= 0:
                child[parent] += dur[i]
        calls = dict.fromkeys(names, 0)
        busy = dict.fromkeys(names, 0)
        self_ns = dict.fromkeys(LAYERS, 0)
        for i in range(n):
            nid = spans[4 * i]
            name = names[nid]
            calls[name] += 1
            # busy time is the union of a function's spans: skip a span
            # nested inside another span of the same function
            p = spans[4 * i + 1]
            while p >= 0 and spans[4 * p] != nid:
                p = spans[4 * p + 1]
            if p < 0:
                busy[name] += dur[i]
            layer = self._layer.get(name)
            if layer is not None:
                self_ns[layer] += dur[i] - child[i]
        c = self._counts
        out = {name: c[name] for name in COUNTERS}
        for f in REPORTED:
            out[f + ".calls"] = calls.get(f, 0)
            out[f + ".busy_s"] = busy.get(f, 0) / 1e9
        for layer in LAYERS:
            out[layer + ".self_s"] = self_ns[layer] / 1e9
        out["graphs.clique_separators.repeat_share"] = _share(
            c["separator repeats"], c["graphs.clique_separators.calls"])
        out["kernels.canonicalize.amplification"] = _share(
            c["kernels.canonicalize.letters"], c["words.letters_in"])
        out["trace.spans"] = n
        return out

    def write(self, path):
        """Write the spans as gzip-compressed JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"names": self.names,
               "fields": ["name", "parent", "start_ns", "end_ns"],
               "spans": self.spans.tolist()}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))


# --- work counters, read off arguments and results ----------------------


def _share(part, whole):
    return part / whole if whole else 0.0


def _seps(tracer, args, result):
    c = tracer._counts
    c["graphs.clique_separators.found"] += len(result)
    c["graphs.clique_separators.calls"] += 1
    g = args[0]
    if g in tracer._seen_graphs:
        c["separator repeats"] += 1
    else:
        tracer._seen_graphs.add(g)


def _gog(tracer, args, result):
    tracer._counts["jsj.gog_nodes"] += len(result.nodes)
    tracer._counts["jsj.gog_edges"] += len(result.edges)


def _counter(key, size):
    def probe(tracer, args, result):
        tracer._counts[key] += size(args, result)
    return probe


_PROBES = {
    "graphs.clique_separators": _seps,
    "jsj.relative_jsj": _gog,
    "jsj.abelian_jsj": _gog,
    "words.parse_word": _counter(
        "words.letters_in", lambda a, r: len(r.letters)),
    "words.normal_form": _counter(
        "words.nf_letters", lambda a, r: len(r.letters)),
    "words.cyclically_reduce": _counter(
        "words.conjugator_letters", lambda a, r: len(r[1].letters)),
    "kernels.canonicalize": _counter(
        "kernels.canonicalize.letters", lambda a, r: len(a[0])),
}
