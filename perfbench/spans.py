"""Spans around calls into the library's public functions.

A traced run wraps each layer's public functions where the library's modules
hold them, and wraps the backend instances in a proxy.  Every wrapped call
records a span (name, start, end, parent span, op id) in memory; the spans
are written out when the run ends.  Self time is a span's duration minus the
part of it that its child spans cover.
"""

import gzip
import sys
from array import array
from collections import Counter
from time import perf_counter

BACKEND_METHODS = ("normal_form", "mul", "inv", "equal", "is_identity", "length",
                   "dist", "ball", "geodesic_word", "render", "append_letter")
GEOMETRY_FUNCTIONS = {
    "periodic_line": "periodic_line",
    "path_from_word": "path_from_word",
    "neighborhood_contains": "neighborhood",
    "neighborhood_profile": "neighborhood",
    "hausdorff_distance": "hausdorff_distance",
    "quasi_geodesic_check": "quasi_geodesic_check",
    "estimate_delta": "estimate_delta",
    "shortest_conjugate": "shortest_conjugate",
    "classify_element": "classify_element",
    "injectivity_radius_estimate": "injectivity_radius_estimate",
    "acylindricity_profile": "acylindricity_profile",
    "stable_norm_estimate": "stable_norm_estimate",
}
HARNESS_FUNCTIONS = ("main_theorem_check", "weak_theorem_check", "empirical_period_threshold",
                     "lemma41_check", "commensurability_search")
CONSTANTS_FUNCTIONS = ("kappa_eps_zero", "epsilon_of_r", "K_of_r", "F_of_r", "C_and_f",
                       "k_trim", "pipeline_report", "default_mu")


class Tracer:
    """Span store: one column per field, span id = position = start order."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("H")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.counts = Counter()

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def parent_name(self):
        """Name of the innermost open span (the parent of one just closed)."""
        sid = self.stack[-1]
        return self.names[self.name[sid]] if sid >= 0 else None

    def wrap(self, name, fn, hook=None):
        """fn with a span per call; hook(tracer, args, result, exc) runs after
        the span closes."""
        nid = self.name_id(name)
        tracer, stack = self, self.stack
        names, parents, ops, starts, ends = self.name, self.parent, self.op, self.start, self.end

        def traced(*args, **kwargs):
            sid = len(ends)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op_id)
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[sid] = perf_counter()
                stack.pop()
                if hook is not None:
                    hook(tracer, args, None, exc)
                raise
            ends[sid] = perf_counter()
            stack.pop()
            if hook is not None:
                hook(tracer, args, result, None)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self):
        return self_times(self.parent, [self.names[i] for i in self.name], self.start, self.end)

    def write(self, path):
        """Spans as gzipped tab-separated lines: id parent op name start end."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("id\tparent\top\tname\tstart\tend\n")
            names = self.names
            for sid in range(len(self.end)):
                fh.write(f"{sid}\t{self.parent[sid]}\t{self.op[sid]}\t{names[self.name[sid]]}"
                         f"\t{self.start[sid]:.9f}\t{self.end[sid]:.9f}\n")


def self_times(parents, names, starts, ends):
    """{name: [calls, self seconds]} for spans given in start order (a span's
    id is its position; parents[i] < i, or -1 for a root).  The time a span's
    children cover is the union of their intervals clipped to the span."""
    n = len(ends)
    covered = [0.0] * n
    reach = list(starts)  # end of the covered prefix of each span, by child
    for i in range(n):
        p = parents[i]
        if p < 0:
            continue
        if p >= i:
            raise ValueError(f"span {i} has parent {p}, which did not start before it")
        lo, hi = max(starts[i], reach[p]), min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    out = {}
    for i in range(n):
        entry = out.setdefault(names[i], [0, 0.0])
        entry[0] += 1
        entry[1] += (ends[i] - starts[i]) - covered[i]
    return out


# ----------------------------------------------------------------- hooks

def _in_chars(tracer, args, result, exc):
    n = 0
    for a in args:
        if type(a) is str:
            n += len(a)
    tracer.counts["backends.in_chars"] += n


def _render(tracer, args, result, exc):
    if result is not None:
        tracer.counts["backends.render.out_chars"] += len(result)
        if tracer.parent_name() == "geometry.path_from_word":
            tracer.counts["path_from_word.render_chars"] += len(result)


def _dist(tracer, args, result, exc):
    _in_chars(tracer, args, result, exc)
    if tracer.parent_name() == "geometry.neighborhood":
        tracer.counts["neighborhood.dist_calls"] += 1


def _periodic_line(tracer, args, result, exc):
    if result is not None:
        tracer.counts["periodic_line.edges"] += len(result.label)


def _path_from_word(tracer, args, result, exc):
    if result is not None:
        tracer.counts["path_from_word.edges"] += len(result.label)


def _neighborhood(tracer, args, result, exc):
    tracer.counts["neighborhood.vertices"] += len(args[0].vertices)


def _harness(tracer, args, result, exc):
    parent = tracer.parent_name()
    if parent is not None and parent.startswith("harness."):
        return  # only the outermost statement decides
    tracer.counts["harness.statements"] += 1
    if exc is not None:
        if type(exc).__name__ == "HypothesisError":
            tracer.counts["harness.hypothesis_failed"] += 1
        return
    status = getattr(result, "status", None)
    if status is not None:
        witness = status == "witness"
        tracer.counts["harness.hypothesis_failed"] += status == "hypothesis-failed"
    elif isinstance(result, tuple):  # commensurability_search: (witness, cert)
        witness = result[0] is not None
    else:  # empirical_period_threshold: a period count or None
        witness = result is not None
    tracer.counts["harness.witnesses"] += witness


def _cli_main(tracer, args, result, exc):
    code = getattr(exc, "code", None) if isinstance(exc, SystemExit) else result
    if (exc is not None and not isinstance(exc, SystemExit)) or code in (1, 64):
        tracer.counts["cli.failed"] += 1


class BackendProxy:
    """Forwards everything to the backend; the L0 methods record spans.  The
    backend's own dehn_reduce is wrapped on the instance, so calls the
    backend makes to it internally are recorded too."""

    def __init__(self, backend, tracer):
        self._backend = backend
        for m in BACKEND_METHODS:
            if hasattr(backend, m):
                hook = {"render": _render, "dist": _dist}.get(m, _in_chars)
                setattr(self, m, tracer.wrap("backends." + m, getattr(backend, m), hook))
        if hasattr(backend, "dehn_reduce") and not hasattr(backend.dehn_reduce, "__wrapped__"):
            backend.dehn_reduce = tracer.wrap("backends.dehn_reduce", backend.dehn_reduce, _in_chars)

    def __getattr__(self, name):
        return getattr(self._backend, name)


def install(tracer, lib):
    """Wrap the layers' public functions in every library module that holds
    them.  Returns what uninstall() needs to put the originals back."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "periodlines" or name.startswith("periodlines.")]
    patches = []

    def patch(fn, wrapped):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    patches.append((mod, attr, value))
                    setattr(mod, attr, wrapped)

    hooks = {"periodic_line": _periodic_line, "path_from_word": _path_from_word,
             "neighborhood": _neighborhood}
    for fname, span in GEOMETRY_FUNCTIONS.items():
        patch(getattr(lib.geometry, fname),
              tracer.wrap("geometry." + span, getattr(lib.geometry, fname), hooks.get(span)))
    for fname in HARNESS_FUNCTIONS:
        patch(getattr(lib.harness, fname),
              tracer.wrap("harness." + fname, getattr(lib.harness, fname), _harness))
    for fname in CONSTANTS_FUNCTIONS:
        patch(getattr(lib.constants, fname),
              tracer.wrap("constants." + fname, getattr(lib.constants, fname)))
    patch(lib.freewords.overlap_root,
          tracer.wrap("freewords.overlap_root", lib.freewords.overlap_root))
    patch(lib.cli.main, tracer.wrap("cli.main", lib.cli.main, _cli_main))
    make_backend = tracer.wrap("cli.make_backend", lib.backends.make_backend)
    patch(lib.backends.make_backend, lambda spec: BackendProxy(make_backend(spec), tracer))
    return patches


def uninstall(patches):
    for mod, attr, value in reversed(patches):
        setattr(mod, attr, value)


def layer_metrics(tracer, traced_wall, untraced_wall):
    """The per-layer metrics named in BENCHMARK.json, from one traced pass."""
    st = tracer.self_times()
    c = tracer.counts
    out = {}

    def spans(name):
        return st.get(name, [0, 0.0])

    for m in BACKEND_METHODS + ("dehn_reduce",):
        calls, self_s = spans("backends." + m)
        out[f"backends.{m}.calls"] = (calls, "count")
        out[f"backends.{m}.self_s"] = (self_s, "s")
    out["backends.in_chars"] = (c["backends.in_chars"], "chars")
    out["backends.render.out_chars"] = (c["backends.render.out_chars"], "chars")
    for span in dict.fromkeys(GEOMETRY_FUNCTIONS.values()):
        calls, self_s = spans("geometry." + span)
        out[f"geometry.{span}.calls"] = (calls, "count")
        out[f"geometry.{span}.self_s"] = (self_s, "s")
    out["geometry.periodic_line.edges"] = (c["periodic_line.edges"], "count")
    out["geometry.render_chars_per_edge"] = (
        _ratio(c["path_from_word.render_chars"], c["path_from_word.edges"]), "chars/edge")
    out["geometry.neighborhood.vertices"] = (c["neighborhood.vertices"], "count")
    out["geometry.neighborhood.fallback_ratio"] = (
        _ratio(c["neighborhood.dist_calls"], c["neighborhood.vertices"]), "calls/vertex")
    for fname in HARNESS_FUNCTIONS:
        out[f"harness.{fname}.self_s"] = (spans("harness." + fname)[1], "s")
    out["harness.witness_ratio"] = (_ratio(c["harness.witnesses"], c["harness.statements"]), "ratio")
    out["harness.hypothesis_failed"] = (c["harness.hypothesis_failed"], "count")
    calls, self_s = spans("freewords.overlap_root")
    out["freewords.overlap_root.calls"] = (calls, "count")
    out["freewords.overlap_root.self_s"] = (self_s, "s")
    out["constants.self_s"] = (sum(spans("constants." + f)[1] for f in CONSTANTS_FUNCTIONS), "s")
    out["cli.main.self_s"] = (spans("cli.main")[1], "s")
    out["cli.make_backend.self_s"] = (spans("cli.make_backend")[1], "s")
    out["cli.failed"] = (c["cli.failed"], "count")
    out["trace.overhead_ratio"] = (_ratio(traced_wall, untraced_wall), "ratio")
    return out


def _ratio(num, den):
    return num / den if den else 0.0
