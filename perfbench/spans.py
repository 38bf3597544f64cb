"""Per-layer spans recorded from outside the library.

A Tracer wraps rbscat's public functions by rebinding each name in every
rbscat module that holds it (``nerve_chain_complex`` in ``checks`` and
``toolkit``, ``validate_category`` in ``fincat``, ``rbs``, ``qkt`` ...), and
methods on their class.  Each call records a span ``[key, start, end,
parent]``; counters are computed from arguments and return values after
the span has closed.  Inner helpers called 10^4 times or more per check
(``Mat.mul``, ``_Span.reduce``, ``IntegerLattice.add``) are not wrapped.
Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

from workloads import INSTANCES

SHORTCUT_WITNESS = "terminal or initial object"


# -- counters: (tracer, result, args, kwargs), run after the span closes ----

def _count_gl(tr, result, args, kwargs):
    tr.add("rings.gl_order", len(result))
    tr.peak("gl_order", len(result))


def _count_flags(tr, result, args, kwargs):
    tr.add("rings.flags", len(result))


def _count_rbs(tr, result, args, kwargs):
    tr.add("rbs.morphisms", result.cat.n_morphisms)


def _count_validate(tr, result, args, kwargs):
    from rbscat.guards import DEFAULT
    triples = result.triple_count()
    tr.add("fincat.assoc_triples", triples)
    guards = kwargs.get("guards", args[4] if len(args) > 4 else DEFAULT)
    assoc = kwargs.get("assoc", args[5] if len(args) > 5 else "exhaustive")
    # max_assoc_triples raises only in "exhaustive" mode; "auto" samples
    # past it and "sampled" never enumerates
    if assoc == "exhaustive" or (
            assoc == "auto" and triples <= guards.max_assoc_triples):
        tr.peak("assoc_triples", triples)


def _count_nerve(tr, result, args, kwargs):
    tr.add("homology.simplices", sum(result.dims))
    tr.add("homology.boundary_nnz", sum(
        len(col) for cols in result.boundaries.values() for col in cols))
    tr.peak("simplices_per_degree", max(result.dims[1:], default=0))


def _coefficients(args, kwargs):
    return kwargs.get("coefficients", args[1] if len(args) > 1 else "Z")


def _homology_key(args, kwargs):
    return "homology.z" if _coefficients(args, kwargs) == "Z" else "homology.fl"


def _count_homology(tr, result, args, kwargs):
    if _coefficients(args, kwargs) == "Z":
        cx = kwargs.get("complex_", args[0] if args else None)
        tr.peak("homology.z.max_cols",
                max(map(len, cx.boundaries.values()), default=0))


def _count_tor(tr, result, args, kwargs):
    C = kwargs.get("C", args[0] if args else None)
    tr.add("resolution.morphisms", C.n_morphisms)


def _count_contractible(tr, result, args, kwargs):
    tr.add("toolkit.shortcuts", int(result.witness == SHORTCUT_WITNESS))


# span key (or a function of the call's arguments), module, attribute
# ("Class.method" for methods), counter
TARGETS = (
    ("rings.enumerate_gl", "rbscat.rings", "enumerate_gl", _count_gl),
    ("rings.enumerate_flags", "rbscat.rings", "enumerate_flags", _count_flags),
    ("rbs.build", "rbscat.rbs", "build_rbs", _count_rbs),
    ("rbs.gl_table", "rbscat.rbs", "GLData.__init__", None),
    ("rbs.pi1_group", "rbscat.rbs", "compute_e_group", None),
    ("rbs.pi1_group", "rbscat.rbs", "pi1_target", None),
    ("rbs.pi1_group", "rbscat.rbs", "pi1_quotient_functor", None),
    ("rbs.action_category", "rbscat.rbs", "gl_flag_action_category", None),
    ("rbs.action_category", "rbscat.rbs", "comparison_functor", None),
    ("rbs.inductive", "rbscat.rbs", "inductive_decomposition", None),
    ("fincat.validate", "rbscat.fincat", "validate_category", _count_validate),
    ("fincat.functor", "rbscat.fincat", "FinFunctor.__init__", None),
    ("fincat.fiber", "rbscat.fincat", "left_fiber", None),
    ("fincat.fiber", "rbscat.fincat", "right_fiber", None),
    ("fincat.fiber", "rbscat.fincat", "strict_fiber", None),
    ("fincat.twisted", "rbscat.fincat", "twisted_arrow_op", None),
    ("fincat.skeleton", "rbscat.fincat", "skeleton", None),
    ("fincat.regularity", "rbscat.fincat", "check_poset_regularity", None),
    ("homology.nerve", "rbscat.homology", "nerve_chain_complex", _count_nerve),
    (_homology_key, "rbscat.homology", "homology", _count_homology),
    ("resolution.tor", "rbscat.resolution", "category_homology_mod", _count_tor),
    ("toolkit.proper", "rbscat.toolkit", "is_proper", None),
    ("toolkit.colim", "rbscat.toolkit", "is_colim_equivalence", None),
    ("toolkit.contractible", "rbscat.toolkit", "is_weakly_contractible",
     _count_contractible),
    ("presentation.tietze", "rbscat.presentation", "tietze_trivial", None),
    ("qkt.kit", "rbscat.qkt", "QKit.__init__", None),
    ("qkt.psi", "rbscat.qkt", "QKit.psi_functor", None),
    ("qkt.q2_hom", "rbscat.qkt", "q2_hom", None),
    ("qkt.comma", "rbscat.qkt", "comma_contractibility", None),
    ("qkt.monoidal", "rbscat.qkt", "monoidal_category", None),
)

LAYERS = ("rings", "rbs", "fincat", "homology", "resolution", "toolkit",
          "presentation", "qkt", "checks")

# span keys reported as inclusive seconds ("<key>.s") and as call counts
TIMED = ("rings.enumerate_gl", "rings.enumerate_flags", "rbs.build",
         "rbs.gl_table", "rbs.pi1_group", "rbs.action_category",
         "rbs.inductive", "fincat.validate", "fincat.functor", "fincat.fiber",
         "fincat.twisted", "fincat.skeleton", "fincat.regularity",
         "homology.nerve", "homology.z", "homology.fl", "resolution.tor",
         "toolkit.proper", "toolkit.colim", "toolkit.contractible",
         "presentation.tietze", "qkt.kit", "qkt.psi", "qkt.q2_hom",
         "qkt.comma", "qkt.monoidal")
CALLED = ("rbs.inductive", "fincat.validate", "fincat.functor",
          "fincat.fiber", "fincat.skeleton", "homology.nerve", "homology.z",
          "homology.fl", "resolution.tor", "toolkit.contractible",
          "presentation.tietze", "qkt.q2_hom")
COUNTED = ("rings.gl_order", "rings.flags", "rbs.morphisms",
           "fincat.assoc_triples", "homology.simplices",
           "homology.boundary_nnz", "resolution.morphisms")
# headroom metric -> (peak name, guard limit)
HEADROOM = {
    "guards.simplices_headroom": ("simplices_per_degree",
                                  "max_simplices_per_degree"),
    "guards.assoc_headroom": ("assoc_triples", "max_assoc_triples"),
    "guards.group_headroom": ("gl_order", "max_group_order"),
}


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in LAYERS:
        for key in TIMED:
            if key.startswith(layer + "."):
                units[key + ".s"] = "s"
                if key in CALLED:
                    units[key + ".calls"] = "count"
        for name in COUNTED:
            if name.startswith(layer + "."):
                units[name] = "count"
        units[layer + ".self_s"] = "s"
    units["rbs.build.self_s"] = "s"
    units["homology.z.max_cols"] = "count"
    units["toolkit.shortcut_ratio"] = "ratio"
    for iid in INSTANCES:
        units["checks.%s.s" % iid] = "s"
    for name in HEADROOM:
        units[name] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    units["trace.spans"] = "count"
    return units


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self):
        self.spans = []     # [key, start, end, parent index or -1]
        self.counts = {}
        self.peaks = {}
        self._stack = []
        self._undo = []

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name, value):
        self.peaks[name] = max(self.peaks.get(name, value), value)

    def call(self, key, fn, args=(), kwargs=None):
        """fn(*args, **kwargs) inside a span named key."""
        span = [key, time.perf_counter(), 0.0,
                self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, key, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = key(args, kwargs) if callable(key) else key
            result = self.call(name, fn, args, kwargs)
            if counter is not None:
                counter(self, result, args, kwargs)
            return result
        return traced

    def install(self, targets=TARGETS, package="rbscat"):
        """Rebind every target in every loaded module of the package."""
        for key, module_name, attr, counter in targets:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                self._rebind(cls, method,
                             self.wrap(key, getattr(cls, method), counter))
                continue
            original = getattr(module, attr)
            traced = self.wrap(key, original, counter)
            for name, mod in list(sys.modules.items()):
                if name != package and not name.startswith(package + "."):
                    continue
                for var, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, var, traced)

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def _rebind(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)


def merge_traces(docs):
    """One trace from the traces of several children: spans concatenated
    with their parent indices shifted, counts summed, peaks maxed."""
    spans, counts, peaks = [], {}, {}
    for doc in docs:
        base = len(spans)
        spans += [[key, start, end, parent + base if parent >= 0 else -1]
                  for key, start, end, parent in doc["spans"]]
        for name, value in doc["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for name, value in doc["peaks"].items():
            peaks[name] = max(peaks.get(name, value), value)
    return {"spans": spans, "counts": counts, "peaks": peaks}


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def inclusive_times(spans):
    """Seconds per key, counting only spans not inside a span of the same
    key (strict_fiber calls right_fiber, pi1_quotient_functor calls
    pi1_target)."""
    totals = {}
    for key, start, end, parent in spans:
        while parent >= 0 and spans[parent][0] != key:
            parent = spans[parent][3]
        if parent < 0:
            totals[key] = totals.get(key, 0.0) + (end - start)
    return totals


def layer_metrics(spans, counts, peaks, guard_limits):
    """Every per-layer metric except trace.overhead_ratio, 0 where a layer
    is not called."""
    inclusive = inclusive_times(spans)
    own = self_times(spans)
    calls = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    build_self = 0.0
    for (key, _, _, _), s in zip(spans, own):
        calls[key] = calls.get(key, 0) + 1
        layer_self[key.split(".")[0]] += s
        if key == "rbs.build":
            build_self += s
    out = {}
    for name in metric_units():
        if name.endswith(".self_s"):
            value = build_self if name == "rbs.build.self_s" \
                else layer_self[name[:-len(".self_s")]]
        elif name.endswith(".calls"):
            value = calls.get(name[:-len(".calls")], 0)
        elif name.endswith(".s"):
            value = inclusive.get(name[:-len(".s")], 0.0)
        elif name in HEADROOM:
            peak, limit = HEADROOM[name]
            value = peaks.get(peak, 0) / guard_limits[limit]
        elif name == "toolkit.shortcut_ratio":
            attempts = calls.get("toolkit.contractible", 0)
            value = counts.get("toolkit.shortcuts", 0) / attempts if attempts else 0.0
        elif name == "trace.spans":
            value = len(spans)
        elif name == "trace.overhead_ratio":
            continue
        else:
            value = peaks.get(name, counts.get(name, 0))
        out[name] = value
    return out
