"""Outside-in tracing of the modlie layers.

The tracer wraps the public functions of each traced module, and a few
hot methods, from outside: nothing under src/ knows it is traced.  A
function imported by name into another module (``from .ceco import
cohomology_dim``) is a separate binding, so every binding of a wrapped
function in every loaded modlie module is replaced, not only the one in
its home module.  Methods are patched on their class.

Each call is one span (name, parent span, start, end).  Spans are kept
in memory and written out by ``write``; a span's self time is its
duration minus the time its child spans cover, tallied by a span stack
as calls return.
"""

import json
import sys
import time
import types
from array import array
from collections import Counter, defaultdict
from functools import wraps

# Module order is the layer order of the report.
LAYERS = ("linalg", "liealg", "commalg", "ceco", "cocycles", "claims")

# vec_add and vec_scale are leaf helpers called from almost every inner
# loop; a span per call would cost more than the work, so their time
# counts in the caller's span.  arith is not traced for the same reason.
UNWRAPPED = {"vec_add", "vec_scale"}

METHODS = (
    ("linalg", "Echelon", "add"),
    ("linalg", "Echelon", "reduce"),
    ("linalg", "Echelon", "member"),
    ("linalg", "SparseFpMatrix", "kernel_basis"),
    ("liealg", "LieAlgebra", "check_jacobi"),
    ("claims", "Claim", "rows"),
)


def _count_echelon_add(tr, args, result):
    ech, row = args[0], args[1]
    tr.counts["echelon.nnz_in"] += len(row)
    if result:
        tr.counts["echelon.new_pivots"] += 1
        # pivots only gains keys, so the newest pivot is the last one
        tail = ech.pivots[next(reversed(ech.pivots))]
        tr.counts["echelon.fill"] += len(tail) + 1


def _count_kernel_basis(tr, args, result):
    tr.counts["kernel_basis.vectors"] += len(result)


def _count_chain_columns(tr, args, result):
    tr.counts["columns"] += len(result)


COUNTERS = {
    "linalg.Echelon.add": _count_echelon_add,
    "linalg.SparseFpMatrix.kernel_basis": _count_kernel_basis,
    "ceco.chain_columns": _count_chain_columns,
}


class Tracer:
    """Span recorder for one traced pass."""

    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._stack = []  # [span index, child time] per open span
        self._patched = []  # (owner, attribute, original) for uninstall

    def wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        count = COUNTERS.get(name)
        stack = self._stack
        span_names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        self_time, calls = self.self_time, self.calls
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            span_names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            starts.append(t0)
            ends.append(t0)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(self, args, result)
                return result
            finally:
                t1 = clock()
                ends[idx] = t1
                stack.pop()
                dur = t1 - t0
                self_time[name] += dur - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += dur

        return traced

    def install(self, modules):
        """Wrap the traced functions and methods of the given modlie
        modules (short name -> module) and rebind every binding of them
        in every loaded modlie module, until uninstall()."""
        replace = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if (isinstance(fn, types.FunctionType)
                        and fn.__module__ == mod.__name__
                        and attr not in UNWRAPPED):
                    replace[fn] = self.wrap("%s.%s" % (layer, attr), fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "modlie" and not modname.startswith("modlie."):
                continue
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in replace:
                    self._patch(mod, attr, replace[val])
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            fn = cls.__dict__[meth]
            self._patch(cls, meth,
                        self.wrap("%s.%s.%s" % (layer, cls_name, meth), fn))

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def layer_self(self, layer):
        prefix = layer + "."
        return sum((t for n, t in self.self_time.items() if n.startswith(prefix)),
                   0.0)

    def write(self, path, meta):
        """Write every span, with names and times in microseconds from
        the first span, as one JSON document."""
        t0 = self.span_start[0] if self.span_start else 0.0
        doc = dict(meta)
        doc["names"] = self.names
        doc["spans"] = {
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start_us": [round((t - t0) * 1e6) for t in self.span_start],
            "end_us": [round((t - t0) * 1e6) for t in self.span_end],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


CONSTRUCTORS = {
    "liealg": ("make_w1", "make_sl2", "current_algebra", "semidirect_current",
               "make_deformed", "kuznetsov_map"),
    "cocycles": ("phi21", "theta", "upsilon", "psi", "phi_big", "psi_t",
                 "theta_prime", "lifted_theta", "lifted_upsilon",
                 "lifted_psi", "lifted_phi"),
}


def per_layer_metrics(tr, traced_wall, overhead, claim_times):
    """Per-layer metrics of one traced pass: name -> (value, unit).
    Every time is self time, except claims.<id>.s, the whole time of
    that claim's Claim.rows call in the untraced pass (claim_times),
    trace.wall_s, the traced pass, and trace.overhead_s (overhead), the
    traced pass less the untraced ones around it in reference seconds."""
    def self_s(*names):
        return sum(tr.self_time.get(n, 0.0) for n in names)

    adds = tr.calls["linalg.Echelon.add"]
    out = {
        "linalg.echelon.rows": (adds, "count"),
        "linalg.echelon.nnz_in": (tr.counts["echelon.nnz_in"], "count"),
        "linalg.echelon.fill": (tr.counts["echelon.fill"], "count"),
        "linalg.echelon.row_yield": (
            tr.counts["echelon.new_pivots"] / adds if adds else 0.0, "ratio"),
        "linalg.kernel_basis.vectors": (tr.counts["kernel_basis.vectors"],
                                        "count"),
        "linalg.echelon.s": (self_s("linalg.Echelon.add",
                                    "linalg.Echelon.reduce",
                                    "linalg.Echelon.member"), "s"),
        "linalg.kernel_basis.s": (
            self_s("linalg.SparseFpMatrix.kernel_basis"), "s"),
        "linalg.solve_sparse.s": (self_s("linalg.solve_sparse"), "s"),
        "ceco.columns": (tr.counts["columns"], "count"),
        "ceco.ce_differential.calls": (tr.calls["ceco.ce_differential"],
                                       "count"),
        "ceco.cohomology_dim.calls": (tr.calls["ceco.cohomology_dim"],
                                      "count"),
        "liealg.check_jacobi.calls": (tr.calls["liealg.LieAlgebra.check_jacobi"],
                                      "count"),
        "liealg.check_jacobi.s": (self_s("liealg.LieAlgebra.check_jacobi"),
                                  "s"),
    }
    for name in ("ceco.chain_columns", "ceco.ce_differential",
                 "ceco.cohomology_dim", "ceco.class_span_dim",
                 "ceco.coboundary_witness", "ceco.massey_bracket",
                 "liealg.find_proper_ideal", "liealg.verify_morphism",
                 "commalg.harrison_h2", "commalg.hochschild_hn_dim",
                 "commalg.derivation_space",
                 "cocycles.build_filtered_deformation"):
        out[name + ".s"] = (self_s(name), "s")
    for layer, fns in CONSTRUCTORS.items():
        out[layer + ".constructors.s"] = (
            self_s(*("%s.%s" % (layer, f) for f in fns)), "s")
    attributed = 0.0
    for layer in LAYERS:
        t = tr.layer_self(layer)
        attributed += t
        out[layer + ".s"] = (t, "s")
    for cid, t in claim_times.items():
        out["claims.%s.s" % cid] = (t, "s")
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (overhead, "s")
    out["trace.attributed_frac"] = (attributed / traced_wall, "ratio")
    return out
