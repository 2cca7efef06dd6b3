"""Per-layer tracing by wrapping the public functions of each module.

Every public module-level function of a layer is replaced, on its module
object, by a wrapper.  Calls between modules go through attribute lookups
(``nm.norm``, ``pw.absolute``) and calls inside a module go through its
globals, so both reach the wrappers without editing the library.  Names a
module imported by value (``from .rootfind import eval_exp_poly``) keep
pointing at the original function; those calls are charged to the caller.

A call that enters a layer from another layer (or from the benchmark)
opens a span: name, request id, start, end, parent.  A call that stays
inside its caller's layer is only counted, because it cannot change the
layer's self time.  A few hot leaf functions are only counted, never
spanned, so their time is charged to the calling layer.  Route functions
are always spanned, so their inclusive time is known.

Spans stay in memory (compact arrays) and are written out by ``dump``.
Self time per layer is span time minus the time of its child spans.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import time
from array import array

LAYERS = ("documents", "cli", "piecewise", "cesaro", "rearrange", "rootfind",
          "norms", "oc", "oracle")

# counted only: millions of calls per run, so a span each would dominate
HOT_LEAVES = {
    "piecewise": ("evaluate", "eval_term_map", "limit_term_map",
                  "segment_end_values", "antiderivative_map"),
    "rootfind": ("eval_exp_poly", "derivative_terms"),
    "oracle": ("simpson", "pw_format"),
}

# always spanned, also inside their own layer, for inclusive route times
ROUTES = {
    ("oc", "oc_point_closed_form"): "oc.route.closed_form.s",
    ("oc", "oc_point_via_characterization"): "oc.route.theorem.s",
    ("oc", "direct_oc_check"): "oc.route.direct.s",
    ("oc", "adversarial_family_search"): "oc.route.adversarial.s",
    ("oracle", "quadrature_norm_oracle"): "oracle.route.norm.s",
    ("oracle", "rearrangement_oracle"): "oracle.route.rearrangement.s",
}

# norm time is reported per base family, on calls that enter norms
NORM_FAMILIES = ("marcinkiewicz", "orlicz", "lorentz")

# counts reported by function name
COUNTED = ("piecewise.absolute", "piecewise.essential_sup_abs",
           "piecewise.restrict", "piecewise.evaluate",
           "rearrange.distribution", "rootfind.roots_t", "norms.norm",
           "oc.vanishing_sequence", "oracle.simpson")

# per-layer metric names, in the order they are printed
LAYER_METRICS = tuple(
    [f"{layer}.self_s" for layer in LAYERS]
    + [f"{layer}.calls" for layer in LAYERS]
    + [f"{name}.calls" for name in COUNTED]
    + sorted(ROUTES.values())
    + [f"norms.norm.{fam}.s" for fam in NORM_FAMILIES]
    + ["norms.norm.inexact_ratio", "oc.samples_per_decision",
       "oc.seq_cap_ratio", "oc.undecided_ratio",
       "oc.adversarial.families_tried", "oc.adversarial.full_ratio"])


def _base_family(space) -> str:
    return space.inner.tag if space.tag == "cesaro" else space.tag


class Tracer:
    """Installs wrappers on the library modules and accumulates metrics.

    Recording happens only while ``active`` is true, so answer checks and
    input generation between requests leave no trace.
    """

    def __init__(self):
        self.active = False
        self.request = -1
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.counts: list[int] = []
        self.incl_s: list[float] = []
        self.self_s = [0.0] * (len(LAYERS) + 1)
        # frame: [layer id, child seconds, span id]; the benchmark itself
        # is the root, with a layer id past the library's
        self.stack: list[list] = [[len(LAYERS), 0.0, -1]]
        self.next_span = 0
        self.span_id = array("q")
        self.span_fn = array("i")
        self.span_req = array("q")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.family_s = dict.fromkeys(NORM_FAMILIES, 0.0)
        self.norm_results = 0
        self.norm_inexact = 0
        self.decisions = 0
        self.samples = 0
        self.capped = 0
        self.undecided = 0
        self.families_tried = 0
        self.families_full = 0
        self._originals: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for lid, layer in enumerate(LAYERS):
            mod = importlib.import_module(f"cesarospaces.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__:
                    continue
                fid = len(self.names)
                self.names.append(f"{layer}.{name}")
                self.layer_of.append(lid)
                self.counts.append(0)
                self.incl_s.append(0.0)
                if name in HOT_LEAVES.get(layer, ()):
                    wrapper = self._counter(fid, obj)
                else:
                    wrapper = self._spanner(lid, fid, obj,
                                            (layer, name) in ROUTES)
                    wrapper = self._special(layer, name, wrapper)
                self._originals.append((mod, name, obj))
                setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._originals):
            setattr(mod, name, obj)
        self._originals.clear()

    def _counter(self, fid, fn):
        tracer = self
        counts = self.counts

        def counted(*args, **kwargs):
            if tracer.active:
                counts[fid] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _spanner(self, lid, fid, fn, always):
        tracer = self
        counts = self.counts
        incl_s = self.incl_s
        self_s = self.self_s
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            counts[fid] += 1
            stack = tracer.stack
            if not always and stack[-1][0] == lid:
                return fn(*args, **kwargs)
            sid = tracer.next_span
            tracer.next_span = sid + 1
            frame = [lid, 0.0, sid]
            parent = stack[-1]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[1] += dur
                self_s[lid] += dur - frame[1]
                incl_s[fid] += dur
                tracer._record(sid, fid, parent[2], t0, t1)

        spanned.__wrapped__ = fn
        return spanned

    def _record(self, sid, fid, parent, t0, t1) -> None:
        self.span_id.append(sid)
        self.span_fn.append(fid)
        self.span_req.append(self.request)
        self.span_parent.append(parent)
        self.span_start.append(t0)
        self.span_end.append(t1)

    def _special(self, layer, name, wrapper):
        tracer = self
        if (layer, name) == ("norms", "norm"):
            clock = time.perf_counter
            norms_id = LAYERS.index("norms")

            def norm(f, X):
                if not tracer.active:
                    return wrapper(f, X)
                entering = tracer.stack[-1][0] != norms_id
                t0 = clock()
                res = wrapper(f, X)
                tracer.norm_results += 1
                if res.method != "exact":
                    tracer.norm_inexact += 1
                fam = _base_family(X)
                if entering and fam in tracer.family_s:
                    tracer.family_s[fam] += clock() - t0
                return res

            norm.__wrapped__ = wrapper
            return norm
        if (layer, name) in (("oc", "vanishing_sequence"),
                             ("oc", "limit_estimate")):
            return self._decision(name, wrapper)
        if (layer, name) == ("oc", "adversarial_family_search"):
            def search(*args, **kwargs):
                if not tracer.active:
                    return wrapper(*args, **kwargs)
                before = tracer.count("oc.vanishing_sequence")
                report = wrapper(*args, **kwargs)
                tracer.families_tried += report.families_tried
                # each family that survives the quick check runs one full
                # vanishing_sequence decision
                tracer.families_full += \
                    tracer.count("oc.vanishing_sequence") - before
                return report

            search.__wrapped__ = wrapper
            return search
        return wrapper

    def _decision(self, name, wrapper):
        """Samples, cap hits and refusals of one numeric limit decision."""
        tracer = self
        sig = inspect.signature(wrapper.__wrapped__)
        seq = name == "vanishing_sequence"

        def decide(*args, **kwargs):
            if not tracer.active:
                return wrapper(*args, **kwargs)
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            fn = bound.arguments["value_at" if seq else "fn"]
            used = [0]

            def sample(x):
                used[0] += 1
                return fn(x)

            bound.arguments["value_at" if seq else "fn"] = sample
            out = wrapper(*bound.args, **bound.kwargs)
            k_max = bound.arguments["k_max"]
            decision = out[0] if seq else out.tends_to_zero
            tracer.decisions += 1
            tracer.samples += used[0]
            # vanishing_sequence samples k = 0..k_max, limit_estimate 1..k_max
            if used[0] >= (k_max + 1 if seq else k_max):
                tracer.capped += 1
            if decision is None:
                tracer.undecided += 1
            return out

        decide.__wrapped__ = wrapper
        return decide

    # -- results ------------------------------------------------------------

    def count(self, name: str) -> int:
        return self.counts[self.names.index(name)]

    def totals(self) -> dict[str, float]:
        """Additive totals so far: times, counts and the parts of each
        ratio.  Totals of two stretches of work can be scaled and summed,
        and ``metrics`` turns the result into the per-layer metrics."""
        out: dict[str, float] = {}
        layer_calls = [0] * len(LAYERS)
        for fid, n in enumerate(self.counts):
            layer_calls[self.layer_of[fid]] += n
        for lid, layer in enumerate(LAYERS):
            out[f"{layer}.self_s"] = self.self_s[lid]
            out[f"{layer}.calls"] = layer_calls[lid]
        for name in COUNTED:
            out[f"{name}.calls"] = self.count(name)
        for (layer, name), metric in ROUTES.items():
            out[metric] = self.incl_s[self.names.index(f"{layer}.{name}")]
        for fam, secs in self.family_s.items():
            out[f"norms.norm.{fam}.s"] = secs
        out.update({"norm_results": self.norm_results,
                    "norm_inexact": self.norm_inexact,
                    "decisions": self.decisions, "samples": self.samples,
                    "capped": self.capped, "undecided": self.undecided,
                    "oc.adversarial.families_tried": self.families_tried,
                    "families_full": self.families_full})
        return out

    def spans(self) -> int:
        return len(self.span_id)

    def dump(self, path: str) -> None:
        """Write spans as gzip CSV: id, parent, request, name, start, end."""
        t_base = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("id,parent,request,name,start_s,end_s\n")
            names = self.names
            for i in range(len(self.span_id)):
                out.write(f"{self.span_id[i]},{self.span_parent[i]},"
                          f"{self.span_req[i]},{names[self.span_fn[i]]},"
                          f"{self.span_start[i] - t_base:.9f},"
                          f"{self.span_end[i] - t_base:.9f}\n")


def metrics(totals: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from ``Tracer.totals`` (possibly scaled or summed):
    times and counts as they are, ratios of their parts."""
    out = dict(totals)
    out["norms.norm.inexact_ratio"] = _ratio(totals["norm_inexact"],
                                             totals["norm_results"])
    out["oc.samples_per_decision"] = _ratio(totals["samples"],
                                            totals["decisions"])
    out["oc.seq_cap_ratio"] = _ratio(totals["capped"], totals["decisions"])
    out["oc.undecided_ratio"] = _ratio(totals["undecided"],
                                       totals["decisions"])
    out["oc.adversarial.full_ratio"] = _ratio(
        totals["families_full"], totals["oc.adversarial.families_tried"])
    return {name: out[name] for name in LAYER_METRICS}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
