"""Span tracing of the branchflow layers from outside the package.

``install`` wraps the public functions and methods of each layer module at run
time, in every place that binds them: the defining module, every module that
imported the name, dict/list/tuple containers at module level (such as
``cli.SERIES_FAMILIES``) and alias names inside a class (``__rmul__`` is
``__mul__``).  Each call records a span: name, start, end, parent.  Spans stay
in memory; ``summarize`` reduces them to per-layer figures at the end of the
interpreter, which run.py merges across interpreters.

Time the tracer spends measuring operands and results (coefficient bit sizes,
product counts) is kept off the span clock, so it shows only in the traced
wall time and hence in the overhead ratio.

Not wrapped, on purpose:
  * ``QPoly`` methods and properties of any class: ``QPoly`` is used only
    inside ``virasoro`` (so its time is already ``virasoro`` self time) and
    its methods run about two million times per operator pass;
  * ``__init__``/``__eq__``/``__repr__`` and other protocol dunders other than
    arithmetic and ``__call__``.
"""

from __future__ import annotations

import bisect
import inspect
import math
import time
from array import array
from collections import Counter
from functools import wraps

LAYERS = ("exact", "series", "branches", "flows", "virasoro", "report", "cli")

# dunders that are operations rather than protocol plumbing
_OP_DUNDERS = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
    "__truediv__", "__pow__", "__call__",
}

# private functions that are part of a layer's interface: _y_inverse is a
# cached builder that verify_lemma_yk calls directly
_EXTRA = {"flows": ("_y_inverse",)}

# GradedSeries operations that compute coefficients (as opposed to reading a
# window or making a constant); a builder with none of these below it was a
# cache hit
SERIES_COMPUTE = {
    "__add__", "__sub__", "__rsub__", "__neg__", "__mul__", "__truediv__", "__pow__",
    "pow", "sqrt", "reciprocal", "exp", "log", "derivative", "antiderivative",
    "compose", "revert", "shift", "invert_variable", "sinh", "cosh", "coth", "csch",
    "hyperbolic",
}
# per-op metrics: op -> span names (GradedSeries methods) it adds up
SERIES_OPS = {
    "mul": ("__mul__",),
    "reciprocal": ("reciprocal",),
    "pow": ("__pow__", "pow"),
    "exp": ("exp",),
    "log": ("log",),
    "compose": ("compose",),
    "revert": ("revert",),
}
CACHED_BUILDERS = {
    "series_f", "series_theta", "series_h", "series_y", "_y_inverse",
    "series_f_plus_1", "series_f_plus_2", "series_f_plus", "series_H",
}
BUILDERS = CACHED_BUILDERS | {"series_F", "series_E", "series_mu"}
ORACLES = {"oracle_b", "oracle_c", "w0_by_reversion"}
RECURRENCES = {"coeffs_b", "coeffs_c"}
SCAN_CHECKS = {"check_virasoro_commutator", "check_heisenberg_commutator", "check_grading"}

# groups whose outermost spans give inclusive times: (layers, span names),
# where None stands for every verify_* function
_GROUPS = {
    "build": (("flows",), BUILDERS),
    "oracle": (("branches",), ORACLES),
    "recurrence": (("branches",), RECURRENCES),
    "verifier": (("branches", "flows"), None),  # the single-series verifiers
    "flow_solve": (("flows",), {"flow_solve"}),
    "flow_apply": (("flows",), {"flow_apply"}),
    "compare": (("report",), {"compare_series"}),
    "exp_op": (("virasoro",), {"exp_op_apply"}),
    "family_rows": (("cli",), {"family_rows"}),
    "render": (("cli",), {"render_coeffs"}),
    **{f"series.{op}": (("series",), set(names)) for op, names in SERIES_OPS.items()},
}
_GROUP_BIT = {g: 1 << i for i, g in enumerate(_GROUPS)}
_EXCLUDED_FROM_CHECK = _GROUP_BIT["build"] | _GROUP_BIT["oracle"] | _GROUP_BIT["recurrence"]


class Tracer:
    """Spans in parallel arrays indexed by span id; ``kinds`` names the span kinds."""

    def __init__(self, series_error):
        self.error_type = series_error
        self.kinds = []  # kind id -> (layer, owner, name)
        self.span_kind = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")  # window size for mul/revert spans, else 0
        self.series_error = array("b")  # 1 if the span ended by raising SeriesError
        self.stack = [-1]
        self.lost = 0.0  # seconds spent in post hooks, kept off the span clock
        self.counters = Counter()

    def kind_id(self, layer, owner, name):
        self.kinds.append((layer, owner, name))
        return len(self.kinds) - 1


def _wrap(tracer, fn, kid, post):
    kind_of, parents, starts, ends = tracer.span_kind, tracer.parent, tracer.start, tracer.end
    sizes, errors, stack = tracer.size, tracer.series_error, tracer.stack
    clock = time.perf_counter
    series_error = tracer.error_type

    @wraps(fn)
    def traced(*args, **kwargs):
        i = len(kind_of)
        kind_of.append(kid)
        parents.append(stack[-1])
        sizes.append(0)
        errors.append(0)
        ends.append(0.0)
        stack.append(i)
        starts.append(clock() - tracer.lost)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            ends[i] = clock() - tracer.lost
            stack.pop()
            errors[i] = isinstance(exc, series_error)
            raise
        ends[i] = clock() - tracer.lost
        stack.pop()
        if post is not None:
            t = clock()
            post(tracer, i, args, result)
            tracer.lost += clock() - t
        return result

    return traced


# --- post hooks: measurements taken off the span clock -----------------------------


def _coeff_bits(series):
    best = 0
    for c in series.coeffs.values():
        b = c.numerator.bit_length() + c.denominator.bit_length()
        if b > best:
            best = b
    return best


def _window(series):
    """Known positions from the lead to the window edge (exact: the support span)."""
    if not series.coeffs:
        return 0
    ws = [series._w(e) for e in series.coeffs]
    lo = min(ws)
    hi = series.wprec if series.prec is not None else max(ws) + 1
    return hi - lo


def _series_result(tracer, i, args, result):
    if hasattr(result, "coeffs") and hasattr(result, "direction"):
        bits = _coeff_bits(result)
        if bits > tracer.counters["max_coeff_bits"]:
            tracer.counters["max_coeff_bits"] = bits


def _mul_post(tracer, i, args, result):
    _series_result(tracer, i, args, result)
    a, b = args
    if not hasattr(b, "coeffs"):
        tracer.counters["coeff_mults"] += len(a.coeffs)  # scaling: no window to fit
        return
    wp = result.wprec
    wb = sorted(b._w(e) for e in b.coeffs)
    if wp is None:
        mults = len(a.coeffs) * len(wb)
    else:
        mults = sum(bisect.bisect_left(wb, wp - a._w(e)) for e in a.coeffs)
    tracer.counters["coeff_mults"] += mults
    tracer.size[i] = _window(result)


def _revert_post(tracer, i, args, result):
    _series_result(tracer, i, args, result)
    tracer.size[i] = _window(result)


def _compare_post(tracer, i, args, result):
    _identity, _order, lhs, rhs, exponents = args[:5]
    exps = list(exponents)
    compared = len(exps)
    if result.first_mismatch is not None:
        compared = exps.index(result.first_mismatch.exponent) + 1
    tracer.counters["coeffs_compared"] += compared
    if not exps:
        return
    for side in (lhs, rhs):
        if side.prec is None:
            continue  # an exact operand wastes nothing
        known = side.wprec - side._w(exps[0])
        tracer.counters["window_known"] += max(known, compared)
        tracer.counters["window_compared"] += compared


def _op_apply_post(tracer, i, args, result):
    tracer.counters["terms_out"] += len(result.terms)


def _post_for(layer, name):
    if layer == "series":
        if name == "__mul__":
            return _mul_post
        if name == "revert":
            return _revert_post
        if name in SERIES_COMPUTE:
            return _series_result
    if layer == "report" and name == "compare_series":
        return _compare_post
    if layer == "virasoro" and name == "__call__":
        return _op_apply_post
    return None


# --- installation --------------------------------------------------------------------


def _targets(modules):
    """(layer, owner, name, original) for everything to wrap, per layer module."""
    for layer, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            public = not name.startswith("_") or name in _EXTRA.get(layer, ())
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and public:
                yield layer, None, name, obj
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__ and obj.__name__ != "QPoly":
                for attr, raw in list(vars(obj).items()):
                    fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                    if not inspect.isfunction(fn):
                        continue
                    if attr.startswith("_") and attr not in _OP_DUNDERS:
                        continue
                    yield layer, obj, attr, raw


def install(layer_modules, other_modules, series_error):
    """Wrap every layer in place; returns the Tracer that records the spans.

    ``layer_modules`` maps layer name to module; ``other_modules`` are the
    package's remaining modules (``branchflow/__init__``), searched for
    bindings only.  Raises if any binding of a wrapped function is left.
    """
    tracer = Tracer(series_error)
    wrapped = {}  # id(original function) -> traced function
    originals = {}
    for layer, owner, attr, raw in _targets(layer_modules):
        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        # aliases (__rmul__ = __mul__) share the span name of the function itself
        name = fn.__name__
        if id(fn) not in wrapped:
            kid = tracer.kind_id(layer, owner.__name__ if owner else None, name)
            wrapped[id(fn)] = _wrap(tracer, fn, kid, _post_for(layer, name))
            originals[id(fn)] = fn
        traced = wrapped[id(fn)]
        if owner is None:
            continue  # module bindings are rebound below, with every other binding
        if isinstance(raw, classmethod):
            traced = classmethod(traced)
        elif isinstance(raw, staticmethod):
            traced = staticmethod(traced)
        setattr(owner, attr, traced)
    namespaces = [vars(m) for m in (*layer_modules.values(), *other_modules)]
    for ns in namespaces:
        _rebind(ns, wrapped)
    stray = _find_unwrapped(namespaces, originals)
    if stray:
        raise RuntimeError("unwrapped bindings left: " + ", ".join(sorted(stray)))
    return tracer


def _swap(value, wrapped):
    if inspect.isfunction(value) and id(value) in wrapped:
        return wrapped[id(value)], True
    if isinstance(value, (list, tuple)):
        items = [_swap(v, wrapped) for v in value]
        if any(changed for _, changed in items):
            return type(value)(v for v, _ in items), True
    return value, False


def _rebind(namespace, wrapped):
    for key, value in list(namespace.items()):
        if key == "__builtins__":
            continue
        if isinstance(value, dict):
            for k, v in list(value.items()):
                new, changed = _swap(v, wrapped)
                if changed:
                    value[k] = new
            continue
        new, changed = _swap(value, wrapped)
        if changed:
            namespace[key] = new


def _find_unwrapped(namespaces, originals):
    """Names through which an original (unwrapped) function is still reachable."""
    stray = set()

    def visit(where, value):
        if inspect.isfunction(value) and id(value) in originals and originals[id(value)] is value:
            stray.add(where)
        elif isinstance(value, dict):
            for k, v in value.items():
                visit(f"{where}[{k!r}]", v)
        elif isinstance(value, (list, tuple)):
            for j, v in enumerate(value):
                visit(f"{where}[{j}]", v)

    for ns in namespaces:
        for key, value in ns.items():
            if key == "__builtins__":
                continue
            where = f"{ns['__name__']}.{key}"
            visit(where, value)
            if inspect.isclass(value):
                for attr, raw in vars(value).items():
                    fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                    visit(f"{where}.{attr}", fn)
    return stray


# --- reduction ------------------------------------------------------------------------


def _group_bits(kinds):
    bits = []
    for layer, owner, name in kinds:
        b = 0
        for group, (layers, names) in _GROUPS.items():
            if layer in layers and (name in names if names else name.startswith("verify_")):
                b |= _GROUP_BIT[group]
        bits.append(b)
    return bits


def summarize(tracer) -> dict:
    """Reduce the spans to mergeable sums, maxima and samples."""
    kinds = tracer.kinds
    n = len(tracer.span_kind)
    kind, parent, start, end = tracer.span_kind, tracer.parent, tracer.start, tracer.end
    layer_of = [k[0] for k in kinds]
    gbits = _group_bits(kinds)
    series_compute = [k[0] == "series" and k[2] in SERIES_COMPUTE for k in kinds]
    cached = [k[0] == "flows" and k[2] in CACHED_BUILDERS and k[1] is None for k in kinds]
    label = [".".join(x for x in k if x) for k in kinds]
    scan = {kid for kid, k in enumerate(kinds) if k[0] == "virasoro" and k[2] in SCAN_CHECKS}

    # forward pass: which groups enclose each span (parents precede children)
    mask = [0] * n
    for i in range(n):
        p = parent[i]
        mask[i] = (mask[p] if p >= 0 else 0) | gbits[kind[i]]

    child = [0.0] * n
    has_compute = bytearray(n)
    out = _empty()
    layer_self, layer_spans, named = out["layer_self_s"], out["layer_spans"], out["named"]
    incl, samples, counts = out["incl"], out["samples"], out["counts"]
    counts.update(tracer.counters)
    excluded_in_verifier = 0.0
    # reverse pass: children (higher ids) are complete before their parent
    for i in range(n - 1, -1, -1):
        k = kind[i]
        p = parent[i]
        d = end[i] - start[i]
        own = d - child[i]
        layer = layer_of[k]
        layer_self[layer] += own
        layer_spans[layer] += 1
        if p >= 0:
            child[p] += d
        if series_compute[k]:
            has_compute[i] = 1
        if has_compute[i] and p >= 0:
            has_compute[p] = 1
        stat = named.setdefault(label[k], [0, 0.0])
        stat[0] += 1
        stat[1] += own
        if tracer.size[i] > 0:
            samples["mul" if kinds[k][2] == "__mul__" else "revert"].append((tracer.size[i], d))
        if cached[k]:
            counts["cached_builder_calls"] += 1
            if not has_compute[i]:
                counts["cached_builder_hits"] += 1
        up = mask[p] if p >= 0 else 0
        outermost = gbits[k] & ~up
        if outermost:
            for g, bit in _GROUP_BIT.items():
                if outermost & bit:
                    incl[g][0] += 1
                    incl[g][1] += d
            if outermost & _EXCLUDED_FROM_CHECK and not up & _EXCLUDED_FROM_CHECK:
                if up & _GROUP_BIT["verifier"]:
                    excluded_in_verifier += d
        if k in scan:
            samples["scan_ms"].append(d * 1000.0)
        if tracer.series_error[i] and layer == "series":
            # count it where it leaves the series layer, not once per frame
            if p < 0 or layer_of[kind[p]] != "series" or not tracer.series_error[p]:
                counts["series_errors"] += 1
    out["check_excluded_s"] = excluded_in_verifier
    return out


def _empty() -> dict:
    return {
        "check_excluded_s": 0.0,
        "layer_self_s": dict.fromkeys(LAYERS, 0.0),
        "layer_spans": dict.fromkeys(LAYERS, 0),
        "named": {},  # "layer.Owner.name" -> [calls, self seconds]
        "incl": {g: [0, 0.0] for g in _GROUPS},  # outermost spans: [calls, seconds]
        "counts": Counter(),
        "samples": {"mul": [], "revert": [], "scan_ms": []},
    }


def merge(summaries) -> dict:
    """Add up the summaries of the interpreters of one pass."""
    out = _empty()
    for s in summaries:
        out["check_excluded_s"] += s["check_excluded_s"]
        for key in ("layer_self_s", "layer_spans"):
            for layer, v in s[key].items():
                out[key][layer] += v
        for key in ("named", "incl"):
            for name, (c, t) in s[key].items():
                stat = out[key].setdefault(name, [0, 0.0])
                stat[0] += c
                stat[1] += t
        for name, v in s["counts"].items():
            if name == "max_coeff_bits":
                out["counts"][name] = max(out["counts"][name], v)
            else:
                out["counts"][name] += v
        for name, v in s["samples"].items():
            out["samples"][name].extend(v)
    return out


def growth_exponent(samples, min_size=8):
    """Least-squares slope of log(time) against log(window size).

    0 unless the calls cover at least three sizes spanning a factor of two:
    fewer say nothing about growth.
    """
    pts = [(math.log(s), math.log(t)) for s, t in samples if s >= min_size and t > 0]
    sizes = {x for x, _ in pts}
    if len(sizes) < 3 or max(sizes) - min(sizes) < math.log(2):
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in pts) / sxx
