"""Span tracer for one dops CLI job, installed from outside the package.

``Tracer.install`` wraps every public function of every ``dops`` module, the
arithmetic methods of the classes those modules define, and the private cli
functions that render or write an artifact.  It rebinds each wrapper at every
``dops.*`` module attribute (and module-level dict value) that held the
original, because the modules import each other's functions by name.  The
functions are found by introspection, so the layer totals follow functions
that later move between modules or change their names.

A span is (function id, parent span, start, end).  Spans stay in flat arrays
in memory and ``dump`` writes them out when the job ends; ``summarize`` turns
the dump into the per-layer metrics.  Besides spans the tracer keeps a few
counters that must repeat exactly from run to run: distinct argument sets per
function, coefficient products of ``Poly * Poly``, builds entered into the
families layer and the bit length of the polynomials they return, and the
wall time spent on each identity report, less the tracer's own bookkeeping.
"""

from __future__ import annotations

import array
import inspect
import itertools
import json
import os
import re
import sys
import time

LAYERS = ("polynomials", "series", "families", "orthogonality", "identities", "cli")
ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__neg__", "__truediv__", "__call__")
# as_rational coerces every coefficient inside the Poly and Series constructors,
# about 10^7 calls in one ml-verify job; a span around it would time the tracer.
UNWRAPPED = frozenset({"as_rational"})
# Private cli functions that serialize or atomically write an artifact.
RENDER = re.compile(r"render|write")

SPANS_FILE = "spans.bin"
META_FILE = "trace.json"


def metric_id(identity: str) -> str:
    """Report id as a metric name part: ``de1:k=1`` becomes ``de1-k1``."""
    return re.sub(r"[^A-Za-z0-9_.-]", "", identity.replace(":", "-"))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.fid = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = [-1]
        self.keys: dict[str, set] = {}
        self.key_calls: dict[str, int] = {}
        self.coeff_products = 0
        self.builds = 0
        self.build_keys: set = set()
        self.pn_bits = 0
        self.suite_s: dict[str, float] = {}
        self._boundary = None
        # Seconds of tracer bookkeeping so far, and at the last report boundary.
        self._overhead = 0.0
        self._overhead_mark = 0.0
        self._unique = itertools.count()
        self._poly = None
        self._tracer_fid = self._function("tracer", "tracer")

    # -- installation -------------------------------------------------------

    def install(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if (name == "dops" or name.startswith("dops.")) and mod is not None}
        self._poly = getattr(modules.get("dops.polynomials"), "Poly", None)
        wrappers = {}
        for name, mod in sorted(modules.items()):
            layer = name.split(".")[-1]
            for attr, value in sorted(vars(mod).items()):
                if getattr(value, "__module__", None) != name:
                    continue
                if inspect.isfunction(value) and self._traceable(layer, attr, value):
                    wrappers[value] = self._wrap(value, f"{layer}.{attr}", layer, keyed=True)
                elif inspect.isclass(value):
                    self._wrap_methods(value, layer)
                    if layer == "identities" and attr == "VerificationReport":
                        self._hook_reports(value)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if _hashable(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if _hashable(v) and v in wrappers:
                            value[k] = wrappers[v]

    @staticmethod
    def _traceable(layer, attr, fn) -> bool:
        if inspect.isgeneratorfunction(fn) or attr in UNWRAPPED:
            return False
        return not attr.startswith("_") or (layer == "cli" and bool(RENDER.search(attr)))

    def _wrap_methods(self, cls, layer):
        wrapped = {}
        for attr in ARITHMETIC:
            fn = cls.__dict__.get(attr)
            if inspect.isfunction(fn):
                if fn not in wrapped:
                    wrapped[fn] = self._wrap(fn, f"{layer}.{cls.__name__}.{fn.__name__}", layer,
                                             keyed=False)
                setattr(cls, attr, wrapped[fn])

    def _hook_reports(self, cls):
        """Charge the time since the previous report (or since run_suites
        began) to each report's id; suites run one after another and create
        each report right after the work that checked it.  The tracer's own
        bookkeeping in that interval is left out; the wrappers' span
        recording is not, as in every layer's self time."""
        init = cls.__init__
        clock = time.perf_counter

        def traced_init(report, *args, **kwargs):
            init(report, *args, **kwargs)
            if self._boundary is not None:
                now = clock()
                spent = now - self._boundary - (self._overhead - self._overhead_mark)
                ident = report.identity
                self.suite_s[ident] = self.suite_s.get(ident, 0.0) + spent
                self._boundary = now
                self._overhead_mark = self._overhead

        cls.__init__ = traced_init

    # -- the wrapper ----------------------------------------------------------

    def _wrap(self, fn, name, layer, keyed):
        fid = self._function(name, layer)
        fids, parents, starts, ends, stack = self.fid, self.parent, self.start, self.end, self.stack
        layers = self.layers
        clock = time.perf_counter
        hook = self._hook_span
        before = after = None
        if keyed:
            self.keys[name] = set()
            self.key_calls[name] = 0
            before = self._count_key
            if layer == "families":
                before, after = self._count_build, self._build_bits
        if name == "cli.run_suites":
            before, after = self._open_suites, self._close_suites

        if name.endswith(".__mul__"):
            count_products = self._count_products

            def traced(*args, **kwargs):
                count_products(args)
                parent = stack[-1]
                idx = len(fids)
                fids.append(fid)
                parents.append(parent)
                ends.append(0.0)
                stack.append(idx)
                starts.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    stack.pop()
        else:
            def traced(*args, **kwargs):
                parent = stack[-1]
                if before:
                    t0 = clock()
                    token = before(name, args, kwargs, parent >= 0 and layers[fids[parent]])
                    hook(parent, t0)
                idx = len(fids)
                fids.append(fid)
                parents.append(parent)
                ends.append(0.0)
                stack.append(idx)
                starts.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    stack.pop()
                if after:
                    t0 = clock()
                    after(token, result)
                    hook(parent, t0)
                return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def _function(self, name, layer) -> int:
        self.names.append(name)
        self.layers.append(layer)
        return len(self.names) - 1

    def _hook_span(self, parent, t0):
        """Record the tracer's own bookkeeping as a child span of ``parent``
        in the ``tracer`` layer, so no dops layer's self time includes it."""
        self.fid.append(self._tracer_fid)
        self.parent.append(parent)
        self.start.append(t0)
        t1 = time.perf_counter()
        self.end.append(t1)
        self._overhead += t1 - t0

    # -- counters -------------------------------------------------------------

    def _key(self, value):
        if isinstance(value, (list, tuple)):
            return tuple(self._key(v) for v in value)
        if isinstance(value, dict):
            return tuple(sorted((k, self._key(v)) for k, v in value.items()))
        if type(value).__hash__ is object.__hash__:
            # Identity-hashed objects (generators, namespaces) never repeat.
            return ("unique", next(self._unique))
        if type(value).__hash__ is None:
            return repr(value)
        return value

    def _count_key(self, name, args, kwargs, parent_layer):
        key = self._key((args, kwargs))
        self.key_calls[name] += 1
        self.keys[name].add(key)
        return key

    def _count_products(self, args):
        a, b = args[0], args[1]
        poly = self._poly
        if isinstance(a, poly) and isinstance(b, poly):
            self.coeff_products += len(a.coeffs) * len(b.coeffs)

    def _count_build(self, name, args, kwargs, parent_layer):
        key = self._count_key(name, args, kwargs, parent_layer)
        if parent_layer == "families":
            return False
        self.builds += 1
        self.build_keys.add((name, key))
        return True

    def _build_bits(self, is_build, result):
        if not is_build:
            return
        polys = result if isinstance(result, (list, tuple)) else (result,)
        for p in polys:
            if isinstance(p, self._poly):
                for c in p.coeffs:
                    self.pn_bits = max(self.pn_bits, c.numerator.bit_length(),
                                       c.denominator.bit_length())

    def _open_suites(self, name, args, kwargs, parent_layer):
        # The boundary comes first, so the key counting below falls inside
        # the first report's interval and is left out of it with the rest.
        self._boundary = time.perf_counter()
        self._overhead_mark = self._overhead
        self._count_key(name, args, kwargs, parent_layer)

    def _close_suites(self, token, result):
        self._boundary = None

    # -- output ---------------------------------------------------------------

    def dump(self, directory: str):
        with open(os.path.join(directory, SPANS_FILE), "wb") as fh:
            for arr in (self.fid, self.parent, self.start, self.end):
                arr.tofile(fh)
        meta = {
            "names": self.names,
            "layers": self.layers,
            "n_spans": len(self.fid),
            "calls": self.key_calls,
            "distinct": {name: len(keys) for name, keys in self.keys.items()},
            "coeff_products": self.coeff_products,
            "builds": self.builds,
            "build_distinct": len(self.build_keys),
            "pn_bits": self.pn_bits,
            "suite_s": self.suite_s,
        }
        with open(os.path.join(directory, META_FILE), "w", encoding="utf-8") as fh:
            json.dump(meta, fh)


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


# ---------------------------------------------------------------------------
# Aggregation (runs in the benchmark process, after the job has exited)
# ---------------------------------------------------------------------------


def load(directory: str):
    with open(os.path.join(directory, META_FILE), encoding="utf-8") as fh:
        meta = json.load(fh)
    n = meta["n_spans"]
    arrays = []
    with open(os.path.join(directory, SPANS_FILE), "rb") as fh:
        for code in ("i", "i", "d", "d"):
            arr = array.array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return meta, arrays


def summarize(directory: str, suite_ids) -> dict:
    """Per-layer metrics from one dumped trace; ``suite_ids`` names every
    report id the benchmark reports a ``suite.<id>.s`` metric for."""
    meta, (fids, parents, starts, ends) = load(directory)
    names, layers = meta["names"], meta["layers"]
    n = len(fids)
    child = [0.0] * n
    for i in range(n):
        p = parents[i]
        if p >= 0:
            child[p] += ends[i] - starts[i]
    self_s = dict.fromkeys(LAYERS, 0.0)
    layer_calls = dict.fromkeys(LAYERS, 0)
    calls = [0] * len(names)
    inclusive = [0.0] * len(names)
    first = {}
    for i in range(n):
        f = fids[i]
        layer = layers[f]
        dur = ends[i] - starts[i]
        self_s[layer] = self_s.get(layer, 0.0) + dur - child[i]
        layer_calls[layer] = layer_calls.get(layer, 0) + 1
        calls[f] += 1
        p = parents[i]
        if p < 0 or fids[p] != f:
            inclusive[f] += dur
        first.setdefault(f, i)
    by_name = {name: f for f, name in enumerate(names)}

    def count(name):
        return calls[by_name[name]] if name in by_name else 0

    def seconds(name):
        return inclusive[by_name[name]] if name in by_name else 0.0

    def distinct_ratio(name):
        total = meta["calls"].get(name, 0)
        return meta["distinct"][name] / total if total else 1.0

    def span_of(name):
        f = by_name.get(name)
        return first.get(f) if f is not None else None

    main, setup = span_of("cli.main"), span_of("cli.build_setup")
    parse_s = ends[setup] - starts[main] if main is not None and setup is not None else 0.0
    render_s = sum(inclusive[f] for f, name in enumerate(names)
                   if layers[f] == "cli" and RENDER.search(name.split(".")[-1]))
    builds = meta["builds"]
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_s[layer], "s")
    out.update({
        "polynomials.calls": (layer_calls["polynomials"], "count"),
        "polynomials.mul.calls": (count("polynomials.Poly.__mul__"), "count"),
        "polynomials.mul.coeff_products": (meta["coeff_products"], "count"),
        "polynomials.shift.calls": (count("polynomials.shift"), "count"),
        "polynomials.shift.distinct_ratio": (distinct_ratio("polynomials.shift"), "ratio"),
        "polynomials.shift.s": (seconds("polynomials.shift"), "s"),
        "polynomials.delta_w.s": (seconds("polynomials.delta_w"), "s"),
        "series.calls": (layer_calls["series"], "count"),
        "series.series_exp.s": (seconds("series.series_exp"), "s"),
        "series.series_mul.s": (seconds("series.series_mul"), "s"),
        "families.builds": (builds, "count"),
        "families.build_distinct_ratio":
            (meta["build_distinct"] / builds if builds else 1.0, "ratio"),
        "families.pn_bits": (meta["pn_bits"], "bits"),
        "families.ml_by_recurrence.calls": (count("families.ml_by_recurrence"), "count"),
        "orthogonality.fit_recurrence.calls": (count("orthogonality.fit_recurrence"), "count"),
        "orthogonality.fit_recurrence.distinct_ratio":
            (distinct_ratio("orthogonality.fit_recurrence"), "ratio"),
        "orthogonality.moments_by_inversion.calls":
            (count("orthogonality.moments_by_inversion"), "count"),
        "orthogonality.expand_in_basis.calls": (count("orthogonality.expand_in_basis"), "count"),
        "identities.ratio_power_closed_form.calls":
            (count("identities.ratio_power_closed_form"), "count"),
        "identities.ratio_power_closed_form.distinct_ratio":
            (distinct_ratio("identities.ratio_power_closed_form"), "ratio"),
        "cli.parse_s": (parse_s, "s"),
        "cli.render_s": (render_s, "s"),
    })
    for ident in suite_ids:
        out[f"suite.{metric_id(ident)}.s"] = (meta["suite_s"].get(ident, 0.0), "s")
    return out
