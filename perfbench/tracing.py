"""Per-layer tracing, installed from outside the package.

``Tracer.install()`` wraps the public functions of each qdeform module
(``qnum -> poly -> opcore -> maps -> hahn -> dsl -> verify -> cli``) and
aggregates spans in memory: per layer function the number of calls, the
inclusive time (outermost activation only, so recursion is not counted
twice) and the self time (its span minus the child spans it covers).

It also records the peak numerator and denominator bit sizes over the
Polys returned by traced calls, and the (label, check_degree) key of every
map construction. The time spent measuring bit sizes is subtracted from
every enclosing span.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from time import perf_counter

# (metric name, module, attribute path); classes are traced at __init__
LAYERS = (
    ("qnum.QContext", "qdeform.qnum", "QContext.__init__"),
    ("poly.add", "qdeform.poly", "Poly.__add__"),
    ("poly.sub", "qdeform.poly", "Poly.__sub__"),
    ("poly.scale", "qdeform.poly", "Poly.scale"),
    ("poly.mul", "qdeform.poly", "Poly.__mul__"),
    ("poly.derivative", "qdeform.poly", "Poly.derivative"),
    ("poly.shift", "qdeform.poly", "Poly.shift"),
    ("poly.to_monomial", "qdeform.poly", "Poly.to_monomial"),
    ("poly.to_falling", "qdeform.poly", "Poly.to_falling"),
    ("opcore.apply", "qdeform.opcore", "apply"),
    ("opcore.realize", "qdeform.opcore", "realize"),
    ("opcore.realize_exact", "qdeform.opcore", "realize_exact"),
    ("opcore.commutator", "qdeform.opcore", "commutator"),
    ("opcore.q_commutator", "qdeform.opcore", "q_commutator"),
    ("maps.DeformMap", "qdeform.maps", "DeformMap.__init__"),
    ("maps.basis_element", "qdeform.maps", "DeformMap.basis_element"),
    ("maps.image", "qdeform.maps", "DeformMap.image"),
    ("maps.b_projection", "qdeform.maps", "b_projection"),
    ("maps.compose", "qdeform.maps", "compose"),
    ("hahn.eigenpolynomials", "qdeform.hahn", "eigenpolynomials"),
    ("hahn.residual", "qdeform.hahn", "residual"),
    ("hahn.build", "qdeform.hahn", "build"),
    ("hahn.isospectral_check", "qdeform.hahn", "isospectral_check"),
    ("dsl.parse", "qdeform.dsl", "parse"),
    ("cli.main", "qdeform.cli", "main"),
)
SUITES = ("ccr", "qccr", "jackson", "rolle", "intertwine", "similarity",
          "qcc-delta", "composition", "hahn")


def metric_names() -> list:
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for name, _, _ in LAYERS:
        out += [(name + ".calls", "count", "lower"), (name + ".s", "s", "lower"),
                (name + ".self_s", "s", "lower")]
    out += [("verify.%s.s" % s, "s", "lower") for s in SUITES]
    out += [("poly.peak_num_bits", "bits", "lower"), ("poly.peak_den_bits", "bits", "lower"),
            ("maps.distinct", "count", "lower"), ("maps.reuse_share", "ratio", "lower"),
            ("trace_overhead_s", "s", "lower")]
    return out


class Tracer:
    def __init__(self):
        self.stats = {}  # name -> [calls, inclusive s, self s]
        self.active = {}  # name -> activations on the stack
        self.stack = []  # per open span: [child s, measuring overhead s]
        self.num_bits = 0
        self.den_bits = 0
        self.map_keys = []
        self.missing = []

    # -- installation ------------------------------------------------------

    def install(self):
        import qdeform.poly
        import qdeform.verify

        self._poly = qdeform.poly.Poly
        for name, modname, path in LAYERS:
            self._install(name, importlib.import_module(modname), path)
        suites = qdeform.verify.SUITES
        for key in SUITES:
            if key in suites:
                orig = suites[key]
                self._replace(orig, self._wrap("verify.%s" % key, orig), suites)
            else:
                self.missing.append("verify.%s" % key)
        return self

    def _install(self, name, module, path):
        *owner_path, attr = path.split(".")
        owner = module
        for part in owner_path:
            owner = getattr(owner, part, None)
        orig = owner.__dict__.get(attr) if owner is not None else None
        if orig is None:
            self.missing.append(name)
            return
        key = self._map_key(orig) if name == "maps.DeformMap" else None
        wrapped = self._wrap(name, orig, key)
        if owner_path:
            setattr(owner, attr, wrapped)
        else:
            self._replace(orig, wrapped)

    @staticmethod
    def _replace(orig, wrapped, *extra):
        """Rebind every module-level reference (``from .x import f``) to f."""
        spaces = [vars(m) for n, m in sys.modules.items() if n.split(".")[0] == "qdeform"]
        for ns in spaces + list(extra):
            for k, v in list(ns.items()):
                if v is orig:
                    ns[k] = wrapped

    def _map_key(self, init):
        sig = inspect.signature(init)

        def key(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return (bound.arguments.get("label"), bound.arguments.get("check_degree"))

        return key

    # -- spans -------------------------------------------------------------

    def _wrap(self, name, fn, key=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        self.active.setdefault(name, 0)
        active, stack = self.active, self.stack

        def traced(*args, **kwargs):
            stat[0] += 1
            if key is not None:
                self.map_keys.append(key(args, kwargs))
            frame = [0.0, 0.0]
            stack.append(frame)
            outer = active[name]
            active[name] = outer + 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                active[name] = outer
                stack.pop()
            dt = t1 - t0 - frame[1]
            self._observe(result)
            if not outer:
                stat[1] += dt
            stat[2] += dt - frame[0]
            if stack:
                parent = stack[-1]
                parent[0] += dt
                parent[1] += frame[1] + (perf_counter() - t1)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe(self, result):
        if isinstance(result, self._poly):
            polys = (result,)
        elif isinstance(result, list):
            polys = [r for r in result if isinstance(r, self._poly)]
        else:
            return
        for p in polys:
            for c in p.coeffs:
                if c.numerator.bit_length() > self.num_bits:
                    self.num_bits = c.numerator.bit_length()
                if c.denominator.bit_length() > self.den_bits:
                    self.den_bits = c.denominator.bit_length()

    # -- report ------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer values by metric name (trace_overhead_s is added by the caller)."""
        out = {}
        for name, _, _ in LAYERS:
            calls, incl, own = self.stats.get(name, (0, 0.0, 0.0))
            out[name + ".calls"] = calls
            out[name + ".s"] = incl
            out[name + ".self_s"] = own
        for s in SUITES:
            out["verify.%s.s" % s] = self.stats.get("verify.%s" % s, (0, 0.0))[1]
        built = out["maps.DeformMap.calls"]
        distinct = len(set(self.map_keys))
        out["poly.peak_num_bits"] = self.num_bits
        out["poly.peak_den_bits"] = self.den_bits
        out["maps.distinct"] = distinct
        out["maps.reuse_share"] = 1 - distinct / built if built else 0.0
        return out
