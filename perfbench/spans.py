"""Spans and counts around the public functions of each ccv module.

The tracer replaces each function in SPANS, in every ccv module namespace
that holds it, by a wrapper that records a span (name, start, end, parent
span, job) and counts calls.  Spans stay in memory until the pass ends;
a layer's self time is the time of its spans minus the time of their
child spans.  Nothing inside ccv changes: the wrappers sit at the module
boundaries, so a call from one ccv function to another public one is
still seen.

Monomial-order keys (grevlex_key, lex_key) are not wrapped: they run on
every comparison inside the Buchberger loop, and groebner_basis is told
apart by the identity of the key it receives.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

# (module, function) -> span name.  Functions sharing a name add up: the
# three that load a spec make one "variety.load" time, for example.
SPANS = {
    ("cli", "entry"): "cli.self",
    ("variety", "load_variety"): "variety.load",
    ("variety", "build_variety"): "variety.load",
    ("parser", "parse_polynomial"): "variety.load",
    ("variety", "reduce_variety_mod"): "variety.reduce",
    ("variety", "reduce_point_mod"): "variety.reduce",
    ("poly", "expand_line_pencil"): "poly.pencil",
    ("conics", "conic_system"): "conics.system",
    ("conics", "find_singular_conics"): None,
    ("conics", "count_conics"): "conics.count",
    ("groebner", "groebner_basis"): None,
    ("groebner", "ideal_dimension_and_degree"): "groebner.hilbert",
    ("solve", "projective_rational_solutions"): "solve.enumerate",
    ("solve", "rational_roots"): "solve.rational_roots",
    ("ffutil", "compile_mod_evaluator"): "ffutil.compile",
    ("oracle", "variety_points"): "oracle.variety_points",
    ("oracle", "cc_census"): "oracle.census",
}

# Metrics of a traced pass, in the order they are reported.
TIMES = ("groebner.grevlex_fp", "groebner.grevlex_qq", "groebner.lex_fp",
         "groebner.lex_qq", "groebner.hilbert", "solve.enumerate",
         "solve.rational_roots", "conics.system", "conics.scan",
         "poly.pencil", "oracle.census", "oracle.variety_points",
         "ffutil.compile", "variety.load", "variety.reduce", "cli.self")
COUNTS = ("groebner.grevlex.calls", "groebner.lex.calls",
          "groebner.coeff_bits_max", "groebner.basis_terms_max",
          "solve.rational_roots.calls", "conics.system.calls",
          "poly.pencil.calls", "oracle.pairs", "ffutil.evaluations",
          "ffutil.points_enumerated")


class Tracer:
    """Spans and counts of one pass; install() once, read metrics() after."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job]
        self.stack = []
        self.counts = Counter()
        self.job = None

    # installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every function in SPANS and ffutil.enumerate_points."""
        keys = {}
        for mod_name, fn_name in list(SPANS) + [("ffutil",
                                                 "enumerate_points")]:
            module = importlib.import_module(f"ccv.{mod_name}")
            fn = getattr(module, fn_name)
            keys[id(fn)] = (fn, self._wrap(mod_name, fn_name, fn))
        for name, module in list(sys.modules.items()):
            if name != "ccv" and not name.startswith("ccv."):
                continue
            for attr, value in list(vars(module).items()):
                hit = keys.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def _wrap(self, mod_name, fn_name, fn):
        if (mod_name, fn_name) == ("ffutil", "enumerate_points"):
            return self._wrap_points(fn)
        if (mod_name, fn_name) == ("groebner", "groebner_basis"):
            return self._wrap_groebner(fn)
        label = SPANS[(mod_name, fn_name)]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = label
            if fn_name == "find_singular_conics":
                prime = kwargs.get("prime", args[3] if len(args) > 3 else None)
                name = "conics.find" if prime is None else "conics.scan"
            before = self.counts["ffutil.evaluations"]
            result = self._span(name, fn, args, kwargs)
            if fn_name == "compile_mod_evaluator":
                result = self._counted(result)
            elif fn_name == "cc_census":
                self.counts["oracle.pairs"] += result.pairs_tested
                self.counts["oracle.census_evaluations"] += (
                    self.counts["ffutil.evaluations"] - before)
            return result

        return wrapper

    def _wrap_groebner(self, fn):
        from ccv.poly import grevlex_key, lex_key
        orders = {id(grevlex_key): "grevlex", id(lex_key): "lex"}

        @functools.wraps(fn)
        def wrapper(polys, *args, **kwargs):
            polys = list(polys)
            key = kwargs.get("key", args[0] if args else grevlex_key)
            order = orders.get(id(key), "other")
            live = [p for p in polys if not p.is_zero()]
            field = "fp" if live and live[0].field.is_prime_field else "qq"
            self.counts[f"groebner.{order}.calls"] += 1
            basis = self._span(f"groebner.{order}_{field}", fn,
                               (polys,) + args, kwargs)
            self._observe_basis(basis)
            return basis

        return wrapper

    def _wrap_points(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for point in fn(*args, **kwargs):
                self.counts["ffutil.points_enumerated"] += 1
                yield point

        return wrapper

    def _counted(self, evaluator):
        counts = self.counts

        def counted(v):
            counts["ffutil.evaluations"] += 1
            return evaluator(v)

        return counted

    def _observe_basis(self, basis) -> None:
        bits = 0
        terms = 0
        for g in basis:
            terms += len(g.terms)
            for c in g.terms.values():
                if hasattr(c, "denominator"):
                    bits = max(bits, c.numerator.bit_length(),
                               c.denominator.bit_length())
                else:
                    bits = max(bits, c.value.bit_length())
        if bits > self.counts["groebner.coeff_bits_max"]:
            self.counts["groebner.coeff_bits_max"] = bits
        if terms > self.counts["groebner.basis_terms_max"]:
            self.counts["groebner.basis_terms_max"] = terms

    # spans ------------------------------------------------------------

    def _span(self, name, fn, args, kwargs):
        span = [name, time.perf_counter(), None,
                self.stack[-1] if self.stack else None, self.job]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()
            self.counts[name + ".calls"] += 1

    def self_times(self) -> dict:
        """Seconds per span name, each span minus its child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _job in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _parent, _job) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def metrics(self) -> dict:
        """The per-layer metrics of everything traced so far."""
        times = self.self_times()
        out = {f"{name}_s": times.get(name, 0.0) for name in TIMES}
        out.update({name: self.counts[name] for name in COUNTS})
        pairs = self.counts["oracle.pairs"]
        out["oracle.evaluations_per_pair"] = (
            self.counts["oracle.census_evaluations"] / pairs if pairs else 0)
        return out
