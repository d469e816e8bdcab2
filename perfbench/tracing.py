"""Spans around the public functions of each orbhodge module.

install() replaces every binding of a wrapped function: the defining
module's, and the copies that `from .exactla import kernel` and the like put
into other modules, so a call is traced whichever name it goes through.  A
wrapper returns the program's object unchanged.

Per function the tracer counts calls and sums self time (span time minus
the time its child spans cover, their bookkeeping included).  Bookkeeping is
the wrapper's own work after the call (entry bit lengths, facet counts); it
is summed on its own, so that

    sum of self times + bookkeeping + time outside every span = traced wall.
"""

from __future__ import annotations

import importlib
import sys
import time
from fractions import Fraction

from orbhodge.exactla import GaussRational, QiMatrix, Subspace

# layer -> wrapped targets; "Class.method:alias" names a method, whose
# metric takes the alias (or the method name)
WRAPPED = {
    "exactla": ("QiMatrix.__matmul__:matmul", "Subspace.span", "kernel", "rank",
                "solve_unique", "Subspace.intersect", "QiMatrix.det", "QiMatrix.inverse",
                "first_nonpositive_minor", "extend_basis"),
    "filtration": ("IncreasingFiltration.from_map", "DecreasingFiltration.from_map"),
    "hodge": ("validate_hodge_structure", "check_polarization", "pieces_from_filtration",
              "restrict_structure", "hard_lefschetz_check"),
    "mhs": ("weight_filtration", "mhs_from_bigrading", "check_pmhs",
            "GradedQuotient.__init__:graded_quotient", "induced_filtration",
            "evaluate_orbit", "check_orbit_polarized_at"),
    "orbifold": ("assemble_orbifold_cohomology", "OrbifoldAssembly.total_form",
                 "OrbifoldAssembly.lefschetz_matrix", "theorem_bigrading",
                 "check_primitive_polarizations", "check_total_pmhs", "check_kaehler_orbit",
                 "orbifold_hard_lefschetz", "hlc_check"),
    "toric": ("LatticePolytope.__init__:construct", "polar_dual", "is_reflexive",
              "face_lattice", "relative_interior_points", "hlc_verdict"),
    "serialization": ("load_document", "validate_against_schema"),
    "cli": ("main", "emit"),
}


def metric_name(layer: str, target: str) -> str:
    target, _, alias = target.partition(":")
    return f"{layer}.{alias or target.rpartition('.')[2]}"


FUNCTIONS = tuple(dict.fromkeys(metric_name(layer, t)
                                for layer, targets in WRAPPED.items() for t in targets))


def _bits(values, acc: int) -> int:
    """Largest numerator or denominator bit length among the exact scalars
    in the arguments and result of one call.  An int counts only as an
    entry of a vector or matrix: a bare int argument or result is a
    dimension, a rank or an index."""
    stack = [v for v in values if not isinstance(v, int)]
    while stack:
        v = stack.pop()
        if isinstance(v, Subspace):
            v = v.basis
        if isinstance(v, QiMatrix):
            stack.extend(v.entries)
        elif isinstance(v, GaussRational):
            for x in (v.re, v.im):
                acc = max(acc, x.numerator.bit_length(), x.denominator.bit_length())
        elif isinstance(v, Fraction):
            acc = max(acc, v.numerator.bit_length(), v.denominator.bit_length())
        elif isinstance(v, (list, tuple)):
            for x in v:
                if isinstance(x, int) and not isinstance(x, bool):
                    acc = max(acc, x.bit_length())
                else:
                    stack.append(x)
    return acc


class Tracer:
    """Per-function call counts and self time for one process."""

    def __init__(self):
        self.calls = dict.fromkeys(FUNCTIONS, 0)
        self.self_s = dict.fromkeys(FUNCTIONS, 0.0)
        self.bookkeeping_s = 0.0
        self.max_entry_bits = 0
        self.construct_depth = 0
        self.kernels_in_construct = 0
        self.facets_built = 0
        self._stack = []  # child-covered seconds of each open span

    def wrap(self, key: str, fn):
        clock = time.perf_counter
        stack = self._stack
        exact = key.startswith("exactla.")
        construct = key == "toric.construct"
        kernel = key == "exactla.kernel"

        def traced(*args, **kwargs):
            t0 = clock()
            if construct:
                self.construct_depth += 1
            elif kernel and self.construct_depth:
                self.kernels_in_construct += 1
            covered = [0.0]
            stack.append(covered)
            t1 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = clock()
                stack.pop()
                self.calls[key] += 1
                self.self_s[key] += (t2 - t1) - covered[0]
                if construct:
                    self.construct_depth -= 1
            if exact:
                self.max_entry_bits = _bits((*args, *kwargs.values(), result),
                                            self.max_entry_bits)
            elif construct:
                self.facets_built += len(args[0].facets)
            t3 = clock()
            if stack:
                stack[-1][0] += t3 - t0
            self.bookkeeping_s += (t3 - t0) - (t2 - t1)
            return result
        traced.__wrapped__ = fn
        return traced

    def stats(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "bookkeeping_s": self.bookkeeping_s, "max_entry_bits": self.max_entry_bits,
                "kernels_in_construct": self.kernels_in_construct,
                "facets_built": self.facets_built}


def install(tracer: Tracer):
    """Wrap every target in WRAPPED; returns a function that undoes it."""
    importlib.import_module("orbhodge.cli")  # loads every layer
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "orbhodge" or name.startswith("orbhodge."))]
    undo = []

    def put(obj, attr, value):
        undo.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, value)

    for layer, targets in WRAPPED.items():
        module = sys.modules[f"orbhodge.{layer}"]
        for target in targets:
            key = metric_name(layer, target)
            path = target.partition(":")[0]
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    put(cls, meth, classmethod(tracer.wrap(key, raw.__func__)))
                else:
                    put(cls, meth, tracer.wrap(key, raw))
                continue
            fn = getattr(module, path)
            wrapped = tracer.wrap(key, fn)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        put(m, attr, wrapped)

    def uninstall():
        for obj, attr, old in reversed(undo):
            setattr(obj, attr, old)
    return uninstall
