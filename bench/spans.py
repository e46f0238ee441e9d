"""Span tracing of the weylcurve modules, installed from outside the package.

``install()`` replaces public functions and methods with wrappers.  A timed
wrapper opens a span: it records calls, inclusive time and self time (its
time minus that of the spans opened inside it), keyed by its parent span, so
the aggregated tree can be rebuilt.  A call made while a span of the same
name is already open is folded into that span, so recursion and the
``parse_xpoly`` -> ``parse_diffop`` hand-off count once.  A counting wrapper
only increments a counter; it is used on the scalar products, which run
millions of times and would be distorted by a clock read per call.

``cli.py`` and ``families.py`` import pipeline functions by name, so every
module attribute that holds the original function is replaced, not only the
one in the defining module.  Methods are replaced on the class, so calls
inside the package (``self.num * other.num``) go through the wrapper too.
"""

from __future__ import annotations

import sys
import time

# span name -> (module, attribute) of each function it times
TIMED = {
    "scalars.gcd": [("scalars", "mpoly_gcd")],
    "weyl.xpoly_mul": [("weyl", "XPoly.__mul__")],
    "weyl.diffop_mul": [("weyl", "DiffOp.__mul__")],
    "weyl.commutator": [("weyl", "DiffOp.commutator")],
    "parsing.parse": [("parsing", "parse_xpoly"), ("parsing", "parse_diffop")],
    "families.build": [("families", "build_family")],
    "chain.build_qchain": [("chain", "build_qchain")],
    "chain.extract": [("chain", "extract_constraints")],
    "chain.solve": [("chain", "solve_constants")],
    "chain.assemble": [("chain", "assemble_q")],
    "curve.spectral": [("curve", "spectral_curve")],
    "curve.structure": [("curve", "curve_structure")],
    "curve.singular": [("curve", "curve_is_singular")],
    "cli.run_job": [("cli", "run_job")],
    "cli.render": [("cli", "render_report")],
}

# counter name -> (module, attribute) of each function it counts
COUNTED = {
    "scalars.scalar_mul": [("scalars", "ParamScalar.__mul__")],
    "scalars.poly_mul": [("scalars", "ParamPoly.__mul__")],
    "chain.rungs": [("chain", "recursion_step")],
}

# The alias a class keeps for a method (``__rmul__ = __mul__``) is wrapped too.
_ALIASES = {"__mul__": ("__rmul__",)}


class Tracer:
    """Aggregated spans and counters of one traced run."""

    def __init__(self):
        self.edges: dict[tuple[str, str], list] = {}  # (parent, name) -> [calls, total, self]
        self.counts: dict[str, int] = {}
        self.max_coeff_bits = 0
        self._stack: list[list] = []  # open spans: [name, start, child_time]
        self._open: set[str] = set()

    def timed(self, name, fn, post=None):
        stack, open_names, edges = self._stack, self._open, self.edges
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if name in open_names:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else ""
            frame = [name, clock(), 0.0]
            stack.append(frame)
            open_names.add(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - frame[1]
                stack.pop()
                open_names.discard(name)
                if stack:
                    stack[-1][2] += elapsed
                row = edges.get((parent, name))
                if row is None:
                    row = edges[(parent, name)] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - frame[2]
            if post is not None:
                post(result)
            return result

        return wrapper

    def counted(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_equations(self, system):
        counts = self.counts
        counts["chain.equations"] = counts.get("chain.equations", 0) + len(system.equations)

    def _note_curve(self, curve):
        for c in curve.coeffs:
            for poly in (c.num, c.den):
                for q in poly.terms.values():
                    bits = max(q.numerator.bit_length(), q.denominator.bit_length())
                    if bits > self.max_coeff_bits:
                        self.max_coeff_bits = bits

    def install(self) -> None:
        """Wrap every target in the imported weylcurve package."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "weylcurve" or n.startswith("weylcurve.")]
        post = {"chain.extract": self._count_equations, "curve.spectral": self._note_curve}
        for table, make in ((TIMED, lambda n, f: self.timed(n, f, post.get(n))),
                            (COUNTED, self.counted)):
            for name, targets in table.items():
                for module_name, attr in targets:
                    module = sys.modules[f"weylcurve.{module_name}"]
                    _replace(module, attr, modules, make(name, _lookup(module, attr)))

    def summary(self) -> dict:
        """Per-name calls, inclusive time and self time, plus counters."""
        names: dict[str, list] = {}
        for (_, name), (calls, total, own) in self.edges.items():
            row = names.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += own
        return {
            "spans": {n: {"calls": c, "total_s": t, "self_s": s} for n, (c, t, s) in names.items()},
            "edges": [{"parent": p, "name": n, "calls": c, "total_s": t, "self_s": s}
                      for (p, n), (c, t, s) in sorted(self.edges.items())],
            "counts": dict(self.counts),
            "max_coeff_bits": self.max_coeff_bits,
        }


def _lookup(module, attr):
    obj = module
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def _replace(module, attr, modules, wrapper) -> None:
    if "." in attr:
        cls_name, method = attr.split(".")
        cls = getattr(module, cls_name)
        original = cls.__dict__[method]
        setattr(cls, method, wrapper)
        for alias in _ALIASES.get(method, ()):
            if cls.__dict__.get(alias) is original:
                setattr(cls, alias, wrapper)
        return
    original = getattr(module, attr)
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
