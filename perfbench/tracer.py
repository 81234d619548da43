"""Trace multspec from outside: rebind public functions to timing wrappers.

``Tracer.install`` replaces every reference to each traced function object,
in every loaded ``multspec`` module and in the classes those modules define,
by one wrapper.  Module-level names are looked up at call time, so aliases
such as ``groebner._char_poly`` and calls from inside a module are seen too.
A wrapper records a span (name, start, end, parent span, op id, returned
normally) in memory; ``Tracer.restore`` puts every binding back.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter

import speed

# "module.function" or "module.Class.method", relative to the multspec package
TRACED = (
    "cli.run_command",
    "parsing.emit_document",
    "parsing.parse_scalar_list",
    "exactalg.resultant",
    "exactalg.interpolate",
    "exactalg.squarefree_part",
    "exactalg.poly_gcd",
    "exactalg.fp_roots",
    "linalg.char_poly",
    "linalg.solve_linear",
    "groebner.buchberger",
    "groebner.quotient_dimension",
    "groebner.distinct_point_count",
    "groebner.eliminant_of_form",
    "groebner.solve_rational_points",
    "groebner.QuotientAlgebra.mul",
    "dynamics.multiplier_char_poly",
    "dynamics.iterate",
    "dynamics.conjugate",
    "polymoduli.count_fixed_configurations",
    "polymoduli.sigma2_discrimination",
    "polymoduli.two_cycle_power_sums",
    "rat3.deg_tau32_single",
    "rat3.build_tau32_system",
)

# work counts read off a call's arguments or result: name -> (counter, fn(args, result))
COUNTERS = {
    "groebner.buchberger": ("basis_terms", lambda args, r: sum(len(g.terms) for g in r.gens)),
    "groebner.quotient_dimension": ("sum", lambda args, r: r or 0),
    "linalg.char_poly": ("dim_sum", lambda args, r: len(args[0])),
}


def _multspec_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "multspec" or name.startswith("multspec.")]


def binding_owners():
    """Loaded multspec modules and the classes they define."""
    owners, seen = [], set()
    for mod in _multspec_modules():
        for obj in [mod] + [v for v in vars(mod).values() if isinstance(v, type)]:
            if id(obj) in seen:
                continue
            if obj is not mod and not getattr(obj, "__module__", "").startswith("multspec"):
                continue
            seen.add(id(obj))
            owners.append(obj)
    return owners


def _resolve(qualname):
    mod_name, *path = qualname.split(".")
    obj = sys.modules[f"multspec.{mod_name}"]
    for part in path[:-1]:
        obj = getattr(obj, part)
    return vars(obj)[path[-1]]


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, op id, returned normally)
        self.counts = Counter()  # (name, counter) -> total
        self.op_id = -1
        self._stack = []
        self._plan = None  # (owner, attribute, original, wrapper), found on first install
        self._installed = False

    def install(self):
        if self._installed:
            raise RuntimeError("tracer is already installed")
        if self._plan is None:
            self._plan = []
            owners = binding_owners()
            for name in TRACED:
                original = _resolve(name)
                wrapper = self._wrap(name, original)
                for owner in owners:
                    for attr, value in list(vars(owner).items()):
                        if value is original:
                            self._plan.append((owner, attr, original, wrapper))
        for owner, attr, _, wrapper in self._plan:
            setattr(owner, attr, wrapper)
        self._installed = True

    def restore(self):
        if self._installed:
            for owner, attr, original, _ in reversed(self._plan):
                setattr(owner, attr, original)
            self._installed = False

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        clock = speed.net_clock  # the clock run.py times ops with

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id, ok)
            if counter is not None:
                counts[(name, counter[0])] += counter[1](args, result)
            return result

        return functools.wraps(fn)(traced)

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("index\tname\tstart\tend\tparent\top\tok\n")
            for i, (name, start, end, parent, op, ok) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\t{int(ok)}\n")


def summarize(spans, first=0, counts=None):
    """Per-layer totals of the spans from index ``first`` on.

    Returns {metric name: value}: ``<name>.calls`` and ``<name>.self_s`` for
    every traced name, the ``COUNTERS`` totals, and the two draw yields.  A
    span's self time is its duration minus the durations of the traced
    calls made directly inside it.  A yield with no attempts reads 0.
    """
    part = spans[first:]
    child = [0.0] * len(part)
    for name, start, end, parent, _, _ in part:
        if parent >= first:
            child[parent - first] += end - start
    out = {}
    for name in TRACED:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    for i, (name, start, end, _, _, _) in enumerate(part):
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += end - start - child[i]
    for name, (counter, _) in COUNTERS.items():
        out[f"{name}.{counter}"] = (counts or {}).get((name, counter), 0)

    def under(i, ancestor):
        parent = part[i][3]
        while parent >= first:
            if part[parent - first][0] == ancestor:
                return True
            parent = part[parent - first][3]
        return False

    draws = sum(
        1 for i, s in enumerate(part) if s[0] == "groebner.eliminant_of_form" and under(i, "groebner.distinct_point_count")
    )
    counts_made = out["groebner.distinct_point_count.calls"]
    out["groebner.count_draw_yield"] = 2 * counts_made / draws if draws else 0.0
    attempted = out["rat3.deg_tau32_single.calls"]
    returned = sum(1 for s in part if s[0] == "rat3.deg_tau32_single" and s[5])
    out["rat3.draw_yield"] = returned / attempted if attempted else 0.0
    return out
