"""Span tracing of the program's layers, installed from outside the program.

``install`` replaces each function or method named in ``HOOKS`` by a wrapper
wherever its callers look it up: the attribute of every ``zassenhaus`` module
that holds the original (so ``from .x import f`` bindings are covered too) and
every class attribute that holds the original method (so ``__rmul__``, an
alias of ``__mul__``, is covered). No source file changes.

A span is [name, start, end, parent span index, job index]. Spans stay in
memory; the pass process hands them to the runner, which writes them out when
the run ends.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict


def _pairs(args, kwargs, result):
    # (self, a, b): every x in a is paired with every y in b
    return len(args[1]) * len(args[2])


def _commutator_counts(args, kwargs, result):
    return {"finite.commutators.pairs": _pairs(args, kwargs, result),
            "finite.commutators.unique": len(result)}


def _products_counts(args, kwargs, result):
    return {"finite.products.pairs": _pairs(args, kwargs, result)}


def _echelon_counts(args, kwargs, result):
    return {"finite.row_echelon_mod_p.rows_in": len(args[0]),
            "finite.row_echelon_mod_p.rank": len(result)}


def _basis_counts(args, kwargs, result):
    return {"hall.elements": len(result)}


def _check_counts(args, kwargs, result):
    return {"verify.checks": len(result)}


# (metric name, module, attribute, counter, records a span)
HOOKS = (
    ("cli.main", "zassenhaus.cli", "main", None, True),
    ("groupspec.parse_group_spec", "zassenhaus.groupspec", "parse_group_spec", None, True),
    ("groupspec.hp_series", "zassenhaus.groupspec", "hp_series", None, True),
    ("series.expand_rational", "zassenhaus.series", "expand_rational", None, True),
    ("series.TruncSeries.log", "zassenhaus.series", "TruncSeries.log", None, True),
    ("series.TruncSeries.inverse", "zassenhaus.series", "TruncSeries.inverse", None, True),
    ("series.TruncSeries.mul", "zassenhaus.series", "TruncSeries.__mul__", None, True),
    ("series.TruncSeries.pow", "zassenhaus.series", "TruncSeries.__pow__", None, True),
    ("series.product_identity_rhs", "zassenhaus.series", "product_identity_rhs", None, True),
    ("dimensions.dims_table", "zassenhaus.dimensions", "dims_table", None, True),
    ("dimensions.w_sequence", "zassenhaus.dimensions", "w_sequence", None, True),
    ("dimensions.c_sequence", "zassenhaus.dimensions", "c_sequence", None, True),
    ("hall.zassenhaus_basis", "zassenhaus.hall", "zassenhaus_basis", _basis_counts, True),
    ("hall.basis_text_lines", "zassenhaus.hall", "basis_text_lines", None, True),
    ("verify.roundtrip_checks", "zassenhaus.verify", "roundtrip_checks", _check_counts, True),
    ("verify.closedform_checks", "zassenhaus.verify", "closedform_checks", _check_counts, True),
    ("finite.commutators", "zassenhaus.finite", "FiniteGroup.commutators",
     _commutator_counts, True),
    ("finite.power", "zassenhaus.finite", "FiniteGroup.power", None, True),
    ("finite.subgroup_closure", "zassenhaus.finite", "subgroup_closure", None, True),
    # counted only: its time belongs to subgroup_closure, its one caller here
    ("finite.products", "zassenhaus.finite", "FiniteGroup.products", _products_counts, False),
    ("finite.mult", "zassenhaus.finite", "FiniteGroup.mult", None, True),
    ("finite.row_echelon_mod_p", "zassenhaus.finite", "row_echelon_mod_p",
     _echelon_counts, True),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.job: int | None = None
        self.active = True
        self._stack: list[int] = []

    def wrap(self, name, fn, counter, span):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if span:
                index = len(tracer.spans)
                parent = tracer._stack[-1] if tracer._stack else None
                tracer.spans.append(None)
                tracer._stack.append(index)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    tracer._stack.pop()
                    tracer.spans[index] = [name, start, end, parent, tracer.job]
            else:
                result = fn(*args, **kwargs)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    tracer.counts[key] += value
            return result

        return wrapper

    def summary(self) -> dict[str, float]:
        """Self time and call count per span name, plus the counters."""
        covered = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = dict(self.counts)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + end - start - covered[index]
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        return out


def install(tracer: Tracer) -> None:
    """Wrap every hook where the program's callers look it up."""
    for hook in HOOKS:
        importlib.import_module(hook[1])
    modules = [m for n, m in list(sys.modules.items())
               if n == "zassenhaus" or n.startswith("zassenhaus.")]
    for name, module, attr, counter, span in HOOKS:
        mod = sys.modules[module]
        owner_name, _, leaf = attr.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name)
            original = vars(owner)[leaf]
            owners = [owner]
        else:
            original = getattr(mod, leaf)
            owners = modules
        wrapped = tracer.wrap(name, original, counter, span)
        for target in owners:
            for key, value in list(vars(target).items()):
                if value is original:
                    setattr(target, key, wrapped)
