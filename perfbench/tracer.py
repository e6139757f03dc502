"""Outside-in tracer: spans around calls into wildgoppa's public functions.

The tracer changes no library code. It replaces each traced function with
a wrapper in every wildgoppa module namespace that binds it, so calls made
through module globals (``from .linalg import kernel`` and ``linalg.kernel``
alike) are caught. Spans live in memory while a pass runs and are written
out once at the end. Self time, counts and ratios are derived from them.

A span is ``[name, start, end, parent, op, counts, raised]``: ``parent`` is
the index of the enclosing span (-1 at the top of an operation), ``op`` the
operation id, ``counts`` a dict of work counts read off the call's
arguments and result, and ``raised`` whether an exception left the call.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# Layers in the order the per-layer metrics list them; each is a module of
# the wildgoppa package.
LAYERS = ("gf", "poly", "linalg", "codes", "goppa", "identities",
          "evidence", "cyclotomic", "cli")


def _cold_build_counter(build_tower):
    # build_tower is an lru_cache; a call is a cold build when it missed
    seen = [build_tower.cache_info().misses]

    def counts(result, *args):
        misses = build_tower.cache_info().misses
        cold, seen[0] = misses - seen[0], misses
        return {"cold": cold}

    return counts


def _kernel_counts(result, M):
    return {"cells": M.nrows * M.ncols, "rows": M.nrows,
            "rank": M.ncols - result.nrows}


def _rref_counts(result, M):
    return {"cells": M.nrows * M.ncols}


def _expand_counts(result, field, H):
    return {"rows_out": int(result.shape[0])}


def _min_distance_counts(result, code, budget=None):
    # the enumeration runs only when it returns a distance
    return {"codewords": code.field.order ** code.k if result is not None else 0}


def _goppa_counts(result, spec):
    return {"parity_rows": int(spec.goppa_poly.degree)}


def _decomposition_counts(result, field, g, lam):
    return {"candidates": result[1].candidate_index + 1}


# (span name, module, attribute path, counts from (result, *args)). The
# attribute path is looked up in the module; a dotted path names a method.
TARGETS = (
    ("gf.build_tower", "gf", "build_tower", None),
    ("poly.is_irreducible", "poly", "is_irreducible", None),
    ("poly.find_irreducible", "poly", "find_irreducible", None),
    ("poly.pow_mod", "poly", "pow_mod", None),
    ("poly.count_distinct_roots", "poly", "count_distinct_roots", None),
    ("linalg.kernel", "linalg", "kernel", _kernel_counts),
    ("linalg.rref", "linalg", "rref", _rref_counts),
    ("codes.expand_over_subfield", "codes", "expand_over_subfield", _expand_counts),
    ("codes.subfield_kernel", "codes", "subfield_kernel", None),
    ("codes.LinearCode.contains", "codes", "LinearCode.contains", None),
    ("codes.min_distance", "codes", "LinearCode.min_distance", _min_distance_counts),
    ("goppa.goppa_code", "goppa", "goppa_code", _goppa_counts),
    ("goppa.goppa_via_crt", "goppa", "goppa_via_crt", None),
    ("identities.verify_theorem1", "identities", "verify_theorem1", None),
    ("identities.dimension_gap", "identities", "dimension_gap", None),
    ("evidence.verify_K_properties", "evidence", "verify_K_properties", None),
    ("evidence.verify_trace_kernel_mod", "evidence", "verify_trace_kernel_mod", None),
    ("evidence.verify_dual_reformulation", "evidence", "verify_dual_reformulation", None),
    ("evidence.startkey_search", "evidence", "startkey_search", None),
    ("evidence.find_decomposition", "evidence", "find_decomposition", _decomposition_counts),
    ("evidence.tau", "evidence", "tau", None),
    ("evidence.flatten_poly", "evidence", "flatten_poly", None),
    ("cyclotomic.class_sum_dim", "cyclotomic", "class_sum_dim", None),
    ("cyclotomic.closed_form", "cyclotomic", "closed_form", None),
    ("cli.main", "cli", "main", None),
)


class Tracer:
    """Records spans for calls made while an operation id is set."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []

    def wrap(self, name, fn, counts=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None, False]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[2] = clock()
                span[6] = True
                raise
            finally:
                stack.pop()
            span[2] = clock()
            if counts is not None:
                span[5] = counts(result, *args, **kwargs)
            return result

        return traced

    def install(self, wildgoppa_pkg) -> None:
        """Substitute every traced function in every wildgoppa namespace."""
        modules = [m for n, m in sys.modules.items()
                   if n == "wildgoppa" or n.startswith("wildgoppa.")]
        for name, module_name, path, counts in TARGETS:
            owner = getattr(wildgoppa_pkg, module_name)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            if name == "gf.build_tower":
                counts = _cold_build_counter(original)
            wrapped = self.wrap(name, original, counts)
            if cls_path:
                setattr(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[0], "start": s[1], "end": s[2],
                                     "parent": s[3], "op": s[4],
                                     "counts": s[5], "raised": s[6]}) + "\n")


def summarize(spans, wall_s: float) -> dict:
    """Per-span-name totals from one traced worker.

    ``wall_s`` is the traced pass's wall time. Coverage counts the pass's
    top-level spans, not the set-up ones, in total and per operation. Self
    time is a span's duration minus the durations of its direct children,
    which nest inside it; ``total_s`` counts a span only when no enclosing
    span has its name.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    by_name: dict[str, dict] = {}
    covered_by_op: dict = {}
    for i, s in enumerate(spans):
        dur = s[2] - s[1]
        agg = by_name.setdefault(s[0], {"calls": 0, "self_s": 0.0,
                                        "total_s": 0.0, "errors": 0})
        agg["calls"] += 1
        agg["self_s"] += dur - child[i]
        agg["errors"] += s[6]
        if s[5]:
            for key, value in s[5].items():
                agg[key] = agg.get(key, 0) + value
        up = s[3]
        while up >= 0 and spans[up][0] != s[0]:
            up = spans[up][3]
        if up < 0:
            agg["total_s"] += dur
        if s[3] < 0 and s[4] != "setup":
            covered_by_op[s[4]] = covered_by_op.get(s[4], 0.0) + dur
    # candidates tested by the irreducible search: is_irreducible calls made
    # directly inside find_irreducible
    tested = sum(1 for s in spans
                 if s[0] == "poly.is_irreducible" and s[3] >= 0
                 and spans[s[3]][0] == "poly.find_irreducible")
    return {"spans": by_name, "covered_s": sum(covered_by_op.values()),
            "covered_by_op": covered_by_op, "wall_s": wall_s,
            "irreducible_tested": tested}
