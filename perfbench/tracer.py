"""Span and counter tracing of metanov's layers, from outside the package.

``Tracer.install`` rebinds the public entry points of ``magma``, ``oracle``,
``engine``, ``wn`` and ``wlc`` to wrappers.  A wrapper replaces every
binding of the original function in every loaded ``metanov`` module, so
calls made through ``from .oracle import quotient_dimension`` style
imports are traced too.  ``Tracer.uninstall`` puts the originals back.
Nothing in ``src/`` is edited.

A span is ``[name, start, end, parent, query id]``; parent is the index of
the enclosing span, or None.  Self time is a span's duration minus the
durations of its children (calls are sequential, so children never
overlap).
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

# Spanned entry point -> the per-layer time metric its self time feeds.
# quotient_dimension and membership contain their relation_rows child, so
# their self time is the elimination (plus a dictionary lookup or two).
SPANS = {
    ("magma", "enumerate_words"): "magma.enumerate_words.s",
    ("oracle", "relation_rows"): "oracle.relation_rows.s",
    ("oracle", "quotient_dimension"): "oracle.echelon.s",
    ("oracle", "membership"): "oracle.echelon.s",
    ("engine", "check_identity"): "engine.check_identity.s",
    ("engine", "left_nilpotency_index"): "engine.left_nilpotency_index.s",
    ("engine", "nilpotency_profile"): "engine.nilpotency_profile.s",
    ("engine", "classify_multilinear"): "engine.classify_multilinear.s",
}

# Every per-layer metric the traced run reports, with its unit, in output order.
PER_LAYER = {
    "magma.enumerate_words.s": "s",
    "magma.words": "count",
    "oracle.relation_rows.s": "s",
    "oracle.rows": "count",
    "oracle.cols": "count",
    "oracle.echelon.s": "s",
    "oracle.rank": "count",
    "oracle.pivot_entries": "count",
    "oracle.useful_row_ratio": "ratio",
    "oracle.components": "count",
    "engine.check_identity.s": "s",
    "engine.left_nilpotency_index.s": "s",
    "engine.domain_elems": "count",
    "engine.nilpotency_profile.s": "s",
    "engine.classify_multilinear.s": "s",
    "wn.mul_calls": "count",
    "wlc.mul_calls": "count",
    "wn.nonzero_mul_ratio": "ratio",
    "trace.overhead": "%",
}


def _count_words(c: Counter, words) -> None:
    c["magma.words"] += len(words)


def _count_matrix(c: Counter, matrix) -> None:
    c["oracle.rows"] += matrix.nrows
    c["oracle.cols"] += matrix.ncols


def _count_echelon(c: Counter, ech) -> None:
    c["oracle.components"] += 1
    c["oracle.rank"] += ech.rank
    c["oracle.pivot_entries"] += sum(len(p) for p in ech.pivots.values())


def _count_domain(c: Counter, by_deg) -> None:
    c["engine.domain_elems"] += sum(len(keys) for keys in by_deg.values())


# Counters taken from an entry point's result.  ``oracle._echelon`` is
# private, but it is the one place that sees the finished echelon form of
# every component, whichever public call made it.
COUNTED = {
    ("magma", "enumerate_words"): _count_words,
    ("oracle", "relation_rows"): _count_matrix,
    ("oracle", "_echelon"): _count_echelon,
    ("engine", "basis_elements_by_degree"): _count_domain,
}
# Table products are counted, not spanned: one table_sweep pass makes
# hundreds of thousands of them.
PRODUCTS = {("wn", "wn_mul"): "wn", ("wlc", "wlc_mul"): "wlc"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.query_id: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------

    def _spanned(self, name, fn, count):
        spans, stack, counters = self.spans, self._stack, self.counters

        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), None,
                   stack[-1] if stack else None, self.query_id]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if count is not None:
                count(counters, result)
            return result

        return wrapper

    def _counted(self, fn, count):
        counters = self.counters

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(counters, result)
            return result

        return wrapper

    def _product(self, prefix, fn):
        counters = self.counters
        calls, nonzero = f"{prefix}.mul_calls", f"{prefix}.nonzero_muls"

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counters[calls] += 1
            if result.terms:
                counters[nonzero] += 1
            return result

        return wrapper

    # -- install / uninstall -------------------------------------------

    def install(self) -> None:
        import metanov

        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "metanov" or n.startswith("metanov."))]
        for key in SPANS.keys() | COUNTED.keys() | PRODUCTS.keys():
            mod, attr = key
            original = getattr(getattr(metanov, mod), attr)
            if key in PRODUCTS:
                wrapped = self._product(PRODUCTS[key], original)
            elif key in SPANS:
                wrapped = self._spanned(f"{mod}.{attr}", original, COUNTED.get(key))
            else:
                wrapped = self._counted(original, COUNTED[key])
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._saved.append((m, name, original))
                        setattr(m, name, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            m, name, original = self._saved.pop()
            setattr(m, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per span name, in seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def per_layer(self) -> dict[str, float]:
        """Every per-layer metric except the overhead, from this trace."""
        c = self.counters
        out = {name: 0.0 for name, unit in PER_LAYER.items() if unit == "s"}
        for name, t in self.self_times().items():
            metric = SPANS[tuple(name.split("."))]
            out[metric] += t
        for name, unit in PER_LAYER.items():
            if unit == "count":
                out[name] = c[name]
        out["oracle.useful_row_ratio"] = (
            c["oracle.rank"] / c["oracle.rows"] if c["oracle.rows"] else 0.0)
        out["wn.nonzero_mul_ratio"] = (
            c["wn.nonzero_muls"] / c["wn.mul_calls"] if c["wn.mul_calls"] else 0.0)
        return out
