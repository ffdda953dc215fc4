"""Per-layer tracing for the fcw benchmark.

The benchmark replays a workload in-process through `fcw.cli.run` and
records a span around each public function of fcw's layers.  The wrappers
are installed from here, never from fcw, and are patched where callers look
the names up: `persistence` imports `reduce_pairing` and
`max_bipartite_matching` from `_kernels`, and `cli` imports `product`,
`smash` and `wedge` from `complexes`, so those names are patched in the
importing module as well.  `installed()` puts every original back.

A span's self time is its duration minus the durations of the spans it
called.  Counts come from the wrapped call's arguments and results.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from fcw import _kernels, cli, complexes, fileformat, invariants, morse, persistence, polynomial


def _bytes_in(args, kwargs, result):
    return {"bytes": len(args[0])}


def _bytes_out(args, kwargs, result):
    return {"bytes": len(result)}


def _cells_out(args, kwargs, result):
    return {"cells_out": len(result)}


def _terms(args, kwargs, result):
    return {"terms": len(result.terms())}


def _points(args, kwargs, result):
    return {"points": len(result.points)}


def _barcode(args, kwargs, result):
    return {"cells": len(args[0]), "bars": len(result)}


def _columns(args, kwargs, result):
    n = len(args[0])
    return {
        "columns": n,
        "nnz": sum(map(len, args[0])),
        "computed_bytes": n * max(1, (n + 63) >> 6) * 8,  # the packed bit matrix
    }


def _bar_pairs(args, kwargs, result):
    b1, b2 = args[0], args[1]
    dim = args[2] if len(args) > 2 else kwargs.get("dim")
    dims = [dim] if dim is not None else set(b1.dims()) | set(b2.dims())
    return {"bar_pairs": sum(len(b1.restrict(d)) * len(b2.restrict(d)) for d in dims)}


def _edges(args, kwargs, result):
    return {"edges": sum(map(len, args[2]))}


FilteredComplex = complexes.FilteredComplex

# (owner, attribute, span name, counter).  Several attributes may share a span.
TARGETS = [
    (cli, "run", "cli.run", None),
    (fileformat, "parse_document", "fileformat.parse_document", _bytes_in),
    (fileformat, "serialize_complex", "fileformat.serialize_complex", _bytes_out),
    (FilteredComplex, "validate", "complexes.validate", None),
    (FilteredComplex, "cells", "complexes.cells", None),
    *[(owner, name, "complexes.construct", _cells_out) for owner in (complexes, cli) for name in ("product", "smash", "wedge")],
    (invariants, "euler_polynomial", "invariants.euler_polynomial", _terms),
    (invariants, "size_polynomial", "invariants.size_polynomial", _terms),
    (invariants, "matching_number", "invariants.matching_number", None),
    (morse, "parse_morse_datum", "morse", _points),
    *[
        (morse, name, "morse", None)
        for name in (
            "morse_complex",
            "canonical_linearization",
            "linearization_stats",
            "euler_poly_rel",
            "bound_size_spheres",
            "bound_size_wedges",
        )
    ],
    (polynomial.Polynomial, "__add__", "polynomial.add", None),
    (persistence, "barcode", "persistence.barcode", _barcode),
    *[(owner, "reduce_pairing", "kernels.reduce_pairing", _columns) for owner in (persistence, _kernels)],
    (persistence, "euler_from_barcode", "persistence.euler_from_barcode", None),
    (persistence, "bottleneck", "persistence.bottleneck", _bar_pairs),
    *[(owner, "max_bipartite_matching", "kernels.max_bipartite_matching", _edges) for owner in (persistence, _kernels)],
]


def _original(owner, attr):
    return owner.__dict__[attr]


@contextmanager
def installed(wrap):
    """Replace every target by `wrap(span, function, counter)` (or leave it when
    that returns the function) and restore the originals on exit."""
    saved = []
    try:
        for owner, attr, span, counter in TARGETS:
            original = _original(owner, attr)
            if isinstance(original, property):
                fget = wrap(span, original.fget, counter)
                replacement = original if fget is original.fget else property(fget)
            else:
                replacement = wrap(span, original, counter)
            if replacement is not original:
                saved.append((owner, attr, original))
                setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class Tracer:
    """Spans and counts, kept in memory until the run ends.

    A span is `(op, span id, parent span id, name, start, end)`; `op`
    numbers the operation of the replay, so the spans of one operation share
    it.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.maxima = Counter()
        self.op = -1
        self._stack = []

    def __call__(self, span, fn, counter):
        if span == "polynomial.add":
            # called once per cell by the invariants: count it, a span would
            # cost more than the addition
            def counted(*args):
                self.counts["polynomial.add.calls"] += 1
                return fn(*args)

            return counted

        def traced(*args, **kwargs):
            span_id = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[span_id] = (self.op, span_id, parent, span, start, end)
            self.counts[span + ".calls"] += 1
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[f"{span}.{key}"] += value
                    self.maxima[f"{span}.{key}"] = max(self.maxima[f"{span}.{key}"], value)
            return result

        return traced

    def self_times(self) -> Counter:
        out = Counter()
        for op, span_id, parent, name, start, end in self.spans:
            out[name] += end - start
            if parent is not None:
                out[self.spans[parent][3]] -= end - start
        return out


ALLOC_SPANS = (
    "fileformat.parse_document",
    "kernels.reduce_pairing",
    "persistence.bottleneck",
    "complexes.construct",
)


class AllocPeaks:
    """Largest memory, in bytes, that one call of a span allocates and holds
    at once, measured by tracemalloc.

    Used in a pass of its own, because tracemalloc slows every allocation.
    Tracing starts at the span's entry and stops at its exit, so only those
    calls pay for it; the spans measured never call one another.
    """

    def __init__(self):
        self.peak = Counter()

    def __call__(self, span, fn, counter):
        if span not in ALLOC_SPANS:
            return fn

        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.peak[span] = max(self.peak[span], tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return measured


def import_times(env, repeats: int = 3) -> dict:
    """Interpreter start, `import fcw.cli` and its numpy share, in seconds.

    Medians over `repeats` fresh interpreters; the import figures come from
    `-X importtime`, which reports each module's cumulative microseconds.
    """
    bare, fcw_total, numpy = [], [], []
    for _ in range(repeats):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        bare.append(perf_counter() - start)
        run = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import fcw.cli"],
            env=env,
            check=True,
            capture_output=True,
            text=True,
        )
        top, np_us = 0, 0
        for line in run.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            if not cumulative.strip().isdigit():
                continue  # the header line
            if name.strip() == "numpy":
                np_us = int(cumulative)
            if not name[1:].startswith(" ") and name.strip().split(".")[0] == "fcw":
                top += int(cumulative)
        fcw_total.append(top / 1e6)
        numpy.append(np_us / 1e6)
    return {
        "cli.interpreter_s": statistics.median(bare),
        "cli.import_s": statistics.median(fcw_total),
        "cli.import.numpy_s": statistics.median(numpy),
    }
