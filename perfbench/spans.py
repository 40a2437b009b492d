"""In-memory spans around calls into noisespectra's public functions.

Tracing is installed from the benchmark's side: each listed function is
wrapped, and every ``noisespectra`` module attribute bound to the original
(including names other modules imported with ``from .x import f``) is
rebound to the wrapper.  Methods are wrapped on their class.  Removing the
installation restores every binding, so an untraced run executes the
library exactly as shipped.

Each span records name, start, end and the index of its parent span.  Self
time is a span's duration minus the durations of its direct children (the
program is synchronous, so children never overlap).
"""
from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

PACKAGE = "noisespectra"


def _fwht_counts(tr, args, result) -> None:
    size = len(args[0])
    stages = max(size.bit_length() - 1, 0)
    tr.count("walsh.fwht.elems", size)
    # the copy in plus one read and one write of the float64 table per stage
    tr.count("walsh.fwht.bytes_computed", 16 * size * (stages + 1))


def _measure_counts(tr, args, result) -> None:
    if result.is_dense:
        tr.count("spectral.atoms", len(result.entries) + len(result.multiplicity_entries))


def _sample_counts(tr, args, result) -> None:
    tr.count("spectral.sets_drawn", len(result))


def _interior_cut_counts(tr, args, result) -> None:
    tr.count("structure.cut_queries", len(result))


def _cut_counts(tr, args, result) -> None:
    tr.count("structure.cut_queries", 1)


def _rows_counts(tr, args, result) -> None:
    tr.count("kernels.iterated_sum.rows", len(result))


def _mc_counts(tr, args, result) -> None:
    f, g = args[0], args[1]
    d = max(getattr(f.backend, "channels", 1), getattr(g.backend, "channels", 1))
    tr.count("functionals.normals_drawn", result.samples * f.grid.n_cells * d)


def _npoint_counts(tr, args, result) -> None:
    tr.count("functionals.normals_drawn", result.samples * result.grid.n_cells)


def _write_counts(tr, args, result) -> None:
    tr.count("serialize.bytes_written", os.path.getsize(args[0]))


# (module, qualified name, count hook): the functions a traced run wraps.
# Hooks read only arguments and results, after the span has closed.
TARGETS: tuple[tuple[str, str, Callable | None], ...] = (
    ("walsh", "fwht", _fwht_counts),
    ("transform", "decompose", None),
    ("transform", "conditional_expectation", None),
    ("spectral", "spectral_measure_of", _measure_counts),
    ("spectral", "mass_of_subsets_of", None),
    ("spectral", "sample_sets", _sample_counts),
    ("spectral", "cardinality_profile", None),
    ("structure", "interior_cut_distances", _interior_cut_counts),
    ("structure", "cut_distance", _cut_counts),
    ("families", "TreeModel.subset_mass", None),
    ("families", "TreeModel.prefix_mass", None),
    ("families", "TreeModel.sample", None),
    ("dimension", "estimate_dimension", None),
    ("dimension", "box_count", None),
    ("kernels", "iterated_sum", _rows_counts),
    ("functionals", "inner_product_mc", _mc_counts),
    ("functionals", "program_values", None),
    ("functionals", "inner_product", None),
    ("whitenoise", "npoint_density_estimate", _npoint_counts),
    ("serialize", "measure_to_data", None),
    ("serialize", "measure_from_data", None),
    ("serialize", "write_json", _write_counts),
    ("serialize", "read_json", None),
)


def _span_metrics(span: str, *kinds: str) -> list[tuple[str, str]]:
    units = {"calls": "count", "self_s": "s", "errors": "count"}
    return [(f"{span}.{k}", units[k]) for k in kinds]


# (metric, unit) reported by a traced run, in report order.  Counts that are
# not span statistics are computed by the hooks above from call inputs.
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    *_span_metrics("walsh.fwht", "calls", "self_s"),
    ("walsh.fwht.elems", "count"),
    ("walsh.fwht.bytes_computed", "bytes"),
    *_span_metrics("transform.decompose", "calls", "self_s"),
    *_span_metrics("transform.conditional_expectation", "calls", "self_s"),
    *_span_metrics("spectral.spectral_measure_of", "calls", "self_s"),
    ("spectral.atoms", "count"),
    *_span_metrics("spectral.mass_of_subsets_of", "calls", "self_s", "errors"),
    *_span_metrics("spectral.sample_sets", "calls", "self_s"),
    ("spectral.sets_drawn", "count"),
    *_span_metrics("spectral.cardinality_profile", "self_s"),
    *_span_metrics("structure.interior_cut_distances", "calls", "self_s"),
    *_span_metrics("structure.cut_distance", "calls", "self_s", "errors"),
    ("structure.cut_queries", "count"),
    *_span_metrics("families.TreeModel.subset_mass", "calls", "self_s"),
    *_span_metrics("families.TreeModel.prefix_mass", "calls", "self_s"),
    *_span_metrics("families.TreeModel.sample", "calls", "self_s"),
    *_span_metrics("dimension.estimate_dimension", "calls", "self_s"),
    *_span_metrics("dimension.box_count", "calls", "self_s"),
    *_span_metrics("kernels.iterated_sum", "calls", "self_s"),
    ("kernels.iterated_sum.rows", "count"),
    *_span_metrics("functionals.inner_product_mc", "calls", "self_s"),
    *_span_metrics("functionals.program_values", "self_s"),
    ("functionals.normals_drawn", "count"),
    *_span_metrics("whitenoise.npoint_density_estimate", "self_s"),
    *_span_metrics("functionals.inner_product", "calls", "self_s"),
    *_span_metrics("serialize.measure_to_data", "self_s"),
    *_span_metrics("serialize.measure_from_data", "self_s"),
    *_span_metrics("serialize.write_json", "self_s"),
    *_span_metrics("serialize.read_json", "self_s"),
    ("serialize.bytes_written", "bytes"),
    ("trace_overhead_frac", "ratio"),
    ("untraced_frac", "ratio"),
)

COMPUTED = frozenset(
    name for name, _ in LAYER_METRICS
    if not name.endswith((".calls", ".self_s", ".errors")) and not name.endswith("_frac")
)


@dataclass
class Tracer:
    """Span and counter collector for one traced run."""

    names: list[str] = field(default_factory=list)
    starts: list[int] = field(default_factory=list)
    ends: list[int] = field(default_factory=list)
    parents: list[int] = field(default_factory=list)
    errors: list[bool] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self.errors.append(False)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int, error: bool = False) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self.errors[idx] = error
        self._stack.pop()

    def count(self, name: str, k: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(k)

    def spans(self) -> dict:
        """All spans as rows, for writing out at the end of a run."""
        return {
            "fields": ["name", "start_ns", "end_ns", "parent", "error"],
            "rows": [list(row) for row in zip(
                self.names, self.starts, self.ends, self.parents, self.errors)],
        }


def self_times_ns(starts, ends, parents) -> list[int]:
    """Per-span duration minus the summed durations of its direct children."""
    own = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            own[p] -= ends[i] - starts[i]
    return own


def _wrap(tr: Tracer, name: str, fn: Callable, hook: Callable | None) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tr.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tr.close(idx, error=True)
            raise
        tr.close(idx)
        if hook is not None:
            hook(tr, args, result)
        return result

    return traced


class Installation:
    """Wrappers for one tracer.  Entering binds them; leaving restores originals.

    The bindings are found once, at construction: every attribute of a loaded
    ``noisespectra`` module that is the original function object, and the
    class attribute for methods.
    """

    def __init__(self, tr: Tracer):
        self._bindings: list[tuple[object, str, object, Callable]] = []
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for mod_name, qualname, hook in TARGETS:
            mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            span = f"{mod_name}.{qualname}"
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._bindings.append((cls, meth, original, _wrap(tr, span, original, hook)))
                continue
            original = getattr(mod, qualname)
            wrapper = _wrap(tr, span, original, hook)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._bindings.append((m, attr, original, wrapper))

    def bindings(self) -> list[tuple[object, str, object]]:
        return [(owner, attr, original) for owner, attr, original, _ in self._bindings]

    def __enter__(self) -> "Installation":
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original, _ in reversed(self._bindings):
            setattr(owner, attr, original)


def layer_metrics(
    tr: Tracer,
    op_windows: list[tuple[int, int, int, int]],
    untraced_ns: int,
) -> dict[str, float]:
    """Per-layer metrics from the spans of a traced run.

    `op_windows` holds (start_ns, end_ns, first span, end span) for every
    traced op; `untraced_ns` is the summed time of the same ops run without
    wrappers, so the overhead compares identical work.
    """
    own = self_times_ns(tr.starts, tr.ends, tr.parents)
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    errors: dict[str, int] = {}
    for i, name in enumerate(tr.names):
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + own[i]
        errors[name] = errors.get(name, 0) + tr.errors[i]
    traced_ns = sum(end - start for start, end, _, _ in op_windows)
    covered_ns = sum(
        tr.ends[i] - tr.starts[i]
        for _, _, first, stop in op_windows
        for i in range(first, stop)
        if tr.parents[i] < 0
    )
    out: dict[str, float] = {}
    for metric, _ in LAYER_METRICS:
        span, _, stat = metric.rpartition(".")
        if stat == "calls":
            out[metric] = calls.get(span, 0)
        elif stat == "self_s":
            out[metric] = self_ns.get(span, 0) / 1e9
        elif stat == "errors":
            out[metric] = errors.get(span, 0)
        elif metric == "trace_overhead_frac":
            out[metric] = (traced_ns - untraced_ns) / untraced_ns if untraced_ns else 0.0
        elif metric == "untraced_frac":
            out[metric] = (traced_ns - covered_ns) / traced_ns if traced_ns else 0.0
        else:
            out[metric] = tr.counts.get(metric, 0)
    return out
