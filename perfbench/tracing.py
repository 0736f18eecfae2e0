"""Spans recorded from outside gradlab, around calls into its public functions.

gradlab itself knows nothing about tracing.  `Tracer.install` replaces each
hooked function at the name its caller looks it up under (a caller that did
`from .homology import betti` looks up `experiments.betti`, not
`homology.betti`), and `Tracer.uninstall` puts every original back.  Spans
stay in memory; the caller writes them out once the run has ended.

A span's duration counts everything below it.  A span's self time is its
duration minus that of its direct children.  The per-layer metrics are
totals over spans, listed in `LAYER_METRICS`.
"""

import functools
import importlib
import statistics
import time

# The ten checks of gradlab.selftest.ALL_CHECKS, in battery order.  The
# benchmark's test keeps this list equal to the battery.
SELFTEST_CHECKS = (
    "free-rank-gradient", "surface-homology-gradient",
    "double-volume-gradient", "euler-multiplicativity", "product-kunneth",
    "deficiency-bounds", "gluing-inequality", "enumeration-counts",
    "torsion-jumps", "index-ratio-identity",
)

ROOT = "workload"


def _field_tag(field):
    return field.label.replace(":", "")


def _note_rank(span, result):
    matrix, field = span.args[0], span.args[1]
    span.attrs["nnz"] = matrix.nnz
    span.attrs["field"] = _field_tag(field)
    parent = span.parent
    if parent is not None and parent.name == "homology.betti":
        for i, b in enumerate(parent.args[0].boundaries):
            if b is matrix:
                span.attrs["boundary"] = f"d{i + 1}"


def _note_order(span, result):
    span.attrs["degree"] = span.args[0].degree


def _note_table(span, result):
    span.attrs["rows"] = len(result.table)


def _note_chain(span, result):
    span.attrs["levels"] = len(result.levels)
    span.attrs["index_max"] = max(result.indices())


def _note_check(span, result):
    span.attrs["check"] = span.args[0]


# (module, attribute at which the caller looks the function up, span name,
# annotation).  A method is hooked on its class, which every caller shares.
HOOKS = (
    ("gradlab.experiments", "resolve_chain", "experiments.resolve_chain",
     _note_chain),
    ("gradlab.experiments", "level_coset_table", "chains.level_coset_table",
     _note_table),
    ("gradlab.experiments", "covering_complex", "homology.covering_complex",
     None),
    ("gradlab.experiments", "betti", "homology.betti", None),
    ("gradlab.experiments", "subgroup_volume_vector",
     "gog.subgroup_volume_vector", None),
    ("gradlab.experiments", "subgroup_shadows", "gog.subgroup_shadows", None),
    ("gradlab.experiments", "edge_shadow_indices", "gog.edge_shadow_indices",
     None),
    ("gradlab.experiments", "catalog", "towers.catalog", None),
    ("gradlab.cli", "emit_report", "experiments.emit_report", None),
    ("gradlab.homology", "rank", "homology.rank", _note_rank),
    ("gradlab.chains", "low_index_subgroups", "cosets.low_index_subgroups",
     None),
    ("gradlab.chains", "regular_action_table", "cosets.regular_action_table",
     None),
    ("gradlab.chains", "Chain.validate", "chains.Chain.validate", None),
    ("gradlab.gog", "subgroup_shadows", "gog.subgroup_shadows", None),
    ("gradlab.gog", "subgroup_index", "permgrp.subgroup_index", None),
    ("gradlab.permgrp", "PermGroup.order", "permgrp.PermGroup.order",
     _note_order),
    ("gradlab.selftest", "run_check", "selftest.run_check", _note_check),
    ("gradlab.selftest", "level_coset_table", "chains.level_coset_table",
     _note_table),
    ("gradlab.selftest", "covering_complex", "homology.covering_complex",
     None),
    ("gradlab.selftest", "betti", "homology.betti", None),
    ("gradlab.selftest", "low_index_subgroups", "cosets.low_index_subgroups",
     None),
    ("gradlab.selftest", "todd_coxeter", "cosets.todd_coxeter", None),
    ("gradlab.selftest", "catalog", "towers.catalog", None),
)

SPAN_NAMES = frozenset([ROOT] + [name for _, _, name, _ in HOOKS])


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "attrs", "args")

    def __init__(self, id_, name, parent, args):
        self.id = id_
        self.name = name
        self.parent = parent
        self.args = args
        self.attrs = {}
        self.start = self.end = None

    @property
    def seconds(self):
        return self.end - self.start

    def to_dict(self):
        return {"id": self.id, "name": self.name,
                "parent": None if self.parent is None else self.parent.id,
                "start": self.start, "end": self.end, "attrs": self.attrs}


class Tracer:
    """Records spans for the hooked functions while installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def _open(self, name, args):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, parent, args)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, args=(), kwargs=None, note=None):
        """Run fn(*args, **kwargs) inside a span called name."""
        span = self._open(name, args)
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            self._close(span)
        if note is not None:
            note(span, result)
        # arguments are kept only while the span is open, so that a span does
        # not keep a boundary matrix or a chain alive after its call
        span.args = None
        return result

    def install(self):
        for module, attr, name, note in HOOKS:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._traced(original, name, note))

    def _traced(self, fn, name, note):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, note)
        return traced

    def uninstall(self):
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def self_seconds(spans):
    """Self time per span: its duration minus its direct children's."""
    out = {s.id: s.seconds for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent.id] -= s.seconds
    return out


def _outermost(spans, name):
    """Spans of this name with no ancestor of the same name, so recursive
    calls are counted once."""
    out = []
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p is not None and p.name != name:
            p = p.parent
        if p is None:
            out.append(s)
    return out


def _seconds(name, **match):
    def metric(spans):
        return sum(s.seconds for s in _outermost(spans, name)
                   if all(s.attrs.get(k) == v for k, v in match.items()))
    return metric


def _calls(name):
    return lambda spans: sum(1 for s in spans if s.name == name)


def _attr_sum(name, key):
    return lambda spans: sum(s.attrs.get(key, 0)
                             for s in _outermost(spans, name))


def _attr_max(name, key):
    return lambda spans: max((s.attrs.get(key, 0) for s in spans
                              if s.name == name), default=0)


def _root_self(spans):
    selfs = self_seconds(spans)
    return sum(selfs[s.id] for s in spans if s.name == ROOT)


# Per-layer metric name -> (unit, function of one traced repetition's spans).
# Times are totals of span durations, children included.
LAYER_METRICS = {
    "homology.rank_s": ("s", _seconds("homology.rank")),
    "homology.rank.d1.q_s": ("s", _seconds("homology.rank", boundary="d1",
                                           field="q")),
    "homology.rank.d2.q_s": ("s", _seconds("homology.rank", boundary="d2",
                                           field="q")),
    "homology.rank.d1.gf2_s": ("s", _seconds("homology.rank", boundary="d1",
                                             field="gf2")),
    "homology.rank.d2.gf2_s": ("s", _seconds("homology.rank", boundary="d2",
                                             field="gf2")),
    "homology.complex_s": ("s", _seconds("homology.covering_complex")),
    "homology.rank_calls": ("count", _calls("homology.rank")),
    "homology.nnz": ("count", _attr_sum("homology.rank", "nnz")),
    "permgrp.order_s": ("s", _seconds("permgrp.PermGroup.order")),
    "permgrp.index_s": ("s", _seconds("permgrp.subgroup_index")),
    "permgrp.order_calls": ("count", _calls("permgrp.PermGroup.order")),
    "permgrp.degree_max": ("points", _attr_max("permgrp.PermGroup.order",
                                               "degree")),
    "gog.volume_s": ("s", _seconds("gog.subgroup_volume_vector")),
    "gog.shadows_s": ("s", _seconds("gog.subgroup_shadows")),
    "gog.edge_shadows_s": ("s", _seconds("gog.edge_shadow_indices")),
    "chains.build_s": ("s", _seconds("experiments.resolve_chain")),
    "chains.validate_s": ("s", _seconds("chains.Chain.validate")),
    "chains.levels": ("count", _attr_sum("experiments.resolve_chain",
                                         "levels")),
    "chains.index_max": ("count", _attr_max("experiments.resolve_chain",
                                            "index_max")),
    "cosets.table_s": ("s", _seconds("chains.level_coset_table")),
    "cosets.cosets": ("count", _attr_sum("chains.level_coset_table", "rows")),
    "cosets.regular_action_s": ("s", _seconds("cosets.regular_action_table")),
    "cosets.low_index_s": ("s", _seconds("cosets.low_index_subgroups")),
    "cosets.enumerate_s": ("s", _seconds("cosets.todd_coxeter")),
    "towers.catalog_s": ("s", _seconds("towers.catalog")),
    "experiments.runner_self_s": ("s", _root_self),
    "experiments.emit_s": ("s", _seconds("experiments.emit_report")),
}
for _check in SELFTEST_CHECKS:
    LAYER_METRICS[f"selftest.{_check}_s"] = (
        "s", _seconds("selftest.run_check", check=_check))

# Filled in from the untraced and traced wall times, not from spans.
TRACE_METRICS = {"trace.wall_s": "s", "trace.overhead_s": "s"}


def layer_values(spans):
    """Every per-layer metric of one traced repetition."""
    return {name: fn(spans) for name, (_, fn) in LAYER_METRICS.items()}


def median_layers(per_rep):
    """Median of each per-layer metric over traced repetitions."""
    return {name: statistics.median(rep[name] for rep in per_rep)
            for name in LAYER_METRICS}
