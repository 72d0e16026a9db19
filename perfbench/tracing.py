"""Spans around the public functions of each dualdrazin module.

The tracer is installed from outside the package: every function listed in
SPANS is replaced, in every ``dualdrazin`` module namespace that binds it,
by a wrapper that records a span (name, start, end, parent, op id) while the
tracer is active and calls straight through otherwise.  Modules import each
other's functions by name (``from .drazin import drazin_complex``), so each
binding is wrapped, not just the defining module's.

Spans stay in memory and are written with ``Tracer.dump`` after the run.
A span's self time is its duration minus the durations of its direct
children; calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import logging
import re
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# (module, attribute, span name).  The span name is "<layer>.<function>".
SPANS = [
    ("dualdrazin.dualmat", "dmul", "dualmat.dmul"),
    ("dualdrazin.dualmat", "dpow", "dualmat.dpow"),
    ("dualdrazin.dualmat", "numerical_rank", "dualmat.numerical_rank"),
    ("dualdrazin.dualmat", "indices", "dualmat.indices"),
    ("dualdrazin.dualnum", "scalar_dual_drazin", "dualnum.scalar_dual_drazin"),
    ("dualdrazin.drazin", "drazin_complex", "drazin.drazin_complex"),
    ("dualdrazin.drazin", "defining_residuals", "drazin.defining_residuals"),
    ("dualdrazin.drazin", "dual_exists", "drazin.dual_exists"),
    ("dualdrazin.drazin", "dual_drazin_series", "drazin.dual_drazin_series"),
    ("dualdrazin.drazin", "matrix_index", "drazin.matrix_index"),
    ("dualdrazin.drazin", "dual_drazin", "drazin.dual_drazin"),
    ("dualdrazin.blocks", "check_hypotheses", "blocks.check_hypotheses"),
    ("dualdrazin.blocks", "closed_form", "blocks.closed_form"),
    ("dualdrazin.blocks", "cline", "blocks.cline"),
    ("dualdrazin.blocks", "tri_drazin", "blocks.tri_drazin"),
    ("dualdrazin.blocks", "sum_pq_zero", "blocks.sum_pq_zero"),
    ("dualdrazin.blocks", "abio_drazin", "blocks.abio_drazin"),
    ("dualdrazin.blocks", "abco_drazin", "blocks.abco_drazin"),
    ("dualdrazin.blocks", "abco_series", "blocks.abco_series"),
    ("dualdrazin.blocks", "bipartite_drazin", "blocks.bipartite_drazin"),
    ("dualdrazin.digraphs", "build_adjacency", "digraphs.build_adjacency"),
    ("dualdrazin.digraphs", "graph_hypotheses", "digraphs.graph_hypotheses"),
    ("dualdrazin.digraphs", "ds_dual_drazin", "digraphs.ds_dual_drazin"),
    ("dualdrazin.digraphs", "dls_dual_drazin", "digraphs.dls_dual_drazin"),
    ("dualdrazin.digraphs", "dw_dual_drazin", "digraphs.dw_dual_drazin"),
    ("dualdrazin.digraphs", "dw_bc_zero", "digraphs.dw_bc_zero"),
    ("dualdrazin.digraphs", "dw_group", "digraphs.dw_group"),
    ("dualdrazin.digraphs", "bipartite_dual", "digraphs.bipartite_dual"),
    ("dualdrazin.harness", "gen_instance", "harness.gen_instance"),
    ("dualdrazin.harness", "fuzz", "harness.fuzz"),
    ("dualdrazin.serialize", "matrix_from_doc", "serialize.matrix_from_doc"),
    ("dualdrazin.serialize", "load_matrix", "serialize.load_matrix"),
    ("dualdrazin.serialize", "matrix_to_doc", "serialize.matrix_to_doc"),
    ("dualdrazin.serialize", "dumps_doc", "serialize.dumps_doc"),
    ("dualdrazin.serialize", "dump_matrix", "serialize.dump_matrix"),
    # The CLI reads and writes documents through these two helpers; they
    # carry the JSON parse and the file write, so they count as serialize.
    ("dualdrazin.cli", "_read_doc", "cli._read_doc"),
    ("dualdrazin.cli", "_emit", "cli._emit"),
    ("dualdrazin.cli", "main", "cli.main"),
]

# Metrics summed over several functions: self time for the closed forms,
# time of the outermost span for the read and write paths and for cli.main.
SELF_GROUPS = {
    "blocks.closed_form": (
        "blocks.closed_form", "blocks.cline", "blocks.tri_drazin", "blocks.sum_pq_zero",
        "blocks.abio_drazin", "blocks.abco_drazin", "blocks.abco_series",
        "blocks.bipartite_drazin",
    ),
    "digraphs.closed_form": (
        "digraphs.ds_dual_drazin", "digraphs.dls_dual_drazin", "digraphs.dw_dual_drazin",
        "digraphs.dw_bc_zero", "digraphs.dw_group", "digraphs.bipartite_dual",
    ),
}
INCLUSIVE_GROUPS = {
    "serialize.read": ("serialize.matrix_from_doc", "serialize.load_matrix", "cli._read_doc"),
    "serialize.write": (
        "serialize.matrix_to_doc", "serialize.dumps_doc", "serialize.dump_matrix", "cli._emit",
    ),
    "cli.main": ("cli.main",),
}

_ACCEPTED_RE = re.compile(r"family (\w+) trial \d+: accepted after (\d+) rejected draws")
_FAILED_RE = re.compile(r"in (\d+) draws")


class _AcceptLog(logging.Handler):
    """Counts the harness's "accepted after N rejected draws" messages."""

    def __init__(self, tracer: "Tracer"):
        super().__init__(logging.DEBUG)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        if not self.tracer.active:
            return
        match = _ACCEPTED_RE.search(record.getMessage())
        if match:
            self.tracer.rejected_draws[match[1]] += int(match[2])


class Tracer:
    def __init__(self):
        self.active = False
        self.op = -1
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.inclusive_s: defaultdict = defaultdict(float)
        self.constructions = 0
        self.bytes_rendered = 0
        self.accepted: Counter = Counter()
        self.rejected_draws: Counter = Counter()
        self.failed_draws: Counter = Counter()
        self.failed_trials: Counter = Counter()
        self._stack: list[list] = []
        self._depth: Counter = Counter()
        self._group_of = {
            member: group for group, members in INCLUSIVE_GROUPS.items() for member in members
        }

    # ---- installation ------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of the SPANS functions and DualMatrix.__init__.

        A binding is a module attribute or a value of a module-level dict
        (dispatch tables such as the harness's family -> closed form map).
        """
        for module_name in {module for module, _, _ in SPANS}:
            importlib.import_module(module_name)
        modules = [m for name, m in sys.modules.items()
                   if name == "dualdrazin" or name.startswith("dualdrazin.")]
        for module_name, attr, span in SPANS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, span)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = wrapper
        dualmat = sys.modules["dualdrazin.dualmat"]
        init = dualmat.DualMatrix.__init__
        tracer = self

        @functools.wraps(init)
        def counted_init(obj, *args, **kwargs):
            if tracer.active:
                tracer.constructions += 1
            init(obj, *args, **kwargs)

        dualmat.DualMatrix.__init__ = counted_init
        harness_log = logging.getLogger("dualdrazin.harness")
        harness_log.setLevel(logging.DEBUG)
        harness_log.addHandler(_AcceptLog(self))

    def _wrap(self, fn, span: str):
        name_id = len(self.names)
        self.names.append(span)
        group = self._group_of.get(span)
        tracer = self
        if span == "harness.gen_instance":
            def call(args, kwargs):
                return tracer._gen_instance(fn, args, kwargs)
        elif span == "serialize.dumps_doc":
            def call(args, kwargs):
                text = fn(*args, **kwargs)
                tracer.bytes_rendered += len(text)
                return text
        else:
            def call(args, kwargs):
                return fn(*args, **kwargs)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            return tracer._span(name_id, span, group, call, args, kwargs)

        return wrapper

    def _gen_instance(self, fn, args, kwargs):
        cfg = args[0] if args else kwargs["cfg"]
        try:
            inst = fn(*args, **kwargs)
        except sys.modules["dualdrazin.errors"].GenerationFailed as exc:
            self.failed_trials[cfg.family] += 1
            match = _FAILED_RE.search(str(exc))
            self.failed_draws[cfg.family] += int(match[1]) if match else 0
            raise
        self.accepted[cfg.family] += 1
        return inst

    def _span(self, name_id, span, group, call, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(parent[0] if parent else -1)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        frame = [index, 0.0]
        stack.append(frame)
        outermost = group is not None and self._depth[group] == 0
        if group is not None:
            self._depth[group] += 1
        start = perf_counter()
        self.span_start.append(start)
        try:
            return call(args, kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            self.span_end[index] = end
            self.calls[span] += 1
            self.self_s[span] += duration - frame[1]
            if parent is not None:
                parent[1] += duration
            if group is not None:
                self._depth[group] -= 1
                if outermost:
                    self.inclusive_s[group] += duration

    # ---- per-op bracketing -------------------------------------------

    def begin(self, op: int) -> None:
        self.op = op
        self.active = True

    def end(self) -> None:
        self.active = False
        self._stack.clear()
        self._depth.clear()

    # ---- results -----------------------------------------------------

    def span_count(self) -> int:
        return len(self.span_start)

    def dump(self, path) -> None:
        """Write every span as arrays: name id, start, end, parent index, op id."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
        )

    def _members(self, span: str) -> tuple:
        members = SELF_GROUPS.get(span, (span,))
        unknown = [m for m in members if m not in self.names]
        if unknown:
            raise KeyError(f"no traced span {unknown}")
        return members

    def calls_of(self, span: str) -> int:
        return sum(self.calls.get(m, 0) for m in self._members(span))

    def self_ms(self, span: str) -> float:
        return 1e3 * sum(self.self_s.get(m, 0.0) for m in self._members(span))
