"""Span tracing of framesense layers from outside the package.

A :class:`Tracer` replaces each traced public function with a timing
wrapper at every module attribute it is looked up by (for example
``framesense.harness.mse`` and ``framesense.bounds.sym_eigenvalues`` as well
as ``framesense.linalg.mse``), records one span per call in memory and puts
the originals back on :meth:`Tracer.restore`. Layers are the package
modules; a span is named ``<layer>.<function>``.

Counts that follow from argument sizes rather than from measurement
(subsets enumerated, N x N table bytes, eigen calls by matrix order) are
computed in the wrappers and labelled as computed in the trace file.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from collections import Counter, defaultdict

import numpy as np

TRACED = {
    "linalg": ("gram", "sym_eigenvalues", "frame_potential", "mse"),
    "placement": (
        "framesense", "greedy_det", "greedy_mse", "random_placement", "exhaustive_oracle",
    ),
    "bounds": ("compute_bounds_report", "delta_bound", "mse_envelope", "fp_approx_factor"),
    "harness": ("sweep_mse", "oracle_audit"),
    "matgen": ("generate",),
    "matio": ("load_matrix", "save_matrix"),
    "cli": ("main",),
}
TRACED_METHODS = (("ResultTable", "write"), ("AuditTable", "write"))

# Op id of the set-up replayed under the tracer; ops have integer ids.
SETUP = "setup"


def _rows(psi) -> int:
    return np.shape(getattr(psi, "entries", psi))[0]


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _count_framesense(tracer, args, kwargs, out):
    # framesense() builds g, g2 and the masked pair table, plus g0 and its
    # square for the objective trace when rows are normalized.
    opts = _arg(args, kwargs, 2, "opts")
    tables = 5 if opts is None or opts.normalize_rows else 3
    mib = tables * 8 * _rows(args[0]) ** 2 / 2**20
    tracer.peaks["placement.framesense.table_mib"] = max(tracer.peaks["placement.framesense.table_mib"], mib)


def _count_subsets(name):
    def count(tracer, args, kwargs, out):
        tracer.count(name, math.comb(_rows(args[0]), int(_arg(args, kwargs, 1, "num_sensors"))))
    return count


def _count_order(tracer, args, kwargs, out):
    t = args[0]
    order = t.order if hasattr(t, "order") else np.shape(t)[0]
    tracer.count("linalg.sym_eigenvalues.order_sum", order)
    tracer.orders[order] += 1


def _count_unbounded(tracer, args, kwargs, out):
    if math.isinf(out):
        tracer.count("linalg.mse.unbounded", 1)


def _count_file_bytes(name, path_of):
    def count(tracer, args, kwargs, out):
        tracer.count(name, sum(os.path.getsize(p) for p in path_of(args, out)))
    return count


PROBES = {
    "placement.framesense": _count_framesense,
    "placement.exhaustive_oracle": _count_subsets("placement.exhaustive_oracle.subsets"),
    "bounds.delta_bound": _count_subsets("bounds.delta_bound.subsets"),
    "linalg.sym_eigenvalues": _count_order,
    "linalg.mse": _count_unbounded,
    "matio.load_matrix": _count_file_bytes("matio.load_matrix.bytes", lambda a, out: [a[0]]),
    "matio.save_matrix": _count_file_bytes("matio.save_matrix.bytes", lambda a, out: [a[0]]),
    "harness.write": _count_file_bytes("harness.write.bytes", lambda a, out: out),
}


class Tracer:
    """In-memory span recorder over the framesense modules."""

    def __init__(self, fs):
        self.spans = []  # (name, start, end, parent index, op id)
        self.stack = []
        self.op = None
        self.counts = {"op": Counter(), "setup": Counter()}
        self.peaks = Counter()
        self.orders = Counter()
        self._saved = []
        modules = [fs] + [getattr(fs, layer) for layer in TRACED]
        for layer, names in TRACED.items():
            home = getattr(fs, layer)
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._saved.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)
        for cls_name, meth in TRACED_METHODS:
            cls = getattr(fs.harness, cls_name)
            orig = cls.__dict__[meth]
            self._saved.append((cls, meth, orig))
            setattr(cls, meth, self._wrap("harness.write", orig))

    def _wrap(self, name, fn):
        probe = PROBES.get(name)
        spans = self.spans
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if probe is not None:
                probe(self, args, kwargs, out)
            return out

        return wrapper

    def count(self, name, amount):
        """Add to a computed count of the current op, or of the set-up."""
        self.counts["setup" if self.op == SETUP else "op"][name] += amount

    def restore(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def run_op(self, op_id, fn, *args):
        """Call ``fn`` as one traced op under a root ``bench.op`` span."""
        self.op = op_id
        wrapped = self._wrap("bench.op", fn)
        try:
            return wrapped(*args)
        finally:
            self.op = None

    def totals(self):
        """Inclusive seconds, self seconds and calls per (span name, phase).

        The phase is ``"setup"`` for the traced set-up and ``"op"`` for ops.
        A span's self time is its duration minus that of its child spans.
        """
        busy = defaultdict(float)
        self_s = defaultdict(float)
        calls = Counter()
        for name, start, end, parent, op in self.spans:
            key = (name, "setup" if op == SETUP else "op")
            dur = end - start
            busy[key] += dur
            self_s[key] += dur
            calls[key] += 1
            if parent >= 0:
                self_s[self.spans[parent][0], key[1]] -= dur
        return busy, self_s, calls

    def write_jsonl(self, path, header: dict):
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(header, kind="run")) + "\n")
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({
                    "kind": "span", "name": name, "start": start - origin, "end": end - origin,
                    "parent": parent, "op": op,
                }) + "\n")
            fh.write(json.dumps({
                "kind": "computed_counts",
                "per_run_counts": {phase: dict(c) for phase, c in self.counts.items()},
                "peaks": dict(self.peaks),
                "eigen_calls_by_order": {str(k): v for k, v in sorted(self.orders.items())},
            }) + "\n")
