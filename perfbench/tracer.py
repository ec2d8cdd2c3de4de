"""Span recorder for the traced benchmark run.

Library functions are wrapped where their callers look them up (a
`from`-import binds a name into the caller's module, so patching the
defining module alone would miss those calls).  Each call records one span
(name, start, end, parent) in memory, and the spans are written out when the
run ends.  A layer's self time is its span's duration minus the time its
child spans cover.  The library is patched in memory for traced rounds only
and restored after each one; no file under src/ changes.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from dataclasses import dataclass
from functools import wraps


def _batch_size(args) -> int:
    try:
        return len(args[1])
    except (IndexError, TypeError):
        return 0


# (span name, module, attribute path, work units carried by one call)
PATCHES = (
    ("ballsbins.substream", "linbins.ballsbins", "substream", None),
    ("gf2.sample_uniform_linear", "linbins.ballsbins", "sample_uniform_linear", None),
    ("gf2.sample_uniform_linear", "linbins.cli", "sample_uniform_linear", None),
    ("gf2.sample_uniform_linear", "linbins.gf2", "sample_uniform_linear", None),
    ("gf2.apply_bits", "linbins.gf2", "LinearMap.apply_bits", None),
    ("gf2.batch_apply_bits", "linbins.ballsbins", "batch_apply_bits", _batch_size),
    ("gf2.byte_apply_tables", "linbins.gf2", "byte_apply_tables", None),
    ("gf2.byte_apply_tables", "linbins.ballsbins", "byte_apply_tables", None),
    ("ballsbins.estimate_tail", "linbins.cli", "estimate_tail", None),
    ("ballsbins.generate_set", "linbins.ballsbins", "generate_set", None),
    ("ballsbins.summarize_trials", "linbins.ballsbins", "summarize_trials", None),
    ("cli.main", "linbins.cli", "main", None),
    ("hashtable.insert", "linbins.hashtable", "LinearHashTable.insert", None),
    ("hashtable.get", "linbins.hashtable", "LinearHashTable.get", None),
    ("hashtable.remove", "linbins.hashtable", "LinearHashTable.remove", None),
    ("gf2.sample_uniform_affine", "linbins.hashtable", "sample_uniform_affine", None),
    ("gf2.sample_surjective", "linbins.cli", "sample_surjective", None),
    ("gf2.sample_surjective", "linbins.gf2", "sample_surjective", None),
    ("bounds.tail_bound_parameters", "linbins.bounds", "tail_bound_parameters", None),
)


@dataclass
class SpanStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    units: int = 0


class Tracer:
    """Records spans for wrapped calls; install() and remove() swap the wrappers in.

    Per-name totals and self times are accumulated as spans close, so they
    cover every call; the spans themselves are kept up to SPAN_LIMIT, which
    bounds the memory and the file a long traced run leaves.
    """

    SPAN_LIMIT = 200_000

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._totals: list[list[int]] = []  # per name id: calls, total_ns, self_ns, units
        self._edges: dict[tuple[int, int], int] = {}  # (parent id, child id) -> calls
        self.spans: list[tuple | None] = []  # (name id, start_ns, end_ns, parent index)
        self.dropped = 0
        self._stack: list[list[int]] = []  # open spans: name id, child_ns, span index
        self._patches: list[tuple] = []
        self.absent: set[str] = set()
        for name, module, path, units in PATCHES:
            self._patch(name, module, path, units)

    def span(self, name: str, fn, units=None):
        """fn wrapped so that every call records a span called name."""
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
            self._totals.append([0, 0, 0, 0])
        totals, edges, spans = self._totals[nid], self._edges, self.spans
        stack, clock, limit = self._stack, time.perf_counter_ns, self.SPAN_LIMIT

        @wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            idx = len(spans)
            if idx < limit:
                spans.append(None)
            else:
                idx = -1
                self.dropped += 1
            frame = [nid, 0, idx]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[1]
                if units:
                    totals[3] += units(args)
                if parent is not None:
                    parent[1] += duration
                    edge = (parent[0], nid)
                    edges[edge] = edges.get(edge, 0) + 1
                if idx >= 0:
                    spans[idx] = (nid, start, end, -1 if parent is None else parent[2])

        return traced

    def _patch(self, name, module, path, units) -> None:
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        try:
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except AttributeError:
            self.absent.add(name)
            return
        self._patches.append((owner, attr, original, self.span(name, original, units)))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def stats(self) -> dict[str, SpanStats]:
        """Calls, total time, self time and work units per span name."""
        return {name: SpanStats(*self._totals[i]) for i, name in enumerate(self.names)}

    def child_calls(self, parent: str, child: str) -> int:
        """Number of child spans whose direct parent is a parent span."""
        key = (self._name_ids.get(parent), self._name_ids.get(child))
        return self._edges.get(key, 0)

    def write(self, path) -> None:
        """Write the kept spans, one JSON line each: [name, start_ns, end_ns, parent, run_id].

        Parent is the line number (from 0, after the header) of the parent
        span, or -1.
        """
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"run_id": self.run_id, "spans": len(self.spans),
                                 "dropped": self.dropped}) + "\n")
            for nid, start, end, parent in self.spans:
                fh.write(json.dumps([self.names[nid], start, end, parent, self.run_id]) + "\n")
