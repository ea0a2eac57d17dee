"""In-memory spans and call aggregates recorded around privstream's public calls.

A traced call is either a span (kept whole: id, parent id, scope, name,
start, end) or a hot call, which is only aggregated under the innermost
open span's name as (count, total time, self time); hot calls run millions
of times per run and one record each would swamp memory. Self time is a
call's duration minus the time of the traced calls directly inside it.
Everything is written out once, when the run ends.
"""
from __future__ import annotations

import json
import sys
import time

_perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.scope = ""
        self.spans: list = []      # [id, parent id, scope, name, start, end]
        self.calls: dict = {}      # (scope, parent span name, name) -> [count, total s, self s]
        self.counts: dict = {}     # (scope, name) -> value
        self._open: list = []      # child time of every open traced call
        self._span_ids: list = [None]
        self._span_names: list = [""]
        self._patches: list = []

    def count(self, name: str, value=1) -> None:
        key = (self.scope, name)
        self.counts[key] = self.counts.get(key, 0) + value

    def traced(self, fn, name, span=False, on_return=None):
        """Wrap fn; ``name`` is a string or a function of the call's arguments."""
        tracer = self
        opened = self._open
        calls = self.calls
        span_ids = self._span_ids
        span_names = self._span_names

        def call(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            parent = span_names[-1]
            frame = [0.0]
            opened.append(frame)
            if span:
                span_id = len(tracer.spans)
                record = [span_id, span_ids[-1], tracer.scope, label, 0.0, 0.0]
                tracer.spans.append(record)
                span_ids.append(span_id)
                span_names.append(label)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _perf() - start
                opened.pop()
                if opened:
                    opened[-1][0] += elapsed
                if span:
                    span_ids.pop()
                    span_names.pop()
                    record[4] = start
                    record[5] = start + elapsed
                key = (tracer.scope, parent, label)
                agg = calls.get(key)
                if agg is None:
                    calls[key] = [1, elapsed, elapsed - frame[0]]
                else:
                    agg[0] += 1
                    agg[1] += elapsed
                    agg[2] += elapsed - frame[0]
            if on_return is not None:
                on_return(result)
            return result

        return call

    def patch(self, owner, attr: str, name, span=False, on_return=None) -> None:
        """Replace owner.attr, and every privstream module binding of the same
        function, by a traced wrapper until :meth:`restore`."""
        original = getattr(owner, attr)
        wrapper = self.traced(original, name, span, on_return)
        targets = [(owner, attr)]
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "privstream" or module is owner:
                continue
            targets += [(module, a) for a, v in vars(module).items() if v is original]
        for target, target_attr in targets:
            own = target_attr in vars(target)
            self._patches.append((target, target_attr, original, own))
            setattr(target, target_attr, wrapper)

    def restore(self) -> None:
        for target, attr, original, own in reversed(self._patches):
            if own:
                setattr(target, attr, original)
            else:
                delattr(target, attr)
        self._patches.clear()

    # -- reading the aggregates ------------------------------------------

    def agg(self, scope: str, name: str, parent: str | None = None,
            exclude_parent: str | None = None) -> tuple[int, float, float]:
        """(count, total s, self s) of ``name`` in ``scope`` under one parent
        span name (or all but one)."""
        count = total = own = 0.0
        for (s, p, n), (c, t, o) in self.calls.items():
            if s == scope and n == name and (parent is None or p == parent) and p != exclude_parent:
                count += c
                total += t
                own += o
        return int(count), total, own

    def counted(self, scope: str, name: str):
        return self.counts.get((scope, name), 0)

    def write(self, path, metrics: dict, sources: dict) -> None:
        calls = [{"scope": s, "parent": p, "name": n, "count": c, "total_s": t, "self_s": o}
                 for (s, p, n), (c, t, o) in self.calls.items()]
        counts = [{"scope": s, "name": n, "value": v} for (s, n), v in self.counts.items()]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"metrics": metrics, "sources": sources, "calls": calls,
                       "counts": counts,
                       "span_fields": ["id", "parent", "scope", "name", "start_s", "end_s"],
                       "spans": self.spans}, handle)
