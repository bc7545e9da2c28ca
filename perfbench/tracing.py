"""Host-time spans recorded around the program's public entry points.

The traced run wraps a layer's entry point (a method, a classmethod or
a module-level function) with :meth:`SpanRecorder.wrap` through
:class:`Patches`, which undoes every override on :meth:`Patches.undo`,
so traced and untraced blocks of one run execute the same objects.
Spans stay in memory as ``[name, start, end, parent]`` rows and are
written out once, at the end, as a Chrome trace.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class SpanRecorder:
    """Nested host-time spans plus named counters, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_s, end_s, parent_index]
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, fn, name: str, on_result=None):
        """``fn`` recording one ``name`` span per call.

        ``on_result(result)`` runs after the span closes, so its cost is
        not charged to the layer.
        """
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return_value = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(return_value)
            return return_value

        return traced

    def self_seconds(self, root_scale=None) -> dict[str, float]:
        """Per span name: summed duration minus the time its children cover.

        With ``root_scale``, a span's time is multiplied by the factor of
        the root span it runs under, roots taken in the order they began.
        """
        out: defaultdict[str, float] = defaultdict(float)
        root_of: list[int] = []  # per span: the ordinal of its root
        roots = 0
        for name, start, end, parent in self.spans:
            if parent < 0:
                root_of.append(roots)
                roots += 1
            else:
                root_of.append(root_of[parent])
            seconds = end - start
            if root_scale is not None:
                seconds *= root_scale[root_of[-1]]
            out[name] += seconds
            if parent >= 0:
                out[self.spans[parent][0]] -= seconds
        return dict(out)

    def total_seconds(self, name: str) -> float:
        """Summed duration of every ``name`` span, children included."""
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def write_chrome(self, path: Path, meta: dict) -> None:
        """Dump the spans as Chrome trace events (open in Perfetto)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        events = [
            {
                "name": name,
                "ph": "X",
                "pid": 0,
                "tid": 0,
                "ts": round((start - t0) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"parent": parent},
            }
            for name, start, end, parent in self.spans
        ]
        doc = {"traceEvents": events, "metadata": meta}
        path.write_text(json.dumps(doc, separators=(",", ":")))


class Patches:
    """Attribute overrides on classes, modules or instances, undoable."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, bool, object]] = []

    def set(self, owner, attr: str, value) -> None:
        """``setattr(owner, attr, value)``, remembering what was there."""
        own = vars(owner)
        self._undo.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, value)

    def wrap(self, recorder: SpanRecorder, owner, attr: str, name: str,
             on_result=None) -> None:
        """Replace ``owner.attr`` by its traced version.

        A classmethod is looked up bound and re-installed as a
        staticmethod, so callers that fetch it from the type (as the
        trainer does for ``replicate_group``) still reach it.
        """
        raw = next(
            (vars(k)[attr] for k in getattr(owner, "__mro__", ())
             if attr in vars(k)),
            None,
        )
        traced = recorder.wrap(getattr(owner, attr), name, on_result)
        if isinstance(raw, classmethod):
            traced = staticmethod(traced)
        self.set(owner, attr, traced)

    def undo(self) -> None:
        """Restore every attribute in reverse order of :meth:`set`."""
        while self._undo:
            owner, attr, had, old = self._undo.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
