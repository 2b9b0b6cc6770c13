"""In-memory spans recorded by wrappers installed from outside the program.

A :class:`Tracer` replaces a function or method with a wrapper that
records one span per call: ``(id, parent, root, name, start, end,
extra)``.  Parents come from a per-thread stack, so spans on one thread
nest; ``root`` identifies the blocking path a span belongs to (a sweep
job, an HTTP request, or a batch on a batcher worker thread).  Spans are
kept in a list and written out once, when the run ends.

A layer's self time is its span's duration minus the time its child
spans cover (:func:`self_times`).

A counted method (:meth:`Tracer.count_method`) records no span: the
change of a counter over each call is added to the enclosing span's
root, so a counter is read where the program increments it.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: one recorded span: (id, parent, root, name, start, end, extra)
Span = Tuple[int, Optional[int], int, str, float, float, Optional[Dict[str, Any]]]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: root id -> {count name: total}
        self.counts: Dict[int, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._tls = threading.local()
        self._ids = itertools.count(1)
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------------

    def next_root(self, root_id: int) -> None:
        """Make the calling thread's next top-level span use ``root_id``
        (a request or job id the caller can join on)."""
        self._tls.hint = root_id

    def _wrapper(self, fn, name: str, probe=None, finish=None):
        tls, ids, spans, clock = self._tls, self._ids, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            stack = getattr(tls, "stack", None)
            if stack is None:
                stack = tls.stack = []
            sid = next(ids)
            if stack:
                parent, root = stack[-1]
            else:
                parent, root = None, getattr(tls, "hint", None) or sid
                tls.hint = None
            token = probe(args) if probe is not None else None
            stack.append((sid, root))
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                extra = finish(token, args, result) if finish is not None else None
                spans.append((sid, parent, root, name, start, end, extra))

        traced.__wrapped__ = fn
        return traced

    def wrap_method(self, cls, attr: str, name: str, probe=None, finish=None) -> None:
        """Trace ``cls.attr`` (plain, class or static method)."""
        original = cls.__dict__[attr]
        if isinstance(original, (classmethod, staticmethod)):
            kind = type(original)
            wrapped = kind(self._wrapper(original.__func__, name, probe, finish))
        else:
            wrapped = self._wrapper(original, name, probe, finish)
        setattr(cls, attr, wrapped)
        self._undo.append(lambda: setattr(cls, attr, original))

    def wrap_function(self, modules, attr: str, name: str) -> None:
        """Trace the function ``attr`` in every module that bound it."""
        modules = [m for m in modules if hasattr(m, attr)]
        original = getattr(modules[0], attr)
        wrapped = self._wrapper(original, name)
        for module in modules:
            if getattr(module, attr) is not original:
                raise RuntimeError(f"{module.__name__}.{attr} is not the traced function")
            setattr(module, attr, wrapped)
            self._undo.append(lambda m=module: setattr(m, attr, original))

    def count_method(self, cls, attr: str, name: str, read: Callable[[tuple], int]) -> None:
        """Add the change of ``read(args)`` over each call of ``cls.attr``
        to the count ``name`` of the enclosing span's root.  Calls
        outside any span are not counted."""
        original = cls.__dict__[attr]
        tls, counts = self._tls, self.counts

        def counted(*args, **kwargs):
            before = read(args)
            try:
                return original(*args, **kwargs)
            finally:
                stack = getattr(tls, "stack", None)
                delta = read(args) - before
                if stack and delta:
                    # a root's spans all run on one thread: no lock needed
                    counts[stack[-1][1]][name] += delta

        counted.__wrapped__ = original
        setattr(cls, attr, counted)
        self._undo.append(lambda: setattr(cls, attr, original))

    def on_restore(self, undo: Callable[[], None]) -> None:
        """Run ``undo`` when :meth:`restore` is called."""
        self._undo.append(undo)

    def restore(self) -> None:
        """Put every wrapped function back."""
        while self._undo:
            self._undo.pop()()

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": self.counts}, handle)


def load_trace(path) -> Tuple[List[Span], Dict[int, Dict[str, int]]]:
    """The spans and counts :meth:`Tracer.dump` wrote."""
    with open(path) as handle:
        trace = json.load(handle)
    counts = {int(root): values for root, values in trace["counts"].items()}
    return [tuple(span) for span in trace["spans"]], counts


def self_times(spans: List[Span]) -> Dict[int, float]:
    """``{span id: seconds not covered by its child spans}``."""
    covered: Dict[int, float] = defaultdict(float)
    for sid, parent, _root, _name, start, end, _extra in spans:
        if parent is not None:
            covered[parent] += end - start
    return {sid: (end - start) - covered[sid] for sid, _p, _r, _n, start, end, _e in spans}


def by_root(spans: List[Span]) -> Dict[int, List[Span]]:
    groups: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        groups[span[2]].append(span)
    return groups
