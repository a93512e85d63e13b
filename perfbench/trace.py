"""In-memory span tracer installed around the public calls of each layer.

The tracer never touches ``src/``: :func:`install` rebinds module
attributes and class methods of the already-imported ``repro`` packages to
thin wrappers, so every call site — including ones that did
``from module import name`` — goes through a span.  A span carries a name,
start, end, its parent span and a request id; spans live in memory and are
written out once, at exit (:meth:`Tracer.dump`).

Forked children (the sharded-synthesis workers) inherit the wrappers; a
span that ends in a process other than the tracer's owner is appended to
``spans-<pid>.jsonl`` in the spill directory at once, because such workers
leave through ``os._exit`` and never run exit hooks.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path


@dataclasses.dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    rid: str
    pid: int


class Tracer:
    """Records spans and counters; one per process."""

    def __init__(self, spill_dir: str | Path | None = None) -> None:
        self.pid = os.getpid()
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self.enabled = True
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._rids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            with self._lock:
                self.counters[name] += amount

    def wrap(self, fn, name: str, count=None, on_result=None):
        """``fn`` wrapped in a span named ``name``.

        ``count(args, kwargs)`` returns extra ``{counter: amount}`` to add
        per call; ``on_result(tracer, result, args)`` harvests counters from
        the return value.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            parent, rid = stack[-1] if stack else (None, None)
            if rid is None:
                rid = f"{os.getpid()}-{next(self._rids)}"
            sid = next(self._ids)
            stack.append((sid, rid))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self._record(Span(sid, parent, name, start, end, rid, os.getpid()))
            self.count(f"{name}.calls")
            if count is not None:
                for key, amount in count(args, kwargs).items():
                    self.count(key, amount)
            if on_result is not None:
                on_result(self, result, args)
            return result

        return traced

    def counting(self, fn, name: str):
        """``fn`` wrapped to bump counter ``name`` only (for hot hooks)."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return counted

    def _record(self, span: Span) -> None:
        if span.pid != self.pid:
            if self.spill_dir is not None:
                line = json.dumps(dataclasses.asdict(span)) + "\n"
                path = self.spill_dir / f"spans-{span.pid}.jsonl"
                with open(path, "a", encoding="utf-8") as fh:
                    fh.write(line)
            return
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def discarding(self):
        """Trace as usual, then drop what was recorded (overhead baselines;
        only while no other thread is recording)."""
        mark, counters = len(self.spans), dict(self.counters)
        try:
            yield
        finally:
            with self._lock:
                del self.spans[mark:]
                self.counters = defaultdict(float, counters)

    # -- output -------------------------------------------------------------

    def all_spans(self) -> list[Span]:
        """Own spans plus those spilled by forked children."""
        spans = list(self.spans)
        if self.spill_dir is not None:
            for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
                with open(path, encoding="utf-8") as fh:
                    spans.extend(Span(**json.loads(line)) for line in fh)
        return spans

    def document(self) -> dict:
        """Every span and counter, as plain JSON-able data."""
        return {
            "spans": [dataclasses.asdict(s) for s in self.all_spans()],
            "counters": dict(self.counters),
        }

    def dump(self, path: str | Path) -> None:
        """Write :meth:`document` to ``path``."""
        Path(path).write_text(json.dumps(self.document()), encoding="utf-8")


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name: Σ (duration − time covered by its direct children).

    Children of one span run on the parent's thread, one after another, so
    the time they cover is the sum of their durations (clipped to the
    parent, in case a clock step made one overhang it).
    """
    covered: dict[tuple[int, int], float] = defaultdict(float)
    by_id = {(s.pid, s.sid): s for s in spans}
    for s in spans:
        if s.parent is None:
            continue
        parent = by_id.get((s.pid, s.parent))
        if parent is None:
            continue
        lo, hi = max(s.start, parent.start), min(s.end, parent.end)
        covered[(s.pid, s.parent)] += max(0.0, hi - lo)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += max(0.0, (s.end - s.start) - covered[(s.pid, s.sid)])
    return dict(out)


# -- installation -------------------------------------------------------------


def _rebind(attr: str, original, replacement) -> None:
    """Point every loaded ``repro`` module's binding of ``original`` —
    the defining module's and every ``from module import attr`` copy — at
    ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        if module.__dict__.get(attr) is original:
            setattr(module, attr, replacement)


def wrap_function(tracer: Tracer, target: str, name: str, **hooks) -> None:
    """Trace the module-level function ``target`` (``"pkg.mod:func"``)."""
    module_name, attr = target.split(":")
    original = getattr(importlib.import_module(module_name), attr)
    _rebind(attr, original, tracer.wrap(original, name, **hooks))


def wrap_method(
    tracer: Tracer, target: str, name: str, counter_only: bool = False, **hooks
) -> None:
    """Trace method ``target`` (``"pkg.mod:Class.method"``) on the class."""
    module_name, path = target.split(":")
    cls_name, meth = path.split(".")
    cls = getattr(importlib.import_module(module_name), cls_name)
    raw = cls.__dict__[meth]
    if isinstance(raw, classmethod):
        setattr(cls, meth, classmethod(tracer.wrap(raw.__func__, name, **hooks)))
    elif counter_only:
        setattr(cls, meth, tracer.counting(raw, name))
    else:
        setattr(cls, meth, tracer.wrap(raw, name, **hooks))
