"""Run-time span recording around calls into sumkit's modules.

The tracer replaces, while ``layers.traced()`` is open, the module
attributes that callers resolve at call time (for instance
``sumkit.methods.transform_at``, which ``summability_limit`` looks up in
its module globals) with wrappers that record a span per call, and puts
the originals back on exit.  Nothing in sumkit is edited.

A span is (name, start, end, parent, operation id, thread).  Self time of
a span is its duration minus the time covered by its direct children; the
layer of a span is the prefix of its name (``methods.transform_at`` ->
``methods``).  Aggregates are kept per span name; the first ``KEEP``
spans are also kept whole so they can be written out at the end.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

#: Spans kept whole per tracer; later spans only update the aggregates.
KEEP = 20_000


class Tracer:
    def __init__(self):
        self.spans = []                        # kept (name, start, end, parent, op, thread)
        self.calls = defaultdict(int)          # span name -> calls
        self.total = defaultdict(float)        # span name -> seconds
        self.self_time = defaultdict(float)    # span name -> seconds
        self.durations = defaultdict(list)     # span name -> per-call seconds, when asked
        self.counts = defaultdict(int)         # free-form counters
        self.top = 0.0                         # seconds covered by spans without a parent
        self.op_id = None
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack = self._stack()
        self._saved = []

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, name_of=None, after=None, keep_durations=False):
        """Wrapper recording one span per call of ``fn``.

        ``name_of(args, kwargs)`` refines the span name per call;
        ``after(result, args, kwargs)`` updates counters from the result,
        and ``after(exc, args, kwargs)`` from a raised exception.
        ``keep_durations`` keeps every call's duration for percentiles.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name if name_of is None else name_of(args, kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif threading.get_ident() != tracer._main and tracer._main_stack:
                # a pool thread working for the waiting main thread (the CLI's
                # executor): its outermost span is a child of the main thread's
                parent = tracer._main_stack[-1]
            else:
                parent = None
            frame = [span_name, 0.0]           # name, child seconds
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if after is not None:
                    after(exc, args, kwargs)
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                else:
                    tracer.top += dur
                tracer.calls[span_name] += 1
                tracer.total[span_name] += dur
                tracer.self_time[span_name] += dur - frame[1]
                if keep_durations:
                    tracer.durations[span_name].append(dur)
                if len(tracer.spans) < KEEP:
                    tracer.spans.append((span_name, start, end,
                                         None if parent is None else parent[0],
                                         tracer.op_id, threading.get_ident()))
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def count(self, key, fn, amount):
        """Wrapper that adds ``amount(result, args)`` to a counter, no span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.counts[key] += amount(result, args)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, targets):
        """targets: iterable of (owner, attribute, make_wrapper(original))."""
        for owner, attr, make in targets:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, make(original))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- summaries ---------------------------------------------------------

    def layer_self(self) -> dict:
        """Self seconds per layer (span name prefix)."""
        out = defaultdict(float)
        for name, secs in self.self_time.items():
            out[name.split(".", 1)[0]] += secs
        return dict(out)
