"""In-memory span tracing for the benchmark's traced run.

Spans are recorded around calls into the library by replacing public
functions at the module attribute their caller looks up, so that
``ttnborn.training.push_qr`` and ``ttnborn.ttn.push_qr`` are two wraps of one
function.  A span is ``[name, start, end, parent, amount]``: ``parent`` is
the index of the enclosing span (-1 at top level) and ``amount`` a per-call
quantity such as rows or computed flops.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools

# Spans whose name starts with this are the benchmark's phases.
PHASE_PREFIX = "phase."


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.spans = []
        self.active = True
        self._stack = []
        self._patched = []     # (owner, attribute, original)

    def _open(self, name, amount):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        span = [name, self.clock(), None, parent, amount]
        self.spans.append(span)
        return span

    def _close(self, span):
        span[2] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span around a block of the benchmark's own code."""
        span = self._open(name, 0)
        try:
            yield
        finally:
            self._close(span)

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (used around correctness checks)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def _wrap(self, fn, name, amount):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = self._open(name, amount(args) if amount else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
        return wrapper

    def install(self, targets):
        """Wrap ``(owner, attribute, span name, amount)`` targets in place."""
        for owner, attr, name, amount in targets:
            original = getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, amount))

    def uninstall(self):
        """Restore every wrapped attribute; returns the (owner, attr, original)
        list so the caller can verify the restoration."""
        restored = list(self._patched)
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        return restored


def summarize(spans):
    """Per-name totals, and per-phase self time of every layer.

    Returns ``(layers, phases)``.  ``layers[name]`` has ``self``, ``incl``,
    ``calls`` and ``amount``.  ``phases[phase][name]`` is the self time of
    ``name`` inside the top-level phase span ``phase``; the phase's own
    self time is the part no wrapped layer accounts for.
    """
    child_time = [0.0] * len(spans)
    phase_of = [None] * len(spans)
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            phase_of[i] = phase_of[parent]
        if name.startswith(PHASE_PREFIX):
            phase_of[i] = name
    layers, phases = {}, {}
    for i, (name, start, end, parent, amount) in enumerate(spans):
        duration = end - start
        own = duration - child_time[i]
        entry = layers.setdefault(name, {"self": 0.0, "incl": 0.0,
                                         "calls": 0, "amount": 0})
        entry["self"] += own
        entry["incl"] += duration
        entry["calls"] += 1
        entry["amount"] += amount
        if phase_of[i] is not None:
            per_phase = phases.setdefault(phase_of[i], {})
            per_phase[name] = per_phase.get(name, 0.0) + own
    return layers, phases
