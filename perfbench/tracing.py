"""Span recorder and wrapper installer used by the traced benchmark run.

Spans are recorded from the benchmark's own files: :meth:`Tracer.wrap`
replaces a public function or method with a wrapper that opens a span
around the call.  Nothing under ``src/`` knows it is being traced.

A span has a name, start, end, the span it ran inside and the id of the
op (training step, request, sweep run) it belongs to.  Spans live in
memory and are written out by :meth:`Tracer.flush`:

* names in ``Tracer.keep`` are kept one by one, with their timestamps,
  because the analysis needs their order (step phases, sweep markers);
* every other span is folded into a total per ``(name, root, op)`` —
  count, duration and self time — so a step's ~5,000 engine spans cost
  a dict update each instead of a record each.  ``root`` is the
  outermost open span, which tells a training step's ops from the eval
  or probe ops of the same epoch.

Self time is a span's duration minus the time its child spans of the
same family cover; the family is the name up to its first dot.  So a
``Conv2d`` span's self time still holds the engine ops it ran (they
are the ``tensor`` family), while an engine op's self time excludes the
ops its backward rule applied.
"""

import json
import os
import threading
import time


class Tracer:
    """Per-thread span stacks plus in-memory totals."""

    def __init__(self, keep=()):
        self.keep = frozenset(keep)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed = []  # (owner, attribute, original)
        self.totals = {}  # (name, root, op) -> [count, duration_s, self_s]
        self.counts = {}  # (name, root, op) -> count
        self.spans = []  # [name, root, op, start_wall, end_wall]
        self.anchor = (time.time(), time.perf_counter())

    # -- per-thread state ------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def op(self):
        return getattr(self._local, "op", None)

    @op.setter
    def op(self, value):
        self._local.op = value

    def root(self):
        stack = self._stack()
        return stack[0][0] if stack else None

    def inside(self, prefix):
        """True when an open span of this thread starts with ``prefix``."""
        return any(frame[0].startswith(prefix) for frame in self._stack())

    # -- spans -------------------------------------------------------------
    def begin(self, name):
        self._stack().append([name, name.split(".", 1)[0], time.perf_counter(), 0.0])

    def cancel(self):
        """Drop the innermost open span without recording it."""
        self._stack().pop()

    def end(self, name=None):
        """Close the innermost span, optionally renaming it."""
        now = time.perf_counter()
        stack = self._stack()
        frame = stack.pop()
        duration = now - frame[2]
        for parent in reversed(stack):
            if parent[1] == frame[1]:
                parent[3] += duration
                break
        name = name or frame[0]
        root = stack[0][0] if stack else name
        key = (name, root, self.op)
        with self._lock:
            if name in self.keep:
                self.spans.append([name, root, self.op, self.wall(frame[2]), self.wall(now)])
            total = self.totals.get(key)
            if total is None:
                self.totals[key] = [1, duration, duration - frame[3]]
            else:
                total[0] += 1
                total[1] += duration
                total[2] += duration - frame[3]

    def count(self, name):
        key = (name, self.root(), self.op)
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + 1

    def mark(self, name):
        """A zero-length span: one timestamped event."""
        now = time.time()
        with self._lock:
            self.spans.append([name, self.root() or name, self.op, now, now])

    def wall(self, perf):
        return self.anchor[0] + (perf - self.anchor[1])

    # -- wrappers ----------------------------------------------------------
    def wrap(self, owner, attribute, name):
        """Replace ``owner.attribute`` by a wrapper recording span ``name``."""
        self.replace(owner, attribute, self.spanned(self._original(owner, attribute), name))

    def spanned(self, function, name):
        """``function`` wrapped in a span named ``name``."""

        def wrapper(*args, **kwargs):
            self.begin(name)
            try:
                return function(*args, **kwargs)
            finally:
                self.end()

        return wrapper

    @staticmethod
    def _original(owner, attribute):
        # A class's own attribute, not one inherited from a base class.
        return owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)

    def replace(self, owner, attribute, value):
        """Set ``owner.attribute`` to ``value`` until :meth:`uninstall`."""
        self._installed.append((owner, attribute, self._original(owner, attribute)))
        setattr(owner, attribute, value)

    def uninstall(self):
        """Restore every replaced attribute (newest first)."""
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    # -- output ------------------------------------------------------------
    def flush(self, path):
        """Write the recorded spans and totals to ``path`` and forget them."""
        with self._lock:
            payload = {
                "pid": os.getpid(),
                "spans": self.spans,
                "totals": [[*key, *value] for key, value in self.totals.items()],
                "counts": [[*key, value] for key, value in self.counts.items()],
            }
            self.spans, self.totals, self.counts = [], {}, {}
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(payload, fh, default=str)
        os.replace(tmp, path)


def install_modules(tracer, module_base, categories):
    """Span every ``Module.__call__``.

    The outermost call of a model is ``nn.forward``; a loss is
    ``nn.loss`` wherever it is called; other layers are named by
    ``categories`` (``nn.module`` for containers and the rest).
    """
    inner = module_base.__dict__["__call__"]

    def call(module, *args, **kwargs):
        name = categories.get(type(module), "nn.module")
        if name != "nn.loss" and not tracer.inside("nn."):
            name = "nn.forward"
        tracer.begin(name)
        try:
            return inner(module, *args, **kwargs)
        finally:
            tracer.end()

    tracer.replace(module_base, "__call__", call)


class Trace:
    """Merged view over one or more flushed trace files."""

    def __init__(self, paths):
        self.spans, self.totals, self.counts = [], [], []
        for path in paths:
            with open(path) as fh:
                payload = json.load(fh)
            self.spans += payload["spans"]
            self.totals += payload["totals"]
            self.counts += payload["counts"]

    #: Column of each field in a flushed totals row ``[name, root, op, ...]``.
    FIELDS = {"count": 3, "duration": 4, "self": 5}

    def total(self, name, root=None, op=None, field="duration"):
        """Sum of one field (count, duration or self time) over matching totals.

        ``root`` restricts to spans under that outermost span; ``op`` is
        a predicate on the op id.
        """
        index = self.FIELDS[field]
        return sum(
            row[index]
            for row in self.totals
            if row[0] == name
            and (root is None or row[1] == root)
            and (op is None or op(row[2]))
        )

    def per_call_ms(self, name, root=None):
        """``(mean milliseconds per span, number of spans)``."""
        calls = self.total(name, root=root, field="count")
        return (self.total(name, root=root) / calls * 1e3 if calls else float("nan")), calls

    def per_op(self, name):
        """``{op: total seconds}`` of one span name."""
        out = {}
        for row in self.totals:
            if row[0] == name:
                out[row[2]] = out.get(row[2], 0.0) + row[self.FIELDS["duration"]]
        return out

    def named(self, name):
        return [span for span in self.spans if span[0] == name]
