"""Spans and counters recorded around the benchmark's own calls into
stokesinv's layers. Nothing inside the library is instrumented: a call into
`measures.measure_report` is one span, charged to `measures`, however much of
its time is spent in `stokes` underneath."""

import contextlib
import json
import time

LAYERS = ("qstate", "stokes", "slocc", "measures", "estimator", "cli")

_NO_SPAN = contextlib.nullcontext()


class ItemFailed(Exception):
    """An item raised inside a layer or failed an output check. `layer` is
    the layer the failure is charged to."""

    def __init__(self, layer: str, message: str):
        super().__init__("%s: %s" % (layer, message))
        self.layer = layer


def span_name(fn) -> str:
    """`<layer>.<function>` from the module the function is defined in."""
    return "%s.%s" % (fn.__module__.rsplit(".", 1)[-1], fn.__name__)


class Tracer:
    """Records spans (name, start, end, parent, item) and named counts in
    memory while `enabled`; when disabled every method is a pass-through, so
    the same workload code serves the untraced and the traced run."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self.counts = {}
        self.item = None
        self._stack = []

    def call(self, fn, *args, name=None):
        """Return fn(*args). An exception it raises is re-raised as
        ItemFailed, charged to the layer `name` (default: fn's module)."""
        idx = self._open(name or span_name(fn)) if self.enabled else None
        try:
            return fn(*args)
        except Exception as exc:
            name = name or span_name(fn)
            raise ItemFailed(
                name.split(".")[0], "%s raised %s: %s" % (name, type(exc).__name__, exc)
            ) from exc
        finally:
            if idx is not None:
                self._close(idx)

    def span(self, name: str):
        """Context manager recording one span that encloses the calls made in it."""
        return self._span(name) if self.enabled else _NO_SPAN

    @contextlib.contextmanager
    def _span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.item])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, value):
        if self.enabled:
            self.counts[key] = self.counts.get(key, 0) + value

    def self_times(self) -> list:
        """Each span's duration minus the time its direct children cover.
        Children run one after another, so their durations do not overlap."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out

    def dump(self, path):
        """Write every span and count as JSON."""
        keys = ("name", "start", "end", "parent", "item")
        doc = {"spans": [dict(zip(keys, s)) for s in self.spans], "counts": self.counts}
        with open(path, "w") as fh:
            json.dump(doc, fh)
