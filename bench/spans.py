"""Outside-in span recorder for the traced benchmark run.

The recorder replaces public functions of the ``meanfield`` modules with
wrappers that record one span per call: (name, start, end, parent).  Each
function is patched where its caller looks it up (for example
``engine.nat_to_mean``, not ``expfam.nat_to_mean``, because the engine
imported the name), so the program itself is not modified.  Spans are kept
in flat arrays in memory, written out with ``dump``, and the originals are
restored on exit.

Self time of a span is its duration minus the durations of its direct
children; ``summary`` aggregates calls, inclusive and self time per name.
"""

from __future__ import annotations

import json
import time
from array import array
from functools import wraps


class SpanRecorder:
    """Wraps callables, records spans, restores the originals on exit."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors: dict[str, int] = {}
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # -- patching -----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, errors=(), counter: str = "") -> None:
        """Replace ``owner.attr`` by a recording wrapper named ``name``.

        Exceptions of the types in ``errors`` that leave the call are counted
        in ``self.errors[counter]``; one exception object is counted at most
        once per counter, however many wrapped calls it passes through.
        """
        original = getattr(owner, attr)
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        rec = self
        counted = tuple(errors)

        @wraps(original)
        def wrapper(*args, **kwargs):
            idx = len(rec.start)
            rec.name.append(nid)
            rec.parent.append(rec._stack[-1])
            rec.start.append(0.0)
            rec.end.append(0.0)
            rec._stack.append(idx)
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            except counted as exc:
                seen = exc.__dict__.setdefault("_span_counters", set())
                if counter not in seen:
                    seen.add(counter)
                    rec.errors[counter] = rec.errors.get(counter, 0) + 1
                raise
            finally:
                rec.end[idx] = time.perf_counter()
                rec.start[idx] = t0
                rec._stack.pop()

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- results ------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per name: calls, inclusive seconds and self seconds."""
        n = len(self.start)
        child = [0.0] * n
        dur = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        out = {nm: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for nm in self.names}
        for i, nid in enumerate(self.name):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["incl_s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
        return out

    def dump(self, path: str) -> None:
        """Write every span: one JSON header line, then the four arrays in native byte order."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": ["name:int32", "parent:int32", "start:float64", "end:float64"],
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
