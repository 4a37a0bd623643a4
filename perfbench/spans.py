"""Span recording at the library's module boundaries, for the traced run.

The library is not edited: `install` replaces public names in the library's
modules and classes with wrappers that record a span (name, start, end,
parent span, owner id) around each call, and `restore` puts the originals
back.  Field multiplications and inversions run tens of thousands of times per
curve, so they are counted per enclosing span instead of getting spans of
their own; a span per field operation would multiply the run time and hold
millions of spans in memory.

Spans live in parallel `array` columns; indices are assigned on entry, so a
parent always has a smaller index than its children.
"""

from __future__ import annotations

import functools
import gzip
import importlib
from array import array
from time import perf_counter

# (module, attribute path, span name).  A function imported by name into
# several modules is wrapped in each namespace the library calls it through.
SPAN_TARGETS = (
    ("hassecount.counting", "count_points", "counting.count_points"),
    ("hassecount.sweep", "count_points", "counting.count_points"),
    ("hassecount.counting", "quadratic_twist", "curve.quadratic_twist"),
    ("hassecount.counting", "random_point", "curve.random_point"),
    ("hassecount.counting", "bsgs_annihilator", "order.bsgs_annihilator"),
    ("hassecount.counting", "exact_order", "order.exact_order"),
    ("hassecount.order", "factorize", "integers.factorize"),
    ("hassecount.curve", "count_exhaustive", "curve.count_exhaustive"),
    ("hassecount.counting", "count_exhaustive", "curve.count_exhaustive"),
    ("hassecount.sweep", "count_exhaustive", "curve.count_exhaustive"),
    ("hassecount.curve", "Curve.__init__", "curve.Curve.__init__"),
    ("hassecount.curve", "Curve.add_points", "curve.Curve.add_points"),
    ("hassecount.curve", "Curve.scalar_mul", "curve.Curve.scalar_mul"),
    ("hassecount.exceptions", "exceptional_q_set", "exceptions.exceptional_q_set"),
    ("hassecount.exceptions", "enumerate_exceptions", "exceptions.enumerate_exceptions"),
    ("hassecount.exceptions", "verify_table1", "exceptions.verify_table1"),
    ("hassecount.sweep", "full_sweep_verify", "sweep.full_sweep_verify"),
    ("hassecount.sweep", "random_curve_counting_check", "sweep.random_curve_counting_check"),
)

# (module, attribute path, counter name): calls counted against the innermost
# open span; calls outside every span are not counted.
COUNT_TARGETS = (
    ("hassecount.finite_field", "FieldSpec.mul_enc", "finite_field.mul_enc"),
    ("hassecount.finite_field", "FieldSpec.inv_enc", "finite_field.inv_enc"),
)

# Values taken from a call's result and stored on its span.
RESULT_COUNTERS = {
    "counting.count_points": ("counting.samples_used", lambda r: r.samples_used),
    "exceptions.enumerate_exceptions": ("exceptions.records", len),
}

COUNTERS = tuple(c for _, _, c in COUNT_TARGETS) + tuple(c for c, _ in RESULT_COUNTERS.values())


class Tracer:
    """In-memory span store with per-span counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.owner = array("i")
        self.counts = {c: array("q") for c in COUNTERS}
        self.stack: list[int] = []
        self.owner_id = -1  # curve or check id stamped on new spans

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def __len__(self) -> int:
        return len(self.start)

    def enter(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.owner.append(self.owner_id)
        self.end.append(0.0)
        for col in self.counts.values():
            col.append(0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def exit(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    # -- aggregation ---------------------------------------------------------------

    def indices(self, name: str) -> list[int]:
        nid = self._ids.get(name)
        return [] if nid is None else [i for i, n in enumerate(self.name) if n == nid]

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.

        Calls run one after another on one thread, so children never overlap
        and the time they cover is the sum of their durations.
        """
        dur = self.durations()
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def nearest(self, name: str) -> list[int]:
        """Per span: index of the nearest span named `name` on its ancestor
        chain, itself included, or -1."""
        nid = self._ids.get(name, -2)
        out = [-1] * len(self)
        for i, (n, p) in enumerate(zip(self.name, self.parent)):
            out[i] = i if n == nid else (out[p] if p >= 0 else -1)
        return out

    def dump(self, path) -> None:
        """Write every span as one tab-separated line, gzip-compressed."""
        counters = list(self.counts)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("\t".join(["id", "name", "start", "end", "parent", "owner", *counters]) + "\n")
            cols = [self.counts[c] for c in counters]
            for i in range(len(self)):
                row = [i, self.names[self.name[i]], repr(self.start[i]), repr(self.end[i]),
                       self.parent[i], self.owner[i], *(col[i] for col in cols)]
                fh.write("\t".join(map(str, row)) + "\n")


def _span_wrapper(tracer: Tracer, name: str, fn):
    nid = tracer.name_id(name)
    on_result = RESULT_COUNTERS.get(name)

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        idx = tracer.enter(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(idx)
        if on_result is not None:
            tracer.counts[on_result[0]][idx] += on_result[1](result)
        return result

    return wrapped


def _count_wrapper(tracer: Tracer, counter: str, fn):
    col = tracer.counts[counter]
    stack = tracer.stack

    @functools.wraps(fn)
    def wrapped(*args):
        if stack:
            col[stack[-1]] += 1
        return fn(*args)

    return wrapped


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer: Tracer) -> list:
    """Wrap every target; returns what `restore` needs to undo it."""
    saved = []
    for module, path, name in SPAN_TARGETS:
        owner, attr = _resolve(module, path)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, _span_wrapper(tracer, name, original))
    for module, path, counter in COUNT_TARGETS:
        owner, attr = _resolve(module, path)
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, _count_wrapper(tracer, counter, original))
    return saved


def restore(saved: list) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)
