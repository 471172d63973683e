"""Outside-in tracer: wraps the public functions of every ``vncalc`` module.

Nothing inside ``vncalc`` is edited.  ``Tracer.install`` replaces each
public function of the traced modules with a wrapper that records a span
(name, start, end, parent) and rebinds the wrapper in *every* ``vncalc``
module that holds the original: ``from .element import compose`` copies the
reference into ``verify``, ``constructions``, ``search`` and
``expressions``, so patching ``element`` alone would miss most calls.

Two methods are wrapped as well: ``Word.__post_init__`` (counted only; it
runs about 1.5 M times in one verify grid, too often for a span each) and
``PartitionSet.from_words`` (a span named ``words.from_words``).

Spans are kept in flat arrays and written out once, by ``write``; the
per-layer figures are computed afterwards by ``summarize``.

``StepClock`` uses the same rebinding for untraced runs: it records only
the return time of each call to a few named functions, which cuts a long
workload into short steps.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from array import array
from collections import Counter, defaultdict

MODULES = (
    "words",
    "element",
    "constructions",
    "verify",
    "search",
    "expressions",
    "render",
    "cli",
)

_CLOCK = time.perf_counter


def _public_functions(module):
    """(attribute, function) pairs defined in the module itself."""
    for attr, value in sorted(vars(module).items()):
        if (
            not attr.startswith("_")
            and inspect.isfunction(value)
            and value.__module__ == module.__name__
        ):
            yield attr, value


def rebind(original, replacement, undo_log: list) -> None:
    """Point every ``vncalc`` module attribute that holds ``original`` at ``replacement``.

    Each change is logged in ``undo_log`` as (module, attribute, old value).
    """
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "vncalc" or modname.startswith("vncalc.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                undo_log.append((module, attr, value))
                setattr(module, attr, replacement)


def undo(undo_log: list) -> None:
    """Restore, newest first, every attribute logged by ``rebind``."""
    while undo_log:
        owner, attr, value = undo_log.pop()
        setattr(owner, attr, value)


class StepClock:
    """Return times of every call to a few ``vncalc`` functions.

    A workload whose client calls are long (a whole verify suite, a whole
    ``grow_ball``) is cut into steps at each return from these functions,
    so that its latency figures come from thousands of short steps rather
    than from a handful of long calls.  Used as a context manager around
    the timed body; it costs one clock read per step.
    """

    def __init__(self, names: tuple[str, ...]):
        self.names = names  # "module.function", e.g. "element.compose"
        self.ends = array("d")
        self._undo: list = []

    def __enter__(self) -> StepClock:
        for name in self.names:
            module, attr = name.split(".")
            fn = getattr(importlib.import_module(f"vncalc.{module}"), attr)
            rebind(fn, self._stamped(fn), self._undo)
        return self

    def _stamped(self, fn):
        ends = self.ends

        @functools.wraps(fn)
        def stamped(*args, **kwargs):
            result = fn(*args, **kwargs)
            ends.append(_CLOCK())
            return result

        return stamped

    def __exit__(self, *exc) -> None:
        undo(self._undo)

    def steps(self, start: float, end: float) -> list[float]:
        """Durations between start, each recorded return, and end."""
        marks = [start, *self.ends, end]
        return [marks[i + 1] - marks[i] for i in range(len(marks) - 1)]


class Tracer:
    """Span recorder for one traced repetition.  Not re-entrant across threads."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _wrap(self, name: str, fn, after=None):
        """A span-recording wrapper; ``after(args, kwargs, result, seconds)`` adds counts."""
        name_id = self._name_id(name)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_start)
            span_name.append(name_id)
            span_parent.append(stack[-1])
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(idx)
            span_start[idx] = _CLOCK()
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = _CLOCK()
                stack.pop()
            if after is not None:
                after(args, kwargs, result, span_end[idx] - span_start[idx])
            return result

        return traced

    # -- per-function counters ----------------------------------------------

    def _after_compose(self, args, kwargs, result, seconds):
        g, h = args[0], args[1]
        c = self.counters
        c["element.compose.rows_in"] += len(g.images) + len(h.images)
        c["element.compose.pair_work"] += len(g.images) * len(h.images)
        c["element.compose.rows_out"] += len(result.images)

    def _canonicalize(self, fn):
        # canonicalize accepts any iterable; materialize it so the rows can
        # be counted, then hand the list on unchanged.
        counters = self.counters

        def counted(pairs, alphabet):
            rows = list(pairs)
            result = fn(rows, alphabet)
            merged = len(rows) - len(result.images)
            counters["element.canonicalize.merges"] += merged // (alphabet.degree - 1)
            peak = "element.canonicalize.peak_rows"
            counters[peak] = max(counters[peak], len(rows))
            return result

        return counted

    def _after_run_suites(self, args, kwargs, result, seconds):
        which = args[0] if args else kwargs["which"]
        self.counters[f"verify.{which}.checks"] += len(result)
        self.counters[f"verify.{which}.s"] += seconds

    def _after_grow_ball(self, args, kwargs, result, seconds):
        self.counters["search.fresh"] += len(result) - 1

    def _after_save_ball(self, args, kwargs, result, seconds):
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.counters["search.ball_bytes"] += os.path.getsize(path)

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        modules = {m: importlib.import_module(f"vncalc.{m}") for m in MODULES}
        after = {
            "element.compose": self._after_compose,
            "verify.run_suites": self._after_run_suites,
            "search.grow_ball": self._after_grow_ball,
            "search.save_ball": self._after_save_ball,
        }
        for short, module in modules.items():
            for attr, fn in list(_public_functions(module)):
                name = f"{short}.{attr}"
                inner = self._canonicalize(fn) if name == "element.canonicalize" else fn
                rebind(fn, self._wrap(name, inner, after.get(name)), self._undo)

        words = modules["words"]
        word_cls, partition_cls = words.Word, words.PartitionSet

        post_init = word_cls.__dict__["__post_init__"]
        counters = self.counters

        def counted_post_init(self_):
            counters["words.word_new.calls"] += 1
            post_init(self_)

        self._undo.append((word_cls, "__post_init__", post_init))
        word_cls.__post_init__ = counted_post_init

        from_words = partition_cls.__dict__["from_words"]
        self._undo.append((partition_cls, "from_words", from_words))
        partition_cls.from_words = classmethod(
            self._wrap("words.from_words", from_words.__func__)
        )

    def uninstall(self) -> None:
        undo(self._undo)

    # -- output ---------------------------------------------------------------

    def write(self, stem: str) -> None:
        """Write ``<stem>.json`` (names, layout) and ``<stem>.bin`` (the arrays)."""
        arrays = (
            ("name", self.span_name),
            ("parent", self.span_parent),
            ("start", self.span_start),
            ("end", self.span_end),
        )
        with open(stem + ".bin", "wb") as fh:
            for _, arr in arrays:
                arr.tofile(fh)
        header = {
            "spans": len(self.span_start),
            "names": self.names,
            "arrays": [[key, arr.typecode, arr.itemsize] for key, arr in arrays],
            "clock": "time.perf_counter, seconds",
            "parent": "-1 for a span with no traced caller",
        }
        with open(stem + ".json", "w") as fh:
            json.dump(header, fh)

    def summarize(self) -> dict[str, dict[str, float]]:
        """Per traced name: calls, total_s (outermost spans only) and self_s.

        A span's self time is its duration minus its direct children's
        durations; spans nest strictly because the workload is single-threaded.
        """
        n = len(self.span_start)
        names, parents = self.span_name, self.span_parent
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
        stats: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for i in range(n):
            name_id = names[i]
            row = stats[self.names[name_id]]
            row["calls"] += 1
            row["self_s"] += dur[i] - child[i]
            p = parents[i]
            while p >= 0 and names[p] != name_id:
                p = parents[p]
            if p < 0:
                row["total_s"] += dur[i]
        return dict(stats)

    def children_of(self, parent_name: str, child_name: str) -> int:
        """Number of ``child_name`` spans whose direct parent is a ``parent_name`` span."""
        try:
            pid = self.names.index(parent_name)
            cid = self.names.index(child_name)
        except ValueError:
            return 0
        names, parents = self.span_name, self.span_parent
        return sum(
            1
            for i in range(len(names))
            if names[i] == cid and parents[i] >= 0 and names[parents[i]] == pid
        )


def load_spans(stem: str) -> dict[str, object]:
    """Read a span file pair written by ``Tracer.write``."""
    with open(stem + ".json") as fh:
        header = json.load(fh)
    out: dict[str, object] = {"names": header["names"]}
    with open(stem + ".bin", "rb") as fh:
        for key, typecode, _ in header["arrays"]:
            arr = array(typecode)
            arr.fromfile(fh, header["spans"])
            out[key] = arr
    return out
