"""Span tracing from outside the simulator: wrap public layer calls.

The benchmark times the simulator as a black box. For the traced run it
replaces a list of public functions and methods (:class:`Target`) with
wrappers that record one span per call -- name, start, end and the
enclosing wrapped call -- into flat in-memory columns, and restores the
originals afterwards. Nothing under ``src/`` knows it is being traced.

Spans nest because every wrapped call is synchronous: a generator such as
``WooF.scan`` is drained inside its span (``eager``) so that the reads it
performs are timed where they happen. A ``leaf`` span records its nested
wrapped calls as counts only, which keeps per-entry reads inside a scan
from dominating the trace. ``count`` targets record no span at all.
"""

from __future__ import annotations

import importlib
import os
import time
from array import array
from dataclasses import dataclass
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional, Sequence

from harness import fold_self_times

#: Extra amounts a target derives from one call: ``(args, result) -> {name: amount}``.
Measure = Callable[[tuple[Any, ...], Any], dict[str, float]]

ROOT_LAYER = "unattributed"


@dataclass(frozen=True)
class Target:
    """One public callable to wrap.

    ``attr`` is ``"function"`` or ``"Class.method"`` inside ``module``;
    patch the module that *calls* a function when the caller imported it
    by name (``from x import f`` binds its own reference).
    """

    module: str
    attr: str
    name: str
    layer: str
    mode: str = "span"  # "span" | "leaf" | "count"
    eager: bool = False
    keep_instance: bool = False
    measure: Optional[Measure] = None


class SpanRecorder:
    """In-memory span columns plus per-name call counts and amounts."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.amounts: dict[str, float] = {}
        self.instances: dict[str, dict[int, Any]] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.span_names = array("i")
        self.parents = array("i")
        self.stack: list[int] = [-1]
        self.suppressed = 0
        self._durations: Optional[list[list[float]]] = None

    def name_id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._ids[name] = nid
            self.names.append(name)
            self.layers.append(layer)
            self.calls.append(0)
        elif self.layers[nid] != layer:
            raise ValueError(f"span {name!r} bound to two layers")
        return nid

    # -- queries ------------------------------------------------------------

    def count(self, name: str) -> int:
        nid = self._ids.get(name)
        return self.calls[nid] if nid is not None else 0

    def durations(self, name: str) -> list[float]:
        """Durations of every span with this name (one pass, then cached)."""
        if self._durations is None:
            by_id: list[list[float]] = [[] for _ in self.names]
            starts, ends = self.starts, self.ends
            for i, nid in enumerate(self.span_names):
                by_id[nid].append(ends[i] - starts[i])
            self._durations = by_id
        nid = self._ids.get(name)
        return self._durations[nid] if nid is not None else []

    def inclusive_s(self, *names: str) -> float:
        return float(sum(sum(self.durations(n)) for n in names))

    def self_times(self) -> dict[str, float]:
        layers = [self.layers[nid] for nid in self.span_names]
        return fold_self_times(self.starts, self.ends, self.parents, layers)

    @property
    def n_spans(self) -> int:
        return len(self.span_names)

    def write(self, path: str) -> None:
        """Dump the spans as one ``.npz``: columns plus the name table.

        ``name[i]`` indexes ``names``/``layers``; ``parent[i]`` is the
        enclosing span's index or -1; times are ``perf_counter`` seconds.
        """
        import numpy as np

        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        np.savez(
            path,
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            name=np.frombuffer(self.span_names, dtype=np.int32),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            names=np.array(self.names),
            layers=np.array(self.layers),
        )

    # -- the root span ----------------------------------------------------------

    @contextmanager
    def root(self, name: str = "run") -> Iterator[None]:
        """The span that encloses one traced run of a workload."""
        if len(self.stack) != 1:
            raise RuntimeError("root span opened inside another span")
        nid = self.name_id(name, ROOT_LAYER)
        self.calls[nid] += 1
        idx = len(self.span_names)
        self.span_names.append(nid)
        self.parents.append(-1)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        try:
            yield
        finally:
            self.ends[idx] = time.perf_counter()
            self.stack.pop()


def _wrap(rec: SpanRecorder, fn: Callable[..., Any], target: Target) -> Callable[..., Any]:
    nid = rec.name_id(target.name, target.layer)
    calls = rec.calls
    if target.mode == "count":
        def counted(*args: Any, **kwargs: Any) -> Any:
            calls[nid] += 1
            return fn(*args, **kwargs)
        return counted
    if target.mode not in ("span", "leaf"):
        raise ValueError(f"unknown target mode {target.mode!r}")
    leaf = target.mode == "leaf"
    eager = target.eager
    measure = target.measure
    seen = rec.instances.setdefault(target.name, {}) if target.keep_instance else None
    amounts = rec.amounts
    starts, ends, span_names, parents = rec.starts, rec.ends, rec.span_names, rec.parents
    stack = rec.stack
    clock = time.perf_counter

    def traced(*args: Any, **kwargs: Any) -> Any:
        calls[nid] += 1
        if seen is not None:
            seen[id(args[0])] = args[0]
        if rec.suppressed:
            result = fn(*args, **kwargs)
            if eager:
                result = list(result)
        else:
            idx = len(span_names)
            span_names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            if leaf:
                rec.suppressed += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                if eager:
                    result = list(result)
            finally:
                ends[idx] = clock()
                stack.pop()
                if leaf:
                    rec.suppressed -= 1
        if measure is not None:
            for key, amount in measure(args, result).items():
                amounts[key] = amounts.get(key, 0.0) + amount
        return result

    return traced


@contextmanager
def installed(rec: SpanRecorder, targets: Sequence[Target]) -> Iterator[SpanRecorder]:
    """Patch every target for the duration of the block, then restore."""
    restore: list[tuple[Any, str, Any]] = []
    try:
        for target in targets:
            owner: Any = importlib.import_module(target.module)
            *path, attr = target.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            if isinstance(original, (classmethod, staticmethod)):
                replacement: Any = type(original)(_wrap(rec, original.__func__, target))
            else:
                replacement = _wrap(rec, original, target)
            setattr(owner, attr, replacement)
            restore.append((owner, attr, original))
        yield rec
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
