"""In-memory span tracing for the repository benchmark.

Spans are recorded by wrappers that the benchmark installs around the
public functions of each layer (see :data:`PROBES`); nothing inside
``src/`` knows about them.  A span records its name (the layer), its start
and end on ``time.perf_counter`` (``CLOCK_MONOTONIC`` on Linux, so spans
written by a subprocess line up with the parent's), the process CPU time
it consumed, ``VmRSS`` at exit, ``VmHWM`` at exit after the peak was reset
at entry (``5`` written to ``/proc/self/clear_refs``), the span that
caused it, and work counts.  Spans stay in memory and are written out as
JSON lines when the run ends.

A layer's self time is its span's duration minus the part of that interval
its child spans cover; :func:`layer_metrics` sums self times per layer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

CLOCK = time.perf_counter


# --------------------------------------------------------------------------- #
# /proc readers
# --------------------------------------------------------------------------- #
def proc_status_kb(pid: int | str = "self") -> dict[str, int]:
    """``VmRSS`` and ``VmHWM`` of a process in KiB (empty if unreadable)."""
    out: dict[str, int] = {}
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(("VmRSS:", "VmHWM:")):
                    key, value = line.split(":", 1)
                    out[key] = int(value.split()[0])
    except OSError:
        pass
    return out


def reset_peak(pid: int | str = "self") -> bool:
    """Reset the process's ``VmHWM`` to its current RSS; False if refused."""
    try:
        with open(f"/proc/{pid}/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds consumed so far by another process."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


# --------------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------------- #
@dataclass
class Span:
    """One timed call into a layer."""

    id: str
    name: str
    parent: str | None
    start: float
    end: float = 0.0
    cpu: float = 0.0
    rss_kb: int = 0
    peak_kb: int = 0
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        """Duration in seconds."""
        return self.end - self.start


class Tracer:
    """Collects spans in memory; nests them per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._next = 0
        self._lock = threading.Lock()
        self._pid = os.getpid()

    def new_id(self) -> str:
        """A span id unique across processes: ``"<pid>:<counter>"``."""
        with self._lock:
            self._next += 1
            return f"{self._pid}:{self._next}"

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, **counts: float) -> Iterator[Span]:
        """Time the enclosed block as one span of ``name``."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is not None:  # keep the parent's peak before resetting it
            parent.peak_kb = max(parent.peak_kb, proc_status_kb().get("VmHWM", 0))
        reset_peak()
        span = Span(self.new_id(), name, parent.id if parent else None, CLOCK(), counts=dict(counts))
        cpu_start = time.process_time()
        stack.append(span)
        try:
            yield span
        finally:
            stack.pop()
            span.cpu = time.process_time() - cpu_start
            span.end = CLOCK()
            status = proc_status_kb()
            span.rss_kb = status.get("VmRSS", 0)
            span.peak_kb = max(span.peak_kb, status.get("VmHWM", 0))
            if parent is not None:
                parent.peak_kb = max(parent.peak_kb, span.peak_kb)
            with self._lock:
                self.spans.append(span)

    def record(self, span: Span) -> Span:
        """Add a span measured elsewhere (a server phase, a subprocess)."""
        with self._lock:
            self.spans.append(span)
        return span

    def adopt_jsonl(self, path: Path, parent: Span | None) -> list[Span]:
        """Merge the spans a traced subprocess wrote; roots hang off ``parent``."""
        adopted = []
        if not path.exists():
            return adopted
        for line in path.read_text(encoding="utf-8").splitlines():
            span = Span(**json.loads(line))
            if span.parent is None and parent is not None:
                span.parent = parent.id
            adopted.append(self.record(span))
        return adopted

    def write_jsonl(self, path: Path, spans: list[Span] | None = None) -> None:
        """Write spans (default: all) as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans if spans is None else spans:
                handle.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def covered(interval: tuple[float, float], children: list[tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``children``."""
    lo, hi = interval
    total, cursor = 0.0, lo
    for start, end in sorted(children):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[Span]) -> dict[str, tuple[float, float]]:
    """``{span id: (self wall, self cpu)}``.

    CPU is process CPU time, so only children that ran in the same process
    (same id prefix) are subtracted from a parent's CPU.
    """
    children: dict[str, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        kids = children.get(span.id, [])
        wall = span.wall - covered((span.start, span.end), [(k.start, k.end) for k in kids])
        pid = span.id.split(":", 1)[0]
        cpu = span.cpu - sum(k.cpu for k in kids if k.id.split(":", 1)[0] == pid)
        out[span.id] = (wall, cpu)
    return out


def layer_metrics(spans: list[Span], layers: dict[str, tuple[str, ...]]) -> dict[str, float]:
    """Per-layer self wall/CPU, last RSS, highest peak and summed counts.

    ``layers`` maps each layer name to the count names it reports; a layer
    with no span reports zeros.
    """
    own = self_times(spans)
    out: dict[str, float] = {}
    for layer, count_names in layers.items():
        mine = sorted((s for s in spans if s.name == layer), key=lambda s: s.end)
        out[f"{layer}.wall_s"] = sum(own[s.id][0] for s in mine)
        out[f"{layer}.cpu_s"] = sum(own[s.id][1] for s in mine)
        measured = [s for s in mine if s.rss_kb]  # spans observed from outside have none
        out[f"{layer}.rss_mb"] = measured[-1].rss_kb / 1024.0 if measured else 0.0
        out[f"{layer}.peak_mb"] = max((s.peak_kb for s in mine), default=0) / 1024.0
        for count in count_names:
            out[f"{layer}.{count}"] = float(sum(s.counts.get(count, 0.0) for s in mine))
    return out


def root_coverage(spans: list[Span], start: float, end: float) -> float:
    """Share of ``[start, end]`` covered by root spans (no parent)."""
    roots = [(s.start, s.end) for s in spans if s.parent is None]
    return covered((start, end), roots) / max(end - start, 1e-12)


# --------------------------------------------------------------------------- #
# Probes: wrappers around each layer's public functions
# --------------------------------------------------------------------------- #
def _dir_bytes(directory: Any) -> int:
    return sum(p.stat().st_size for p in Path(directory).rglob("*") if p.is_file())


@dataclass(frozen=True)
class Probe:
    """One public function timed as a span of ``layer``.

    ``target`` is ``"module:function"`` or ``"module:Class.method"``;
    ``counts(args, kwargs, result)`` returns the work counts of one call.
    """

    layer: str
    target: str
    counts: Callable[[tuple, dict, Any], dict[str, float]] | None = None


PROBES: tuple[Probe, ...] = (
    Probe("data.outofcore", "repro.data.outofcore:ingest_csv",
          lambda a, k, r: {"rows": r.n_new_ratings}),
    Probe("data.outofcore", "repro.data.outofcore:load_outofcore",
          lambda a, k, r: {"rows": r.n_ratings}),
    Probe("data.split", "repro.data.split:RatioSplitter.split"),
    Probe("data.incremental", "repro.data.incremental:read_delta_csv",
          lambda a, k, r: {"rows": len(r)}),
    Probe("data.incremental", "repro.data.incremental:extend_split_interactions"),
    Probe("recommenders", "repro.recommenders.knn:ItemKNN.fit"),
    Probe("recommenders", "repro.recommenders.knn:ItemKNN.delta_refit"),
    Probe("preferences", "repro.preferences.generalized:GeneralizedPreference.estimate"),
    Probe("coverage", "repro.coverage.dynamic:DynamicCoverage.fit"),
    Probe("ganc.oslg", "repro.ganc.oslg:OSLGOptimizer.run"),
    Probe("ganc.sequential", "repro.ganc.incremental:SequentialAssigner.run",
          lambda a, k, r: {"users": len(a[2])}),
    Probe("ganc.snapshot", "repro.parallel.tasks:SnapshotAssignTask.__call__",
          lambda a, k, r: {"users": len(a[1]), "blocks": 1}),
    Probe("pipeline.recommend_all", "repro.pipeline.pipeline:Pipeline.recommend_all",
          lambda a, k, r: {"users": r.items.shape[0]}),
    Probe("evaluation", "repro.evaluation.evaluator:Evaluator.evaluate_recommendations"),
    Probe("pipeline.save", "repro.pipeline.pipeline:Pipeline.save",
          lambda a, k, r: {"bytes": _dir_bytes(r)}),
    Probe("pipeline.load", "repro.pipeline.pipeline:Pipeline.load"),
    Probe("serving.compile", "repro.serving.artifact:compile_artifact"),
    Probe("serving.update", "repro.serving.update:refit_pipeline"),
    Probe("serving.update", "repro.serving.update:compile_artifact_update",
          lambda a, k, r: {"rows_recomputed": r.users_recomputed,
                           "shards_skipped": r.shards_skipped}),
    Probe("serving.store", "repro.serving.store:open_store"),
    Probe("serving.store", "repro.serving.store:RecommendationStore.reload"),
)


def _wrap(tracer: Tracer, fn: Callable, probe: Probe) -> Callable:
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        with tracer.span(probe.layer) as span:
            result = fn(*args, **kwargs)
        if probe.counts is not None:
            span.counts.update(probe.counts(args, kwargs, result))
        return result

    return traced


class Installed:
    """Probes installed by :func:`install`; :meth:`remove` restores the originals."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        """Replace ``owner.name``, remembering the original."""
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def remove(self) -> None:
        """Put every original back."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def install(tracer: Tracer, probes: tuple[Probe, ...] = PROBES) -> Installed:
    """Wrap every probe target; module functions are replaced wherever a
    loaded ``repro`` module holds a reference to them."""
    installed = Installed()
    for probe in probes:
        module_name, _, path = probe.target.partition(":")
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, method = path.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[method]
            if isinstance(original, classmethod):
                installed.set(owner, method, classmethod(_wrap(tracer, original.__func__, probe)))
            else:
                installed.set(owner, method, _wrap(tracer, original, probe))
            continue
        original = getattr(module, path)
        traced = _wrap(tracer, original, probe)
        for name, loaded in list(sys.modules.items()):
            if name.split(".")[0] != "repro" or loaded is None:
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    installed.set(loaded, attr, traced)
    return installed
