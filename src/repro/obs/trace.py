"""Distributed tracing: spans, ambient context, ring buffer, JSONL sink.

One simulated sweep crosses seven layers (request → plan → job → shard
→ kernel → cache → wire) and, when remote, two processes.  This module
gives every crossing a :class:`Span` — trace id, parent id, name,
start/end wall-times, attributes, status — and stitches them into one
tree:

* **Ambient context.**  The current span lives in a ``contextvars``
  context variable, so nested ``with span(...)`` blocks parent
  automatically across threads spawned per-request.  Boundaries that
  contextvars cannot cross carry the context explicitly:
  ``ProcessPoolExecutor`` shard tasks pickle a
  :class:`SpanContext` into the task payload and :func:`attach` it in
  the worker; HTTP requests carry a W3C-style ``traceparent`` header
  (:func:`traceparent_header` / :func:`parse_traceparent`) so a
  ``RemoteClient`` span becomes the parent of the server's job span.
* **Storage.**  Finished spans land immediately in a bounded
  in-memory ring buffer (default 4096 spans — a 10k-span flood stays
  bounded) and, when a cache directory is configured, an append-only
  JSONL sink at ``<cache>/traces/<trace_id>.jsonl``.  Sink lines are
  buffered per trace and written in one ``O_APPEND`` write, by the
  :mod:`repro.diskwriter` thread, when the span that began the chain
  in this process closes — a span with no parent, or one opened with
  an explicit ``context=`` (a driver thread's job span, a pool
  worker's shard span, a server request span) — or once the buffer
  holds ``_SINK_BUFFER_SPANS`` lines.  One write per chain is safe
  across the shard worker processes that share the directory.  A
  normal interpreter exit writes whatever is still buffered or
  queued.  The trade-off: a process killed mid-trace loses that
  trace's buffered sink lines (the ring, and so ``GET
  /v1/jobs/{id}/trace`` on a live server, is unaffected).  Sink files
  are pruned oldest-first past ``_SINK_MAX_FILES`` so long-lived
  servers do not grow without bound.
* **Rendering.**  :func:`render_trace` draws the tree with per-span
  durations and self-time (duration minus child durations) for
  ``repro-ants trace``; ``GET /v1/jobs/{id}/trace`` serves the raw
  payloads.

Tracing is on by default and cheap (a disabled or ambient-less
``child_span`` is one contextvar read); ``REPRO_ANTS_TRACE=0`` or
:func:`configure_tracing(enabled=False)` compiles it out entirely,
which is the baseline the ``bench_obs`` overhead gate compares
against.
"""

from __future__ import annotations

import atexit
import contextlib
import contextvars
import functools
import json
import os
import re
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterator, List, Optional, Sequence

from repro import diskwriter

__all__ = [
    "Span",
    "SpanContext",
    "attach",
    "child_span",
    "clear_ring",
    "configure_tracing",
    "current_context",
    "current_span",
    "find_trace_for_job",
    "parse_traceparent",
    "render_trace",
    "ring_spans",
    "span",
    "spans_for_trace",
    "trace_dir",
    "traceparent_header",
    "tracing_enabled",
]


def _env_flag(name: str, default: bool) -> bool:
    raw = os.environ.get(name)
    if raw is None:
        return default
    return raw.strip().lower() not in ("0", "false", "no", "off", "")


_DEFAULT_RING_SIZE = 4096
_SINK_MAX_FILES = 512
_SINK_PRUNE_EVERY = 100
#: A trace's buffered sink lines are written at the latest when this
#: many have accumulated, so a long-open chain keeps memory bounded.
_SINK_BUFFER_SPANS = 256


@dataclass(frozen=True)
class SpanContext:
    """The picklable identity of a span: what a child needs to parent
    under it from another thread, process, or host."""

    trace_id: str
    span_id: str

    def to_payload(self) -> Dict[str, str]:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "SpanContext":
        return cls(
            trace_id=str(payload["trace_id"]),
            span_id=str(payload["span_id"]),
        )


@dataclass
class Span:
    """One timed operation in a trace tree."""

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str] = None
    start_time: float = 0.0
    end_time: Optional[float] = None
    attributes: Dict[str, Any] = field(default_factory=dict)
    status: str = "ok"

    @property
    def context(self) -> SpanContext:
        return SpanContext(trace_id=self.trace_id, span_id=self.span_id)

    @property
    def duration(self) -> Optional[float]:
        if self.end_time is None:
            return None
        return self.end_time - self.start_time

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def set_status(self, status: str) -> None:
        self.status = status

    def to_payload(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_time": self.start_time,
            "end_time": self.end_time,
            "attributes": self.attributes,
            "status": self.status,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "Span":
        return cls(
            name=str(payload["name"]),
            trace_id=str(payload["trace_id"]),
            span_id=str(payload["span_id"]),
            parent_id=payload.get("parent_id"),
            start_time=float(payload.get("start_time") or 0.0),
            end_time=(
                None
                if payload.get("end_time") is None
                else float(payload["end_time"])
            ),
            attributes=dict(payload.get("attributes") or {}),
            status=str(payload.get("status") or "ok"),
        )


class _TraceState:
    """Process-wide tracing configuration and the finished-span ring."""

    def __init__(self) -> None:
        self.enabled = _env_flag("REPRO_ANTS_TRACE", True)
        self.sink_enabled = _env_flag("REPRO_ANTS_TRACE_SINK", True)
        self.lock = threading.Lock()
        self.ring: Deque[Span] = deque(maxlen=_DEFAULT_RING_SIZE)
        self.sink_writes = 0
        # trace_id -> JSONL lines of finished spans not yet in the sink.
        self.pending: Dict[str, List[str]] = {}


_STATE = _TraceState()


def _forget_pending_in_child() -> None:
    # A forked pool worker must not write the parent's buffered lines
    # again when its own shard span closes.
    _STATE.pending = {}


os.register_at_fork(after_in_child=_forget_pending_in_child)


@atexit.register
def _flush_pending() -> None:
    # Chains still open at interpreter exit (a daemon thread mid-job)
    # keep the lines their finished spans buffered.
    with _STATE.lock:
        pending, _STATE.pending = _STATE.pending, {}
    for trace_id, lines in pending.items():
        _sink_write(trace_id, "".join(lines))

_CURRENT: contextvars.ContextVar[Optional[SpanContext]] = (
    contextvars.ContextVar("repro_obs_span", default=None)
)


def configure_tracing(
    enabled: Optional[bool] = None,
    ring_size: Optional[int] = None,
    sink: Optional[bool] = None,
) -> None:
    """Adjust tracing at runtime (tests, benchmarks, embedders).

    ``enabled=False`` compiles tracing out: ``span()``/``child_span()``
    yield ``None`` and touch nothing.  ``ring_size`` re-bounds the
    in-memory ring (existing spans carry over up to the new bound).
    ``sink=False`` keeps the ring but stops writing JSONL files (and
    drops lines still buffered for them).
    """
    with _STATE.lock:
        if enabled is not None:
            _STATE.enabled = bool(enabled)
        if sink is not None:
            _STATE.sink_enabled = bool(sink)
            if not sink:
                _STATE.pending.clear()
        if ring_size is not None:
            if ring_size < 1:
                raise ValueError(f"ring_size must be >= 1, got {ring_size}")
            _STATE.ring = deque(_STATE.ring, maxlen=int(ring_size))


def tracing_enabled() -> bool:
    return _STATE.enabled


def current_context() -> Optional[SpanContext]:
    """The ambient span context, if any (picklable; pass across
    thread/process boundaries and :func:`attach` on the far side)."""
    return _CURRENT.get()


# The span object itself is not put in the contextvar (it would pickle
# into worker payloads); live spans are looked up by id when a child
# needs to mutate its parent.  In practice only the context is needed.
_LIVE: Dict[str, Span] = {}


def current_span() -> Optional[Span]:
    """The live ambient span object, when it belongs to this process."""
    ctx = _CURRENT.get()
    if ctx is None:
        return None
    return _LIVE.get(ctx.span_id)


def attach(context: Optional[SpanContext]) -> contextvars.Token:
    """Install ``context`` as the ambient parent (worker-process entry
    point); returns a token for ``detach`` via ``_CURRENT.reset``."""
    return _CURRENT.set(context)


def _new_trace_id() -> str:
    return uuid.uuid4().hex


def _new_span_id() -> str:
    return uuid.uuid4().hex[:16]


def _record(sp: Span, local_root: bool) -> None:
    """Ring the span now; buffer its sink line until its chain closes."""
    line = (
        json.dumps(sp.to_payload(), separators=(",", ":")) + "\n"
        if _STATE.sink_enabled
        else None
    )
    with _STATE.lock:
        _STATE.ring.append(sp)
        if line is None:
            return
        lines = _STATE.pending.setdefault(sp.trace_id, [])
        lines.append(line)
        if not local_root and len(lines) < _SINK_BUFFER_SPANS:
            return
        del _STATE.pending[sp.trace_id]
    _sink_write(sp.trace_id, "".join(lines))


@contextlib.contextmanager
def span(
    name: str,
    context: Optional[SpanContext] = None,
    **attributes: Any,
) -> Iterator[Optional[Span]]:
    """Open a span under the ambient parent (or ``context`` when
    given), make it ambient for the body, and record it on exit.

    Yields the :class:`Span` — or ``None`` when tracing is disabled,
    so instrumentation sites guard attribute writes with
    ``if sp is not None``.  An exception escaping the body marks the
    span's status ``error`` and re-raises.  A span with no parent or an
    explicit ``context`` begins a chain in this process: closing it
    writes the trace's buffered sink lines.
    """
    if not _STATE.enabled:
        yield None
        return
    parent = context if context is not None else _CURRENT.get()
    sp = Span(
        name=name,
        trace_id=parent.trace_id if parent else _new_trace_id(),
        span_id=_new_span_id(),
        parent_id=parent.span_id if parent else None,
        start_time=time.time(),
        attributes=dict(attributes),
    )
    _LIVE[sp.span_id] = sp
    token = _CURRENT.set(sp.context)
    try:
        yield sp
    except BaseException:
        sp.status = "error"
        raise
    finally:
        _CURRENT.reset(token)
        _LIVE.pop(sp.span_id, None)
        sp.end_time = time.time()
        _record(sp, local_root=context is not None or parent is None)


@contextlib.contextmanager
def child_span(name: str, **attributes: Any) -> Iterator[Optional[Span]]:
    """Like :func:`span`, but a no-op unless an ambient parent exists.

    Interior instrumentation (cache lookups, selector plans, kernel
    entries) uses this so bare calls outside any traced operation do
    not pollute the ring with orphan single-span traces — and cost one
    contextvar read.
    """
    if not _STATE.enabled or _CURRENT.get() is None:
        yield None
        return
    with span(name, **attributes) as sp:
        yield sp


# --------------------------------------------------------------------------
# Ring access


def ring_spans() -> List[Span]:
    """Snapshot of the finished-span ring, oldest first."""
    with _STATE.lock:
        return list(_STATE.ring)


def clear_ring() -> None:
    with _STATE.lock:
        _STATE.ring.clear()


# --------------------------------------------------------------------------
# JSONL sink under the cache directory


def trace_dir() -> Optional[str]:
    """``<cache>/traces``, or ``None`` when no cache dir is usable."""
    try:
        from repro.sim.cache import get_cache  # lazy: cache imports obs.metrics

        directory = get_cache().directory
    except Exception:
        return None
    if directory is None:
        return None
    return os.path.join(str(directory), "traces")


def _sink_write(trace_id: str, text: str) -> None:
    """Queue ``text`` for the trace's JSONL file, as one append.

    The file-system work runs on the :mod:`repro.diskwriter` thread.
    """
    base = trace_dir()
    if base is None:
        return
    diskwriter.submit(
        functools.partial(_sink_append, base, trace_id, text.encode("utf-8"))
    )


def _sink_append(base: str, trace_id: str, data: bytes) -> None:
    path = os.path.join(base, f"{trace_id}.jsonl")
    flags = os.O_WRONLY | os.O_APPEND | os.O_CREAT
    try:
        try:
            fd = os.open(path, flags, 0o644)
        except FileNotFoundError:
            os.makedirs(base, exist_ok=True)
            fd = os.open(path, flags, 0o644)
        try:
            os.write(fd, data)
        finally:
            os.close(fd)
    except OSError:
        return
    with _STATE.lock:
        _STATE.sink_writes += 1
        due = _STATE.sink_writes % _SINK_PRUNE_EVERY == 0
    if due:
        _prune_sink(base)


def _prune_sink(base: str) -> None:
    try:
        entries = [
            (entry.stat().st_mtime, entry.path)
            for entry in os.scandir(base)
            if entry.name.endswith(".jsonl")
        ]
    except OSError:
        return
    if len(entries) <= _SINK_MAX_FILES:
        return
    entries.sort()
    for _mtime, path in entries[: len(entries) - _SINK_MAX_FILES]:
        try:
            os.remove(path)
        except OSError:
            pass


def _sink_spans(trace_id: str) -> List[Span]:
    base = trace_dir()
    if base is None:
        return []
    diskwriter.drain()
    path = os.path.join(base, f"{trace_id}.jsonl")
    spans: List[Span] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    spans.append(Span.from_payload(json.loads(line)))
                except (ValueError, KeyError):
                    continue
    except OSError:
        return []
    return spans


def spans_for_trace(trace_id: str) -> List[Span]:
    """Every recorded span of one trace: ring ∪ sink, deduplicated by
    span id (a finished-span line in the sink wins over a ring copy)."""
    merged: Dict[str, Span] = {}
    for sp in ring_spans():
        if sp.trace_id == trace_id:
            merged[sp.span_id] = sp
    for sp in _sink_spans(trace_id):
        merged[sp.span_id] = sp
    return sorted(merged.values(), key=lambda sp: sp.start_time)


def find_trace_for_job(job_id: str) -> Optional[str]:
    """The trace id whose job span carries ``job_id`` — ring first,
    then a sink scan (cheap substring probe before JSON parsing)."""
    for sp in reversed(ring_spans()):
        if sp.attributes.get("job_id") == job_id:
            return sp.trace_id
    base = trace_dir()
    if base is None:
        return None
    try:
        entries = sorted(
            (entry.stat().st_mtime, entry.path, entry.name)
            for entry in os.scandir(base)
            if entry.name.endswith(".jsonl")
        )
    except OSError:
        return None
    needle = json.dumps(job_id)
    for _mtime, path, name in reversed(entries):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError:
            continue
        if needle in text:
            return name[: -len(".jsonl")]
    return None


# --------------------------------------------------------------------------
# W3C traceparent propagation

_TRACEPARENT_RE = re.compile(
    r"^00-([0-9a-f]{32})-([0-9a-f]{16})-[0-9a-f]{2}$"
)


def traceparent_header(context: Optional[SpanContext] = None) -> Optional[str]:
    """Render the ambient (or given) context as a ``traceparent``
    value, W3C Trace Context style: ``00-<trace>-<span>-01``."""
    ctx = context if context is not None else _CURRENT.get()
    if ctx is None:
        return None
    return f"00-{ctx.trace_id}-{ctx.span_id}-01"


def parse_traceparent(value: Optional[str]) -> Optional[SpanContext]:
    """Parse a ``traceparent`` header; ``None`` on absence/malformation
    (a bad header from an untrusted client must not fail the request)."""
    if not value:
        return None
    match = _TRACEPARENT_RE.match(value.strip().lower())
    if match is None:
        return None
    return SpanContext(trace_id=match.group(1), span_id=match.group(2))


# --------------------------------------------------------------------------
# Tree rendering for the CLI


def render_trace(spans: Sequence[Span]) -> str:
    """ASCII tree of one trace with per-span duration and self-time.

    Spans whose parent is absent (e.g. the client half of a remote
    trace when only the server's sink is readable) are promoted to
    roots rather than dropped.
    """
    if not spans:
        return "(no spans)"
    by_id = {sp.span_id: sp for sp in spans}
    children: Dict[Optional[str], List[Span]] = {}
    for sp in spans:
        parent = sp.parent_id if sp.parent_id in by_id else None
        children.setdefault(parent, []).append(sp)
    for siblings in children.values():
        siblings.sort(key=lambda sp: (sp.start_time, sp.name))

    def duration_of(sp: Span) -> float:
        return sp.duration if sp.duration is not None else 0.0

    lines: List[str] = []

    def walk(sp: Span, prefix: str, tail: bool, root: bool) -> None:
        kids = children.get(sp.span_id, [])
        total = duration_of(sp)
        self_time = max(0.0, total - sum(duration_of(k) for k in kids))
        label = f"{sp.name}  {total * 1000:.1f}ms"
        if kids:
            label += f" (self {self_time * 1000:.1f}ms)"
        if sp.status != "ok":
            label += f" [{sp.status}]"
        detail = _span_detail(sp)
        if detail:
            label += f"  {detail}"
        if root:
            lines.append(label)
            child_prefix = ""
        else:
            connector = "└─ " if tail else "├─ "
            lines.append(prefix + connector + label)
            child_prefix = prefix + ("   " if tail else "│  ")
        for i, kid in enumerate(kids):
            walk(kid, child_prefix, i == len(kids) - 1, False)

    roots = children.get(None, [])
    for i, root_span in enumerate(roots):
        if i:
            lines.append("")
        walk(root_span, "", True, True)
    return "\n".join(lines)


_DETAIL_KEYS = (
    "job_id", "backend", "family", "algorithm", "n_trials",
    "shard_index", "source", "outcome", "level", "route", "status_code",
)


def _span_detail(sp: Span) -> str:
    parts = [
        f"{key}={sp.attributes[key]}"
        for key in _DETAIL_KEYS
        if key in sp.attributes
    ]
    return " ".join(parts)
