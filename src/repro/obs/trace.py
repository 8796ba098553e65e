"""Structured tracing: nested, reproducible span trees.

A :class:`Span` is one timed operation with a name, a parent, and a dict
of attributes; a :class:`Tracer` collects the spans of one run into a
tree.  Two properties make traces usable as *evidence* rather than mere
logs:

* **Reproducible identity.**  Span ids are assigned sequentially in
  start order and parents come from an explicit span stack, so two runs
  of the same seeded computation produce byte-identical traces — except
  for the ``duration_ms`` field, the only place wall time may appear.
  Nothing clock-derived (timestamps, PIDs, object ids) enters a span's
  identity or attributes.
* **Zero-cost opt-out.**  :class:`NullTracer` hands out one shared
  :class:`NullSpan` whose every operation is a no-op, so instrumented
  hot paths pay a single method call when tracing is disabled.

Durations are measured with :func:`time.perf_counter` (monotonic);
``time.time`` is wall clock and never times a duration anywhere in the
reproduction.

The on-disk format is JSONL: one span object per line, in start order::

    {"attrs": {...}, "duration_ms": 0.173, "id": 2, "name": "appleseed.compute", "parent": 1}

:func:`validate_trace` checks that shape (the "span schema") and is what
``repro trace summarize`` and the CI smoke job run before trusting a
file.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from pathlib import Path
from types import TracebackType
from typing import Any

__all__ = [
    "MEMORY_ATTR",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullSpan",
    "NullTracer",
    "SPAN_FIELDS",
    "Span",
    "Tracer",
    "load_trace",
    "strip_durations",
    "validate_trace",
    "write_records_jsonl",
]

#: The exact key set of one JSONL span record.
SPAN_FIELDS = ("attrs", "duration_ms", "id", "name", "parent")

#: Attribute key stamped on every span by a ``memory=True`` tracer —
#: like ``duration_ms`` it is measurement, not identity, so
#: :func:`strip_durations` removes it too.
MEMORY_ATTR = "mem_delta_kb"


def _jsonify(value: Any) -> Any:
    """Coerce an attribute value into a JSON-stable shape.

    Tuples and sets become sorted/ordered lists, mappings become plain
    dicts, and anything non-primitive falls back to ``str`` — attributes
    must never make a trace unserializable or nondeterministic.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonify(item) for item in value)
    if isinstance(value, dict):
        return {str(key): _jsonify(item) for key, item in value.items()}
    return str(value)


class Span:
    """One traced operation; use as a context manager.

    Attributes may be set while the span is open *or after it closed*
    (a common pattern: close the timed region, then annotate it with the
    report the region produced).  Only :meth:`__exit__` touches the
    clock, and only to compute ``duration_ms``.
    """

    __slots__ = (
        "attrs",
        "duration_ms",
        "name",
        "parent_id",
        "span_id",
        "_mem_start",
        "_started",
        "_tracer",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self.span_id = 0  # assigned at __enter__
        self.parent_id: int | None = None
        self.duration_ms = 0.0
        self._mem_start = 0
        self._started = 0.0
        self._tracer = tracer

    def set(self, key: str, value: Any) -> None:
        """Attach one attribute; values are coerced to JSON-stable shapes."""
        self.attrs[key] = _jsonify(value)

    def __enter__(self) -> "Span":
        self._tracer._start(self)
        self._started = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.duration_ms = (time.perf_counter() - self._started) * 1000.0
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self._tracer._finish(self)

    def to_record(self) -> dict[str, Any]:
        """The JSONL record for this span."""
        return {
            "attrs": {key: _jsonify(value) for key, value in self.attrs.items()},
            "duration_ms": round(self.duration_ms, 4),
            "id": self.span_id,
            "name": self.name,
            "parent": self.parent_id,
        }


class Tracer:
    """Collects one run's spans into a reproducible tree.

    Not thread-safe by design: a tracer belongs to one run in one
    process.  Spans started in pool workers simply land in the worker's
    (usually null) tracer and are not merged.

    With ``memory=True`` (the CLI's ``--memory`` flag) the tracer starts
    :mod:`tracemalloc` if needed and stamps every finished span with a
    ``mem_delta_kb`` attribute — the traced-memory delta across the
    span.  Memory numbers are measurement, not identity: like
    ``duration_ms`` they are removed by :func:`strip_durations`, so the
    same-seed reproducibility contract is unchanged.
    """

    enabled = True

    def __init__(self, memory: bool = False) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 1
        self.memory = memory
        if memory and not tracemalloc.is_tracing():
            tracemalloc.start()

    def span(self, name: str, **attrs: Any) -> Span:
        """A new span; enter it with ``with`` to start the clock."""
        return Span(self, name, {key: _jsonify(value) for key, value in attrs.items()})

    # -- span lifecycle (called by Span) ------------------------------------

    def _start(self, span: Span) -> None:
        span.span_id = self._next_id
        self._next_id += 1
        span.parent_id = self._stack[-1].span_id if self._stack else None
        self._stack.append(span)
        self.spans.append(span)  # start order == id order
        if self.memory:
            span._mem_start = tracemalloc.get_traced_memory()[0]

    def _finish(self, span: Span) -> None:
        # Tolerate exits out of order (an exception unwound past inner
        # spans): pop everything above the finishing span.
        while self._stack and self._stack[-1] is not span:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        if self.memory:
            delta = tracemalloc.get_traced_memory()[0] - span._mem_start
            span.attrs[MEMORY_ATTR] = round(delta / 1024.0, 3)

    # -- export -------------------------------------------------------------

    def records(self) -> list[dict[str, Any]]:
        """All span records in start order."""
        return [span.to_record() for span in self.spans]

    def to_jsonl(self) -> str:
        """The JSONL document: one span per line, keys sorted."""
        return "".join(
            json.dumps(record, sort_keys=True) + "\n" for record in self.records()
        )

    def write_jsonl(self, path: str | Path) -> int:
        """Write the trace to *path*; returns the number of spans."""
        Path(path).write_text(self.to_jsonl(), encoding="utf-8")
        return len(self.spans)


class NullSpan:
    """The do-nothing span; one shared instance serves every call site."""

    __slots__ = ()

    def set(self, key: str, value: Any) -> None:
        pass

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        pass


class NullTracer:
    """The disabled tracer: every ``span()`` is the shared no-op span.

    Instrumented code never branches on whether tracing is on; it always
    opens a span, and this class makes that nearly free.
    """

    enabled = False

    def span(self, name: str, **attrs: Any) -> NullSpan:
        return NULL_SPAN


#: Module-wide singletons: there is never a reason for a second one.
NULL_SPAN = NullSpan()
NULL_TRACER = NullTracer()


def write_records_jsonl(records: list[dict[str, Any]], path: str | Path) -> int:
    """Write span records to *path* in the canonical JSONL shape.

    The file-level counterpart of :meth:`Tracer.write_jsonl` for callers
    holding plain records (e.g. ``repro bench`` exporting the driver
    tracer's spans); returns the number of records written.
    """
    Path(path).write_text(
        "".join(json.dumps(record, sort_keys=True) + "\n" for record in records),
        encoding="utf-8",
    )
    return len(records)


def load_trace(path: str | Path) -> list[dict[str, Any]]:
    """Parse a JSONL trace file into span records.

    Raises :class:`ValueError` naming the offending line when a line is
    not valid JSON; schema problems are :func:`validate_trace`'s job.
    """
    records: list[dict[str, Any]] = []
    text = Path(path).read_text(encoding="utf-8")
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as error:
            raise ValueError(f"{path}:{number}: not valid JSON: {error}") from error
    return records


def validate_trace(
    records: list[dict[str, Any]], strict_durations: bool = False
) -> list[str]:
    """Check span records against the span schema; returns error strings.

    The schema: every record carries exactly :data:`SPAN_FIELDS`; ``id``
    is a positive integer unique within the trace and records appear in
    ascending id order; ``parent`` is ``None`` (a root) or the id of an
    *earlier* span; ``name`` is a non-empty string; ``attrs`` is an
    object; ``duration_ms`` is a non-negative number.

    *Every* finding is collected and returned — a corrupt trace reports
    all of its problems in one pass, not just the first.  With
    ``strict_durations`` the monotonic-clock invariant is also checked:
    a span's children cannot together outlast their parent (each child
    ran strictly inside the parent's window), so a parent whose
    children's summed ``duration_ms`` exceeds its own (beyond rounding
    slack) marks a non-monotonic, hand-edited, or merged trace.
    """
    errors: list[str] = []
    seen: set[int] = set()
    previous_id = 0
    durations: dict[int, float] = {}
    child_totals: dict[int, float] = {}
    child_counts: dict[int, int] = {}
    for index, record in enumerate(records, start=1):
        where = f"span {index}"
        if not isinstance(record, dict):
            errors.append(f"{where}: record is not an object")
            continue
        if tuple(sorted(record)) != SPAN_FIELDS:
            errors.append(
                f"{where}: keys {sorted(record)} != expected {list(SPAN_FIELDS)}"
            )
            continue
        span_id = record["id"]
        valid_id = (
            isinstance(span_id, int) and not isinstance(span_id, bool) and span_id >= 1
        )
        if not valid_id:
            errors.append(f"{where}: id {span_id!r} is not a positive integer")
        elif span_id in seen:
            errors.append(f"{where}: duplicate id {span_id}")
        elif span_id <= previous_id:
            errors.append(f"{where}: id {span_id} out of start order")
        parent = record["parent"]
        if parent is not None and (
            not isinstance(parent, int) or isinstance(parent, bool) or parent not in seen
        ):
            errors.append(f"{where}: parent {parent!r} is not an earlier span id")
        if not isinstance(record["name"], str) or not record["name"]:
            errors.append(f"{where}: name must be a non-empty string")
        if not isinstance(record["attrs"], dict):
            errors.append(f"{where}: attrs must be an object")
        duration = record["duration_ms"]
        valid_duration = (
            not isinstance(duration, bool)
            and isinstance(duration, (int, float))
            and duration >= 0
        )
        if not valid_duration:
            errors.append(f"{where}: duration_ms {duration!r} must be a non-negative number")
        if valid_id:
            seen.add(span_id)
            previous_id = max(previous_id, span_id)
            if valid_duration:
                durations[span_id] = float(duration)
                if isinstance(parent, int) and not isinstance(parent, bool):
                    child_totals[parent] = child_totals.get(parent, 0.0) + float(duration)
                    child_counts[parent] = child_counts.get(parent, 0) + 1
    if strict_durations:
        for parent_id, total in sorted(child_totals.items()):
            if parent_id not in durations:
                continue
            # duration_ms is rounded to 4 decimals on export; allow each
            # involved record half a unit in the last place of slack.
            slack = 0.0001 * (child_counts[parent_id] + 1)
            if total > durations[parent_id] + slack:
                errors.append(
                    f"span id {parent_id}: children's duration_ms sums to "
                    f"{total:.4f} > own {durations[parent_id]:.4f} "
                    "(non-monotonic durations)"
                )
    return errors


def strip_durations(records: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Span records minus measurement — the deterministic remainder.

    Removes ``duration_ms`` and, when present, the ``mem_delta_kb``
    attribute a ``memory=True`` tracer stamps (allocator behavior is no
    more reproducible than the clock).  Two runs of the same seeded
    computation must agree exactly on this projection (the property the
    telemetry tests pin).
    """
    stripped: list[dict[str, Any]] = []
    for record in records:
        projected = {key: value for key, value in record.items() if key != "duration_ms"}
        attrs = projected.get("attrs")
        if isinstance(attrs, dict) and MEMORY_ATTR in attrs:
            projected["attrs"] = {
                key: value for key, value in attrs.items() if key != MEMORY_ATTR
            }
        stripped.append(projected)
    return stripped
