"""Structured JSON logging, and the indented JSON text the CLI prints.

One JSON object per line on a stream, so ``repro serve`` / ``repro
work`` output can be shipped straight into any log pipeline and joined
on ids. Every record carries:

``ts``
    ISO-8601 UTC wall time.
``event``
    A dotted name: ``request`` for HTTP requests;
    ``job.queued`` / ``job.running`` / ``job.done`` / ``job.failed``
    for service job transitions; ``worker.start`` / ``worker.chunk`` /
    ``worker.done`` for queue-worker progress.

plus event fields — ``requestId``, ``route``, ``method``, ``status``,
``duration_s`` on requests; ``jobId``, ``kind``, and counters on job
and worker events. Request ids are minted per request; job ids are the
spec content hashes, so one job's records correlate across replicas
and workers sharing a store.

The logger is explicitly passed, never global: library code (and the
tests) default to :meth:`StructuredLogger.disabled`, only the CLI entry
points turn it on. Writes are serialized by a lock, one ``write()``
call per record, so concurrent handler threads never interleave lines.

:func:`dumps_indented` writes every ``--json`` document and experiment
JSON file: the same text as the standard library's two-space indented
``json.dumps``, built mostly by CPython's C encoder (see its docstring).
"""

from __future__ import annotations

import io
import json
import sys
import threading
from json.encoder import INFINITY, c_make_encoder, encode_basestring_ascii
from typing import Any, Callable, TextIO

__all__ = ["StructuredLogger", "dumps_indented", "new_request_id"]


def new_request_id() -> str:
    """A short unique id to correlate one request's records."""
    import uuid

    return uuid.uuid4().hex[:16]


class StructuredLogger:
    """Writes one JSON record per :meth:`event` call.

    ``stream`` defaults to ``sys.stderr`` (resolved at write time, so
    pytest's capture and test doubles work); pass any text stream to
    redirect. A disabled logger (:meth:`disabled`) makes every call a
    cheap no-op, which is the default wiring everywhere but the CLI.
    """

    def __init__(
        self, stream: TextIO | None = None, *, enabled: bool = True
    ) -> None:
        self._stream = stream
        self.enabled = enabled
        self._lock = threading.Lock()

    @classmethod
    def disabled(cls) -> "StructuredLogger":
        return cls(enabled=False)

    def event(self, event: str, **fields: Any) -> None:
        """Emit one record; non-JSON field values are stringified."""
        if not self.enabled:
            return
        from datetime import datetime, timezone

        record: dict[str, Any] = {
            "ts": datetime.now(timezone.utc).isoformat(timespec="milliseconds"),
            "event": event,
        }
        for key, value in fields.items():
            if value is not None:
                record[key] = value
        line = json.dumps(record, default=str, separators=(",", ":"))
        stream = self._stream if self._stream is not None else sys.stderr
        with self._lock:
            try:
                stream.write(line + "\n")
                stream.flush()
            except (OSError, ValueError, io.UnsupportedOperation):
                pass  # a dead log pipe must never take the service down


# -- indented JSON output ----------------------------------------------------


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == INFINITY:
        return "Infinity"
    if value == -INFINITY:
        return "-Infinity"
    return float.__repr__(value)


#: JSON text of each scalar type, exactly as the stdlib encoder writes it.
#: Exact types only: a subclass leaves the document to the stdlib path.
_SCALARS: dict[type, Callable[[Any], str]] = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}

#: A slot is where a container sits: the dict key it is the value of, or
#: ``(slot,)`` for the items of a list in ``slot``. From its second
#: container on, a slot keys its containers for the memo while its misses
#: stay at most ``_MEMO_MISS_RATIO * hits + _MEMO_WARMUP``: a key costs
#: one compact C encoding of the subtree, a hit saves walking it.
_MEMO_WARMUP = 8
_MEMO_MISS_RATIO = 3


class _Unsupported(Exception):
    """A value the fast path leaves to the stdlib encoder."""


def _unsupported(value: Any) -> Any:
    raise _Unsupported


def _c_encoder(key_separator: str, item_separator: str) -> Callable[[Any, int], Any]:
    # No markers dict: a cycle overflows the recursion limit instead, and
    # the stdlib path then reports it as the stdlib does.
    return c_make_encoder(  # type: ignore[misc]
        None, _unsupported, encode_basestring_ascii, None,
        key_separator, item_separator, False, False, True,
    )


#: The compact encoding that keys the memo (``None`` without ``_json``).
_COMPACT = _c_encoder(":", ",") if c_make_encoder is not None else None


def _reindent(text: str, was: int, depth: int) -> str:
    # Every newline of indented JSON is structural (string literals are
    # ASCII-escaped), and each is followed by at least ``was`` levels.
    if depth > was:
        return text.replace("\n", "\n" + "  " * (depth - was))
    if depth < was:
        return text.replace("\n" + "  " * (was - depth), "\n")
    return text


def _indented(document: Any) -> str:
    memo: dict[str, tuple[str, int]] = {}
    slots: dict[Any, list[int]] = {}  # slot -> [hits, misses]
    flat: dict[int, Callable[[Any, int], Any]] = {}  # depth -> C encoder
    scalars = _SCALARS

    def flat_text(container: Any, depth: int) -> str:
        encoder = flat.get(depth)
        if encoder is None:
            encoder = flat[depth] = _c_encoder(": ", ",\n" + "  " * (depth + 1))
        text = "".join(encoder(container, 0))
        # The C encoder writes "[a,<newline+indent>b]"; the brackets still
        # need their own newlines.
        return f"{text[0]}\n{'  ' * (depth + 1)}{text[1:-1]}\n{'  ' * depth}{text[-1]}"

    def encode(value: Any, depth: int, slot: Any) -> str:
        kind = type(value)
        scalar = scalars.get(kind)
        if scalar is not None:
            return scalar(value)
        if kind is dict:
            if not value:
                return "{}"
            items = value.values()
        elif kind is list or kind is tuple:
            if not value:
                return "[]"
            items = value
        else:
            raise _Unsupported
        for item in items:
            if type(item) not in scalars:
                break
        else:
            return flat_text(value, depth)
        key = None
        tally = slots.get(slot)
        if tally is None:
            slots[slot] = [0, 0]
        elif tally[1] <= _MEMO_MISS_RATIO * tally[0] + _MEMO_WARMUP:
            key = "".join(_COMPACT(value, 0))  # type: ignore[misc]
            seen = memo.get(key)
            if seen is not None:
                tally[0] += 1
                return _reindent(seen[0], seen[1], depth)
            tally[1] += 1
        inner = "\n" + "  " * (depth + 1)
        parts = []
        if kind is dict:
            for name, item in value.items():
                if type(name) is not str:
                    raise _Unsupported
                scalar = scalars.get(type(item))
                text = scalar(item) if scalar else encode(item, depth + 1, name)
                parts.append(f"{encode_basestring_ascii(name)}: {text}")
            text = f"{{{inner}{(',' + inner).join(parts)}\n{'  ' * depth}}}"
        else:
            inside = (slot,)
            for item in value:
                scalar = scalars.get(type(item))
                text = scalar(item) if scalar else encode(item, depth + 1, inside)
                parts.append(text)
            text = f"[{inner}{(',' + inner).join(parts)}\n{'  ' * depth}]"
        if key is not None:
            memo[key] = (text, depth)
        return text

    return encode(document, 0, None)


def dumps_indented(document: Any) -> str:
    """``document`` as two-space indented JSON, byte for byte as stdlib.

    The text equals ``json.dumps`` with ``indent`` 2 and every other
    argument at its default, which runs CPython's pure-Python encoder;
    this runs the C encoder instead. A container whose items are all
    scalars is one C call, with the newline and indentation of its depth
    as the item separator. A container of containers is walked here,
    and a repeated subtree is encoded once: the memo keys it on its
    compact C encoding (equal keys mean equal JSON) and re-indents the
    stored text for the depth it meets it at (see ``_MEMO_WARMUP`` for
    which subtrees get keyed). Only exact ``dict``/``list``/``tuple``/
    ``str``/``int``/``float``/``bool``/``None`` values take this path,
    and a walked dict needs ``str`` keys (the C encoder converts the
    keys of a scalar-only dict as the stdlib does). Anything else, a
    cycle, or a Python without the ``_json`` accelerator gets the stdlib
    encoder, which then writes the same text or raises the same error it
    always did.
    """
    if _COMPACT is not None:
        try:
            return _indented(document)
        except (_Unsupported, RecursionError, ValueError):
            pass
    return json.dumps(document, indent=2)
