"""Record (de)serialization for study-graph payloads.

The ``parsed.<app>`` and ``mined.<app>`` nodes carry parsed archives and
mined results as plain JSON, so memo entries (:mod:`repro.pipeline.
cache`) survive interpreter upgrades and are inspectable with standard
tools.  :class:`~repro.bugdb.model.BugReport`
already has a JSON codec in :mod:`repro.bugdb.jsonstore`; this module
adds the :class:`~repro.bugdb.mbox.MailMessage` codec and the
:class:`~repro.mining.pipeline.NarrowingTrace` row form, and re-exports
the report codec so payload code has one import site.
"""

from __future__ import annotations

import datetime as _dt
from typing import Any

from repro.bugdb.jsonstore import report_from_dict, report_to_dict
from repro.bugdb.mbox import MailMessage
from repro.errors import ParseError
from repro.mining.pipeline import MiningResult, NarrowingTrace

__all__ = [
    "message_from_dict",
    "message_to_dict",
    "report_from_dict",
    "report_to_dict",
    "result_from_payload",
    "result_to_payload",
    "trace_from_rows",
    "trace_to_rows",
]


def message_to_dict(message: MailMessage) -> dict[str, Any]:
    """Serialize one mail message to plain JSON-compatible data."""
    return {
        "message_id": message.message_id,
        "sender": message.sender,
        "date": message.date.isoformat(),
        "subject": message.subject,
        "body": message.body,
        "in_reply_to": message.in_reply_to,
    }


def message_from_dict(data: dict[str, Any]) -> MailMessage:
    """Deserialize one mail message.

    Raises:
        ParseError: on missing fields or a malformed date.
    """
    try:
        return MailMessage(
            message_id=data["message_id"],
            sender=data["sender"],
            date=_dt.date.fromisoformat(data["date"]),
            subject=data["subject"],
            body=data["body"],
            in_reply_to=data.get("in_reply_to"),
        )
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad message record: {exc}", source="pipeline-cache") from exc


def trace_to_rows(trace: NarrowingTrace) -> list[list[Any]]:
    """Narrowing trace as ``[stage name, survivors]`` rows."""
    return [[name, survivors] for name, survivors in trace.as_rows()]


def trace_from_rows(rows: list[list[Any]]) -> NarrowingTrace:
    """Inverse of :func:`trace_to_rows`."""
    trace = NarrowingTrace()
    for name, survivors in rows:
        trace.record(name, int(survivors))
    return trace


def result_to_payload(result: MiningResult, record_to_dict: Any) -> dict[str, Any]:
    """Serialize a mining result (items plus trace) for a node payload."""
    return {
        "items": [record_to_dict(item) for item in result.items],
        "trace": trace_to_rows(result.trace),
    }


def result_from_payload(payload: dict[str, Any], record_from_dict: Any) -> MiningResult:
    """Inverse of :func:`result_to_payload`.

    Raises:
        ParseError: on malformed item records.
    """
    return MiningResult(
        items=[record_from_dict(item) for item in payload.get("items", [])],
        trace=trace_from_rows(payload.get("trace", [])),
    )
