"""Validators for telemetry output — used by CI and tests.

Two subcommands::

    python -m repro.obs.validate spans trace.jsonl
    python -m repro.obs.validate metrics metricsz.txt

``spans`` checks every JSONL record against the span schema (name,
start, dur, pid, parent, plus id/parent referential integrity within
the file).  ``metrics`` checks Prometheus text exposition line by line.
A line that is not UTF-8 is a problem on that line.  Both exit 1 when
any problem is found, printing every violation; a path that cannot be
read prints one ``error:`` line and exits 74 (the runner's code for
untyped I/O failures).
"""

from __future__ import annotations

import json
import re
import sys

from repro.obs.trace import SPAN_REQUIRED_FIELDS

__all__ = ["validate_spans", "validate_exposition"]

_SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"  # metric name
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\[\\\"n])*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\[\\\"n])*\")*\})?"  # labels
    r" (?:[+-]?(?:\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|Inf)|NaN)$"  # value
)
_HELP_LINE = re.compile(r"^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*$")
_TYPE_LINE = re.compile(
    r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram|summary|untyped)$"
)


def _not_utf8(line):
    """True if ``line`` holds undecodable bytes (``surrogateescape``)."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


def validate_spans(lines):
    """Yield ``(line_number, problem)`` for every invalid span record."""
    seen_ids = set()
    parents = []
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        if _not_utf8(line):
            yield number, "not UTF-8"
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            yield number, f"not JSON: {exc}"
            continue
        if not isinstance(record, dict):
            yield number, "record is not an object"
            continue
        missing = [f for f in SPAN_REQUIRED_FIELDS if f not in record]
        if missing:
            yield number, f"missing fields: {missing}"
            continue
        if not isinstance(record["name"], str) or not record["name"]:
            yield number, "name must be a non-empty string"
        for field in ("start", "dur"):
            if not isinstance(record[field], (int, float)) or record[field] < 0:
                yield number, f"{field} must be a non-negative number"
        if not isinstance(record["pid"], int) or record["pid"] <= 0:
            yield number, "pid must be a positive integer"
        parent = record["parent"]
        if parent is not None and not isinstance(parent, str):
            yield number, "parent must be null or a span id string"
        span_id = record.get("id")
        if span_id is not None:
            if span_id in seen_ids:
                yield number, f"duplicate span id {span_id!r}"
            seen_ids.add(span_id)
        if parent is not None:
            parents.append((number, parent))
    for number, parent in parents:
        if parent not in seen_ids:
            yield number, f"parent {parent!r} not found in file"


def validate_exposition(text):
    """Yield ``(line_number, problem)`` for malformed exposition lines."""
    for number, line in enumerate(text.splitlines(), start=1):
        if not line:
            yield number, "blank line inside exposition"
            continue
        if _not_utf8(line):
            yield number, "not UTF-8"
            continue
        if line.startswith("# HELP "):
            if not _HELP_LINE.match(line):
                yield number, "malformed HELP line"
        elif line.startswith("# TYPE "):
            if not _TYPE_LINE.match(line):
                yield number, "malformed TYPE line"
        elif line.startswith("#"):
            continue  # comments are legal
        elif not _SAMPLE_LINE.match(line):
            yield number, "malformed sample line"


def _main(argv):
    if len(argv) != 2 or argv[0] not in ("spans", "metrics"):
        print("usage: python -m repro.obs.validate {spans|metrics} <path>", file=sys.stderr)
        return 64
    mode, path = argv
    try:
        # Undecodable bytes survive as lone surrogates, which the
        # validators report on their line instead of raising here.
        with open(path, "r", encoding="utf-8",
                  errors="surrogateescape") as handle:
            if mode == "spans":
                problems = list(validate_spans(handle))
                checked = "span records"
            else:
                problems = list(validate_exposition(handle.read()))
                checked = "exposition lines"
    except OSError as exc:
        print(f"error: cannot read {path}: {exc.strerror or exc}",
              file=sys.stderr)
        return 74
    for number, problem in problems:
        print(f"{path}:{number}: {problem}", file=sys.stderr)
    if problems:
        print(f"FAIL: {len(problems)} problem(s) in {path}", file=sys.stderr)
        return 1
    print(f"OK: {path} ({checked} valid)")
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
