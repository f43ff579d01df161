"""Reference trace reader and validator used as the oracle for trace tests.

The per-line reader splits every line on spaces and reads each field with
its own digit check, and the validator checks each event's shape with one
generic function before it applies any rule.  wearsim.trace gates the
reader on each opcode's arity and reads fields through one table per
parse, and branches the validator once per opcode; both must agree with
these on every input, errors included.  The two share only the Trace and
TraceHeader dataclasses.
"""

from __future__ import annotations

from wearsim.trace import Trace, TraceHeader

MAGIC_PREFIX = "#! wearsim-trace v"
OPCODE_ARITY = {"A": 3, "F": 2, "R": 4, "W": 4, "G": 1}
ACCESS_NOUNS = {"R": "read", "W": "write"}


def parse_uint(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"non-integer field '{text}'")
    return int(text)


def parse_version(line: str) -> None:
    if not line.startswith(MAGIC_PREFIX):
        raise ValueError("malformed version line")
    version = parse_uint(line[len(MAGIC_PREFIX):])
    if version != 1:
        raise ValueError(f"unsupported trace format version {version}")


def parse_event(line: str) -> tuple:
    fields = line.split(" ")
    opcode = fields[0]
    arity = OPCODE_ARITY.get(opcode)
    if arity is None:
        raise ValueError(f"unknown opcode '{opcode}'")
    if len(fields) != arity:
        raise ValueError(f"expected {arity} fields for '{opcode}', got {len(fields)}")
    event = (opcode, *map(parse_uint, fields[1:]))
    if arity > 2 and event[-1] < 1:
        raise ValueError(f"{'size' if opcode == 'A' else 'length'} must be >= 1")
    return event


def reference_parse_trace(text: str) -> Trace:
    events = []
    suggested = None
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw[:-1] if raw.endswith("\r") else raw
        if not line.strip():
            continue
        try:
            if not line.startswith("#"):
                events.append(parse_event(line))
            elif line_no == 1 and line.startswith("#!"):
                parse_version(line)
            else:
                fields = line.split(" ")
                if fields[0] == "#mem":
                    if len(fields) != 2:
                        raise ValueError("malformed #mem header")
                    suggested = parse_uint(fields[1])
        except ValueError as err:
            raise ValueError(f"{err} at line {line_no}") from None
    return Trace(events, TraceHeader(suggested))


def malformation(event) -> str | None:
    opcode = event[0] if type(event) is tuple and event else None
    arity = OPCODE_ARITY.get(opcode) if type(opcode) is str else None
    if arity is None or len(event) != arity:
        return f"not a trace event: {event!r}"
    for value in event[1:]:
        if type(value) is not int or value < 0:
            return f"field {value!r} of {event!r} is not an unsigned integer"
    if arity > 2 and event[-1] < 1:
        return f"{'size' if opcode == 'A' else 'length'} must be >= 1"
    return None


def reference_validate_trace(trace: Trace) -> list[str]:
    errors = []
    live = {}
    for index, event in enumerate(trace.events):
        problem = malformation(event)
        if problem is not None:
            errors.append(f"event {index}: {problem}")
            continue
        opcode = event[0]
        if opcode == "A":
            if event[1] in live:
                errors.append(f"event {index}: alloc of live object {event[1]}")
            else:
                live[event[1]] = event[2]
        elif opcode == "F":
            if event[1] not in live:
                errors.append(f"event {index}: free of dead object {event[1]}")
            else:
                del live[event[1]]
        elif opcode != "G":
            _, object_id, offset, length = event
            kind = ACCESS_NOUNS[opcode]
            size = live.get(object_id)
            if size is None:
                errors.append(f"event {index}: {kind} of dead object {object_id}")
            elif offset + length > size:
                errors.append(f"event {index}: {kind} of {length} cells at offset "
                              f"{offset} exceeds size {size} of object {object_id}")
    return errors
