"""Object-relative memory trace format: parser, formatter, and validator.

A trace records one program's memory behavior as a sequence of
object-level operations.  Objects are named by integer ids rather than
absolute addresses, because the simulator relocates data during
collection and only object identity survives a relocation.  All sizes
and offsets are in cells, the smallest wear-counted unit.

Wire format (UTF-8 text, LF line endings)::

    #! wearsim-trace v1    optional version line (first line only)
    #mem <N>               optional suggested memory size, in cells
    # anything             comment
    A <id> <size>          allocate <size> cells for object <id>
    F <id>                 free object <id>
    R <id> <off> <len>     read <len> cells starting <off> into the object
    W <id> <off> <len>     write <len> cells starting <off> into the object
    G                      garbage-collection trigger

Fields are unsigned ASCII decimals separated by single spaces, and a
size or length is at least 1.  The table above is the grammar, and the
only gate on an event line: parse_trace reads an event from a line whose
field count is its opcode's arity (`_OPCODE_ARITY`), whose fields
parse_uint reads, once per distinct text in a parse, and whose size or
length is not 0.  Any other line that is neither blank nor a comment is
refused for the first of these it breaks, in that order, its fields
taken in turn.  parse_trace reads the format from a ``str`` and
format_trace renders it to one; callers do their own file I/O and
decoding.

In memory an event is the tuple of its line's fields, opcode first:
``("A", id, size)``, ``("F", id)``, ``("R", id, off, len)``,
``("W", id, off, len)`` or ``("G",)``.  validate_trace returns a line
``event <i>: <message>`` per event that breaks a live-object rule or,
by its per-opcode branches alone, is a tuple that no line could produce.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NoReturn

FORMAT_VERSION = 1
MAGIC_PREFIX = "#! wearsim-trace v"


#: A trace event: the tuple of its wire-format line's fields.
TraceEvent = tuple


@dataclass(frozen=True)
class TraceHeader:
    suggested_mem_size_cells: int | None = None


@dataclass
class Trace:
    events: list[TraceEvent]
    header: TraceHeader = field(default_factory=TraceHeader)


_OPCODE_ARITY = {"A": 3, "F": 2, "R": 4, "W": 4, "G": 1}
_LINE_FORMAT = {op: " ".join(["%s"] * n) for op, n in _OPCODE_ARITY.items()}

#: The collection marker; one tuple serves every G that parse_trace reads
#: or generate emits.
GC = ("G",)

#: The noun that validate_trace messages use for each access opcode.
ACCESS_NOUNS = {"R": "read", "W": "write"}


def parse_uint(text: str) -> int:
    """Read ASCII digits; unlike int(), refuse a sign, '_', spaces and other digits."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"non-integer field '{text}'")
    return int(text)


def _parse_version(line: str) -> None:
    if not line.startswith(MAGIC_PREFIX):
        raise ValueError("malformed version line")
    version = parse_uint(line[len(MAGIC_PREFIX):])
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported trace format version {version}")


class _FieldValues(dict):
    """One parse's field texts and their values: a text missing from the
    table is read once with parse_uint, so equal texts share one int."""

    def __missing__(self, text: str) -> int:
        value = self[text] = parse_uint(text)
        return value


def _refuse_event(fields: list[str]) -> NoReturn:
    """Raise why a line split into `fields`, whose field count is not its
    opcode's arity, is not an event."""
    opcode = fields[0]
    arity = _OPCODE_ARITY.get(opcode)
    if arity is None:
        raise ValueError(f"unknown opcode '{opcode}'")
    raise ValueError(f"expected {arity} fields for '{opcode}', got {len(fields)}")


def parse_trace(text: str) -> Trace:
    """Parse wire-format text into a Trace.

    Reads one string, with LF or CRLF line endings.  A line whose field
    count is its opcode's arity is an event, its fields read in order
    through one `_FieldValues` table and its size or length checked;
    `_refuse_event` refuses any other line that is neither blank nor a
    comment.  Raises ValueError naming the first offending line: its
    message ends " at line <n>".
    """
    if "\r" in text:
        # tolerate CRLF input: drop one CR from the end of each line, which
        # for all lines but the last is the CR just before its LF
        text = text.replace("\r\n", "\n")
        if text.endswith("\r"):
            text = text[:-1]
    events: list[TraceEvent] = []
    append = events.append
    suggested: int | None = None
    value = _FieldValues()
    arity_of = _OPCODE_ARITY.get
    try:
        for line_no, line in enumerate(text.split("\n"), start=1):
            fields = line.split(" ")
            arity = len(fields)
            if arity_of(fields[0]) == arity:
                if arity == 4:
                    opcode, object_id, offset, length = fields
                    event = (opcode, value[object_id], value[offset], value[length])
                    if not event[3]:
                        raise ValueError("length must be >= 1")
                elif arity == 3:
                    opcode, object_id, size = fields
                    event = (opcode, value[object_id], value[size])
                    if not event[2]:
                        raise ValueError("size must be >= 1")
                elif arity == 2:
                    event = (fields[0], value[fields[1]])
                else:  # G, the one opcode of arity 1
                    event = GC
                append(event)
                continue
            if not line.strip():
                continue
            if not line.startswith("#"):
                _refuse_event(fields)
            elif line_no == 1 and line.startswith("#!"):
                _parse_version(line)
            elif fields[0] == "#mem":
                if arity != 2:
                    raise ValueError("malformed #mem header")
                suggested = parse_uint(fields[1])
    except ValueError as err:
        raise ValueError(f"{err} at line {line_no}") from None
    return Trace(events, TraceHeader(suggested))


def _malformation(event) -> str:
    """Why `event`, which validate_trace's branches refused, is not the tuple
    of a line: if its opcode, arity and fields are sound, its last field is 0."""
    opcode = event[0] if type(event) is tuple and event else None
    arity = _OPCODE_ARITY.get(opcode) if type(opcode) is str else None
    if arity is None or len(event) != arity:
        return f"not a trace event: {event!r}"
    for value in event[1:]:
        if type(value) is not int or value < 0:
            return f"field {value!r} of {event!r} is not an unsigned integer"
    return f"{'size' if opcode == 'A' else 'length'} must be >= 1"


def validate_trace(trace: Trace) -> list[str]:
    """Replay the live-object rules over the events; return one line,
    ``event <i>: <message>``, per violation.

    Order-sensitive and deterministic.  A violating event does not
    change the tracked live set, so later events are judged as if the
    offender had been dropped.  A malformed event is judged by no other
    rule: each opcode's branch, the only gate, checks its shape inline,
    and `_malformation` only words what is wrong with one they refuse.
    """
    errors: list[str] = []
    live: dict[int, int] = {}
    for index, event in enumerate(trace.events):
        # None unless the event is a tuple whose first field is a str
        opcode = (event[0] if type(event) is tuple and event and type(event[0]) is str
                  else None)
        if opcode == "R" or opcode == "W":
            if len(event) == 4:
                _, object_id, offset, length = event
                if (type(object_id) is int and type(offset) is int
                        and type(length) is int
                        and object_id >= 0 and offset >= 0 and length >= 1):
                    size = live.get(object_id)
                    if size is None:
                        errors.append(f"event {index}: {ACCESS_NOUNS[opcode]} of "
                                      f"dead object {object_id}")
                    elif offset + length > size:
                        errors.append(
                            f"event {index}: {ACCESS_NOUNS[opcode]} of {length} "
                            f"cells at offset {offset} exceeds size {size} of "
                            f"object {object_id}")
                    continue
        elif opcode == "A":
            if len(event) == 3:
                _, object_id, size = event
                if (type(object_id) is int and type(size) is int
                        and object_id >= 0 and size >= 1):
                    if object_id in live:
                        errors.append(
                            f"event {index}: alloc of live object {object_id}")
                    else:
                        live[object_id] = size
                    continue
        elif opcode == "F":
            if len(event) == 2:
                object_id = event[1]
                if type(object_id) is int and object_id >= 0:
                    if object_id in live:
                        del live[object_id]
                    else:
                        errors.append(f"event {index}: free of dead object {object_id}")
                    continue
        elif opcode == "G" and len(event) == 1:
            continue
        errors.append(f"event {index}: {_malformation(event)}")
    return errors


def format_trace(trace: Trace) -> str:
    """Render a trace in the wire format; parse_trace inverts this exactly."""
    lines = [f"{MAGIC_PREFIX}{FORMAT_VERSION}"]
    if trace.header.suggested_mem_size_cells is not None:
        lines.append(f"#mem {trace.header.suggested_mem_size_cells}")
    lines.extend(_LINE_FORMAT[event[0]] % event for event in trace.events)
    return "\n".join(lines) + "\n"
