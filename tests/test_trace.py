import pytest
from hypothesis import example, given, settings, strategies as st

from reference_trace import reference_parse_trace, reference_validate_trace
from test_oracle import reuse_ids, specs
from wearsim.trace import (Trace, TraceHeader, format_trace, parse_trace,
                           parse_uint, validate_trace)
from wearsim.workload import WorkloadSpec, generate

uints = st.integers(min_value=0, max_value=10**9)
sizes = st.integers(min_value=1, max_value=10**6)

events = st.one_of(
    st.tuples(st.just("A"), uints, sizes),
    st.tuples(st.just("F"), uints),
    st.tuples(st.sampled_from("RW"), uints, uints, sizes),
    st.just(("G",)),
)

traces = st.builds(
    Trace,
    st.lists(events, max_size=40),
    st.builds(TraceHeader, st.one_of(st.none(), sizes)),
)


class TestParse:
    def test_basic(self):
        trace = parse_trace("A 1 3\nW 1 0 3\nG\n")
        assert trace.events == [("A", 1, 3), ("W", 1, 0, 3), ("G",)]

    def test_empty_file(self):
        assert parse_trace("").events == []

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError, match="^size must be >= 1 at line 1$"):
            parse_trace("A 1 0\n")

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError, match="^length must be >= 1 at line 2$"):
            parse_trace("A 1 3\nR 1 0 0\n")

    def test_unknown_opcode(self):
        with pytest.raises(ValueError, match="^unknown opcode 'X' at line 1$"):
            parse_trace("X 1\n")

    def test_wrong_field_count(self):
        with pytest.raises(ValueError,
                           match="^expected 3 fields for 'A', got 2 at line 1$"):
            parse_trace("A 1\n")

    def test_double_space_is_malformed(self):
        with pytest.raises(ValueError,
                           match="^expected 3 fields for 'A', got 4 at line 1$"):
            parse_trace("A  1 3\n")

    def test_non_integer_field(self):
        with pytest.raises(ValueError) as err:
            parse_trace("G\nA x 3\n")
        assert "non-integer field 'x'" in str(err.value)
        assert str(err.value).endswith(" at line 2")

    def test_negative_field_rejected(self):
        with pytest.raises(ValueError, match="^non-integer field '-1' at line 1$"):
            parse_trace("A -1 3\n")

    @pytest.mark.parametrize("token", ["\u00b2", "\u0663", "\uff11"],
                             ids=["superscript-two", "arabic-indic-three",
                                  "fullwidth-one"])
    def test_non_ascii_digits_rejected(self, token):
        # str.isdigit() takes all three and int() the last two, but a field
        # is ASCII digits only
        with pytest.raises(ValueError,
                           match=f"^non-integer field '{token}' at line 1$"):
            parse_trace(f"A {token} 3\n")

    def test_header_and_comments(self):
        text = "#! wearsim-trace v1\n#mem 128\n# a comment\nA 1 3\n"
        trace = parse_trace(text)
        assert trace.header.suggested_mem_size_cells == 128
        assert trace.events == [("A", 1, 3)]
        assert format_trace(trace) == "#! wearsim-trace v1\n#mem 128\nA 1 3\n"

    def test_unsupported_version(self):
        with pytest.raises(ValueError,
                           match="^unsupported trace format version 9 at line 1$"):
            parse_trace("#! wearsim-trace v9\n")

    def test_malformed_version_line(self):
        with pytest.raises(ValueError, match="^malformed version line at line 1$"):
            parse_trace("#! wearsim-trace2\n")

    def test_field_past_the_int_digit_limit(self):
        # int() refuses 5,000 digits with a ValueError of its own, which
        # still reaches the caller naming the line
        with pytest.raises(ValueError) as err:
            parse_trace("G\nA 1 " + "1" * 5000 + "\n")
        assert str(err.value).endswith(" at line 2")

    def test_malformed_mem_header(self):
        with pytest.raises(ValueError, match="^malformed #mem header at line 1$"):
            parse_trace("#mem\n")

    def test_line_numbers_count_comments(self):
        with pytest.raises(ValueError) as err:
            parse_trace("# one\n\n# three\nF 0 extra\n")
        assert str(err.value).endswith(" at line 4")

    def test_zero_padded_fields(self):
        assert parse_trace("A 1 05\nR 1 00 01\n").events == [("A", 1, 5), ("R", 1, 0, 1)]

    def test_crlf_tolerated(self):
        assert parse_trace("A 1 3\r\nG\r\n").events == [("A", 1, 3), ("G",)]

    def test_crlf_trace_parses_as_lf(self):
        text = format_trace(generate(WorkloadSpec("hotspot", 64, 4000, 16, seed=1)))
        trace = parse_trace(text)
        assert trace.header.suggested_mem_size_cells is not None
        assert ("G",) in trace.events
        assert parse_trace(text.replace("\n", "\r\n")) == trace


class TestParseUint:
    @given(uints)
    def test_reads_what_str_writes(self, value):
        assert parse_uint(str(value)) == value

    @pytest.mark.parametrize("text", ["2_0", "+2", " 3", "3 ", "\u0663", "\uff11",
                                      "\u00b2", "-5", "", "0x1", "1.0"])
    def test_refuses_what_int_might_take(self, text):
        with pytest.raises(ValueError, match="non-integer field"):
            parse_uint(text)


class Opcode(str):
    """Equal to an opcode, but not of type str, as every parsed opcode is."""


class TestValidate:
    def test_double_free(self):
        trace = Trace([("A", 1, 3), ("F", 1), ("F", 1)])
        assert validate_trace(trace) == ["event 2: free of dead object 1"]

    def test_out_of_bounds(self):
        violations = validate_trace(Trace([("A", 1, 3), ("R", 1, 2, 2)]))
        assert violations == [
            "event 1: read of 2 cells at offset 2 exceeds size 3 of object 1"]

    def test_valid_sequence(self):
        assert validate_trace(Trace([("A", 1, 3), ("W", 1, 0, 3), ("G",)])) == []

    def test_alloc_of_live_object(self):
        violations = validate_trace(Trace([("A", 1, 3), ("A", 1, 2)]))
        assert violations == ["event 1: alloc of live object 1"]

    def test_access_of_dead_object(self):
        violations = validate_trace(Trace([("W", 5, 0, 1)]))
        assert violations == ["event 0: write of dead object 5"]

    def test_id_reuse_after_free_is_valid(self):
        trace = Trace([("A", 1, 3), ("F", 1), ("A", 1, 2), ("R", 1, 0, 2)])
        assert validate_trace(trace) == []

    def test_deterministic(self):
        trace = Trace([("A", 1, 3), ("F", 2), ("R", 1, 9, 1), ("F", 1), ("F", 1)])
        assert validate_trace(trace) == validate_trace(trace)

    @pytest.mark.parametrize("event, message", [
        pytest.param(("A", 1, 0), "size must be >= 1", id="zero-size"),
        pytest.param(("R", 1, 0, 0), "length must be >= 1", id="zero-length"),
        pytest.param(("X", 1), "not a trace event: ('X', 1)", id="unknown-opcode"),
        pytest.param(("F",), "not a trace event: ('F',)", id="missing-field"),
        pytest.param(("G", 1), "not a trace event: ('G', 1)", id="extra-field"),
        pytest.param(("A", -1, 3),
                     "field -1 of ('A', -1, 3) is not an unsigned integer",
                     id="negative-id"),
        pytest.param(("R", 1, -1, 1),
                     "field -1 of ('R', 1, -1, 1) is not an unsigned integer",
                     id="negative-offset"),
        pytest.param(("W", 1, 0, "2"),
                     "field '2' of ('W', 1, 0, '2') is not an unsigned integer",
                     id="string-field"),
        pytest.param(("A", 1, 3.0),
                     "field 3.0 of ('A', 1, 3.0) is not an unsigned integer",
                     id="float-field"),
        pytest.param(("A", True, 3),
                     "field True of ('A', True, 3) is not an unsigned integer",
                     id="bool-field"),
        pytest.param((), "not a trace event: ()", id="empty"),
        pytest.param("A 1 3", "not a trace event: 'A 1 3'", id="not-a-tuple"),
        pytest.param(["A", 1, 3], "not a trace event: ['A', 1, 3]", id="list"),
        pytest.param((Opcode("G"),), "not a trace event: ('G',)", id="str-subclass"),
    ])
    def test_malformed_event(self, event, message):
        violations = validate_trace(Trace([("A", 1, 3), event]))
        assert violations == [f"event 1: {message}"]

    def test_malformed_event_is_dropped(self):
        trace = Trace([("A", 1, 0), ("R", 1, 0, 1), ("A", 1, 2), ("W", 1, 0, 2)])
        assert validate_trace(trace) == [
            "event 0: size must be >= 1", "event 1: read of dead object 1"]

    def test_messages(self):
        trace = Trace([("A", 1, 3), ("A", 1, 2), ("F", 2), ("W", 5, 0, 1),
                       ("R", 1, 2, 2), ("A", 2, 0)])
        assert validate_trace(trace) == [
            "event 1: alloc of live object 1",
            "event 2: free of dead object 2",
            "event 3: write of dead object 5",
            "event 4: read of 2 cells at offset 2 exceeds size 3 of object 1",
            "event 5: size must be >= 1",
        ]


class TestWrite:
    def test_single_event(self):
        assert format_trace(Trace([("G",)])) == "#! wearsim-trace v1\nG\n"

    def test_alloc_read(self):
        text = format_trace(Trace([("A", 7, 2), ("R", 7, 1, 1)]))
        assert text == "#! wearsim-trace v1\nA 7 2\nR 7 1 1\n"

    def test_mem_header_written(self):
        trace = Trace([("G",)], TraceHeader(suggested_mem_size_cells=64))
        assert format_trace(trace) == "#! wearsim-trace v1\n#mem 64\nG\n"

    @given(traces)
    def test_round_trip(self, trace):
        assert parse_trace(format_trace(trace)) == trace


#: Fields each line opener takes, so that most drawn lines are well formed.
LINE_FIELDS = {"A": 2, "F": 1, "R": 3, "W": 3, "G": 0, "X": 1, "#mem": 1, "#": 2,
               "": 0}


@st.composite
def trace_lines(draw):
    """One line from the format's alphabet and just past it.

    Most lines are events with the right field count, single spaces and
    ASCII numbers, zero included; the rest have one field too many or too
    few, a double space or a CR, fields that mix ASCII digits with digits
    that str.isdigit() or int() take but the format refuses, signs and
    underscores, or now and then a number past int()'s digit limit.
    """
    opener = draw(st.sampled_from(["A", "A", "F", "R", "R", "W", "W", "G",
                                   "X", "#mem", "#", ""]))
    arity = LINE_FIELDS[opener]
    count = draw(st.sampled_from([arity] * 8 + [arity + 1, max(0, arity - 1)]))
    line = opener
    for _ in range(count):
        line += draw(st.sampled_from([" "] * 8 + ["  ", "\r "]))
        kind = draw(st.sampled_from(["number"] * 14 + ["odd"] * 5 + ["huge"]))
        if kind == "number":
            line += str(draw(st.integers(0, 12)))
        elif kind == "odd":
            line += draw(st.text(st.one_of(st.sampled_from("0123456789"),
                                           st.sampled_from("\u0663\uff11\u00b2_+-")),
                                 min_size=1, max_size=3))
        else:
            line += "7" * draw(st.integers(4301, 4400))
    return line + draw(st.sampled_from(["", "", "", "\r", "\r\r"]))


#: Well-formed events with few ids, so that they meet the live set.
small_events = st.one_of(
    st.tuples(st.just("A"), st.integers(0, 12), st.integers(1, 20)),
    st.tuples(st.just("F"), st.integers(0, 12)),
    st.tuples(st.sampled_from("RW"), st.integers(0, 12), st.integers(0, 20),
              st.integers(1, 20)),
    st.just(("G",)),
)


@st.composite
def hand_built_events(draw):
    """An event no line could produce, or now and then a well-formed one."""
    event = draw(small_events)
    how = draw(st.sampled_from(["list", "opcode", "str-subclass", "field", "arity",
                                "last-zero", "as-drawn"]))
    if how == "list":
        return list(event)
    if how == "opcode":
        return (draw(st.sampled_from([None, 65, b"A", ("A",)])), *event[1:])
    if how == "str-subclass":
        return (Opcode(event[0]), *event[1:])
    if how == "field" and len(event) > 1:
        i = draw(st.integers(1, len(event) - 1))
        value = draw(st.sampled_from([True, False, 1.0, -1, "1"]))
        return (*event[:i], value, *event[i + 1:])
    if how == "arity":
        return (*event, 1) if draw(st.booleans()) else event[:-1]
    if how == "last-zero" and len(event) > 2:
        return (*event[:-1], 0)
    return event


class TestAgainstReference:
    """The table-gated reader and the per-opcode validator against the
    per-line reader and the generic validator they replaced."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(trace_lines(), max_size=8).map("\n".join))
    @example("R 1 2 3\r\r")  # one CR dropped: a field of "3\r"
    @example("R 1\r 2 3")
    @example("G\r")
    @example("F 0")  # no size: an id of 0 is an event
    @example("R 1 2 00")
    @example("A 1 05")
    @example("R x 2 " + "7" * 4400)  # the bad field first, not the digit limit
    @example("#mem 5\r")
    @example("A 1 3\r\n\r\r\nG\r\n\r")  # lone CR lines, in and at the end
    def test_parse_matches_reference(self, text):
        try:
            expected = reference_parse_trace(text)
        except ValueError as err:
            with pytest.raises(ValueError) as raised:
                parse_trace(text)
            assert str(raised.value) == str(err)
        else:
            assert parse_trace(text) == expected

    @settings(max_examples=150, deadline=None)
    @given(spec=specs, reuse=st.booleans(),
           inserts=st.lists(st.tuples(st.integers(0, 10 ** 6), hand_built_events()),
                            max_size=12))
    def test_validate_matches_reference(self, spec, reuse, inserts):
        trace = reuse_ids(generate(spec)) if reuse else generate(spec)
        events = list(trace.events)
        for position, event in inserts:
            events.insert(position % (len(events) + 1), event)
        assert validate_trace(Trace(events)) == reference_validate_trace(Trace(events))
