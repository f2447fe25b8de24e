"""The report writer: batched output equals json.dumps and the print loop."""

import io
import json
from contextlib import redirect_stdout

from hypothesis import given, strategies as st

from wordorbits import __version__
from wordorbits.cli import BATCH, STRUCTURED_FORMAT, _emit
from wordorbits.jsonbatch import write_structured

PLAIN = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E,
                              blacklist_characters='"\\'), max_size=6)
# each needs escaping: quote, backslash, control characters, DEL, non-ASCII
# (a two-byte letter, a line separator, a lone surrogate, an astral letter)
ESCAPED = st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "é",
                           "\u2028", "\ud800", "\U0001d11e"])
TEXT = st.lists(PLAIN | ESCAPED, max_size=4).map("".join)
SCALARS = st.none() | st.booleans() | st.integers() | TEXT
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=12)
LENGTHS = (0, 1, BATCH - 1, BATCH, BATCH + 1, 2 * BATCH + 1)


@st.composite
def string_lists(draw):
    """Plain strings around the batch sizes, at times one escaped in the last batch."""
    n = draw(st.sampled_from(LENGTHS))
    members = draw(st.lists(PLAIN, min_size=n, max_size=n))
    if members and draw(st.booleans()):
        members[-1] += draw(ESCAPED)
    return members


PAYLOADS = st.dictionaries(TEXT, VALUES | string_lists(), max_size=5)


def emitted(payload, text, csv_lines, fmt, echo):
    out = io.StringIO()
    with redirect_stdout(out):
        _emit(payload, text, csv_lines, fmt, echo)
    return out.getvalue()


@given(PAYLOADS, TEXT)
def test_structured_output_equals_json_dumps(payload, echo):
    body = {"format": STRUCTURED_FORMAT, "version": __version__, "command": echo}
    body.update(payload)
    expected = json.dumps(body, sort_keys=True, indent=2) + "\n"
    assert emitted(payload, [], [], "structured", echo) == expected


@given(st.dictionaries(TEXT, VALUES | string_lists(), min_size=1, max_size=5))
def test_write_structured_equals_json_dumps(body):
    out = io.StringIO()
    write_structured(body, out.write)
    assert out.getvalue() == json.dumps(body, sort_keys=True, indent=2) + "\n"


@given(st.sampled_from(LENGTHS).flatmap(
    lambda n: st.lists(TEXT, min_size=n, max_size=n)), TEXT)
def test_text_and_csv_equal_the_print_loop(lines, echo):
    old = io.StringIO()
    with redirect_stdout(old):
        print(f"# wordorbits {__version__}")
        print(f"# command: {echo}")
        for line in lines:
            print(line)
    assert emitted({}, lines, [], "text", echo) == old.getvalue()
    assert emitted({}, [], lines, "csv", echo) == old.getvalue()
