"""Structured reports with their long string lists written a batch at a time.

``json.dump(..., indent=2)`` runs the pure-Python encoder, which escapes and
writes every string on its own.  A factor set of length-n words is a list of
``|F_n|`` strings, almost always of letters that JSON writes unchanged, so
such lists are checked a batch at a time and written without escaping.
"""

from __future__ import annotations

import json
from itertools import islice
from json.encoder import encode_basestring_ascii

from .cli import BATCH

#: Printable ASCII except '"' and '\\': the characters JSON writes unescaped.
_PLAIN = bytes(range(0x20, 0x7F)).translate(None, b'"\\')


def _write_string_list(strings: list[str], write) -> None:
    """Write a non-empty list as a value of the top-level object, as json does.

    A batch whose members are all plain is written unescaped; any other
    batch goes through json's own escaping, member by member.
    """
    write("[\n    ")
    for start in range(0, len(strings), BATCH):
        if start:
            write(",\n    ")
        batch = strings[start:start + BATCH]
        joined = "".join(batch)
        if joined.isascii() and not joined.encode("ascii").translate(None, _PLAIN):
            write('"' + '",\n    "'.join(batch) + '"')
        else:
            write(",\n    ".join(map(encode_basestring_ascii, batch)))
    write("\n  ]")


def write_structured(body: dict, write) -> None:
    """Write ``json.dump(body, fp, sort_keys=True, indent=2)`` and a newline.

    ``body`` is a non-empty dict with string keys; ``cli._emit`` sends only
    bodies that hold a long string list.  Every non-empty string list is
    written a batch at a time and every other value as json's chunks, so no
    more than a batch of the report is held at once.
    """
    encoder = json.JSONEncoder(sort_keys=True, indent=2)
    for i, key in enumerate(sorted(body)):
        write(("{\n  " if i == 0 else ",\n  ") + encode_basestring_ascii(key) + ": ")
        value = body[key]
        if isinstance(value, list) and value and set(map(type, value)) == {str}:
            _write_string_list(value, write)
            continue
        # json's chunks hold no raw newline but their own indentation
        chunks = encoder.iterencode(value)
        while piece := "".join(islice(chunks, BATCH)):
            write(piece.replace("\n", "\n  "))
    write("\n}\n")
