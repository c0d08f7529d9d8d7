"""The one text grammar of every file the package writes and reads back.

A machine-written file (a trace, a corpus file, a policy checkpoint, a
Q-table) is UTF-8 text whose lines each end in ``"\\n"``, with no ``"\\r"``
and no blank line. An int is written as ``str(n)`` and a float as
``repr(x)`` of a finite x, and each reader takes back only that text, so a
file that loads writes back the same bytes. A ``key=value`` header has one
line per key of its spec, in the spec's order. Each reader takes every line
at the place its writer puts it.

Files people write, rule files and formula arguments, are opened through
``read_file`` too, but keep their own tolerant readers.
"""

from __future__ import annotations

import math
from typing import Any, Mapping, Sequence, TextIO

from .errors import FileFormatError

# A header's keys in file order, each with the type of its value: int, float or str.
HeaderSpec = Mapping[str, type]


def read_file(path: str) -> str:
    """The text of a file with its line ends as they are on disk, so that a
    CR can be refused; a file that is not UTF-8 is refused, naming it."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def file_lines(text: str, where: str) -> list[str]:
    """The lines of ``text``, each without its ``"\\n"``. Text that does not
    end in ``"\\n"`` (unless it is empty), a ``"\\r"`` and a blank line are
    refused, naming ``where`` and the line."""
    lines = text.split("\n")
    if lines.pop():
        raise FileFormatError(f"{where} line {len(lines) + 1}: no newline at the end of the file")
    cr = text.find("\r")
    if cr >= 0:
        lineno = text.count("\n", 0, cr) + 1
        raise FileFormatError(f"{where} line {lineno}: carriage return")
    if "" in lines:
        raise FileFormatError(f"{where} line {lines.index('') + 1}: blank line")
    return lines


def read_int(text: str) -> int:
    """The int whose ``str`` is ``text``; ValueError for any other text
    (``+3``, ``03``, ``-0``, `` 3``, ``1_0``)."""
    value = int(text)
    if str(value) != text:
        raise ValueError(f"not an int as written: {text!r}")
    return value


def read_float(text: str) -> float:
    """The finite float whose ``repr`` is ``text``; ValueError for any other
    text (``0.50``, ``+0.5``, ``.5``, ``1E-05``, ``nan``, ``inf``)."""
    value = float(text)
    if repr(value) != text or not math.isfinite(value):
        raise ValueError(f"not a finite float as written: {text!r}")
    return value


_READERS = {int: read_int, float: read_float, str: str}
_WRITERS = {int: lambda v: str(int(v)), float: lambda v: repr(float(v)), str: str}


def read_header(lines: Sequence[str], spec: HeaderSpec, where: str, first_line: int = 1) -> dict[str, Any]:
    """Read the ``key=value`` header of a file (``seed.txt``, a policy
    checkpoint, a Q-table) from its first ``len(spec)`` lines: line i holds
    the i-th key of ``spec``, as ``write_header`` writes it, its value read
    as the key's type. Lines after the header are the caller's.
    ``first_line`` is the file line number of ``lines[0]``. A line that is
    not the next key's ``key=value``, a value that is not what
    ``write_header`` writes for its type and lines that end before the
    header does are refused, naming ``where`` and the line."""
    meta: dict[str, Any] = {}
    for i, (key, kind) in enumerate(spec.items()):
        if i == len(lines):
            raise FileFormatError(f"{where}: header has no {key} line")
        lineno, line = first_line + i, lines[i]
        if not line.startswith(key + "="):
            raise FileFormatError(f"{where} line {lineno}: expected the {key} line, got {line!r}")
        value = line[len(key) + 1 :]
        try:
            meta[key] = _READERS[kind](value)
        except ValueError:
            kind_name = kind.__name__
            raise FileFormatError(f"{where} line {lineno}: {key} value {value!r} is not a valid {kind_name}") from None
    return meta


def write_header(fh: TextIO, spec: HeaderSpec, values: Mapping[str, Any]) -> None:
    """Write the header ``read_header`` reads back: one ``key=value`` line
    per key of ``spec``, in the spec's order, the value written as its
    declared type (an int by ``str``, a float by ``repr``)."""
    fh.write("".join(f"{key}={_WRITERS[kind](values[key])}\n" for key, kind in spec.items()))
