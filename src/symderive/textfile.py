"""The one text grammar of every file the package writes and reads back.

A machine-written file (a trace, a corpus file, a policy checkpoint, a
Q-table) is UTF-8 text whose lines each end in ``"\\n"``, with no ``"\\r"``
and no blank line. An int is written as ``str(n)`` and a float as
``repr(x)``, and each reader takes back only that text, so a file that
loads writes back the same bytes. A ``key=value`` header has one line per
key of its spec; its floats must also be finite. Its lines may come in any
order, and are written back in the spec's.

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
    """The float whose ``repr`` is ``text``; ValueError for any other text
    (``0.50``, ``+0.5``, ``.5``, ``1E-05``). ``nan`` and ``inf`` are taken:
    weights and Q-values need only round-trip."""
    value = float(text)
    if repr(value) != text:
        raise ValueError(f"not a float as written: {text!r}")
    return value


def _read_finite_float(text: str) -> float:
    value = read_float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite float: {text!r}")
    return value


_READERS = {int: read_int, float: _read_finite_float, str: str}
_WRITERS = {int: lambda v: str(int(v)), float: lambda v: repr(float(v)), str: str}


def read_header(lines: Sequence[str], spec: HeaderSpec, where: str, first_line: int = 1) -> dict[str, Any]:
    """Read the ``key=value`` header lines of a file (``seed.txt``, a policy
    checkpoint, a Q-table): exactly one line per key of ``spec``, in any
    order, its value read as the key's type. ``first_line`` is the file
    line number of ``lines[0]``. A line that is not ``key=value``, an
    unknown or repeated key, a value that is not what ``write_header``
    writes for its type and a missing key are refused, naming ``where`` and
    the line."""
    meta: dict[str, Any] = {}
    for lineno, line in enumerate(lines, start=first_line):
        key, sep, value = line.partition("=")
        if not sep:
            raise FileFormatError(f"{where} line {lineno}: expected key=value, got {line!r}")
        if key not in spec:
            raise FileFormatError(f"{where} line {lineno}: unknown header key {key!r}")
        if key in meta:
            raise FileFormatError(f"{where} line {lineno}: header key {key!r} appears twice")
        try:
            meta[key] = _READERS[spec[key]](value)
        except ValueError:
            kind = spec[key].__name__
            raise FileFormatError(f"{where} line {lineno}: {key} value {value!r} is not a valid {kind}") from None
    for key in spec:
        if key not in meta:
            raise FileFormatError(f"{where}: header has no {key} line")
    return meta


def write_header(fh: TextIO, spec: HeaderSpec, values: Mapping[str, Any]) -> None:
    """Write the header ``read_header`` reads back: one ``key=value`` line
    per key of ``spec``, in the spec's order, the value written as its
    declared type (an int by ``str``, a float by ``repr``)."""
    fh.write("".join(f"{key}={_WRITERS[kind](values[key])}\n" for key, kind in spec.items()))
