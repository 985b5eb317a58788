"""Block reader of a JSON file whose bulk is one top-level list of triangle rows.

:func:`read_object` reads the text in blocks and the ``"triangles"`` list a
slice of rows at a time, each slice read by the compiled ``parse_rows``
straight into one growing int32 buffer, so the rows never exist as Python
lists and the triangles are held once.  It takes only files whose values
it reads exactly as ``json.load`` does; on anything else it raises a
ValueError.  It imports no numpy.
"""
from __future__ import annotations

import json
import re
from collections.abc import Callable
from json.decoder import WHITESPACE, scanstring
from typing import Any

from . import _kernels

_ROW_TEXT = 1 << 16  # characters of triangle rows parsed at a time, and of a block read

_DECODER = json.JSONDecoder()
_WHITESPACE = WHITESPACE.match  # JSON's four whitespace characters
_LIST_END = re.compile(r"\][ \t\n\r]*\]")


class _Irregular(ValueError):
    """Text the block reader leaves to ``json.load``."""


class _Text:
    """A text file read block by block; ``text`` holds what was read since the last :meth:`drop`."""

    def __init__(self, fh: Any) -> None:
        self.fh, self.text = fh, ""

    def more(self) -> bool:
        """Append the next block, at least as long as the text held; False at the end of the file."""
        block = self.fh.read(max(_ROW_TEXT, len(self.text)))
        self.text += block
        return bool(block)

    def drop(self, i: int) -> None:
        """Forget the text before index ``i``, so that indices count from there."""
        self.text = self.text[i:]


def _nothing(text: str, i: int) -> tuple[None, int]:
    return None, i


def _key(text: str, i: int) -> tuple[str, int]:
    if text[i : i + 1] != '"':
        raise _Irregular
    return scanstring(text, i + 1)


def _step(src: _Text, i: int, parse: Callable[[str, int], tuple[Any, int]], follow: str) -> tuple[Any, int]:
    """``parse`` at the first non-whitespace index from ``i``, and the index of the next non-whitespace character.

    A parse counts once that next character is read, and it must be one of
    ``follow``.  The value then ends where it would in the whole text, as no
    value runs on past whitespace, a comma, a colon or a brace; a number
    that the end of the text read so far cuts just after its ``.`` or ``e``
    is left to ``json.load``.  While ``parse`` fails, or nothing follows it
    yet, more text is read; at the end of the file the text is irregular.
    """
    while True:
        text = src.text
        try:
            value, end = parse(text, _WHITESPACE(text, i).end())
        except ValueError:
            pass  # perhaps cut short by the end of the text read so far
        else:
            j = _WHITESPACE(text, end).end()
            if j < len(text):
                if text[j] not in follow:
                    raise _Irregular
                return value, j
        if not src.more():
            raise _Irregular


def _int32_rows(text: str) -> bytearray:
    """The rows ``[a, b, c], ...`` of ``text`` as int32 bytes, if every id is a JSON integer within int32.

    These are the rows ``json.loads("[" + text + "]")`` reads as a list of
    rows of three integers each within int32; any other text is irregular.
    Non-ASCII text is irregular before the compiled ``parse_rows`` runs, so
    the kernel reads one byte per character, and it gets room for one row
    per ``]``, the number of rows of any text it takes.  Every ``]`` of a
    slice but its last lies within its first ``_ROW_TEXT`` characters (see
    :func:`_triangle_list`), so however long hostile text makes a slice,
    the room stays within ``_ROW_TEXT + 1`` rows.
    """
    try:
        raw = text.encode("ascii")
    except UnicodeEncodeError:
        raise _Irregular from None
    room = text.count("]")
    rows = bytearray(12 * room)
    if _kernels.library().parse_rows(raw, len(raw), memoryview(rows).cast("i"), room) != room:
        raise _Irregular
    return rows


def _triangle_list(src: _Text, i: int) -> tuple[memoryview, int]:
    """The ``(F, 3)`` int32 buffer of the JSON list of triangle rows at index ``i``, and the index after the list.

    The rows are parsed about ``_ROW_TEXT`` characters at a time: each
    slice runs to the first ``]`` after that many characters, which must be
    followed by a comma, and the last slice to the first ``]`` ``]``.  Each
    slice holds whole rows exactly when ``json.loads`` reads it as a list of
    rows, so once every slice is read the text is that one list.  Each
    slice's rows are appended to one ``bytearray``, which the result views.
    """
    _, i = _step(src, i, _nothing, "[")
    rows = bytearray()
    while True:
        src.drop(i + 1)
        while True:
            text = src.text
            cut = text.find("]", _ROW_TEXT)
            after = _WHITESPACE(text, cut + 1).end() if cut >= 0 else len(text)
            if after < len(text) or not src.more():
                break
        if text[after : after + 1] == ",":
            rows += _int32_rows(text[: cut + 1])
            i = after
            continue
        end = _LIST_END.search(text, 0, after + 1)
        if end is None:
            raise _Irregular
        rows += _int32_rows(text[: end.start() + 1])
        return memoryview(rows).cast("i", (len(rows) // 12, 3)), end.end()


def read_object(fh: Any) -> dict[str, Any]:
    """The top-level JSON object of the text file ``fh``, read as ``json`` reads it but for a triangles list.

    It is walked key by key, so a repeated key keeps its first place and its
    last value.  A top-level ``"triangles"`` value is read by
    :func:`_triangle_list`; every other value by ``raw_decode``.  Text this
    reader does not take raises a ValueError (or the RecursionError of a
    deeply nested value), and ``json.load`` of the same file decides.
    """
    src = _Text(fh)
    data: dict[str, Any] = {}
    _, i = _step(src, 0, _nothing, "{")
    while src.text[i] != "}":
        key, i = _step(src, i + 1, _key, ":")
        if key == "triangles":
            data[key], i = _triangle_list(src, i + 1)
            _, i = _step(src, i, _nothing, ",}")
        else:
            data[key], i = _step(src, i + 1, _DECODER.raw_decode, ",}")
    src.drop(i + 1)
    while _WHITESPACE(src.text).end() == len(src.text):
        src.drop(len(src.text))
        if not src.more():
            return data
    raise _Irregular
