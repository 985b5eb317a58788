"""Block reader of a JSON file whose bulk is one top-level list of triangle rows.

:func:`read_object` reads the bytes of a file in blocks.  The compiled
``parse_rows`` reads the ``"triangles"`` list from them whole rows at a
time, into a buffer of one block's rows that is appended to one growing
int32 buffer, so the rows never exist as Python lists and the triangles
are held once.  It takes only files whose values it reads exactly as
``json.load`` does; on anything else it raises a ValueError.  It imports
no numpy.
"""
from __future__ import annotations

import json
from collections.abc import Callable
from json.decoder import WHITESPACE, scanstring
from typing import Any

from . import _kernels

_ROW_TEXT = 1 << 16  # bytes of a block read; it sets the rows a parse_rows call reads, as a row takes at least 7

_DECODER = json.JSONDecoder()
_WHITESPACE = WHITESPACE.match  # JSON's four whitespace characters


class _Irregular(ValueError):
    """Text the block reader leaves to ``json.load``."""


class _Text:
    """A binary file read block by block; ``text`` holds the bytes read since the last :meth:`drop`."""

    def __init__(self, fh: Any) -> None:
        self.fh, self.text = fh, b""

    def more(self) -> bool:
        """Append the next block, at least as long as the bytes held; False at the end of the file."""
        block = self.fh.read(max(_ROW_TEXT, len(self.text)))
        self.text += block
        return bool(block)

    def drop(self, i: int) -> None:
        """Forget the bytes before index ``i``, so that indices count from there."""
        self.text = self.text[i:]


def _nothing(text: str, i: int) -> tuple[None, int]:
    return None, i


def _key(text: str, i: int) -> tuple[str, int]:
    if text[i : i + 1] != '"':
        raise _Irregular
    return scanstring(text, i + 1)


def _step(src: _Text, i: int, parse: Callable[[str, int], tuple[Any, int]], follow: str) -> tuple[Any, int]:
    """``parse`` at the first non-whitespace index from ``i``, and the index of the next non-whitespace character.

    ``parse`` reads the bytes held decoded as ASCII; a non-ASCII byte is
    irregular.  A parse counts once that next character is read, and it
    must be one of ``follow``.  The value then ends where it would in the
    whole text, as no value runs on past whitespace, a comma, a colon or a
    brace; a number that the end of the text read so far cuts just after
    its ``.`` or ``e`` is left to ``json.load``.  While ``parse`` fails, or
    nothing follows it yet, more text is read; at the end of the file the
    text is irregular.
    """
    while True:
        text = src.text.decode("ascii")
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


def _parse_rows(text: bytes, out: Any, used: Any) -> int:
    """The compiled ``parse_rows`` of at most ``len(out)`` rows at the start of ``text`` into ``out``.

    Raises ValueError, before the kernel runs, unless ``text`` is bytes,
    ``out`` a writable ``(room, 3)`` int32 buffer and ``used`` a writable
    buffer of two int64 (see :func:`ringfill._kernels.takes`).
    """
    if not isinstance(text, bytes):
        raise ValueError(f"parse_rows reads bytes, got {type(text).__name__}")
    room = len(_kernels.checked(out, _kernels.INT32, (None, 3), "rows", writable=True))
    _kernels.checked(used, _kernels.INT64, (2,), "used", writable=True)
    return _kernels.library().parse_rows(text, len(text), out, room, used)


def _triangle_list(src: _Text, i: int) -> memoryview:
    """The ``(F, 3)`` int32 buffer of the JSON list of triangle rows at index ``i``; ``src`` then holds what follows it.

    The rows are read by :func:`_parse_rows` into room for one block's
    rows, which are appended to one ``bytearray`` that the result views,
    and the bytes it read are dropped.  When it counts fewer rows than
    its room without reaching the list's ``]``, the bytes held end in a
    row, and the next block is read.  So the text is taken exactly when
    ``json.loads`` reads it as a list of rows of three int32 integers.
    """
    _, i = _step(src, i, _nothing, "[")
    src.drop(i + 1)
    out, used = _kernels.buffer("i", _ROW_TEXT // 7 + 1, 3), _kernels.buffer("q", 2)
    rows = bytearray()
    while True:
        count = _parse_rows(src.text, out, used)
        if count < 0:
            raise _Irregular
        rows += out[:count]
        src.drop(used[0])
        if used[1]:
            return memoryview(rows).cast("i", (len(rows) // 12, 3))
        if count < len(out) and not src.more():
            raise _Irregular


def read_object(fh: Any) -> dict[str, Any]:
    """The top-level JSON object of the binary file ``fh``, read as ``json`` reads it but for a triangles list.

    It is walked key by key, so a repeated key keeps its first place and its
    last value.  A top-level ``"triangles"`` value is read by
    :func:`_triangle_list`; every other value by ``raw_decode``.  Text this
    reader does not take, a non-ASCII byte included, raises a ValueError
    (or the RecursionError of a deeply nested value), and ``json.load`` of
    the same file decides.
    """
    src = _Text(fh)
    data: dict[str, Any] = {}
    _, i = _step(src, 0, _nothing, "{")
    while src.text[i : i + 1] != b"}":
        key, i = _step(src, i + 1, _key, ":")
        if key == "triangles":
            data[key] = _triangle_list(src, i + 1)
            _, i = _step(src, 0, _nothing, ",}")
        else:
            data[key], i = _step(src, i + 1, _DECODER.raw_decode, ",}")
    src.drop(i + 1)
    while not src.text.strip(b" \t\n\r"):
        src.drop(len(src.text))
        if not src.more():
            return data
    raise _Irregular
