"""The block reader behind ``serialize.load_json`` against ``json.load``, the reader it replaces.

Every file, well formed or not, must load to the same values, or fail
with the same error, as it does through ``json.load``, and then give the
same complex, or the same error, through ``complex_from_dict``.  The texts
are a small build file and a bare complex, mutated where a reader that
reads the triangle rows block by block could go wrong.  The block size is
shrunk as well, and the reads cut short, so that small files are read in
many blocks and kernel calls.
"""
import io
import json
import re
from unittest import mock

import numpy as np
import pytest
import reference_impl as ref
from hypothesis import given, settings, strategies as st

import ringfill._reader as reader
from ringfill import _kernels, cone_over_cycle
from ringfill.serialize import build_to_dict, complex_from_dict, dump_json, load_json, triangulation_to_dict


def _reference(path):
    """``load_json`` as it was: ``json.load`` of the whole file."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _outcome(load, path):
    """The loaded value in JSON (a triangle buffer as its list) and the complex, or each step's error."""
    try:
        data = load(path)
    except Exception as exc:  # the error is compared, whatever its type
        return "load", type(exc), str(exc)
    shown = json.dumps(data, default=lambda rows: rows.tolist())
    try:
        t, build = complex_from_dict(data)
    except Exception as exc:
        return shown, type(exc), str(exc)
    return shown, t.n, t.num_vertices, np.asarray(t.triangles).dtype, t.triangles.tolist(), build and build.ledger


def _fast(path):
    """Whether the block reader takes the file, without falling back to ``json.load``."""
    with open(path, "rb") as fh:
        try:
            reader.read_object(fh)
        except ValueError:
            return False
    return True


@pytest.fixture(scope="module")
def texts(small_build, tmp_path_factory):
    """The text of the n = 25 build file and of a bare complex, as ``dump_json`` writes them."""
    out = {}
    for name, data in (("build", build_to_dict(small_build)), ("bare", triangulation_to_dict(cone_over_cycle(7)))):
        path = tmp_path_factory.mktemp("texts") / f"{name}.json"
        dump_json(data, str(path))
        out[name] = path.read_text(encoding="utf-8")
    return out


def _triangles_at(text):
    return text.index('"triangles"')


def _replace(text, pattern, k, token):
    """``text`` with the k-th match (mod their number) of ``pattern`` after the triangles key replaced by ``token``."""
    start = _triangles_at(text) + len('"triangles":')
    spans = [m.span() for m in re.finditer(pattern, text[start:])]
    if not spans:
        return text
    lo, hi = spans[k % len(spans)]
    return text[: start + lo] + token + text[start + hi :]


_ID = r"-?\d+"
_ROW = r"\[[^\[\]]*\]"
_SPACE = r"[ \n]+"


def _insert(text, where, entry):
    """``text`` with the top-level ``entry`` put first, just before the triangles, or last."""
    if where == "first":
        i = text.index("{") + 1
        return text[:i] + entry + "," + text[i:]
    if where == "before":
        i = _triangles_at(text)
        return text[:i] + entry + ", " + text[i:]
    i = text.rindex("}")
    return text[:i] + ", " + entry + text[i:]


def _set_triangles(text, value):
    """``text`` with the whole triangles value replaced by ``value``."""
    start = _triangles_at(text) + len('"triangles":')
    start = re.compile(r"\s*").match(text, start).end()
    try:
        _, end = json.JSONDecoder().raw_decode(text, start)
    except ValueError:
        return text
    return text[:start] + value + text[end:]


def _write(path, text, encoding):
    if encoding == "bom":
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    elif encoding.startswith("bad@"):
        raw = text.encode("utf-8")
        k = int(encoding[4:]) % (len(raw) + 1)
        path.write_bytes(raw[:k] + b"\xff" + raw[k:])
    else:
        path.write_bytes(text.encode(encoding))


_ENTRIES = [
    '"note": "\\"triangles\\": [[0, 1, 2]]"',
    '"note": "]]"',
    '"note": "] ]"',
    '"extra": {"triangles": [[0, 1, 2]]}',
    '"triangles": [[0, 1, 2], [1, 2, 3]]',
    '"triangles": [[0, true, 2]]',
    '"tri\\u0061ngles": [[0, 1, 2]]',
    '"list": [[1], [2]]',
    '"n": 1.0',
]
_ID_TOKENS = [
    "1.0", "true", "false", '"3"', "-0", "0", "1", "-1", "1e2", "null", "NaN", "01", "[1, 2, 3]",
    "2147483647", "2147483648", "-2147483648", "-2147483649",
    "9223372036854775807", "9223372036854775808", "18446744073709551616",
]
_ROW_TOKENS = ["5", "[1, 2]", "[1, 2, 3, 4]", "[[1, 2, 3]]", "[]", "[0,1,2]", '"row"', "[true, false, true]"]
_VALUES = ["[]", "[[]]", "[[0, 1, 2]]", "null", "{}", '"triangles"', "[[0, 1, 2] ,[1, 2, 3] ]"]
_SPACES = ["", " ", "\t", "\r\n", "\r", "\n\n", "\u00a0", "\x0b", "\f"]

_mutations = st.one_of(
    st.tuples(st.just("id"), st.integers(0, 10**4), st.sampled_from(_ID_TOKENS)),
    st.tuples(st.just("row"), st.integers(0, 10**4), st.sampled_from(_ROW_TOKENS)),
    st.tuples(st.just("space"), st.integers(0, 10**4), st.sampled_from(_SPACES)),
    st.tuples(st.just("entry"), st.sampled_from(["first", "before", "last"]), st.sampled_from(_ENTRIES)),
    st.tuples(st.just("value"), st.just(0), st.sampled_from(_VALUES)),
    st.tuples(st.just("cut"), st.integers(0, 10**5), st.just("")),
    st.tuples(st.just("append"), st.just(0), st.sampled_from(["\n\n", " x", "{}", "]", "\u00a0"])),
    st.tuples(st.just("sep"), st.integers(0, 10**4), st.sampled_from(["", " ", ";", "::", ",,", ":", ","])),
)


def _mutate(text, mutation):
    kind, k, token = mutation
    if kind == "id":
        return _replace(text, _ID, k, token)
    if kind == "row":
        return _replace(text, _ROW, k, token)
    if kind == "space":
        return _replace(text, _SPACE, k, token)
    if kind == "entry":
        return _insert(text, k, token)
    if kind == "value":
        return _set_triangles(text, token)
    if kind == "append":
        return text + token
    if kind == "sep":  # a comma or colon of the header
        spans = [m.span() for m in re.finditer(r"[,:]", text[: _triangles_at(text)])]
        if not spans:
            return text
        lo, hi = spans[k % len(spans)]
        return text[:lo] + token + text[hi:]
    return text[: k % (len(text) + 1)]


@settings(max_examples=250, deadline=None)
@given(
    name=st.sampled_from(["build", "bare"]),
    mutations=st.lists(_mutations, max_size=3),
    encoding=st.one_of(
        st.sampled_from(["utf-8", "utf-8", "utf-8", "bom", "utf-16"]), st.integers(0, 10**5).map("bad@{}".format)
    ),
    row_text=st.sampled_from([1, 5, 64, 1 << 16]),
)
def test_reader_matches_json_load(texts, tmp_path_factory, name, mutations, encoding, row_text):
    text = texts[name]
    for mutation in mutations:
        if '"triangles"' in text:
            text = _mutate(text, mutation)
    path = tmp_path_factory.mktemp("mutated") / "x.json"
    _write(path, text, encoding)
    with mock.patch.object(reader, "_ROW_TEXT", row_text):
        assert _outcome(load_json, str(path)) == _outcome(_reference, str(path))


# (mutation, whether the block reader takes the mutated file)
_TRAPS = {
    "string-with-key": (("entry", "before", _ENTRIES[0]), True),
    "string-with-brackets": (("entry", "first", _ENTRIES[1]), True),
    "string-with-spaced-brackets": (("entry", "before", _ENTRIES[2]), True),
    "nested-key": (("entry", "before", _ENTRIES[3]), True),
    "duplicate-key-last-wins": (("entry", "last", _ENTRIES[4]), True),
    "duplicate-key-first": (("entry", "first", _ENTRIES[4]), True),
    "duplicate-key-boolean": (("entry", "last", _ENTRIES[5]), False),
    "escaped-key": (("entry", "last", _ENTRIES[6]), True),
    "nested-lists-after": (("entry", "last", _ENTRIES[7]), True),
    "float-id": (("id", 7, "1.0"), False),
    "boolean-id": (("id", 3, "true"), False),
    "false-id": (("id", 0, "false"), False),
    "string-id": (("id", 5, '"3"'), False),
    "minus-zero": (("id", 0, "-0"), True),
    "int32-max": (("id", 4, "2147483647"), True),
    "above-int32": (("id", 4, "2147483648"), False),
    "negative-id": (("id", 4, "-1"), True),
    "below-int32": (("id", 4, "-2147483649"), False),
    "above-int64": (("id", 4, "9223372036854775808"), False),
    "above-uint64": (("id", 4, "18446744073709551616"), False),
    "ragged-short": (("row", 2, "[1, 2]"), False),
    "ragged-scalar": (("row", 1, "5"), False),
    "nested-row": (("row", 3, "[[1, 2, 3]]"), False),
    "empty-row": (("row", 3, "[]"), False),
    "empty-list": (("value", 0, "[]"), False),
    "null-triangles": (("value", 0, "null"), False),
    "tab": (("space", 9, "\t"), True),
    "crlf": (("space", 9, "\r\n"), True),
    "no-space": (("space", 9, ""), True),
    "nbsp": (("space", 9, "\u00a0"), False),
    "vertical-tab": (("space", 9, "\x0b"), False),
    "truncated": (("cut", 1000, ""), False),
    "trailing-space": (("append", 0, "\n\n"), True),
    "trailing-data": (("append", 0, "{}"), False),
    "colon-for-comma": (("sep", 1, ":"), False),
    "missing-colon": (("sep", 0, " "), False),
}


@pytest.mark.parametrize("name", ["build", "bare"])
@pytest.mark.parametrize("row_text", [5, 1 << 16])
@pytest.mark.parametrize("trap", list(_TRAPS))
def test_reader_trap(texts, tmp_path, monkeypatch, name, row_text, trap):
    mutation, fast = _TRAPS[trap]
    monkeypatch.setattr(reader, "_ROW_TEXT", row_text)
    path = tmp_path / "x.json"
    _write(path, _mutate(texts[name], mutation), "utf-8")
    assert _outcome(load_json, str(path)) == _outcome(_reference, str(path))
    assert _fast(str(path)) == fast


@pytest.mark.parametrize("encoding", ["bom", "utf-16", "utf-16-le", "bad@0", "bad@300", "bad@100000"])
@pytest.mark.parametrize("name", ["build", "bare"])
def test_reader_refuses_what_json_load_refuses(texts, tmp_path, name, encoding):
    path = tmp_path / "x.json"
    _write(path, texts[name], encoding)
    want = _outcome(_reference, str(path))
    assert want[0] == "load"
    assert _outcome(load_json, str(path)) == want


@pytest.mark.parametrize("row_text", [1, 64, 1 << 16])
@pytest.mark.parametrize("name", ["build", "bare"])
def test_written_files_load_as_int32_rows(texts, tmp_path, monkeypatch, name, row_text):
    monkeypatch.setattr(reader, "_ROW_TEXT", row_text)
    path = tmp_path / "x.json"
    path.write_text(texts[name], encoding="utf-8")
    data = load_json(str(path))
    want = json.loads(texts[name])
    assert list(data) == list(want)
    assert {k: v for k, v in data.items() if k != "triangles"} == {k: v for k, v in want.items() if k != "triangles"}
    assert np.asarray(data["triangles"]).dtype == np.int32
    assert data["triangles"].tolist() == want["triangles"]
    t, _ = complex_from_dict(data)
    assert t.triangles is data["triangles"]  # taken over, not copied


class _ShortReads(io.BytesIO):
    """A binary file whose ``read`` returns at most ``k`` bytes."""

    def __init__(self, data, k):
        super().__init__(data)
        self.k = k

    def read(self, size=-1):
        return super().read(self.k if size < 0 else min(size, self.k))


@pytest.mark.parametrize("name", ["build", "bare"])
@pytest.mark.parametrize("row_text", [1, 5, 64])
@pytest.mark.parametrize("k", range(1, 8))
def test_short_reads_take_the_fast_path(texts, monkeypatch, k, row_text, name):
    # A read that returns fewer bytes than asked cuts rows, ids and keys
    # anywhere; the reader itself, with no json.load behind it, still takes
    # the file and reads what json.load reads.
    monkeypatch.setattr(reader, "_ROW_TEXT", row_text)
    text = texts[name]
    data = reader.read_object(_ShortReads(text.encode(), k))
    assert json.dumps(data, default=lambda rows: rows.tolist()) == json.dumps(json.loads(text))


def _kernel_rows(text):
    """The int32 bytes ``parse_rows`` reads from ``text + "]"``, the rest of a list, or None where it refuses it.

    The kernel gets one block's rows of room, as the reader gives it, and
    must read every byte and close the list.
    """
    raw = (text + "]").encode("utf-8")
    out, used = _kernels.buffer("i", reader._ROW_TEXT // 7 + 1, 3), _kernels.buffer("q", 2)
    count = reader._parse_rows(raw, out, used)
    if count < 0 or used.tolist() != [len(raw), 1]:
        return None
    return out[:count].tobytes()


def _reference_rows(text):
    try:
        return ref.int32_rows(text).tobytes()
    except ValueError:
        return None


_ACCEPTED = [
    "[0, 1, 2]",
    "[0,1,2],[3,4,5]",
    "\t[0,\t1,\t2]\t,\r\n[3 ,4, 5\r]",
    "\n    [\n      -0,\n      2147483647,\n      -2147483648\n    ]",
    "[10, 9, 100], [-1, -10, 0]",
]
_REFUSED = {
    "leading-zero": "[01, 1, 2]",
    "fraction": "[1.0, 1, 2]",
    "exponent": "[1e3, 1, 2]",
    "boolean": "[true, 1, 2]",
    "no-break-space": "[0,\u00a01, 2]",
    "above-int32": "[2147483648, 1, 2]",
    "below-int32": "[-2147483649, 1, 2]",
    "two-ids": "[0, 1]",
    "four-ids": "[0, 1, 2, 3]",
    "trailing-comma": "[0, 1, 2],",
    "no-row": "  ",
    "nested": "[[0, 1, 2]]",
    "minus-only": "[-, 1, 2]",
    "vertical-tab": "[0,\x0b1, 2]",
}


@pytest.mark.parametrize("text", _ACCEPTED)
def test_row_kernel_reads_what_json_loads_reads(text):
    assert _kernel_rows(text) == _reference_rows(text) is not None


@pytest.mark.parametrize("name", list(_REFUSED))
def test_row_kernel_refuses_what_the_numpy_reader_refused(texts, tmp_path, name):
    text = _REFUSED[name]
    assert _kernel_rows(text) is None
    assert _reference_rows(text) is None
    # in a file, the refused rows fall back to json.load, which decides
    for kind in ("build", "bare"):
        path = tmp_path / f"{kind}.json"
        _write(path, _set_triangles(texts[kind], "[[0, 1, 2], " + text + ", [1, 2, 3]]"), "utf-8")
        assert not _fast(str(path))
        assert _outcome(load_json, str(path)) == _outcome(_reference, str(path))


_tokens = st.one_of(
    st.integers(-(2**31), 2**31 - 1).map(str),
    st.integers(-(2**33), 2**33).map(str),
    st.sampled_from(["-0", "01", "-01", "1.0", "1e3", "1E3", "true", "false", "null", '"1"', "-", "", "0x1", "+1"]),
)
_gaps = st.sampled_from(["", "", " ", "\t", "\n", "\r", "\r\n  ", " ", "\x0b", "\f", "\x00"])


@st.composite
def _row_texts(draw):
    """Row text from JSON tokens and gaps: mostly rows of three integers, sometimes anything the reader must refuse."""
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        ids = draw(st.lists(_tokens, min_size=2, max_size=4))
        gaps = draw(st.lists(_gaps, min_size=2 * len(ids) + 2, max_size=2 * len(ids) + 2))
        cells = [g + t + h for g, t, h in zip(gaps[1::2], ids, gaps[2::2])]
        rows.append(gaps[0] + "[" + ",".join(cells) + "]" + gaps[-1])
    return draw(st.sampled_from([",", ",", " ,", ", \n", ";"])).join(rows) + draw(st.sampled_from(["", "", ","]))


@settings(max_examples=400, deadline=None)
@given(_row_texts())
def test_row_kernel_matches_json_loads(text):
    assert _kernel_rows(text) == _reference_rows(text)


def test_row_buffer_stays_one_block_of_rows(monkeypatch):
    # A list of a hundred thousand rows is read a block's rows at a time:
    # the kernel's row buffer is the same however long the text, and the
    # reader holds little beyond the int32 rows it returns.
    import tracemalloc

    text = b'{"triangles": [' + b"[0, 1, 2], " * 10**5 + b"[0, 1, 2]]}"
    rooms = []
    parse = reader._parse_rows

    def spy(text, out, used):
        rooms.append(len(out))
        return parse(text, out, used)

    monkeypatch.setattr(reader, "_parse_rows", spy)
    fh = io.BytesIO(text)
    tracemalloc.start()
    try:
        rows = reader.read_object(fh)["triangles"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.tolist() == [[0, 1, 2]] * (10**5 + 1)
    assert set(rooms) == {reader._ROW_TEXT // 7 + 1} and len(rooms) > len(text) // reader._ROW_TEXT
    assert peak < 2 * len(text)
