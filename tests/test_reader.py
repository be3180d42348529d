"""The document reader's two routes: the array decoder for text in the
exact layout dumps_document writes, and json.loads for everything else.
Whatever the route, the arrays are bitwise those of json.loads and a bad
document raises the same exception class and CLI exit code."""

import contextlib
import functools
import json
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exphermite.document as document
from exphermite import (
    CurveDocument,
    DocumentFormatError,
    DomainError,
    dumps_document,
    loads_document,
    refined_document,
    subdivide,
    unit_circle,
)
from exphermite.cli import main

NUMBER = re.compile(r"-?[0-9][0-9.e+-]*")


@contextlib.contextmanager
def route(fast):
    """``fast``: loads_document tries the array decoder whatever the size;
    otherwise it only uses json.loads."""
    saved = document.SMALL_READ_BYTES
    document.SMALL_READ_BYTES = 0 if fast else math.inf
    try:
        yield
    finally:
        document.SMALL_READ_BYTES = saved


def outcome(text, fast):
    """The arrays loads_document reads from text, or the class of the
    exception it raises."""
    with route(fast):
        try:
            doc = loads_document(text)
        except (DocumentFormatError, DomainError) as exc:
            return type(exc)
    return doc.points, doc.tangents


def exit_codes(text):
    """The exit codes of the CLI reading text through each route."""
    codes = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for fast in (True, False):
            with route(fast):
                try:
                    codes.append(main(["subdivide", path, "--levels", "0",
                                       "--out", path + ".out"]))
                except SystemExit as exc:
                    codes.append(exc.code)
    return codes


def assert_same(a, b):
    if isinstance(a, type) or isinstance(b, type):
        assert a is b
    else:
        for x, y in zip(a, b):
            assert x.shape == y.shape
            assert np.array_equal(x.view(np.int64), y.view(np.int64))


def writer_text(points, tangents):
    return dumps_document(CurveDocument(1, len(points), np.asarray(points, float),
                                        np.asarray(tangents, float)))


def spoil(text, index, token):
    """text with the index-th number of its arrays replaced by token."""
    numbers = list(NUMBER.finditer(text, text.index('"points"')))
    m = numbers[index % len(numbers)]
    return text[:m.start()] + token + text[m.end():]


@functools.cache
def big_document(seed=0, rows=1500):
    """A writer document above SMALL_READ_BYTES."""
    rng = np.random.default_rng(seed)
    text = writer_text(rng.normal(size=(rows, 2)), 1e-6 * rng.normal(size=(rows, 2)))
    assert len(text) >= document.SMALL_READ_BYTES
    return text


FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-10, 10),
    st.integers(-1000, 1000).map(float),
    st.sampled_from([0.0, -0.0, 1.0, 1e-4, 1e16, 2.0**53, 5e-324, 1e-300, 1e300]),
)
ROWS = st.integers(3, 12).flatmap(
    lambda m: st.lists(st.tuples(FLOATS, FLOATS), min_size=2 * m, max_size=2 * m))
BAD_TOKENS = st.one_of(
    st.sampled_from(["01", "+1", ".5", "1.", "-0", "-0.0", "-01", "1e", "1-2", "1.2.3",
                     "1e5.0", "[1,2]", "1, 2", "", "-", "e5", "1E5", "1e+", "1e1234",
                     "1e999", "-1e999", "4503599627370496.5", "123456789012345678",
                     "1" * 34, "NaN", "true", '"1"', "1 ", " 1", "1]", "[1", "é1"]),
    st.text(alphabet="0123456789.-+eE[], ", max_size=6),
)


@settings(max_examples=150, deadline=None)
@given(rows=ROWS, spoiled=st.booleans(), index=st.integers(0, 10**6), token=BAD_TOKENS)
def test_decoder_agrees_with_json_on_writer_text(rows, spoiled, index, token):
    m = len(rows) // 2
    values = np.array(rows, dtype=float)
    text = writer_text(values[:m], values[m:])
    if spoiled:
        text = spoil(text, index, token)
    fast = outcome(text, fast=True)
    assert_same(fast, outcome(text, fast=False))
    if isinstance(fast, type):
        assert exit_codes(text) == [{DomainError: 3, DocumentFormatError: 4}[fast]] * 2
    if not spoiled:
        expected = outcome(text, fast=False)
        assert np.array_equal(expected[0], values[:m]) and np.array_equal(expected[1], values[m:])


@pytest.mark.parametrize("token", [
    "01", "+1", ".5", "1.", "-0", "-01", "1e", "1-2", "1.2.3", "1e5.0", "[1,2]",
    "1" * 34, "123456789012345678", "4503599627370496.5", "1e999", "é",
    "1]7", "1,", "E5", "1e-999", "0x1", "123456789012345670000", "9" * 24, "0." + "0" * 23,
])
@pytest.mark.parametrize("where", [0, 1, 2999, 5999])
def test_adversarial_tokens_fall_back(token, where):
    text = spoil(big_document(), where, token)
    assert document._read_layout(text) is None
    assert_same(outcome(text, fast=True), outcome(text, fast=False))
    codes = exit_codes(text)
    assert codes[0] == codes[1] and codes[0] in (0, 3, 4)


@pytest.mark.parametrize("edit", [
    lambda t: " " + t,
    lambda t: t + " ",
    lambda t: "\n" + t,
    lambda t: t.replace("\n", "\r\n"),
    lambda t: t.replace('"auto"', '"autó"'),
    lambda t: t.replace('"auto"', '"au\\u0074o"'),
    lambda t: t.replace('"version": 1', '"version": 2'),
    lambda t: t.replace('"version": 1', '"version": 1.0'),
    lambda t: t.replace('"M": 1500', '"M": 1499'),
    lambda t: t.replace('"M": 1500', '"M": true'),
    lambda t: t.replace('"auto"', '"fixed"'),
    lambda t: t.replace("], [", "],[", 1),
    lambda t: t.replace("], [", "]7, [", 1),
    lambda t: t.replace("], [", "],  [", 1),
    lambda t: t.replace("], [", "], [[", 1),
    lambda t: t.replace("]]", "], [1, 2]]", 1),
    lambda t: t.replace(", [", ", [1, ", 1),
    lambda t: t.replace("[[", "[[1], [", 1),
    lambda t: t.replace(']\n}', '], "extra": 1\n}'),
])
def test_layout_edits_agree_with_json(edit):
    text = edit(big_document())
    assert_same(outcome(text, fast=True), outcome(text, fast=False))


def test_wide_range_doubles_agree_with_json():
    rng = np.random.default_rng(3)
    magnitudes = np.exp(rng.uniform(math.log(1e-320), math.log(1e300), (4000, 2)))
    values = magnitudes * rng.choice([-1.0, 1.0], (4000, 2))
    values[:4] = [[1e-4, -1e-4], [1e16, -1e16], [1e-4, 1e16], [0.0, 1.0]]
    text = writer_text(values, values[::-1])
    assert_same(outcome(text, fast=True), (values, values[::-1]))
    # without the subnormals and the values beyond the table, every lane
    # decodes on the fast route
    inner = np.clip(magnitudes, 1e-270, 1e290) * np.sign(values)
    text = writer_text(inner, -inner)
    assert document._read_layout(text) is not None
    assert_same(outcome(text, fast=True), (inner + 0.0, -inner + 0.0))  # no -0.0


def writer_documents():
    """Documents the writer produces above SMALL_READ_BYTES."""
    for m in range(3, 65):
        curve = unit_circle(m)
        levels = max(0, math.ceil(math.log2(1200 / m)))
        yield refined_document(CurveDocument.from_curve(curve),
                               subdivide(curve.freq, curve.to_hermite_data(), levels))
    # deep levels of a small circle: tangents in exponent notation
    curve = unit_circle(8)
    small = CurveDocument(1, 8, 1e-2 * curve.points, 1e-2 * curve.tangents)
    small_curve = small.curve()
    yield refined_document(small, subdivide(small_curve.freq,
                                            small_curve.to_hermite_data(), 11))
    # integers, and negative zeros that the writer prints as 0
    rng = np.random.default_rng(5)
    points = np.round(rng.normal(scale=3, size=(16000, 2)))
    points[::7] = -0.0
    yield CurveDocument(1, 16000, points, -points)


def test_writer_documents_take_the_array_decoder(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("json.loads called")

    texts = [dumps_document(doc) for doc in writer_documents()]
    assert any("e-0" in t for t in texts) and any("[0, " in t for t in texts)
    expected = [(json.loads(t)["points"], json.loads(t)["tangents"]) for t in texts]
    monkeypatch.setattr(json, "loads", refuse)
    for text, (points, tangents) in zip(texts, expected):
        assert len(text) >= document.SMALL_READ_BYTES
        doc = loads_document(text)
        assert_same((doc.points, doc.tangents),
                    (np.array(points, dtype=float), np.array(tangents, dtype=float)))
