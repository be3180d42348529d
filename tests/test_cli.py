"""Command-line behaviour: CSV/JSON/SVG output, exit codes, determinism,
and cross-invocation consistency."""

import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exphermite import (
    ClosedHermiteCurve,
    CurveDocument,
    DocumentFormatError,
    DomainError,
    dumps_document,
    loads_document,
    masks,
    unit_circle,
)
import exphermite.cli as cli
import exphermite.document as document
from exphermite.cli import MAX_OUTPUT_ROWS, main, parse_omega0
from exphermite.document import format_number, format_rows

SVG_NS = "{http://www.w3.org/2000/svg}"


def write_circle(tmp_path, m=8, name="circle.json"):
    doc = CurveDocument.from_curve(unit_circle(m))
    path = tmp_path / name
    path.write_text(dumps_document(doc))
    return path


def write_cusp(tmp_path):
    curve = unit_circle(8)
    tangents = curve.tangents.copy()
    tangents[0] = 0.0
    doc = CurveDocument(1, 8, curve.points, tangents)
    path = tmp_path / "cusp.json"
    path.write_text(dumps_document(doc))
    return path


def test_parse_omega0_forms():
    assert parse_omega0("3pi/4") == pytest.approx(3 * math.pi / 4)
    assert parse_omega0("pi") == pytest.approx(math.pi)
    assert parse_omega0("pi/2") == pytest.approx(math.pi / 2)
    assert parse_omega0("2.356") == 2.356
    assert parse_omega0("1.5pi/2") == pytest.approx(0.75 * math.pi)


def test_basis_csv(tmp_path, capsys):
    code = main(
        ["basis", "--omega0", "2.356", "--which", "1", "--range", "-1", "1",
         "--samples", "5"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "x,value"
    assert len(lines) == 6
    middle = lines[3].split(",")
    assert float(middle[0]) == 0.0
    assert float(middle[1]) == 1.0


def test_basis_deriv_at_zero(capsys):
    code = main(
        ["basis", "--omega0", "3pi/4", "--which", "2", "--deriv",
         "--range", "0", "1", "--samples", "3"]
    )
    assert code == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert float(rows[0].split(",")[1]) == pytest.approx(1.0, abs=1e-13)


def test_basis_domain_error_exit_code(capsys):
    assert main(["basis", "--omega0", "4.0", "--which", "1"]) == 3
    err = capsys.readouterr().err
    assert "pi" in err


def test_bad_flags_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["basis", "--omega0", "notanumber"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["basis"])
    assert info.value.code == 2
    # a zero denominator in a pi literal is a bad flag, not a traceback
    for text in ("pi/0", "0pi/0", "3pi/0.0"):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--omega0", text])
        assert info.value.code == 2
        assert "q != 0" in capsys.readouterr().err


def test_subdivide_vector_levels(tmp_path, capsys):
    path = write_circle(tmp_path)
    assert main(["subdivide", str(path), "--levels", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["M"] == 8 * 2**3
    pts = np.array(payload["points"])
    assert len(pts) == 64
    assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() < 1e-9


def test_subdivide_zero_levels_echoes_data(tmp_path, capsys):
    path = write_circle(tmp_path)
    assert main(["subdivide", str(path), "--levels", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    original = json.loads(path.read_text())
    assert payload == original


def test_subdivide_output_reingests(tmp_path, capsys):
    # refined output is itself a valid document; one more level on it lands
    # on the same points as two direct levels (interpolatory across calls)
    path = write_circle(tmp_path)
    out1 = tmp_path / "level1.json"
    assert main(["subdivide", str(path), "--levels", "1", "--out", str(out1)]) == 0
    assert main(["subdivide", str(out1), "--levels", "1"]) == 0
    once_more = json.loads(capsys.readouterr().out)
    assert main(["subdivide", str(path), "--levels", "2"]) == 0
    direct = json.loads(capsys.readouterr().out)
    a = np.array(once_more["points"])
    b = np.array(direct["points"])
    assert np.abs(a - b).max() < 1e-12


def test_subdivide_scalar_matches_vector(tmp_path, capsys):
    # the two schemes are conjugate: averaging each control pair recovers
    # the vector values, and the pair separation encodes the slopes
    from exphermite import Frequency, conversion_ratio

    path = write_circle(tmp_path)
    assert main(["subdivide", str(path), "--levels", "2", "--scheme", "scalar"]) == 0
    text = capsys.readouterr().out
    scalar = json.loads(text)
    assert scalar["scheme"] == "scalar"
    # fixed layout: header keys in order, then one control point per line
    lines = text.split("\n")
    assert lines[:6] == ['{', '  "version": 1,', '  "M": 8,', '  "scheme": "scalar",',
                         '  "level": 2,', '  "control_points": [']
    assert lines[-4:] == [lines[-4], "  ]", "}", ""]
    assert len(lines) == 6 + 2 * 8 * 4 + 3
    assert main(["subdivide", str(path), "--levels", "2", "--scheme", "vector"]) == 0
    vector = json.loads(capsys.readouterr().out)

    level = scalar["level"]
    h = 2.0 ** (-level)
    local = Frequency(2 * math.pi / 8 * h)
    ctrl = np.array(scalar["control_points"])
    values = np.array(vector["points"])
    derivs = np.array(vector["tangents"]) / h  # document stores h-scaled slopes
    assert len(ctrl) == 2 * len(values)
    assert np.abs(0.5 * (ctrl[0::2] + ctrl[1::2]) - values).max() < 1e-11
    offset = conversion_ratio(local) * h
    slopes = (ctrl[1::2] - ctrl[0::2]) / (2.0 * offset)
    assert np.abs(slopes - derivs).max() < 1e-9


def test_subdivide_malformed_json_exit_four(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SystemExit) as info:
        main(["subdivide", str(bad), "--levels", "1"])
    assert info.value.code == 4
    missing = tmp_path / "missing.json"
    missing.write_text('{"version": 1}')
    with pytest.raises(SystemExit) as info:
        main(["subdivide", str(missing), "--levels", "1"])
    assert info.value.code == 4


def test_unknown_document_version_exit_four(tmp_path, capsys):
    payload = json.loads(write_circle(tmp_path).read_text())
    payload["version"] = 99
    text = json.dumps(payload)
    with pytest.raises(DocumentFormatError, match="version"):
        loads_document(text)
    future = tmp_path / "future.json"
    future.write_text(text)
    with pytest.raises(SystemExit) as info:
        main(["subdivide", str(future), "--levels", "1"])
    assert info.value.code == 4
    assert "version 99" in capsys.readouterr().err


def write_payload(tmp_path, payload, name="doc.json"):
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


@pytest.mark.parametrize("entry, code, message", [
    ("1" + "0" * 400, 3, "finite numbers"),  # an integer above the float range
    ("-1" + "0" * 400, 3, "finite numbers"),
    ("1" * 5000, 3, "out of range"),  # above Python's int_max_str_digits
    ("1e999", 3, "finite numbers"),
    ('"1.5"', 4, "pairs"),
    ("true", 4, "pairs"),
    ("null", 4, "pairs"),
])
def test_subdivide_document_entry_exit_codes(tmp_path, capsys, entry, code, message):
    text = write_circle(tmp_path).read_text().replace("[1, 0]", f"[{entry}, 0]", 1)
    assert f"[{entry}, 0]" in text
    path = write_payload(tmp_path, text, "entry.json")
    if code == 3:
        assert main(["subdivide", path]) == 3
    else:
        with pytest.raises(SystemExit) as info:
            main(["subdivide", path])
        assert info.value.code == code
    assert message in capsys.readouterr().err


def test_subdivide_deeply_nested_document_exit_four(tmp_path, capsys):
    path = write_payload(tmp_path, "[" * 100_000 + "]" * 100_000)
    with pytest.raises(SystemExit) as info:
        main(["subdivide", path])
    assert info.value.code == 4
    assert "nests too deeply" in capsys.readouterr().err


def _circle_payload(scale=1.0, mode="auto"):
    curve = unit_circle(8)
    return {"version": 1, "M": 8, "omega0_mode": mode,
            "points": (scale * curve.points).tolist(),
            "tangents": (scale * curve.tangents).tolist()}


# finite points near +-1e308 whose refinement and pixel coordinates overflow
OVERFLOWING = json.dumps({
    "version": 1, "M": 4, "omega0_mode": "auto",
    "points": [[1e308, -1e308], [-1e308, 1e308], [1e308, 1e308], [0, 0]],
    "tangents": [[1e308, 1e308]] * 4}).encode()

# (document bytes, command and flags, exit code, message)
BAD_INPUTS = {
    "latin-1 text": (json.dumps(_circle_payload(mode="aut\u00e9"), ensure_ascii=False)
                     .encode("latin-1"), ["subdivide"], 4, "not UTF-8"),
    "utf-16 text": (json.dumps(_circle_payload()).encode("utf-16"), ["render"], 4,
                    "not UTF-8"),
    "scalar overflow": (OVERFLOWING, ["subdivide", "--levels", "3", "--scheme", "scalar"],
                        3, "control points must be finite"),
    "vector overflow": (OVERFLOWING, ["subdivide", "--levels", "3"], 3,
                        "control data must be finite"),
    "render overflow": (OVERFLOWING, ["render", "--handles"], 3,
                        "pixel coordinates must be finite"),
    "render below 5e-306": (json.dumps(_circle_payload(1e-306)).encode(), ["render"], 3,
                            "pixel coordinates must be finite"),
    # UTF-8 whatever the locale: an ASCII locale reads the mode, and refuses it
    "utf-8 text, ascii locale": (json.dumps(_circle_payload(mode="aut\u00e9"),
                                            ensure_ascii=False).encode(),
                                 ["subdivide"], 3, "unsupported omega0_mode"),
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_ends_in_one_error_line_and_no_file(tmp_path, case):
    # a fresh process, so that stderr holds everything a user would see,
    # numpy warnings included, under a locale whose encoding is ASCII
    data, command, code, message = BAD_INPUTS[case]
    path, out = tmp_path / "doc.json", tmp_path / "out"
    path.write_bytes(data)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src, "LC_ALL": "C", "PYTHONUTF8": "0",
           "PYTHONCOERCECLOCALE": "0"}
    argv = [command[0], str(path), *command[1:], "--out", str(out)]
    proc = subprocess.run([sys.executable, "-m", "exphermite.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == code, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and message in lines[0], lines
    assert not out.exists()


@pytest.mark.parametrize("scale", [2e-305, 1e308])
def test_render_extreme_finite_extents(tmp_path, scale):
    # the smallest and largest extents whose pixel coordinates stay finite
    path = write_payload(tmp_path, _circle_payload(scale))
    svg = tmp_path / "extreme.svg"
    assert main(["render", path, "--handles", "--out", str(svg)]) == 0
    text = svg.read_text()
    assert "nan" not in text and "inf" not in text
    root = ET.fromstring(text)
    assert len(root.findall(f"{SVG_NS}line")) == 8


def test_render_svg_keeps_a_curve_near_the_double_range_apart():
    # hi - lo of the extent 2e308 overflows; an infinite span would give
    # the scale 0 and put every point on the viewport center
    circle = unit_circle(8)
    doc = CurveDocument(1, 8, 1e308 * circle.points, 1e308 * circle.tangents)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        svg = document.render_svg(doc, samples_per_span=4)
    path = ET.fromstring(svg).find(f"{SVG_NS}path").get("d")
    points = path.removeprefix("M ").removesuffix(" Z").split(" L ")
    assert len(points) == len(set(points)) == 8 * 4


def old_point_list(payload, key):
    """The per-row reader that the single type scan replaced, kept as the
    oracle of test_reader_matches_per_row_oracle."""
    rows = document._require(payload, key, list)
    for row in rows:
        if (
            not isinstance(row, list)
            or len(row) != 2
            or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in row
            )
        ):
            raise DocumentFormatError(f"{key!r} must be a list of [x, y] pairs")
    return rows


def old_outcome(payload):
    """What the per-row reader made of a payload: the exception class it
    raised, or the two arrays.  An integer above the float range escaped
    it as OverflowError."""
    try:
        if not isinstance(payload, dict):
            raise DocumentFormatError("document root must be a JSON object")
        if document._require(payload, "version", int) != 1:
            raise DocumentFormatError("unsupported document version")
        period = document._require(payload, "M", int)
        mode = document._require(payload, "omega0_mode", str)
        rows = [old_point_list(payload, key) for key in ("points", "tangents")]
        arrays = [np.array(r, dtype=float) for r in rows]
        doc = CurveDocument(1, period, *arrays, mode)
    except (DocumentFormatError, DomainError, OverflowError) as exc:
        return type(exc)
    return doc.points, doc.tangents


# integers beyond the float range, of either sign
HUGE = st.integers(10**308, 10**400).map(lambda n: n * (-1) ** (n % 2))
SCALARS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.floats(),
    HUGE,
    st.booleans(),
    st.text(max_size=3),
    st.just("1.5"),
    st.none(),
)
JUNK = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)
GOOD_ROW = st.lists(st.floats(-10, 10) | st.integers(-10, 10), min_size=2, max_size=2)
BAD_ROW = st.one_of(
    st.lists(st.floats(-10, 10) | HUGE, min_size=2, max_size=2),
    st.lists(SCALARS, max_size=3),
    JUNK,
)


@st.composite
def payloads(draw):
    """Mostly well-formed documents with a few entries spoiled, so that the
    reader's checks after the first one are reached too."""
    m = draw(st.integers(0, 6))
    payload = {"version": 1, "M": m, "omega0_mode": "auto"}
    for key in ("points", "tangents"):
        n = draw(st.sampled_from([m, m, m, m + 1, max(m - 1, 0)]))
        rows = draw(st.lists(GOOD_ROW, min_size=n, max_size=n))
        if rows and draw(st.booleans()):
            rows[draw(st.integers(0, n - 1))] = draw(BAD_ROW)
        payload[key] = draw(JUNK) if draw(st.integers(0, 9)) == 9 else rows
    if draw(st.integers(0, 4)) == 4:
        key = draw(st.sampled_from(sorted(payload)))
        if draw(st.booleans()):
            del payload[key]
        else:
            payload[key] = draw(JUNK)
    return draw(JUNK) if draw(st.integers(0, 19)) == 19 else payload


@settings(max_examples=200, deadline=None)
@given(payload=payloads())
def test_reader_matches_per_row_oracle(payload):
    text = json.dumps(payload)
    expected = old_outcome(json.loads(text))
    try:
        doc = loads_document(text)
    except (DocumentFormatError, DomainError) as exc:
        # the one change: an integer above the float range is a DomainError
        assert (DomainError if expected is OverflowError else expected) is type(exc)
    else:
        assert not isinstance(expected, type)
        assert np.array_equal(doc.points, expected[0])
        assert np.array_equal(doc.tangents, expected[1])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as fh:
            fh.write(text)
        try:
            code = main(["subdivide", path])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 3, 4)


@pytest.mark.parametrize("bounds", [["-1", "inf"], ["nan", "1"], ["0", "nan"]])
def test_basis_nonfinite_range_exit_three(capsys, monkeypatch, bounds):
    refuse_allocation(monkeypatch)
    argv = ["basis", "--omega0", "1", "--range", *bounds, "--samples", "4"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be finite" in captured.err


@pytest.mark.parametrize("levels", ["40", "1000000000000"])
@pytest.mark.parametrize("scheme", ["vector", "scalar"])
def test_subdivide_above_node_cap_exit_three(tmp_path, capsys, monkeypatch,
                                             scheme, levels):
    path = write_circle(tmp_path)

    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the node cap was checked")

    monkeypatch.setattr(np, "empty", refuse)
    code = main(["subdivide", str(path), "--levels", levels, "--scheme", scheme])
    assert code == 3
    assert "above the cap" in capsys.readouterr().err


def refuse_allocation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the output cap was checked")

    for name in ("empty", "arange", "linspace"):
        monkeypatch.setattr(np, name, refuse)


# M = 8: 8 * 2^17 = 2^20 vector nodes and 2 * 8 * 2^16 = 2^20 scalar
# control points are the largest outputs allowed
@pytest.mark.parametrize("scheme, levels", [("vector", "18"), ("scalar", "17"),
                                            ("vector", "21"), ("scalar", "21")])
def test_subdivide_above_output_cap_exit_three(tmp_path, capsys, monkeypatch,
                                               scheme, levels):
    path = write_circle(tmp_path)
    refuse_allocation(monkeypatch)
    code = main(["subdivide", str(path), "--levels", levels, "--scheme", scheme])
    assert code == 3
    assert "above the cap" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["basis", "--omega0", "1.0", "--samples", str(10**12)],
    ["basis", "--omega0", "1.0", "--samples", str(MAX_OUTPUT_ROWS + 1)],
])
def test_basis_above_output_cap_exit_three(capsys, monkeypatch, argv):
    refuse_allocation(monkeypatch)
    assert main(argv) == 3
    assert "above the cap" in capsys.readouterr().err


@pytest.mark.parametrize("samples", [str(10**12), str(MAX_OUTPUT_ROWS // 8 + 1)])
def test_render_above_output_cap_exit_three(tmp_path, capsys, monkeypatch, samples):
    path = write_circle(tmp_path)
    refuse_allocation(monkeypatch)
    code = main(["render", str(path), "--samples-per-span", samples,
                 "--out", str(tmp_path / "x.svg")])
    assert code == 3
    assert "above the cap" in capsys.readouterr().err


def test_output_cap_boundary(tmp_path, capsys, monkeypatch):
    # with the cap lowered to 128 rows, M = 8 reaches it exactly at 4 vector
    # levels, 3 scalar levels, 16 samples per span and 128 CSV samples
    monkeypatch.setattr(cli, "MAX_OUTPUT_ROWS", 128)
    path = str(write_circle(tmp_path))
    svg = str(tmp_path / "x.svg")
    for ok, too_many in [
        (["subdivide", path, "--levels", "4"], ["subdivide", path, "--levels", "5"]),
        (["subdivide", path, "--levels", "3", "--scheme", "scalar"],
         ["subdivide", path, "--levels", "4", "--scheme", "scalar"]),
        (["render", path, "--samples-per-span", "16", "--out", svg],
         ["render", path, "--samples-per-span", "17", "--out", svg]),
        (["basis", "--omega0", "1.0", "--samples", "128"],
         ["basis", "--omega0", "1.0", "--samples", "129"]),
    ]:
        assert main(ok) == 0
        assert main(too_many) == 3
    assert MAX_OUTPUT_ROWS == 2**20


def test_cli_import_leaves_scipy_out():
    # neither test-only dependency is loaded by the import or by a full
    # verify run, which checks the Gram and Riesz paths
    code = (
        "import sys, exphermite.cli as cli\n"
        "loaded = lambda: sorted({'scipy', 'mpmath'} & set(sys.modules))\n"
        "print(loaded())\n"
        "code = cli.main(['verify', '--suite', 'all', '--omega0', '1'])\n"
        "print(loaded())\n"
        "raise SystemExit(code)\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    lines = out.stdout.strip().split("\n")
    assert lines[0] == lines[-1] == "[]"
    assert lines[-2] == "15/15 checks passed"


def test_subdivide_invariant_violation_exit_three(tmp_path):
    wrong = tmp_path / "wrong.json"
    wrong.write_text(
        json.dumps(
            {
                "version": 1,
                "M": 5,
                "omega0_mode": "auto",
                "points": [[0.0, 0.0]] * 4,
                "tangents": [[0.0, 0.0]] * 4,
            }
        )
    )
    assert main(["subdivide", str(wrong), "--levels", "1"]) == 3


@pytest.mark.parametrize("samples", [0, -1, 2.5, 4.0, True, False, "4", None])
def test_render_svg_refuses_a_samples_per_span_that_is_not_a_count(samples):
    # 2.5 on M = 3 used to draw 8 points off the span grid, True acted as 1
    doc = CurveDocument.from_curve(unit_circle(3))
    with pytest.raises(DomainError, match="samples_per_span"):
        document.render_svg(doc, samples)
    with pytest.raises(DomainError, match="samples_per_span"):
        doc.curve().sample(samples)


RENDER_FRACTIONS = [3, 5, 6, 7, 9, 10, 12, 24, 33, 48, 100]


def test_render_svg_bytes_match_spline_eval_off_dyadic_fractions(monkeypatch):
    """For an S that is not a power of two the drawing samples n + fl(k/S),
    which differs from spline_eval's fl((nS + k)/S) in its low bits.  The
    drawing prints six decimals, so a digit can move only for a pixel
    coordinate within a few ulp of a rounding tie: on this seeded set none
    does, and the bytes equal those of the drawing from spline_eval."""
    rng = np.random.default_rng(2024)
    docs = []
    for _ in range(24):
        m = int(rng.integers(3, 40))
        matrix = rng.normal(size=(2, 2))
        curve = unit_circle(m).affine(matrix, rng.normal(size=2))
        if rng.random() < 0.5:   # off the ellipse as well
            curve = ClosedHermiteCurve(curve.points + 0.1 * rng.normal(size=(m, 2)),
                                       curve.tangents)
        docs.append(CurveDocument.from_curve(curve))
    samples = [(doc, s) for doc in docs for s in RENDER_FRACTIONS]
    grid = [document.render_svg(doc, s, handles=True) for doc, s in samples]
    monkeypatch.setattr(
        ClosedHermiteCurve, "sample",
        lambda self, s: self.eval(np.arange(self.period * s) / s)[0])
    for (doc, s), got in zip(samples, grid):
        assert got == document.render_svg(doc, s, handles=True), (doc.period, s)


def test_render_svg_structure(tmp_path):
    path = write_circle(tmp_path)
    out = tmp_path / "circle.svg"
    assert main(["render", str(path), "--out", str(out)]) == 0
    root = ET.fromstring(out.read_text())
    assert root.tag == f"{SVG_NS}svg"
    assert root.get("version") == "1.1"
    paths = root.findall(f"{SVG_NS}path")
    assert len(paths) == 1
    d = paths[0].get("d")
    assert d.startswith("M ") and d.endswith(" Z")
    coords = np.array(
        [list(map(float, tok.split(","))) for tok in d[2:-2].split(" L ")]
    )
    # margin is 5% of the 1000-unit viewport on the larger extent
    assert coords[:, 0].min() == pytest.approx(50.0, abs=1.0)
    assert coords[:, 0].max() == pytest.approx(950.0, abs=1.0)
    assert coords[:, 1].min() == pytest.approx(50.0, abs=1.0)
    assert coords[:, 1].max() == pytest.approx(950.0, abs=1.0)


def test_render_handles_adds_markers(tmp_path):
    path = write_circle(tmp_path)
    out = tmp_path / "handles.svg"
    assert main(["render", str(path), "--handles", "--out", str(out)]) == 0
    root = ET.fromstring(out.read_text())
    markers = [
        el for el in root.findall(f"{SVG_NS}path") if el.get("class") == "ctrl"
    ]
    lines = root.findall(f"{SVG_NS}line")
    assert len(markers) == 8
    assert len(lines) == 8


def test_render_cusp_smoke(tmp_path):
    path = write_cusp(tmp_path)
    out = tmp_path / "cusp.svg"
    assert main(["render", str(path), "--out", str(out)]) == 0
    assert out.read_text().startswith("<?xml")


def test_basis_and_subdivide_byte_stable(tmp_path, capsys):
    args = ["basis", "--omega0", "1.7", "--which", "2", "--samples", "41"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    path = write_circle(tmp_path)
    args = ["subdivide", str(path), "--levels", "2"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_render_deterministic_bytes(tmp_path):
    for name in ("circle", "cusp"):
        path = write_circle(tmp_path) if name == "circle" else write_cusp(tmp_path)
        first = tmp_path / f"{name}1.svg"
        second = tmp_path / f"{name}2.svg"
        assert main(["render", str(path), "--out", str(first)]) == 0
        assert main(["render", str(path), "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


def test_render_unwritable_exit_five(tmp_path):
    path = write_circle(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(["render", str(path), "--out", str(tmp_path / "no/such/dir/x.svg")])
    assert info.value.code == 5


def test_verify_suites_pass(capsys):
    for omega0 in ("2.356", "0", "1e-300", "pi", "1e-7", "0.99e-4", "1.01e-4"):
        for suite in ("riesz", "reproduction", "masks", "gram"):
            assert main(["verify", "--suite", suite, "--omega0", omega0]) == 0
            out = capsys.readouterr().out
            assert "PASS" in out and "FAIL" not in out
        assert main(["verify", "--suite", "all", "--omega0", omega0]) == 0
        assert capsys.readouterr().out.endswith("15/15 checks passed\n")


def test_verify_reports_values(capsys):
    assert main(["verify", "--suite", "riesz", "--omega0", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "alpha" in out
    assert "value=" in out and "threshold=" in out


def _verify_lines(capsys, suite, omega0="3pi/4"):
    """(exit code, {check name: its PASS or FAIL line})."""
    code = main(["verify", "--suite", suite, "--omega0", omega0])
    lines = capsys.readouterr().out.splitlines()[:-1]
    return code, {line.split("  value=")[0].rstrip(): line for line in lines}


def test_only_the_reproduction_suite_names_lines_reproduction(capsys):
    # the benchmark reads every "reproduction of" line as a value error
    _, lines = _verify_lines(capsys, "all")
    assert len(lines) == 15
    assert [name for name in lines if name.startswith("reproduction of")] == [
        "reproduction of const", "reproduction of linear", "reproduction of cos"]
    _, lines = _verify_lines(capsys, "reproduction")
    assert list(lines) == ["reproduction of const", "reproduction of linear",
                           "reproduction of cos"]


def _perturbed(entry, change, levels):
    """masks with entry ``entry`` of the rule of each level in ``levels``
    replaced by change(entry)."""
    def fake(freq, j):
        rule = list(masks(freq, j))
        if j in levels:
            rule[entry] = change(rule[entry])
        return tuple(rule)
    return fake


BREAKS = {
    # one entry of the level-0 rule off by a relative 1e-9
    "top * (1 + 1e-9)": (0, lambda x: x * (1 + 1e-9), (0,)),
    "bot * (1 + 1e-9)": (1, lambda x: x * (1 + 1e-9), (0,)),
    "diag * (1 + 1e-9)": (2, lambda x: x * (1 + 1e-9), (0,)),
    "diag negated at 0": (2, lambda x: -x, (0,)),
    "diag negated at 16": (2, lambda x: -x, (16,)),
    "bot doubled at 0": (1, lambda x: 2.0 * x, (0,)),
    "bot doubled at 16": (1, lambda x: 2.0 * x, (16,)),
}


@pytest.mark.parametrize("name", BREAKS)
def test_insertion_checks_fail_on_a_broken_rule(monkeypatch, capsys, name):
    entry, change, levels = BREAKS[name]
    monkeypatch.setattr(cli, "masks", _perturbed(entry, change, levels))
    # at w = 0 cos and sin are constants; the scaled pair keeps the check live
    for omega0 in ("3pi/4", "0"):
        code, lines = _verify_lines(capsys, "masks", omega0)
        assert code == 1
        for j in (0, 16):
            line = lines[f"insertion keeps cos, sin at level {j}"]
            assert line.endswith("FAIL" if j in levels else "PASS"), (omega0, line)


def test_document_builds_and_checks_its_curve_once():
    curve = unit_circle(8)
    doc = CurveDocument(1, 8, curve.points, curve.tangents)
    assert doc.curve() is doc.curve()
    assert np.array_equal(doc.curve().points, curve.points)
    for period in (7, 9):
        with pytest.raises(DomainError, match=f"M = {period}"):
            CurveDocument(1, period, curve.points, curve.tangents)


def test_document_round_trip_is_lossless(tmp_path):
    doc = CurveDocument.from_curve(unit_circle(7))
    text = dumps_document(doc)
    again = loads_document(text)
    assert np.array_equal(again.points, doc.points)
    assert np.array_equal(again.tangents, doc.tangents)
    assert dumps_document(again) == text


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            min_size=2, max_size=2,
        ),
        min_size=6, max_size=6,
    )
)
def test_document_serialization_survives_arbitrary_doubles(rows):
    pts = np.array(rows)
    doc = CurveDocument(1, 3, pts[:3], pts[3:])
    text = dumps_document(doc)
    again = loads_document(text)
    # 17 significant digits keep every double value exact (zero sign aside)
    assert np.array_equal(np.asarray(again.points), np.asarray(doc.points))
    assert np.array_equal(np.asarray(again.tangents), np.asarray(doc.tangents))
    assert dumps_document(again) == text


@pytest.mark.parametrize("version, period", [
    (2, 8), (0, 8), (-1, 8), (True, 8), (1.0, 8), ("1", 8),
    (1, 8.0), (1, True), (1, None),
])
def test_document_constructor_refuses_what_the_reader_refuses(version, period):
    curve = unit_circle(8)
    with pytest.raises(DocumentFormatError):
        CurveDocument(version, period, curve.points, curve.tangents)


@st.composite
def constructor_args(draw):
    """Arguments of CurveDocument around the edges of what it accepts."""
    version = draw(st.sampled_from([1, 1, 1, 0, 2, True, 1.0]))
    period = draw(st.sampled_from([3, 4, 6, 3, 4, 6, 0, 1, 2, -3, True, 4.0]))
    n = draw(st.sampled_from([max(int(period), 0)] * 3 + [0, 2, 3, 5]))
    shape = draw(st.sampled_from([(n, 2)] * 3 + [(n, 1), (n, 3), (n,), (n, 2, 1)]))
    numbers = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    points, tangents = (np.reshape(draw(st.lists(numbers, min_size=math.prod(shape),
                                                 max_size=math.prod(shape))), shape)
                        for _ in range(2))
    mode = draw(st.sampled_from(["auto"] * 3 + ["fixed"]))
    return version, period, points, tangents, mode


@settings(max_examples=300, deadline=None)
@given(constructor_args())
def test_every_constructed_document_round_trips(args):
    try:
        doc = CurveDocument(*args)
    except (DocumentFormatError, DomainError):
        return
    text = dumps_document(doc)
    again = loads_document(text)
    assert (again.version, again.period, again.omega0_mode) == (
        doc.version, doc.period, doc.omega0_mode)
    # -0.0 is written as 0, so compare values rather than bits
    assert np.array_equal(again.points, doc.points)
    assert np.array_equal(again.tangents, doc.tangents)
    assert dumps_document(again) == text


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False)
                       | st.sampled_from([0.0, -0.0, 5e-324, -2.5e-308]),
                       min_size=0, max_size=40))
def test_format_rows_matches_format_number(values):
    # the batched pass writes every double exactly as the one-number form
    block = np.array(values[: len(values) // 2 * 2]).reshape(-1, 2)
    expected = "; ".join(f"<{format_number(x)}|{format_number(y)}>" for x, y in block)
    assert format_rows(block, "<%.17g|%.17g>", "; ") == expected


# the templates the package writes, as (row template, separator):
# documents, scalar documents, the basis CSV, SVG paths and SVG handles
CONVERSIONS = [("[%.17g, %.17g]", ", "), ("[%.17g, %.17g]", ",\n    "),
               ("%.17g,%.17g", "\n"), ("%.6f,%.6f", " L "), (document._HANDLE, "\n")]


def _columns(row):
    """The number of conversions in a row template, one per column."""
    return row.count("%")


def _percent_oracle(block, row, sep):
    # one number at a time through Python's own %; -0.0 prints as 0
    return sep.join(row % tuple(r) for r in (np.asarray(block) + 0.0).tolist())


def _assert_same_text(block, row, sep):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning may escape
        text = format_rows(block, row, sep)
    expected = _percent_oracle(block, row, sep)
    # name the first differing pieces, not a diff of the whole text
    wrong = [(got, want) for got, want in zip(text.split(sep), expected.split(sep))
             if got != want]
    assert not wrong, wrong[:3]
    assert len(text) == len(expected) and text == expected


@settings(max_examples=150, deadline=None)
@given(values=st.lists(st.floats() | st.floats(-2e3, 2e3)
                       | st.floats(1e-5, 1e17).map(lambda x: -x)
                       | st.integers(-2**30, 2**30).map(lambda i: i / 128),
                       min_size=1, max_size=64),
       which=st.sampled_from(CONVERSIONS))
def test_format_rows_kernel_matches_percent_on_all_doubles(values, which):
    # tiled to the crossover so that the numpy kernel, not the % form, runs
    block = np.resize(np.array(values), (document.SMALL_BLOCK_ROWS, _columns(which[0])))
    _assert_same_text(block, *which)


def _adversarial_values(columns=2):
    rng = np.random.default_rng(12)
    # %.17g rounding ties (D + 1/2) 10**-k and their neighbours, every k
    # of the fixed-notation range
    k = 16 - rng.integers(-4, 16, 4000)
    ties = (rng.integers(10**16, 10**17, 4000) + 0.5) * 10.0 ** -k
    # %.6f ties: (D + 1/2) 1e-6 and the exact ones, multiples of 1/128
    ties_6f = (rng.integers(0, 10**12, 4000) + 0.5) / 1e6
    by_128 = rng.integers(-2**20, 2**20, 4000) / 128.0
    powers = 10.0 ** np.arange(-6, 18)
    specials = [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan,
                500.0078125, 2.0**52, 2.0**53, 1e-4, 1e9, 1e16]
    values = np.concatenate([
        ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf),
        ties_6f, np.nextafter(ties_6f, np.inf), np.nextafter(ties_6f, -np.inf),
        by_128, powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
        specials])
    values = np.concatenate([values, -values])
    return rng.permutation(values)[: len(values) // columns * columns].reshape(-1, columns)


@pytest.mark.parametrize("row,sep", CONVERSIONS)
def test_format_rows_kernel_matches_percent_on_adversarial_values(row, sep):
    block = _adversarial_values(_columns(row))
    assert len(block) > 4 * document.SMALL_BLOCK_ROWS
    _assert_same_text(block, row, sep)


def test_format_rows_writes_exact_6f_ties_to_even():
    # k/128 with seven decimals is an exact tie: half to even, down or up
    block = np.full((document.SMALL_BLOCK_ROWS, 2), 500.0078125)
    block[:, 1] = -3 / 128
    assert format_rows(block, "%.6f,%.6f", " ").split(" ")[0] == "500.007812,-0.023438"


@pytest.mark.parametrize("row,sep", CONVERSIONS)
def test_format_rows_same_bytes_across_the_crossover(row, sep):
    # one block just below the crossover (the % form), one at it and one
    # across a chunk boundary (the kernel) give the same text row for row
    block = _adversarial_values(_columns(row))[: document._CHUNK_ROWS + 3]
    small = document.SMALL_BLOCK_ROWS
    below = format_rows(block[: small - 1], row, sep)
    at = format_rows(block[:small], row, sep)
    across = format_rows(block, row, sep)
    assert at.startswith(below + sep) and across.startswith(at + sep)
    _assert_same_text(block, row, sep)


# --omega0 text: floats of every kind, '<p>pi/<q>' forms including zero
# denominators, and short junk
OMEGA_TEXT = st.one_of(
    st.floats().map(repr),
    st.builds("{}pi{}".format, st.sampled_from(["", "0", "3", "1.5", "12"]),
              st.sampled_from(["", "/0", "/0.0", "/2", "/4", "/7.5"])),
    st.text(max_size=4),
)
# counts: small ones, two above MAX_OUTPUT_ROWS (exit 3 before allocating)
# and junk
COUNT_TEXT = st.one_of(
    st.integers(-3, 300).map(str),
    st.sampled_from([str(MAX_OUTPUT_ROWS + 1), str(10**12)]),
    st.text(max_size=3),
)


@st.composite
def cli_argvs(draw):
    command = draw(st.sampled_from(["verify", "basis", "render"]))
    if command == "verify":
        argv = ["verify", "--omega0", draw(OMEGA_TEXT)]
        if draw(st.booleans()):
            argv += ["--suite", draw(st.sampled_from(
                ["all", "riesz", "reproduction", "masks", "gram", "none"]))]
        return argv
    if command == "basis":
        argv = ["basis", "--omega0", draw(OMEGA_TEXT),
                "--which", draw(st.sampled_from(["0", "1", "2", "3", "x"])),
                "--range", *draw(st.lists(st.floats().map(repr) | st.text(max_size=3),
                                          min_size=2, max_size=2)),
                "--samples", draw(COUNT_TEXT)]
        return argv + (["--deriv"] if draw(st.booleans()) else [])
    return ["render", "DOC", "--samples-per-span", draw(COUNT_TEXT)]


@pytest.fixture(scope="module")
def circle_document(tmp_path_factory):
    return str(write_circle(tmp_path_factory.mktemp("fuzz")))


@settings(max_examples=200, deadline=None)
@given(argv=cli_argvs())
def test_cli_flags_end_in_documented_exit_codes(circle_document, argv):
    # bad flags exit 2, domain errors 3; no traceback, and no verification
    # failure anywhere in [0, pi]
    argv = [circle_document if a == "DOC" else a for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 2, 3, 4)


def _run_main(argv, capsys, fresh):
    """(exit code, stdout, stderr) of one main call; ``fresh`` drops the
    process's parser first, so the call builds its own."""
    if fresh:
        cli._parser.cache_clear()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_shared_parser_matches_fresh_parsers(tmp_path, capsys):
    doc = str(write_circle(tmp_path))
    svg = tmp_path / "out.svg"
    argvs = [
        ["subdivide", doc, "--levels", "2"],
        ["render", doc, "--samples-per-span", "8", "--handles", "--out", str(svg)],
        ["subdivide", doc, "--levels", "-1"],
        ["basis", "--omega0", "1", "--bogus"],
        ["--version"],
        ["verify", "--suite", "masks", "--omega0", "3pi/4"],
        ["subdivide", doc, "--scheme", "scalar"],
        ["render", doc, "--samples-per-span", "0"],
        ["verify", "--omega0", "pi"],
    ]
    fresh = [_run_main(argv, capsys, fresh=True) for argv in argvs]
    cli._parser.cache_clear()
    for _ in range(2):
        shared = [_run_main(argv, capsys, fresh=False) for argv in argvs]
        assert shared == fresh
    assert [code for code, _, _ in fresh] == [0, 0, 2, 2, 0, 0, 0, 2, 0]
    assert cli._parser.cache_info().misses == 1


def test_handlers_are_looked_up_per_call(capsys, monkeypatch):
    main(["verify", "--suite", "masks", "--omega0", "1"])
    seen = []
    monkeypatch.setattr(cli, "cmd_verify", lambda args: seen.append(args.suite) or 7)
    assert main(["verify", "--suite", "riesz", "--omega0", "1"]) == 7
    assert seen == ["riesz"]
