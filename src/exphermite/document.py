"""Curve interchange documents (JSON) and SVG rendering.

The JSON schema is the single on-disk format:

    {"version": 1, "M": 8, "omega0_mode": "auto",
     "points": [[x, y], ...], "tangents": [[dx, dy], ...]}

Numbers are written with 17 significant digits so every double value
survives the round trip, and output is byte-stable for fixed input.

All numbers go through ``format_rows``, whose text is byte for byte that
of Python's ``%`` for the two conversions written here, ``%.17g``
(documents, CSV) and ``%.6f`` (SVG).  Blocks of at least
SMALL_BLOCK_ROWS rows go through a numpy kernel instead of one ``%`` per
number, exact by construction:

- Each lane's digits are the integer D = round-half-even(|x| 10^k), with
  k = 6 for ``%.6f`` and k = 16 - floor(log10 |x|) for ``%.17g`` on
  1e-4 <= |x| < 1e16, the range where ``%g`` writes fixed notation.
  Dekker's TwoProduct splits |x| 10^k = p + e exactly (10^k is an exact
  double for k <= 22), and the rounding is decided by exact comparisons of
  p - rint(p) and e, never by a rounded sum.  A ``%.17g`` lane must land
  on 17 digits, 10^16 <= D < 10^17, which catches a log10 that is off by
  one next to a power of ten.
- Integer division by 10^k splits D into the integer part, written
  right-aligned without leading zeros, and the fraction, written
  left-aligned (``%.17g`` drops its trailing zeros and then a bare point).
  Both are rows of 4-byte units read from one table of digit groups with
  ``take``; the NUL bytes that pad the units are deleted from the text in
  one pass.
- Fallback lanes keep the ``%`` text of their value: zeros, subnormals,
  |x| < 1e-4, |x| at or above 1e16 (``%.17g``) or 1e9 (``%.6f``), inf,
  nan, and ``%.17g`` lanes whose D has the wrong length.

The kernel has a fixed cost per chunk, so blocks below SMALL_BLOCK_ROWS
rows (every handles block, the smallest SVG paths) stay on ``%``; its
docstring gives the measured crossover.

``loads_document`` reads text of SMALL_READ_BYTES or more through a numpy
decoder, the inverse of that kernel, when the text has exactly the layout
``dumps_document`` writes; everything else, and every text the decoder
does not take, goes through ``json.loads`` as a whole.  Both routes hand
the fields to ``CurveDocument``, which makes every check on their values.

- Layout: the header is matched as a regex (JSON integers of at most 18
  digits, a string without escapes), and the literals between and after
  the two arrays exactly.  Each array is "[x, y]" rows joined by ", ",
  cut at row breaks into chunks of about _CHUNK_ROWS rows.  A chunk's
  commas fix every token: the bytes "[", " " and "]" must sit where the
  commas put them, and be the only other non-digit bytes.
- Tokens: the JSON number grammar, checked at the marks "." "e" "-" "+":
  a minus only opens a token, a sign otherwise only follows the e; at most
  one point and one e, each after a digit; a digit after the point, which
  comes before the e; no leading zeros; 1 to 3 exponent digits.  The
  decoder also refuses -0, mantissas of 18 or more significant digits or
  more than 24 bytes, and decimal exponents beyond +-291 (subnormals, and
  |x| of 1e308 and above or below 1e-275, when written with 17 digits).
- Decoding: the mantissa digits D < 10^17 are gathered right-aligned in
  24 bytes and combined eight to a word; the value is D 10^j, j the
  exponent less the fraction digits.  D = d_hi + d_lo exactly in doubles
  and 10^j = hi + lo to 2^-106 relative, a table built from integer
  arithmetic.  TwoProduct and three more products give p + c = D 10^j to
  within about 2^-102.8 relative, under 2^-49 of the gap between doubles;
  r = fl(p + c) and the residual d = (p - r) + c follow.
- Exactness: a ``%.17g`` string lies within 0.4504 of the gap on its side
  of its double (half the 17-digit spacing over the gap is at most
  2^52 / 10^16), so for the writer's text |d| < 0.4505 gap and r is the
  double.  Other text can sit on or near a tie, such as
  4503599627370496.5: a lane with |d| above 0.49 of the gap on its side,
  that is within 0.01 gap of a tie, sends the document to ``json.loads``.
  Every lane the decoder keeps is the correctly rounded D 10^j, which is
  what ``json.loads`` gives for a float token and ``float`` for an
  integer token.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .curve import ClosedHermiteCurve
from .frequency import DomainError


DOCUMENT_VERSION = 1
"""The only document version this package reads and writes."""


class DocumentFormatError(ValueError):
    """The payload is not a structurally valid curve document."""


@dataclass(frozen=True)
class CurveDocument:
    version: int
    period: int
    points: np.ndarray
    tangents: np.ndarray
    omega0_mode: str = "auto"
    _curve: ClosedHermiteCurve = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # every rule on the values, the reader's too, stated once here
        if type(self.version) is not int or type(self.period) is not int:
            raise DocumentFormatError("document version and M must be ints")
        if self.version != DOCUMENT_VERSION:
            raise DocumentFormatError(f"unsupported document version {self.version!r}"
                                      f"; expected {DOCUMENT_VERSION}")
        if self.omega0_mode != "auto":
            raise DomainError(f"unsupported omega0_mode {self.omega0_mode!r}")
        # the curve's own rules: shape (M, 2), M >= 3, finite entries
        curve = ClosedHermiteCurve(self.points, self.tangents)
        if curve.period != self.period:
            raise DomainError(
                f"document M = {self.period} but it has {curve.period} points"
            )
        object.__setattr__(self, "points", curve.points)
        object.__setattr__(self, "tangents", curve.tangents)
        object.__setattr__(self, "_curve", curve)

    def curve(self) -> ClosedHermiteCurve:
        """The document's curve, built and checked once with the document."""
        return self._curve

    @classmethod
    def from_curve(cls, curve: ClosedHermiteCurve) -> "CurveDocument":
        return cls(DOCUMENT_VERSION, curve.period, curve.points, curve.tangents)


def format_number(x: float) -> str:
    """17 significant digits; negative zero is canonicalized so that
    serializing a reparsed document reproduces the bytes."""
    return format(float(x) + 0.0, ".17g")


# --- numbers to text --------------------------------------------------------

_CONVERSION = re.compile(r"%\.17g|%\.6f")

SMALL_BLOCK_ROWS = 200
"""Blocks with fewer rows are written by the % form.  The kernel costs
about 150 us per chunk before its first number; on a 2-core x86-64 box
(Python 3.11, numpy 2.4) it broke even with % at about 130 rows for %.17g
and 190 rows for %.6f, and ran 2-3x at 1,000 rows and above."""

_CHUNK_ROWS = 2048
"""Rows per kernel pass, so that the per-lane temporaries stay in cache:
at 60,000 rows one pass ran 1.95x of %, passes of 512, 2,048 and 8,192
rows 2.03x, 2.73x and 2.83x (same box as SMALL_BLOCK_ROWS)."""

_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for 53-bit doubles
_POW10_INT = 10 ** np.arange(18, dtype=np.int64)
_WHOLE_DIV = _POW10_INT[np.minimum(np.arange(23), 17)]  # D // 10**k, D < 1e17
# the k fraction digits F of a %.17g lane, left-aligned in 20 digits, are
# hi * 10**4 + lo with hi = F // B * A and lo = F % B * C (no int64 overflow)
_FRAC_K = np.minimum(np.arange(23), 20)
_FRAC_A = _POW10_INT[np.maximum(16 - _FRAC_K, 0)]
_FRAC_B = _POW10_INT[np.maximum(_FRAC_K - 16, 0)]
_FRAC_C = _POW10_INT[20 - np.maximum(_FRAC_K, 16)]


def _digit_table(count: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """(count, width) zero-padded ASCII digits of 0..count-1, and the
    numbers themselves as a column."""
    g = np.arange(count, dtype=np.int32)[:, None]
    powers = 10 ** np.arange(width - 1, -1, -1, dtype=np.int32)
    return (g // powers % 10 + ord("0")).astype(np.uint8), g


def _unit_table() -> np.ndarray:
    """Every number is written as a row of 4-byte units looked up in this
    table; NUL bytes pad the units and are deleted from the finished text.
    The blocks: 4-digit groups zero-padded (0042), without leading zeros
    (42, and 0 as nothing), without trailing zeros (42 of 4200); the last
    integer unit, three digits and the point, padded or not, with or
    without the point; the two digits of the %.6f tail."""
    d4, g = _digit_table(10_000, 4)
    d3, r = _digit_table(1000, 3)
    d2, _ = _digit_table(100, 2)
    lead3 = np.where(r < [100, 10, 0], 0, d3)
    point, nul = np.full((1000, 1), ord("."), np.uint8), np.zeros((1000, 1), np.uint8)
    blocks = [d4, np.where(g < [1000, 100, 10, 1], 0, d4),
              np.where(g % [10_000, 1000, 100, 10] == 0, 0, d4),
              np.hstack([d3, point]), np.hstack([lead3, point]),
              np.hstack([d3, nul]), np.hstack([lead3, nul]),
              np.hstack([d2, np.zeros_like(d2)])]
    return np.ascontiguousarray(np.vstack(blocks), dtype=np.uint8).view(np.uint32).ravel()


_PAD4, _LEAD4, _TRAIL4, _LAST3, _TWO = 0, 10_000, 20_000, 30_000, 34_000
_LAST3_LEAD, _LAST3_NODOT = 1000, 2000
_UNIT_TABLE = _unit_table()


def _two_product(a: np.ndarray, b: np.ndarray, b_hi: np.ndarray):
    """Dekker's TwoProduct: (p, e) with p = fl(a b) and p + e = a b
    exactly, where b_hi is the high half of b by Veltkamp's split (the
    callers take b and b_hi from tables)."""
    b_lo = b - b_hi
    p = a * b
    t = _SPLIT * a
    a_hi = t - (t - a)
    a_lo = a - a_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _scaled_integer(v: np.ndarray, k: np.ndarray) -> np.ndarray:
    """D = round-half-even(v * 10**k) exactly, as int64, for the lanes
    where v * 10**k is either below 2**52 or at least 2**53.

    Dekker's TwoProduct gives v * 10**k = p + e exactly (10**k is an exact
    double for k <= 22).  With r = rint(p) and d = p - r (both exact), the
    rounding is decided by comparisons: below 2**52, |d| < 1/2 leaves
    |d + e| < 1/2, and d = +-1/2 moves r one step only if e has d's sign;
    from 2**53 on, p is an even integer and rint(e) rounds the tie to
    even."""
    hi, hi_hi, _ = _pow10_table()  # 10**k is hi exactly for k <= 22
    p, e = _two_product(v, hi.take(k + _POW10_SPAN), hi_hi.take(k + _POW10_SPAN))
    r = np.rint(p)
    d = p - r
    step = np.rint(e)
    if (np.abs(d) == 0.5).any():
        step += (d == 0.5) & (e > 0)
        step -= (d == -0.5) & (e < 0)
    return r.astype(np.int64) + step.astype(np.int64)


def _groups(x: np.ndarray, count: int) -> list:
    """x as ``count`` 4-digit groups, most significant first; the first
    group is what is left above the others, so it takes no divmod (and
    count 0 gives no groups)."""
    groups = []
    for _ in range(count - 1):
        x, g = np.divmod(x, 10_000)
        groups.append(g)
    return [x, *groups[::-1]] if count else []


def _digits_17g(v: np.ndarray):
    """%.17g of the lanes 1e-4 <= v < 1e16, where it is fixed notation with
    k = 16 - X decimals (X = floor(log10 v)) and no trailing zeros.
    Returns (usable lanes, integer parts, fraction unit indices, has a
    fraction)."""
    k = 16 - np.floor(np.log10(v)).astype(np.int64)  # 0..21
    digits = _scaled_integer(v, k)
    # a log10 off by one near a power of ten shows as 16 or 18 digits
    usable = (digits >= 10**16) & (digits < 10**17)
    whole, frac = np.divmod(digits, _WHOLE_DIV.take(k))
    hi, lo = np.divmod(frac, _FRAC_B.take(k))
    hi *= _FRAC_A.take(k)
    lo *= _FRAC_C.take(k)
    groups = (_groups(hi, 4) + [lo])[: -(-int(k.max()) // 4)]
    units = []
    trailing = np.ones(v.shape, dtype=bool)
    for g in reversed(groups):
        units.append(g + np.where(trailing, _TRAIL4, _PAD4))
        trailing &= g == 0
    return usable, whole, units[::-1], ~trailing


def _digits_6f(v: np.ndarray):
    """%.6f of the lanes 1e-4 <= v < 1e9: six decimals, always."""
    whole, frac = np.divmod(_scaled_integer(v, 6), 10**6)
    head, tail = np.divmod(frac, 100)
    return np.True_, whole, [head + _PAD4, tail + _TWO], np.True_


# conversion: (digits, upper bound of the kernel's lanes)
_KERNELS = {"%.17g": (_digits_17g, 1e16), "%.6f": (_digits_6f, 1e9)}


def _integer_units(whole: np.ndarray, point: np.ndarray, out: np.ndarray) -> None:
    """Write the unit indices of the integer parts ``whole`` (no leading
    zeros, at least one digit, then the point where ``point``) into the
    last axis of ``out``, whose length is the number of units."""
    rest, last = np.divmod(whole, 1000)
    leading = np.ones(whole.shape, dtype=bool)
    for j, g in enumerate(_groups(rest, out.shape[-1] - 1)):
        out[..., j] = g + np.where(leading, _LEAD4, _PAD4)
        leading &= g == 0
    out[..., -1] = last + _LAST3 + _LAST3_LEAD * leading + _LAST3_NODOT * ~point


def _units_for(nbytes: int) -> int:
    """Units that hold ``nbytes`` bytes (none for nbytes <= 0)."""
    return max(-(-nbytes // 4), 0)


def _literal_units(literals, width: int) -> np.ndarray:
    """(len(literals), 2, width) units: each literal right-aligned in
    ``width`` units before a last free byte, which the second form fills
    with a minus sign (the NULs between it and the first digit are
    deleted)."""
    units = [t.encode().rjust(4 * width - 1, b"\0") + sign
             for t in literals for sign in (b"\0", b"-")]
    return np.frombuffer(b"".join(units), dtype=np.uint32).reshape(-1, 2, width)


def _format_chunk(block: np.ndarray, literals, conversion: str, sep: str) -> str:
    """Text of one chunk of rows through the kernel.

    Each row is laid out as k slots (literal, number) and a tail literal
    with ``sep``.  Lanes outside the kernel's range (fallback lanes) get
    the % text of their value, in a number field widened to hold it."""
    n, k = block.shape
    digits, bound = _KERNELS[conversion]
    v = np.abs(block)
    fast = (v >= 1e-4) & (v < bound)  # False for nan
    usable, whole, frac_units, point = digits(np.where(fast, v, 1.0))
    fast &= usable
    rows, cols = np.nonzero(~fast)
    # the fallback lanes' % texts, from one % pass
    texts = _format_rows_percent(block[rows, cols], conversion, "\0").encode().split(b"\0")
    # widths in units: the last integer unit holds three digits
    int_width = 1 + _units_for(len(str(int(whole.max()))) - 3)
    width = max(int_width + len(frac_units), _units_for(max(map(len, texts))))
    lit_width = _units_for(max(len(t.encode()) + 1 for t in literals[:-1]))
    slot = lit_width + width
    tail = literals[-1].encode() + sep.encode()
    tail = np.frombuffer(tail.ljust(4 * _units_for(len(tail)), b"\0"), dtype=np.uint32)

    # literal units are written over the looked-up text, so only the
    # number units need an index; "clip" keeps the unset ones in range
    index = np.empty((n, k * slot + len(tail)), dtype=np.intp)
    slots = index[:, : k * slot].reshape(n, k, slot)
    number = slots[..., lit_width:]
    frac_at = width - len(frac_units)
    number[..., : frac_at - int_width] = _LEAD4  # NUL units
    _integer_units(whole, point, number[..., frac_at - int_width: frac_at])
    for j, u in enumerate(frac_units):
        number[..., frac_at + j] = u
    text = _UNIT_TABLE.take(index, mode="clip")
    slots = text[:, : k * slot].reshape(n, k, slot)
    lits = _literal_units(literals[:-1], lit_width)
    slots[..., :lit_width] = lits[:, 0]
    slots[..., lit_width - 1] = np.where((block < 0) & fast, lits[:, 1, -1], lits[:, 0, -1])
    if len(rows):
        slots[rows, cols, lit_width:] = np.array(
            texts, dtype=f"S{4 * width}").view(np.uint32).reshape(-1, width)
    text[:, k * slot:] = tail
    out = text.tobytes().translate(None, b"\0").decode("ascii")
    return out[: len(out) - len(sep)]


def _format_rows_percent(block: np.ndarray, row: str, sep: str) -> str:
    """The reference form: one %-format pass over the whole block."""
    return sep.join([row] * len(block)) % tuple(block.ravel().tolist())


def format_rows(block, row: str, sep: str) -> str:
    """Text of an (n, k) block: ``row`` is a template with k conversions,
    repeated n times and joined by ``sep``.  The text is byte for byte that
    of ``sep.join([row] * n) % values``.  Blocks of at least
    SMALL_BLOCK_ROWS rows whose conversions are all %.17g or all %.6f go
    through the numpy kernel (see the module docstring).  Adding 0.0 maps
    -0.0 to 0.0 as format_number does; a block that never holds -0.0 (pixel
    coordinates) is unchanged by it."""
    block = np.asarray(block, dtype=float) + 0.0
    if len(block) < SMALL_BLOCK_ROWS:
        return _format_rows_percent(block, row, sep)
    literals = _CONVERSION.split(row)
    conversions = set(_CONVERSION.findall(row))
    if (len(conversions) != 1 or "%" in "".join(literals)
            or "\0" in row + sep or not (row + sep).isascii()
            or block.shape[1:] != (len(literals) - 1,)):
        return _format_rows_percent(block, row, sep)
    conversion, = conversions
    return sep.join([_format_chunk(block[i:i + _CHUNK_ROWS], literals, conversion, sep)
                     for i in range(0, len(block), _CHUNK_ROWS)])


_PAIR = "[%.17g, %.17g]"


def dumps_document(doc: CurveDocument) -> str:
    """Serialize with fixed key order and 17-significant-digit numbers."""
    return (
        "{\n"
        f'  "version": {doc.version},\n'
        f'  "M": {doc.period},\n'
        f'  "omega0_mode": "{doc.omega0_mode}",\n'
        f'  "points": [{format_rows(doc.points, _PAIR, ", ")}],\n'
        f'  "tangents": [{format_rows(doc.tangents, _PAIR, ", ")}]\n'
        "}\n"
    )


def dumps_scalar_document(doc: CurveDocument, ctrl) -> str:
    """Serialize the scalar-scheme control polygon ``ctrl`` (a
    ScalarControl) refined from ``doc``: one control point per line, in the
    number format of dumps_document.  Control points that overflowed to inf
    or nan raise DomainError, as the vector scheme's do."""
    if not np.isfinite(ctrl.points).all():
        raise DomainError("control points must be finite numbers")
    body = format_rows(ctrl.points, _PAIR, ",\n    ")
    return (
        "{\n"
        f'  "version": {doc.version},\n'
        f'  "M": {doc.period},\n'
        f'  "scheme": "scalar",\n'
        f'  "level": {ctrl.level},\n'
        f'  "control_points": [\n    {body}\n  ]\n'
        "}\n"
    )


# --- text to numbers --------------------------------------------------------

SMALL_READ_BYTES = 50_000
"""Documents shorter than this are read by json.loads alone, which keeps
every input document of the CLI (M = 64 is about 6 KB) on it.  The decoder
costs about 0.8 ms before its first number; on a 2-core x86-64 box
(Python 3.11, numpy 2.4) it broke even with json.loads at about 36 KB
(384 nodes) and ran 1.3-1.5x at 48 KB and 1.6-1.9x at 73-97 KB."""

_INT = rb"(-?(?:0|[1-9][0-9]{0,17}))"
_HEAD = re.compile(rb'\{\n  "version": ' + _INT + rb',\n  "M": ' + _INT
                   + rb',\n  "omega0_mode": "([^"\\\x00-\x1f]*)",\n  "points": \[')
_MIDDLE = b'],\n  "tangents": ['
_TAIL = b"]\n}\n"
_ROW_BREAK = b"], ["
_CHUNK_BYTES = 48 * _CHUNK_ROWS  # about _CHUNK_ROWS rows of the writer's text

_WIDTH = 24  # mantissa bytes a token may have, three 8-byte words
_NO_POINT = _WIDTH


def _digit_masks() -> np.ndarray:
    """Row width * 25 + c: the 0x0F masks, as 24 bytes, that keep the last
    ``width`` bytes of a 24-byte window as digit values and clear the point
    at column c (c = _NO_POINT: none)."""
    width, point = np.divmod(np.arange((_WIDTH + 1) ** 2), _WIDTH + 1)
    col = np.arange(_WIDTH)
    keep = (col >= _WIDTH - width[:, None]) & (col != point[:, None])
    return (keep * np.uint8(15)).view(f"V{_WIDTH}").ravel()


_DIGIT_MASKS = _digit_masks()
_POW10_SPAN = 291


@functools.cache
def _pow10_table():
    """(hi, hi's Veltkamp high half, lo) at index j + _POW10_SPAN, with
    hi + lo = 10**j to about 2**-106 relative, for |j| <= _POW10_SPAN.  hi
    is 10**j correctly rounded and lo the remainder correctly rounded, both
    from integer arithmetic (int / int is correctly rounded).  From
    10**-291 on hi and lo are normal doubles, and 10**17 * 10**291 stays
    below the largest double.  For 0 <= j <= 22, 10**j is a double, so hi
    is it exactly and lo is 0: the writer's scaled integers use those.
    Built on first use (about 1.5 ms), so that importing the package does
    not pay for it."""
    hi, lo = [], []
    for j in range(-_POW10_SPAN, _POW10_SPAN + 1):
        num, den = (10**j, 1) if j >= 0 else (1, 10**-j)
        h = num / den
        n, d = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * d - n * den) / (den * d))
    hi = np.array(hi)
    table = hi, _SPLIT * hi - (_SPLIT * hi - hi), np.array(lo)
    for a in table:
        a.flags.writeable = False
    return table


def _is_digit(b: np.ndarray) -> np.ndarray:
    return b - np.uint8(48) < 10  # uint8 wraps below "0"


def _decode_chunk(buf: np.ndarray, words: np.ndarray, lo: int, hi: int):
    """(rows, 2) doubles of buf[lo:hi], bitwise those of json.loads, if it
    is [x, y] rows joined by ", " whose entries are numbers this decoder
    takes; else None.  words[i] is buf[i:i + _WIDTH] as one item.  See the
    module docstring for the rules and the exactness argument."""
    chunk = buf[lo:hi]
    # the bytes whose low five bits are 5..14: of the bytes a list of
    # numbers holds, exactly "," and the marks "." "e" "-" "+" (any other
    # byte found here is refused with the marks, and any other non-digit
    # byte fails the count below)
    at = np.flatnonzero((chunk & np.uint8(31)) - np.uint8(5) < 10)
    at += lo
    kind = buf.take(at)
    comma = kind == ord(",")
    commas = at[comma]  # after x, then between rows, and so on
    if len(commas) % 2 == 0:
        return None
    n = len(commas) + 1  # tokens
    start, end = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    end[0::2] = commas[0::2]
    end[1:-1:2] = commas[1::2] - 1
    end[-1] = hi - 1
    start[0] = lo + 1
    start[2::2] = commas[1::2] + 3
    start[1::2] = end[0::2] + 2
    # the rows are "[" x ", " y "]", joined by ", ": the 2n - 1 bytes
    # checked here must be the only non-digit bytes besides those found
    if not ((buf.take(start[0::2] - 1) == ord("[")).all()
            and (buf.take(start[1::2] - 1) == ord(" ")).all()
            and (buf.take(end[1::2]) == ord("]")).all()
            and (buf.take(commas[1::2] + 1) == ord(" ")).all()
            and np.count_nonzero(chunk - np.uint8(48) > 9) == len(at) + 2 * n - 1):
        return None

    # so the marks lie in tokens, and a mark's token is the number of
    # commas before it
    marks = np.flatnonzero(~comma)
    token = marks - np.arange(len(marks))
    m_at, m_kind = at.take(marks), kind.take(marks)
    is_dot, is_exp = m_kind == ord("."), m_kind == ord("e")
    is_sign = (m_kind == ord("-")) | (m_kind == ord("+"))
    if not (is_dot | is_exp | is_sign).all():
        return None
    dot, dot_tok = m_at[is_dot], token[is_dot]
    exp, exp_tok = m_at[is_exp], token[is_exp]
    sign, sign_tok = m_at[is_sign], token[is_sign]
    neg = np.zeros(n, dtype=bool)
    neg[sign_tok[sign == start[sign_tok]]] = True
    mantissa_start = start + neg
    mantissa_end = end.copy()
    mantissa_end[exp_tok] = exp
    # the JSON number grammar: a sign opens the token (a minus) or follows
    # the e; at most one e and one point, each after a digit, the point
    # before the e and followed by a digit; the mantissa opens with a
    # digit, and a leading 0 stands alone; 1 to 3 exponent digits
    first = buf.take(mantissa_start)
    exp_sign = buf.take(exp + 1)
    exp_digits = end[exp_tok] - exp - 1 - ((exp_sign == ord("-")) | (exp_sign == ord("+")))
    if not (((buf.take(sign - 1) == ord("e"))
             | (buf.take(sign) == ord("-")) & (sign == start.take(sign_tok))).all()
            and (exp_tok[1:] > exp_tok[:-1]).all() and (dot_tok[1:] > dot_tok[:-1]).all()
            and _is_digit(buf.take(exp - 1)).all() and _is_digit(buf.take(dot - 1)).all()
            and _is_digit(buf.take(dot + 1)).all() and (dot < mantissa_end[dot_tok]).all()
            and _is_digit(first).all()
            and not ((first == ord("0")) & _is_digit(buf.take(mantissa_start + 1))).any()
            and ((exp_digits >= 1) & (exp_digits <= 3)).all()):
        return None
    width = mantissa_end - mantissa_start  # digits and the point
    if (width > _WIDTH).any():
        return None

    # the mantissa's digit values right-aligned in three little-endian
    # words, the bytes before it and the point cleared, then eight digits
    # a word combined as pairs, fours and eights
    frac = mantissa_end[dot_tok] - dot - 1  # fraction digits
    mask = width * (_WIDTH + 1) + _NO_POINT
    mask[dot_tok] -= frac + 1
    w = (words[mantissa_end - _WIDTH].view("<u8")
         & _DIGIT_MASKS[mask].view("<u8")).reshape(n, 3)
    w = (w * 10 + (w >> 8)) & 0x00FF00FF00FF00FF
    w = (w * 100 + (w >> 16)) & 0x0000FFFF0000FFFF
    w = (w * 10_000 + (w >> 32)) & 0xFFFFFFFF
    if (w[:, 0] >= 100).any():
        return None
    digits = (w[:, 0] * 10**16 + w[:, 1] * 10**8 + w[:, 2]).view(np.int64)
    # the point's 0 squeezed out: D = (D0 + 9 F) / 10 for the fraction F;
    # from 18 fraction digits on the integer part is 0 and D = D0
    d0 = digits[dot_tok]
    f = d0 % _POW10_INT.take(np.minimum(frac, 17))
    digits[dot_tok] = (d0 + 9 * f) // 10
    if (((frac > 17) & (d0 >= 10**17)).any() or (digits >= 10**17).any()
            or (neg & (digits == 0)).any()):  # -0 falls back
        return None

    # the decimal exponent j: the exponent less the fraction digits
    j = np.full(n, _POW10_SPAN, dtype=np.int64)
    j[dot_tok] -= frac
    exponent = buf.take(end[exp_tok] - 1) & np.int64(15)
    for k in (2, 3):
        exponent += ((buf.take(end[exp_tok] - k) & 15)
                     * np.where(exp_digits >= k, 10 ** (k - 1), 0))
    j[exp_tok] += np.where(exp_sign == ord("-"), -exponent, exponent)
    if not ((j >= 0) & (j <= 2 * _POW10_SPAN)).all():
        return None

    # round D 10**j once: D = d_hi + d_lo exactly, 10**j = hi + lo
    hi, hi_hi, lo = (a.take(j) for a in _pow10_table())
    d_hi = digits.astype(float)
    d_lo = (digits - d_hi.astype(np.int64)).astype(float)
    p, e = _two_product(d_hi, hi, hi_hi)
    c = e + (d_hi * lo + d_lo * hi)
    r = p + c
    d = (p - r) + c
    # r + d / 0.98 leaves r iff |d| is above 0.49 of the gap on d's side
    if (r + d / 0.98 != r).any():
        return None
    return np.negative(r, out=r, where=neg).reshape(-1, 2)


def _read_pairs(data: bytes, buf: np.ndarray, words: np.ndarray, lo: int, hi: int):
    """(rows, 2) doubles of data[lo:hi] if it is [x, y] rows joined by ", "
    that _decode_chunk takes, else None.  The text is cut at row breaks
    into chunks of about _CHUNK_ROWS rows."""
    blocks = []
    while lo < hi:
        cut = data.find(_ROW_BREAK, min(lo + _CHUNK_BYTES, hi), hi) + 1 or hi
        block = _decode_chunk(buf, words, lo, cut)
        if block is None:
            return None
        blocks.append(block)
        lo = cut + 2
    return np.concatenate(blocks) if blocks else None


def _read_layout(text: str):
    """(version, M, mode, points, tangents) of text in exactly the layout
    dumps_document writes, else None (see the module docstring)."""
    if not text.isascii():
        return None
    data = text.encode("ascii")
    head = _HEAD.match(data)
    middle = data.find(_MIDDLE, head.end()) if head else -1
    if middle < 0 or not data.endswith(_TAIL):
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    words = np.ndarray((len(data) - _WIDTH + 1,), dtype=f"V{_WIDTH}", buffer=data,
                       strides=(1,))
    points = _read_pairs(data, buf, words, head.end(), middle)
    if points is None:
        return None
    tangents = _read_pairs(data, buf, words, middle + len(_MIDDLE), len(data) - len(_TAIL))
    if tangents is None:
        return None
    return (int(head[1]), int(head[2]), head[3].decode("ascii"), points, tangents)


def _require(payload: dict, key: str, kind: type) -> object:
    if key not in payload:
        raise DocumentFormatError(f"missing document key {key!r}")
    value = payload[key]
    # json.loads yields exact types, so this also refuses a bool for an int
    if type(value) is not kind:
        raise DocumentFormatError(f"document key {key!r} has wrong type")
    return value


def _point_list(payload: dict, key: str) -> list[list[float]]:
    rows = _require(payload, key, list)
    # json.loads yields exact types, so one type-set scan refuses bools (an
    # int subclass) and strings such as "1.5", which np.array would coerce
    if not (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {2}
            and set(map(type, chain.from_iterable(rows))) <= {int, float}):
        raise DocumentFormatError(f"{key!r} must be a list of [x, y] pairs")
    return rows


def _read_json(text: str):
    """(version, M, mode, points, tangents) of any JSON text, the lists
    type-checked; format problems raise DocumentFormatError."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DocumentFormatError("document nests too deeply") from exc
    except ValueError as exc:  # an integer literal above int_max_str_digits
        raise DomainError(f"document number out of range: {exc}") from exc
    if not isinstance(payload, dict):
        raise DocumentFormatError("document root must be a JSON object")
    return (_require(payload, "version", int), _require(payload, "M", int),
            _require(payload, "omega0_mode", str),
            _point_list(payload, "points"), _point_list(payload, "tangents"))


def loads_document(text: str) -> CurveDocument:
    """Parse and validate; format problems raise DocumentFormatError,
    invariant violations raise DomainError.  Text of SMALL_READ_BYTES or
    more in the layout dumps_document writes is decoded by the array
    reader, anything else by json.loads (see the module docstring); both
    hand the fields to CurveDocument, which checks their values."""
    fields = _read_layout(text) if len(text) >= SMALL_READ_BYTES else None
    version, period, mode, points, tangents = fields or _read_json(text)
    try:
        return CurveDocument(version, period, points, tangents, mode)
    except OverflowError:  # an integer literal beyond the float range
        raise DomainError("document entries must be finite numbers") from None


def refined_document(doc: CurveDocument, refined) -> CurveDocument:
    """Wrap refined periodic Hermite samples back into a document.

    The refined grid has spacing h = M / M'; reparametrizing to unit
    spacing multiplies the tangents by h, after which omega0 = 2 pi / M'
    again holds automatically.
    """
    m_new = len(refined)
    h = doc.period / m_new
    return CurveDocument(doc.version, m_new, refined.values, h * refined.derivs)


# --- SVG output -----------------------------------------------------------

VIEWPORT = 1000.0
MARGIN_FRACTION = 0.05


def _fit(points: np.ndarray):
    """Uniform map from data coordinates into the fixed square viewport
    with a margin; y is flipped so the curve appears in the usual
    orientation.  The extents are halved before they are subtracted or
    added, so that a curve near the double range keeps a finite span.
    Halving a normal double is exact, so every other extent gets bitwise
    the scale and center that (hi - lo) and (lo + hi) / 2 give."""
    lo = 0.5 * points.min(axis=0)
    hi = 0.5 * points.max(axis=0)
    half_span = float(max(hi[0] - lo[0], hi[1] - lo[1]))
    if half_span <= 0.0:
        half_span = 0.5
    margin = MARGIN_FRACTION * VIEWPORT
    scale = (0.5 * VIEWPORT - margin) / half_span
    center = lo + hi

    def to_px(p):
        """(n, 2) data points to (n, 2) pixel coordinates."""
        x = VIEWPORT / 2.0 + (p[..., 0] - center[0]) * scale
        y = VIEWPORT / 2.0 - (p[..., 1] - center[1]) * scale
        return np.stack([x, y], axis=-1)

    return to_px


_HANDLE = (
    '<line class="handle" x1="%.6f" y1="%.6f" x2="%.6f" y2="%.6f" '
    'stroke="steelblue" stroke-width="1.5"/>\n'
    '<path class="ctrl" d="M %.6f,%.6f L %.6f,%.6f M %.6f,%.6f L %.6f,%.6f" '
    'stroke="crimson" stroke-width="1.5" fill="none"/>'
)


def render_svg(doc: CurveDocument, samples_per_span: int = 64,
               handles: bool = False) -> str:
    """Deterministic SVG 1.1 picture: one closed path through a dense
    evaluation of the curve, optionally with one cross marker and one
    tangent line per control point.  The path samples each span at the
    fractions k / samples_per_span (``ClosedHermiteCurve.sample``).  A
    samples_per_span other than an int >= 1, and pixel coordinates that are
    not finite (a curve so small that its scale to the viewport overflows),
    raise DomainError."""
    samples = doc.curve().sample(samples_per_span)
    to_px = _fit(samples)
    path = to_px(samples)
    marks = np.empty((0, 12))
    if handles:
        arm = 0.008 * VIEWPORT
        x, y = to_px(doc.points).T
        tip_x, tip_y = to_px(doc.points + doc.tangents).T
        marks = np.column_stack([x, y, tip_x, tip_y, x - arm, y, x + arm, y,
                                 x, y - arm, x, y + arm])
    if not (np.isfinite(path).all() and np.isfinite(marks).all()):
        raise DomainError("pixel coordinates must be finite numbers")
    path = "M " + format_rows(path, "%.6f,%.6f", " L ") + " Z"
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{VIEWPORT:.0f}" height="{VIEWPORT:.0f}" '
        f'viewBox="0 0 {VIEWPORT:.0f} {VIEWPORT:.0f}">',
        f'<path d="{path}" fill="none" stroke="black" stroke-width="2"/>',
    ]
    if handles:
        lines.append(format_rows(marks, _HANDLE, "\n"))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
