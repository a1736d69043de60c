"""Lines of ``corrected.csv``: the header ``sample,prediction,p0,...``
and the rows, each float by its shortest ``repr``, computed for a whole
array at a time.

A row is the sample index, the predicted class (the row's argmax) and the
K corrected probabilities, written exactly as
``f"{i},{pred}," + ",".join(map(repr, row))`` would write them. Python's
``repr`` gives the shortest decimal that reads back as the same double
(dtoa mode 0) and costs 1.2-2.3 µs per value; :func:`write_rows` finds
the same digits with numpy arithmetic over chunks of a few thousand
values and builds the text bytes without a Python call per value.

Shortest digits. A positive normal double x is scaled by 10**k into
y = x * 10**k in [1e16, 1e17), as a double-double (Veltkamp's exact
product with a (hi, lo) table of powers of ten), so y is within about
1e-14 of the true product. The decimals that read back as x are those
in x's rounding interval, +-1/2 ulp scaled by the same 10**k (1/4 ulp
below a power of two). Its integer ends [A, B] are at most 23 apart,
and the digits are those of the multiple of 10**m in [A, B] with the
largest m; when two such multiples bracket y, the nearer wins. That is
dtoa's "shortest, then nearest" rule.

Fallback. A value goes to ``repr(float(v))`` when the fast path cannot
certify it: zero, negative, subnormal, non-finite, outside about
1e-271 to 1e270, scaled to just below 1e16 (a neighbour of a power of
ten), or with an interval end or a nearest-choice within 1e-6 of a tie
(the error of y is eight orders of magnitude smaller, so the fast path
never decides a case it cannot tell apart; exact ties are left to
``repr``, which breaks them toward the even digit). On a corrected
output a few values in a million fall back.

Bytes. Every value gets a NUL-padded cell of ``CELL`` bytes whose layout
(positional for 1e-4 <= x < 1e16 as ``repr`` does, else scientific)
comes from a table indexed by the layout and the digit count. A row is
its prefix cells and its value cells side by side, and one
``buf[buf != 0]`` pass per chunk yields the text.
"""

from __future__ import annotations

import numpy as np

# one value's text (at most 24 bytes, e.g. "-1.7976931348623157e+308")
# and its separator
CELL = 25
# values per chunk: a chunk's temporaries peak near 1 MB
CHUNK_VALUES = 4096
# an interval end or a nearest-choice within this distance of a tie, in
# units of the 17th significant digit, goes to ``repr``
MARGIN = 1e-6

# the fast path's binary exponent range, about 1.5e-271 <= x < 8.5e270:
# the scale 10**k stays normal and its Veltkamp split cannot overflow
_BIN_MIN, _BIN_SPAN = 1023 - 900, 1800
_K_MIN, _K_MAX = -256, 290
_SPLIT = 134217729.0  # 2**27 + 1


def _power_table():
    """(hi, lo) of 10**k for k in [_K_MIN, _K_MAX]: hi is the nearest
    double, lo the nearest double to the residual, both from exact ints;
    then hi's Veltkamp halves."""
    hi, lo = [], []
    p = 10**-_K_MIN
    for _ in range(-_K_MIN):  # 10**k = 1 / p
        h = 1 / p  # correctly rounded
        num, den = h.as_integer_ratio()
        hi.append(h)
        lo.append((den - num * p) / (den * p))
        p //= 10
    for _ in range(_K_MAX + 1):  # 10**k = p
        h = float(p)
        hi.append(h)
        lo.append(float(p - int(h)))
        p *= 10
    hi = np.array(hi)
    t = hi * _SPLIT
    hh = t - (t - hi)
    return hi, hh, hi - hh, np.array(lo)


_P_HI, _P_HH, _P_HL, _P_LO = _power_table()
_POW10 = 10 ** np.arange(18, dtype=np.int64)

# A value's palette is seven little-endian words: its 17 digits (bytes
# 3..19 of five words of four digits each), the exponent text "e+16",
# "e-05" or "e-100" (bytes 20..24, NUL-padded) and the constants '.', '0'
# and NUL.
_DOT, _ZERO, _NUL = 25, 26, 27
_PALETTE_WORDS = 7


def _digit_words():
    """The four ASCII digits of every n < 10**4 as one palette word."""
    n = np.arange(10_000)
    digits = np.empty((len(n), 4), np.uint8)
    for j, p in enumerate((1000, 100, 10, 1)):
        digits[:, j] = n // p % 10 + 48
    return digits.view("<u4").ravel()


_E_OFFSET = 300


def _exponent_words():
    """Palette words 5 and 6 of every decimal exponent E in [-300, 300]."""
    E = np.arange(-_E_OFFSET, _E_OFFSET + 1)
    a = np.abs(E)
    big = a >= 100
    text = np.zeros((len(E), 8), np.uint8)
    text[:, 0] = ord("e")
    text[:, 1] = np.where(E < 0, ord("-"), ord("+"))
    text[:, 2] = np.where(big, a // 100, a // 10 % 10) + 48
    text[:, 3] = np.where(big, a // 10 % 10, a % 10) + 48
    text[:, 4] = np.where(big, a % 10 + 48, 0)
    text[:, 5:7] = [ord("."), ord("0")]
    return text.view("<u4")


_DIGITS4 = _digit_words()
_EXPONENT = _exponent_words()


def _layouts():
    """Palette index of each text byte of layout ``layout * 18 + nd``:
    layouts 0..19 are positional with decimal exponent E = -4..15, layout
    20 is scientific, and nd (1..17) is the digit count. Digits past the
    last one kept are NUL (so a layout need not be packed), except that a
    positional number keeps the zeros of its whole part and one after the
    '.'."""
    slots = np.full((21, CELL), _NUL)  # digit j < 17, else a palette index
    kept = np.tile(np.arange(18), (21, 1))  # digits kept, per layout and nd
    for layout in range(21):
        if layout == 20:
            row = [0, _DOT, *range(1, 17), 20, 21, 22, 23, 24]
        elif layout < 4:  # "0." and -E-1 zeros before the digits
            row = [_ZERO, _DOT, *[_ZERO] * (3 - layout), *range(17)]
        else:
            E = layout - 4
            row = [*range(E + 1), _DOT, *range(E + 1, 17)]
            kept[layout] = np.maximum(kept[layout], E + 2)
        slots[layout, :len(row)] = row
    digit = slots < 17
    table = np.where(digit, slots + 3, slots)[:, None, :].repeat(18, axis=1)
    table[digit[:, None, :] & (slots[:, None, :] >= kept[:, :, None])] = _NUL
    table[20, 1, 1] = _NUL  # "1e-05": no '.' after a lone digit
    return table.reshape(21 * 18, CELL)


_LAYOUT = _layouts()


def _scale(x, k):
    """x * 10**k as a double-double (hi, lo), hi an integer-valued double."""
    i = k - _K_MIN
    ph, phh, phl, pl = _P_HI[i], _P_HH[i], _P_HL[i], _P_LO[i]
    t = x * _SPLIT
    xh = t - (t - x)
    xl = x - xh
    p = x * ph
    err = ((xh * phh - p) + xh * phl + xl * phh) + xl * phl
    s = err + x * pl
    hi = p + s
    return hi, s - (hi - p)


def _interval(x):
    """(k, N, f, A, B, ok) of positive normal doubles in the fast range:
    x * 10**k = N + f with N an integer in [1e16, 1e17) and 0 <= f < 1,
    the integers [A, B] in x's rounding interval scaled alike, and whether
    no interval end is within MARGIN of an integer."""
    k = 16 - np.floor(np.log10(x)).astype(np.int64)
    yh, yl = _scale(x, k)
    off = (yh < 1e16).astype(np.int64) - (yh >= 1e17)
    if off.any():
        k += off
        yh, yl = _scale(x, k)

    # half-ulp interval in units of y's last integer digit
    ebits = x.view(np.uint64) >> np.uint64(52)
    hhi = ((ebits - np.uint64(53)) << np.uint64(52)).view(np.float64) * _P_HI[k - _K_MIN]
    pow2 = (x.view(np.uint64) << np.uint64(12)) == 0
    hlo = np.where(pow2, hhi * 0.5, hhi)

    fl = np.floor(yl)
    N = yh.astype(np.int64) + fl.astype(np.int64)
    f = yl - fl
    # y in [1e16, 1e17), and neither interval end within MARGIN of an integer
    ok = (N >= 10**16) & (N < 10**17)
    lo, hi = f - hlo, f + hhi
    clo, fhi = np.ceil(lo), np.floor(hi)
    ok &= (clo - lo > MARGIN) & (lo - clo + 1 > MARGIN)
    ok &= (hi - fhi > MARGIN) & (fhi + 1 - hi > MARGIN)
    return k, N, f, N + clo.astype(np.int64), N + fhi.astype(np.int64), ok


def _shortest(x):
    """(c, E, nd, ok) of positive normal doubles in the fast range: the
    17-digit integer whose leading ``nd`` digits are the shortest repr's
    digits, their decimal exponent, ``nd``, and whether the value was
    certified (the others go to ``repr``). Two steps, so that each step's
    temporaries are freed before the next allocates its own."""
    k, N, f, A, B, ok = _interval(x)
    # largest m with a multiple of 10**m in [A, B]: B mod 10**m <= B - A
    w = B - A
    r100 = B - B // 100 * 100
    m = (B - B // 10 * 10 <= w).astype(np.int64)
    deep = np.flatnonzero(r100 <= w)
    if deep.size:
        q = B[deep] // 100
        tz = np.full(deep.size, 2, np.int64)
        live = np.flatnonzero(q % 10 == 0)
        while live.size:
            tz[live] += 1
            q[live] //= 10
            live = live[q[live] % 10 == 0]
        m[deep] = tz

    # of the multiples of 10**m bracketing y, the nearer one in [A, B]
    P = _POW10[m]
    L = N // P * P
    U = L + P
    inL, inU = L >= A, U <= B
    gap = (2 * (N - L) - P).astype(np.float64) + 2 * f  # dL - dU
    both = inL & inU
    ok &= ~both | (np.abs(gap) > MARGIN)
    c = np.where(inU & (~inL | (gap > 0)), U, L)

    top = c >= 10**17  # 10**17 itself: one digit, one decade up
    c = np.where(top, 10**16, c)
    E = 16 - k + top
    nd = np.maximum(17 - m, 1)
    return c, E, nd, ok


def _palette(c, E):
    """(n, _PALETTE_WORDS) palette words of 17-digit integers ``c`` with
    decimal exponents ``E``."""
    palette = np.empty((len(c), _PALETTE_WORDS), "<u4")
    a = c // 10**8  # the first 9 digits
    b = (c - a * 10**8).astype(np.uint32)
    head = a // 10**8
    a = (a - head * 10**8).astype(np.uint32)
    a4, b4 = a // 10**4, b // 10**4
    palette[:, 0] = _DIGITS4[head]
    palette[:, 1] = _DIGITS4[a4]
    palette[:, 2] = _DIGITS4[a - a4 * 10**4]
    palette[:, 3] = _DIGITS4[b4]
    palette[:, 4] = _DIGITS4[b - b4 * 10**4]
    palette[:, 5:] = _EXPONENT[E + _E_OFFSET]
    return palette


def _cells(x: np.ndarray) -> np.ndarray:
    """(n, CELL) uint8: the repr of each value of the float64 array ``x``,
    NUL-padded, with a NUL where the separator goes."""
    fast = (x.view(np.uint64) >> np.uint64(52)) - np.uint64(_BIN_MIN) < np.uint64(_BIN_SPAN)
    sub = slice(None) if fast.all() else np.flatnonzero(fast)
    c, E, nd, ok = _shortest(x[sub])

    code = np.where((E >= -4) & (E < 16), E + 4, 20) * 18 + nd
    palette = _palette(c, E).view(np.uint8).ravel()
    text = np.empty((len(c), CELL), np.uint8)
    for lo in range(0, len(c), 1024):  # index arrays of 200 kB at most
        src = _LAYOUT[code[lo:lo + 1024]]
        src += np.arange(lo, lo + len(src))[:, None] * (4 * _PALETTE_WORDS)
        text[lo:lo + 1024] = palette.take(src)

    cells = np.zeros((len(x), CELL), np.uint8)
    cells[sub] = text
    slow = ~fast
    slow[sub] |= ~ok
    for i in np.flatnonzero(slow):
        exact = repr(float(x[i])).encode()
        cells[i] = 0
        cells[i, :len(exact)] = np.frombuffer(exact, np.uint8)
    return cells


def _int_cells(v: np.ndarray, sep: int) -> np.ndarray:
    """(n, width) uint8: non-negative ints as text, NUL-padded, then ``sep``."""
    width = len(str(int(v.max()))) if v.size else 1
    out = np.zeros((len(v), width + 1), np.uint8)
    for j in range(width):
        p = 10 ** (width - 1 - j)
        out[:, j] = np.where(v >= p, v // p % 10 + 48, 0)
    out[:, width - 1] = v % 10 + 48  # the last digit, and "0" for zero
    out[:, width] = sep
    return out


def write_header(fh, K: int) -> None:
    """Write the header line of a ``corrected.csv`` with ``K`` classes to
    the binary file ``fh``."""
    fh.write(("sample,prediction," + ",".join(f"p{k}" for k in range(K)) + "\n").encode())


def write_rows(fh, start: int, Z: np.ndarray) -> None:
    """Write the CSV lines of the rows of ``Z`` (an (n, K) float64 array),
    numbered from ``start``, to the binary file ``fh``."""
    n, K = Z.shape
    step = max(1, CHUNK_VALUES // max(K, 1))
    for lo in range(0, n, step):
        rows = Z[lo:lo + step]
        r = len(rows)
        index = np.arange(start + lo, start + lo + r)
        prefix = np.hstack([_int_cells(index, ord(",")),
                            _int_cells(np.argmax(rows, axis=1), ord(","))])
        cells = _cells(np.ascontiguousarray(rows, dtype=np.float64).ravel()).reshape(r, K, CELL)
        cells[:, :, -1] = ord(",")
        cells[:, -1, -1] = ord("\n")
        buf = np.hstack([prefix, cells.reshape(r, K * CELL)])
        fh.write(buf[buf != 0])
