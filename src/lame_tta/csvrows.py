"""Lines of ``corrected.csv``: the header ``sample,prediction,p0,...``
and the rows, each float by its shortest ``repr``, computed for a whole
array at a time.

A row is the sample index, the predicted class (the row's argmax) and the
K corrected probabilities, written exactly as
``f"{i},{pred}," + ",".join(map(repr, row))`` would write them. Python's
``repr`` gives the shortest decimal that reads back as the same double
(dtoa mode 0) and costs 1.2-2.3 µs per value; :func:`write_rows` finds
the same digits with numpy arithmetic over chunks of whole rows, about
8,000 values each, and builds the text bytes without a Python call per
value.

Shortest digits. A positive normal double x is scaled by 10**k into
y = x * 10**k in [1e16, 1e17), as a double-double (Veltkamp's exact
product with a (hi, lo) table of powers of ten), so y is within about
1e-14 of the true product. The decimals that read back as x are those
in x's rounding interval, +-1/2 ulp scaled by the same 10**k (1/4 ulp
below a power of two). Its integer ends [A, B] are at most 23 apart,
and the digits are those of the multiple of 10**m in [A, B] with the
largest m; when two such multiples bracket y, the nearer wins. That is
dtoa's "shortest, then nearest" rule. As the ends are at most 23 apart,
one multiple of 100 at most lies in [A, B], so the choice needs m only
up to 2, and the digit count is 17 less the trailing zeros of the
chosen digits.

Fallback. A value goes to ``repr(float(v))`` when the fast path cannot
certify it: zero, negative, subnormal, non-finite, outside about
1e-271 to 1e270, scaled to just below 1e16 (a neighbour of a power of
ten), or with an interval end or a nearest-choice within 1e-6 of a tie
(the error of y is eight orders of magnitude smaller, so the fast path
never decides a case it cannot tell apart; exact ties are left to
``repr``, which breaks them toward the even digit). On a corrected
output a few values in a million fall back.

Bytes. Every value gets a NUL-padded cell of four little-endian words:
three of text and one holding the separator. The text words are the
17 digits as ASCII, shifted one byte past the '.' (or past "0.", "0.0",
... for 1e-4 <= x < 1, as ``repr`` writes it) and masked to the digits
kept, with the exponent of a scientific value at a fixed place after
them; the shift, the masks and the '.' come from tables indexed by the
layout and the digit count. A row is its lead cells ("<index>,<pred>,")
and its value cells side by side, and removing the NUL bytes yields the
text. Every step runs over one flat array of a chunk's cells, in scratch
arrays allocated once per call; four of them lie in the row buffer,
which holds no text until the digits are known. At K=1000 this costs
about 140 ns per value on one core of a Xeon VM (numpy 2.4), against
about 250 ns for a kernel of 4,096-value chunks that gathered each
cell's 25 bytes one by one.

Threads. The module-level tables are built once at import and only read
after; :func:`write_rows` allocates its scratch per call and keeps no
module-level mutable state, so it may run in another thread than the
one that solves the batches (``lame correct`` runs it in a writer
thread) while that thread goes on with other numpy work.
"""

from __future__ import annotations

import numpy as np

# a value's cell: three words of text (at most 24 bytes, e.g.
# "-1.7976931348623157e+308") and one holding its separator
CELL_WORDS = 4
CELL = 8 * CELL_WORDS
# cells per chunk of whole rows: the scratch of one call peaks near
# 0.8 MB (86 bytes per cell, plus the pieces being written)
CHUNK_VALUES = 8192
# bytes of the row buffer compacted and written at a time
PIECE = 1 << 15
# an interval end or a nearest-choice within this distance of a tie, in
# units of the 17th significant digit, goes to ``repr``
MARGIN = 1e-6

# the fast path's binary exponent range, about 1.5e-271 <= x < 8.5e270:
# the scale 10**k stays normal and its Veltkamp split cannot overflow
_BIN_MIN, _BIN_SPAN = 1023 - 900, 1800
_K_MIN, _K_MAX = -256, 290
_SPLIT = 134217729.0  # 2**27 + 1
# what the kernel formats in place of a lead cell or of a value off the
# fast path: certified, and not a power of two (which costs a step)
_STAND_IN = 1.5


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
_POW10 = np.array([1, 10, 100])


def _digit_words():
    """The four ASCII digits of every n < 10**4 as the low half of a word,
    the first digit in the lowest byte."""
    n = np.arange(10_000)
    digits = np.empty((len(n), 4), np.uint8)
    for j, p in enumerate((1000, 100, 10, 1)):
        digits[:, j] = n // p % 10 + 48
    return digits.view("<u4").ravel().astype(np.uint64)


_E_OFFSET = 300


def _exponent_words():
    """Per decimal exponent E in [-300, 300]: its text "e+16", "e-05" or
    "e-100" in bytes 1..5 of a word (zero for the positional -4 <= E < 16),
    and its layout: E + 4 when positional, else 20 (scientific)."""
    E = np.arange(-_E_OFFSET, _E_OFFSET + 1)
    a = np.abs(E)
    big = a >= 100
    text = np.zeros((len(E), 8), np.uint8)
    text[:, 1] = ord("e")
    text[:, 2] = np.where(E < 0, ord("-"), ord("+"))
    text[:, 3] = np.where(big, a // 100, a // 10 % 10) + 48
    text[:, 4] = np.where(big, a // 10 % 10, a % 10) + 48
    text[:, 5] = np.where(big, a % 10 + 48, 0)
    positional = (E >= -4) & (E < 16)
    text[positional] = 0
    return text.view("<u8").ravel(), np.where(positional, E + 4, 20)


_DIGITS4 = _digit_words()
_EXPONENT, _LAYOUT_OF_E = _exponent_words()


def _layouts():
    """Per code ``layout * 18 + nd`` (layouts 0..19 are positional with
    decimal exponent E = -4..15, layout 20 is scientific, nd (1..17) is
    the digit count): the left shift in bits of the digit string, and per
    text word the masks of the bytes kept from the unshifted and from the
    shifted digits, and the constant bytes ('.' and leading zeros).

    The digit string is the 17 ASCII digits in bytes 0..16 and, for a
    scientific value, its exponent text in bytes 17..21. Digits past the
    last one kept are NUL, except that a positional number keeps the zeros
    of its whole part and one after the '.'; the exponent lands in bytes
    18..22 whatever the digit count, so the text may hold NULs."""
    shift = np.full((21, 18), 8, np.uint64)
    masks = np.zeros((3, 21, 18, 24), np.uint8)  # low, high, constant
    low, high, const = masks
    for layout in range(21):
        for nd in range(1, 18):
            if layout < 4:  # "0." and -E-1 zeros before the digits
                z = 4 - layout
                shift[layout, nd] = 8 * (z + 1)
                const[layout, nd, :z + 1] = ord("0")
                const[layout, nd, 1] = ord(".")
                high[layout, nd, z + 1:z + 1 + nd] = 0xFF
            elif layout < 20:  # E + 1 digits, '.', the rest
                E = layout - 4
                kept = max(nd, E + 2)
                low[layout, nd, :E + 1] = 0xFF
                const[layout, nd, E + 1] = ord(".")
                high[layout, nd, E + 2:kept + 1] = 0xFF
            else:  # d.ddd then the exponent; "1e-05" has no '.'
                low[layout, nd, 0] = 0xFF
                high[layout, nd, 2:nd + 1] = 0xFF
                high[layout, nd, 18:23] = 0xFF
                if nd > 1:
                    const[layout, nd, 1] = ord(".")
    words = masks.reshape(3, 21 * 18, 3, 8).view("<u8")[..., 0]
    # (word, code) tables, so that each word's take reads one contiguous row
    return shift.ravel(), *(np.ascontiguousarray(m.T) for m in words)


_SHIFT, _LOW, _HIGH, _CONST = _layouts()


def _take(table, index, out):
    # indices are in range: "wrap" skips both the bounds check and a copy
    return table.take(index, out=out, mode="wrap")


def _scale(x, i, yh, yl, a, b, c, d):
    """x * 10**k as a double-double (hi, lo), hi an integer-valued double,
    with ``i = k - _K_MIN``; ``yh``, ``yl`` and ``a``..``d`` are scratch,
    and the returned pair lies in two of them."""
    np.multiply(x, _SPLIT, out=a)
    np.subtract(a, x, out=b)
    np.subtract(a, b, out=a)  # xh, the Veltkamp half of x
    np.subtract(x, a, out=b)  # xl
    _take(_P_HI, i, d)
    d *= x  # p = x * ph
    _take(_P_HH, i, c)
    np.multiply(a, c, out=yh)
    yh -= d
    c *= b  # xl * phh
    _take(_P_HL, i, yl)
    a *= yl
    yh += a
    yh += c
    b *= yl
    yh += b  # err = ((xh*phh - p) + xh*phl + xl*phh) + xl*phl
    _take(_P_LO, i, yl)
    yl *= x
    yh += yl  # s = err + x*pl
    np.add(d, yh, out=a)  # hi = p + s
    np.subtract(a, d, out=b)
    np.subtract(yh, b, out=yl)  # lo = s - (hi - p)
    return a, yl


def _interval(x, P, Q, flag):
    """(i, N, f, A, B, ok) of the positive normal doubles ``x`` in the fast
    range: x * 10**k = N + f with ``i = k - _K_MIN``, N an integer in
    [1e16, 1e17) and 0 <= f < 1, the integers [A, B] in x's rounding
    interval scaled alike, and whether no interval end is within MARGIN of
    an integer. ``P`` and ``Q`` are four and five float64 scratch arrays
    of ``len(x)`` (the results lie in ``Q``), ``flag`` is three bool ones."""
    bits = x.view(np.uint64)
    Pi, Pu = [p.view(np.int64) for p in P], [p.view(np.uint64) for p in P]
    Qi, Qu = [q.view(np.int64) for q in Q], [q.view(np.uint64) for q in Q]
    ok, b1, b2 = flag

    # i = k - _K_MIN, with x * 10**k in [1e16, 1e17)
    i = Qi[0]
    np.log10(x, out=P[0])
    np.floor(P[0], out=P[0])
    np.subtract(16 - _K_MIN, P[0], out=P[0])
    np.copyto(i, P[0], casting="unsafe")
    yh, yl = _scale(x, i, Q[1], Q[2], *P)
    if yh.min() < 1e16 or yh.max() >= 1e17:
        i += yh < 1e16
        i -= yh >= 1e17
        yh, yl = _scale(x, i, Q[1], Q[2], *P)
    # yh, yl are P[0], Q[2]

    # half-ulp interval in units of y's last integer digit
    hhi = Q[1]
    np.right_shift(bits, 52, out=Qu[1])
    Qu[1] -= np.uint64(53)
    Qu[1] <<= np.uint64(52)
    hhi *= _take(_P_HI, i, P[1])
    np.left_shift(bits, np.uint64(12), out=Pu[1])
    pow2 = np.equal(Pu[1], 0, out=b2)

    fl = np.floor(yl, out=P[1])
    N = Qi[3]
    np.copyto(N, yh, casting="unsafe")
    np.copyto(Pi[2], fl, casting="unsafe")
    N += Pi[2]
    f = yl
    f -= fl
    # y in [1e16, 1e17), and neither interval end within MARGIN of an integer
    np.greater_equal(N, 10**16, out=ok)
    ok &= np.less(N, 10**17, out=b1)
    lo = np.subtract(f, hhi, out=P[0])
    if pow2.any():  # 1/4 ulp below a power of two: f - hhi * 0.5
        hlo = np.multiply(pow2, -0.5, out=P[1])
        hlo += 1
        hlo *= hhi
        np.subtract(f, hlo, out=lo)
    hi = hhi
    np.add(f, hhi, out=hi)
    clo, fhi = np.ceil(lo, out=P[1]), np.floor(hi, out=P[2])
    least = np.subtract(clo, lo, out=P[3])
    lo -= clo
    lo += 1
    np.minimum(least, lo, out=least)
    np.minimum(least, np.subtract(hi, fhi, out=P[0]), out=least)
    np.add(fhi, 1, out=P[0])
    P[0] -= hi
    np.minimum(least, P[0], out=least)
    ok &= np.greater(least, MARGIN, out=b1)
    A, B = Qi[1], Qi[4]
    np.copyto(A, clo, casting="unsafe")
    A += N
    np.copyto(B, fhi, casting="unsafe")
    B += N
    return i, N, f, A, B, ok


def _shortest(x, P, Q, flag):
    """(c, E, nd, ok) of the positive normal doubles ``x`` in the fast
    range: the 17-digit integer whose leading ``nd`` digits are the
    shortest repr's digits, their decimal exponent, ``nd``, and whether
    the value was certified (the others go to ``repr``). The scratch is
    :func:`_interval`'s, and ``flag`` five bool arrays."""
    i, N, f, A, B, ok = _interval(x, P, Q, flag[:3])
    Pi, Qi = [p.view(np.int64) for p in P], [q.view(np.int64) for q in Q]
    b1, b2, b3, b4 = flag[1:]

    # m (capped at 2) for the largest multiple of 10**m in [A, B]:
    # B mod 10**m <= B - A
    w, r = Pi[0], Pi[1]
    np.subtract(B, A, out=w)
    np.floor_divide(B, 10, out=r)
    r *= 10
    np.subtract(B, r, out=r)
    np.less_equal(r, w, out=b1)
    np.floor_divide(B, 100, out=r)
    r *= 100
    np.subtract(B, r, out=r)
    deep = np.less_equal(r, w, out=b2)
    m = Pi[0]
    np.add(b1, deep, out=m, dtype=np.int64)

    # of the multiples of 10**m bracketing y, the nearer one in [A, B]
    step = _take(_POW10, m, Pi[1])
    L = np.remainder(N, step, out=Pi[2])
    np.subtract(N, L, out=L)
    U = np.add(L, step, out=Pi[3])
    inL = np.greater_equal(L, A, out=b3)
    inU = np.less_equal(U, B, out=b4)
    gap = Q[4]  # dL - dU
    np.subtract(N, L, out=Qi[1])
    Qi[1] *= 2
    Qi[1] -= step
    np.copyto(gap, Qi[1])
    f *= 2
    gap += f
    tie = np.less_equal(np.abs(gap, out=Q[2]), MARGIN, out=b1)
    tie &= inL
    tie &= inU
    ok &= np.logical_not(tie, out=tie)
    pick = np.greater(gap, 0, out=b1)
    pick |= np.logical_not(inL, out=inL)
    pick &= inU
    c = Qi[1]
    np.multiply(step, pick, out=c)
    c += L

    top = np.greater_equal(c, 10**17, out=b1)  # 10**17: one digit, a decade up
    E = Qi[4]
    np.subtract(16 - _K_MIN, i, out=E)
    if top.any():
        np.copyto(c, 10**16, where=top)
        E += top
    # nd: 17 less the trailing zeros of c, which are m but past 2
    nd = Qi[2]
    np.subtract(17, m, out=nd)
    sub = np.flatnonzero(deep)
    q = c[sub] // 100
    for s in (8, 4, 2, 1):  # q < 10**15: a binary search of its zeros
        cut = q // 10**s
        whole = cut * 10**s == q
        q = np.where(whole, cut, q)
        nd[sub] -= s * whole
    return c, E, nd, ok


def _text(c, E, nd, words, tmp):
    """The three text words of each value, from the results of
    :func:`_shortest`, into ``words`` (three float64 arrays, viewed as
    uint64; the last may be ``nd``'s), with ``tmp`` (four float64 arrays)
    and ``E`` as scratch."""
    t0, t1, t2, t3 = [t.view(np.int64) for t in tmp]
    w0, w1, w2 = [w.view(np.int64) for w in words]
    E += _E_OFFSET
    exponent = _take(_EXPONENT, E, t0.view(np.uint64))
    code = _take(_LAYOUT_OF_E, E, t1)
    code *= 18
    code += nd

    # the digit string: d0..d7, d8..d15, then d16 and the exponent
    np.floor_divide(c, 10**9, out=w0)
    r9 = np.multiply(w0, 10**9, out=t2)
    np.subtract(c, r9, out=r9)
    np.floor_divide(r9, 10, out=w1)
    r9 -= np.multiply(w1, 10, out=t3)
    r9 += 48
    np.bitwise_or(r9, exponent.view(np.int64), out=w2)
    for w in (w0, w1):  # 8 digits -> 8 ASCII bytes
        high = np.floor_divide(w, 10**4, out=t0)
        low = np.multiply(high, 10**4, out=t2)
        np.subtract(w, low, out=low)
        _take(_DIGITS4, high, t3.view(np.uint64))
        _take(_DIGITS4, low, t0.view(np.uint64))
        t0 <<= 32
        np.bitwise_or(t3, t0, out=w)

    # text = (digits & low) | ((digits << shift) & high) | constant, last
    # word first, as each word takes the top of the one before
    w0, w1, w2 = [w.view(np.uint64) for w in words]
    shift = _take(_SHIFT, code, t2.view(np.uint64))
    shifted, part, table = t0.view(np.uint64), t3.view(np.uint64), E.view(np.uint64)
    for j, w, before in ((2, w2, w1), (1, w1, w0), (0, w0, None)):
        np.left_shift(w, shift, out=shifted)
        if before is not None:
            np.subtract(np.uint64(64), shift, out=table)
            shifted |= np.right_shift(before, table, out=part)
        np.bitwise_and(w, _take(_LOW[j], code, table), out=part)
        shifted &= _take(_HIGH[j], code, table)
        part |= shifted
        np.bitwise_or(part, _take(_CONST[j], code, table), out=w)
    return w0, w1, w2


def _prefix_digits(ints, width):
    """(r, 2, width) ASCII of the non-negative ints (r, 2), right-aligned
    with NUL before the first digit."""
    groups = -(-width // 4)
    words = np.empty(ints.shape + (groups,), np.uint64)
    rest = ints
    for g in range(groups - 1, -1, -1):  # four digits at a time, from the last
        rest, low = np.divmod(rest, 10**4)
        _DIGITS4.take(low, out=words[..., g])
    digits = words.view(np.uint8).reshape(*ints.shape, groups, 8)[..., :4]
    digits = digits.reshape(*ints.shape, 4 * groups)[..., -width:]
    shown = 10 ** np.arange(width - 1, -1, -1)
    shown[-1] = 0  # the last digit, and "0" for zero
    return digits * (ints[..., None] >= shown)


def write_header(fh, K: int) -> None:
    """Write the header line of a ``corrected.csv`` with ``K`` classes to
    the binary file ``fh``."""
    fh.write(("sample,prediction," + ",".join(f"p{k}" for k in range(K)) + "\n").encode())


def write_rows(fh, start: int, Z: np.ndarray) -> None:
    """Write the CSV lines of the rows of ``Z`` (an (n, K) float64 array),
    numbered from ``start``, to the binary file ``fh``."""
    n, K = Z.shape
    if n == 0:
        return
    # a row is `lead` cells holding "<index>,<pred>," and K value cells; the
    # lead cells go through the kernel with a stand-in value, so that every
    # step runs over one flat array
    width = len(str(max(start + n - 1, K - 1)))
    lead = -(-(2 * width + 2) // CELL)
    cols = lead + K
    chunks = -(-n // max(1, CHUNK_VALUES // cols))
    rows = -(-n // chunks)  # per chunk, the same for all but the last
    buf = np.zeros((rows, cols * CELL), np.uint8)
    cells = buf.view(np.uint64).reshape(rows * cols, CELL_WORDS)
    text = cells.view(np.uint8)
    prefix = buf[:, :2 * width + 2].reshape(rows, 2, width + 1)
    # scratch: the values and five arrays, four more in the row buffer, flags
    pool = np.empty((6, rows * cols))
    flag = np.empty((6, rows * cols), bool)
    ints = np.empty((rows, 2), np.int64)

    for lo in range(0, n, rows):
        r = min(rows, n - lo)
        v = r * cols
        x = pool[0, :v]
        x.reshape(r, cols)[:, :lead] = _STAND_IN
        x.reshape(r, cols)[:, lead:] = Z[lo:lo + r]
        Q = list(pool[1:, :v])
        e = np.right_shift(x.view(np.uint64), np.uint64(52), out=Q[0].view(np.uint64))
        e -= np.uint64(_BIN_MIN)
        fast = np.less(e, np.uint64(_BIN_SPAN), out=flag[5, :v])
        if not fast.all():  # values off the fast path: a stand-in, then repr
            np.copyto(x, _STAND_IN, where=np.logical_not(fast, out=flag[0, :v]))
        P = list(buf.reshape(-1)[:CELL * v].view(np.float64).reshape(CELL_WORDS, v))
        c, E, nd, ok = _shortest(x, P, Q, list(flag[:5, :v]))
        ok &= fast

        words = _text(c, E, nd, (x, Q[0], nd), P)
        for j in range(3):
            cells[:v, j] = words[j]
        cells[:v, 3] = ord(",")
        cells[:v].reshape(r, cols, CELL_WORDS)[:, -1, 3] = ord("\n")
        for i in np.flatnonzero(~ok):
            exact = repr(float(Z[lo + i // cols, i % cols - lead])).encode()
            text[i, :24] = 0
            text[i, :len(exact)] = np.frombuffer(exact, np.uint8)

        ints[:r, 0] = np.arange(start + lo, start + lo + r)
        ints[:r, 1] = np.argmax(Z[lo:lo + r], axis=1)
        np.copyto(prefix[:r, :, :width], _prefix_digits(ints[:r], width), casting="unsafe")
        prefix[:r, :, width] = ord(",")
        buf[:r, 2 * width + 2:lead * CELL] = 0
        flat = buf.reshape(-1)[:r * buf.shape[1]]
        for a in range(0, len(flat), PIECE):
            fh.write(flat[a:a + PIECE].tobytes().translate(None, b"\0"))
