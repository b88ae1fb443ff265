"""Float table cells as the text of "%.17g", formatted a block at a time:
the digits of every cell computed at once with numpy (see cells)."""

from __future__ import annotations

import functools

import numpy as np

_K0 = -266         # 10**k for _K0 <= k < _K0 + 565 covers k = 16 - E
_W = 32            # bytes per cell in the layout buffer of cells


@functools.cache
def _powers() -> np.ndarray:
    """10**k as hi + lo, hi Veltkamp-split into two rows, in column
    k - _K0; nan until _scaled fills the columns a chunk needs."""
    return np.full((3, 565), np.nan)


@functools.cache
def _text_tables():
    """The lookup tables of cells, built on first use: each 4-digit group
    g as ASCII, at g with its trailing zeros as NUL (no nonzero group
    follows it) and at 10000 + g with all four; the count of digits before
    those NULs; 10**i for i < 9; exponent texts as little-endian words,
    at E + 301 (none at 0), and their lengths in bits."""
    g = np.arange(10000)
    glen = 4 - sum(g % 10 ** i == 0 for i in range(1, 5))
    groups = np.empty((2, 10000, 4), np.uint8)
    for i in range(4):
        groups[1, :, i] = g // 10 ** (3 - i) % 10 + 48
        groups[0, :, i] = groups[1, :, i] * (i < glen)
    exps = [b""] + [f"e{v:+03d}".encode() for v in range(-300, 301)]
    return (groups.view("<u4").ravel(), glen,
            10 ** np.arange(9, dtype=np.int64),
            np.frombuffer(b"".join(s.ljust(8, b"\0") for s in exps), "<u8"),
            np.array([8 * len(s) for s in exps], np.uint64))


def _scaled(a: np.ndarray, k: np.ndarray):
    """a * 10**k as s + t: s = fl(a * hi), t = the error of that product
    (Dekker's two-product) + a * lo."""
    tab = _powers()
    hh, hl, lo = tab[:, k - _K0]
    missing = np.isnan(lo)
    if missing.any():
        for j in set((k - _K0)[missing].tolist()):
            m = j + _K0
            num, den = (10 ** m, 1) if m >= 0 else (1, 10 ** -m)
            hi = num / den                 # int division rounds correctly
            n2, d2 = hi.as_integer_ratio()
            c = hi * 134217729.0
            h = c - (c - hi)
            tab[:, j] = h, hi - h, (num * d2 - n2 * den) / (den * d2)
        hh, hl, lo = tab[:, k - _K0]
    s = a * (hh + hl)
    c = a * 134217729.0
    ah = c - (c - a)
    al = a - ah
    return s, (((ah * hh - s) + ah * hl + al * hh) + al * hl) + a * lo


def _decimal(x: np.ndarray):
    """The 17 significant digits D and the exponent E that "%.17g" prints
    for each cell, and which cells they are certified for.

    "%.17g" rounds correctly.  A cell with 1e-280 <= |x| <= 1e280 is
    scaled to S = |x| * 10**(16 - E), 10**k held as a double-double
    hi + lo from Python ints: hi + lo is within 2**-106 * 10**k, and
    Dekker's two-product makes |x| * hi exact, so as S < 2**57 the
    computed S is within 3 * 2**-49 of the true one.  E is chosen from
    this unrounded S, so that 1e16 <= S < 1e17; D = round(S) carrying to
    1e17 raises E by one.  D is exact when S's fraction lies more than
    2**-46 from one half: such a cell is certified.  Zeros are certified
    with D = E = 0; every other uncertified cell reads D = E = 0 too.
    """
    a = np.abs(x)
    fast = (a >= 1e-280) & (a <= 1e280)
    a[~fast] = 1.0
    k = 16 - np.floor(np.log10(a)).astype(np.intp)     # 16 - E, or one off
    s, t = _scaled(a, k)
    low = (s - 1e16) + t < 0
    fix = np.flatnonzero(low | ((s - 1e17) + t >= 0))
    if fix.size:
        k[fix] += np.where(low[fix], 1, -1)
        s[fix], t[fix] = _scaled(a[fix], k[fix])
    r = np.rint(t)
    d = s.astype(np.int64) + r.astype(np.int64)
    ok = (fast & (np.abs(t - r) < 0.5 - 2.0 ** -46)
          & ((s - 1e16) + t >= 0) & (d <= 10 ** 17))
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    e = 16 - k + carry
    d[~ok] = 0
    e[~ok] = 0
    return d, e, ok | (x == 0)


def _digit_field(d: np.ndarray, lead: np.ndarray):
    """The 24 ASCII digits of d * 10**(7 - lead), lead zeros, then d, then
    zeros, with the zeros after the last nonzero digit as NUL; and the
    count of digits before those NULs."""
    groups, glen, pow10 = _text_tables()[:3]
    div = pow10[lead + 1]
    hi16 = d // div
    part = np.empty((3, d.size))      # three 8-digit parts
    part[0] = hi16 // 10 ** 8
    part[1] = hi16 % 10 ** 8
    part[2] = (d - hi16 * div) * pow10[7 - lead]
    after = np.zeros((3, d.size), bool)     # a nonzero part follows
    after[1] = part[2] != 0
    after[0] = (part[1] != 0) | after[1]
    high = part / 1e4
    np.floor(high, out=high)          # exact for integers below 2**53
    low = part
    low -= high * 1e4
    follows = (low != 0) | after
    grp = np.empty((d.size, 6), np.intp)    # 4-digit groups, as indices
    grp[:, 0::2] = (high + 1e4 * follows).T
    grp[:, 1::2] = (low + 1e4 * after).T
    last = follows.sum(0) + after.sum(0)    # the last nonzero group
    ndig = 4 * last + glen[grp.ravel()[np.arange(0, grp.size, 6) + last]]
    return np.take(groups, grp).view(np.uint8), ndig


def cells(block: np.ndarray, sep: str) -> str:
    """The rows of the float64 array ``block`` as the text
    ``fmt % tuple(row.tolist())`` writes for each, ``fmt`` being "%.17g"
    cells joined by ``sep`` (one ASCII character) and a newline.

    Certified cells (see _decimal) are laid out from their digits by the
    %g rules: fixed notation for -4 <= E < 17, else an exponent of at
    least two digits; trailing zeros stripped, and the point when nothing
    follows it; "-" when the sign bit is set.  Every other cell (inf, nan,
    subnormals, |x| outside [1e-280, 1e280], near-ties such as
    1125899906842624.25) goes through format(x, ".17g") on its own.
    """
    x = block.ravel()
    d, e, ok = _decimal(x)
    sci = (e < -4) | (e > 16)
    lead = -e * ((e < 0) & ~sci)      # zeros before the digits: 0.0..0d
    q = e * ((e > 0) & ~sci)          # digits before the point, less one
    digits, ndig = _digit_field(d, lead)
    # each cell's text from column 0: the digits with the point after
    # digit q, those up to there kept as digits where the field has NUL
    buf = np.zeros((x.size, _W), np.uint8)
    buf[:, 0] = digits[:, 0] | 48
    buf[:, 1] = (digits[:, 1] != 0) * 46
    buf[:, 2:25] = digits[:, 1:]
    wide = np.flatnonzero(q)
    for v in set(q[wide].tolist()):
        rows = wide[q[wide] == v]
        f = digits[rows]
        buf[rows, :v + 1] = f[:, :v + 1] | 48
        buf[rows, v + 1] = (f[:, v + 1] != 0) * 46
        buf[rows, v + 2:25] = f[:, v + 1:]
    end = np.maximum(ndig, q + 1) + (ndig > q + 1)
    del digits, d, lead, ndig, wide     # not live beside the joined text
    # then one little-endian word: the exponent, the separator (a newline
    # at a row's end) and "-" if the next cell is negative, so that every
    # cell starts in column 0; written through a view with a word at
    # every byte
    neg = np.signbit(x) & ok
    tail = np.full(x.size, ord(sep), np.uint64)
    tail[block.shape[1] - 1::block.shape[1]] = ord("\n")
    tail[:-1] |= neg[1:] * np.uint64(ord("-") << 8)
    ewords, eshift = _text_tables()[3:]
    ei = (e + 301) * sci
    flat = buf.reshape(-1)
    words = np.ndarray((flat.size - 7,), "<u8", flat, 0, (1,))
    words[np.arange(0, flat.size, _W) + end] = ewords[ei] | tail << eshift[ei]
    for i in np.flatnonzero(~ok).tolist():
        c = (format(float(x[i]), ".17g").encode()
             + int(tail[i]).to_bytes(8, "little").rstrip(b"\0"))
        buf[i] = 0
        buf[i, :len(c)] = np.frombuffer(c, np.uint8)
    items = buf.view(f"S{_W}").ravel().tolist()   # trailing NULs dropped
    if neg[0]:
        items[0] = b"-" + items[0]
    return b"".join(items).decode()
