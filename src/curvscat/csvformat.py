"""CSV rows of '%.12g' fields, rendered a whole float64 block at a time.

Every field is byte-equal to Python's '%.12g' of the same double.  A finite
nonzero |x| in [_LOW, _HIGH) is scaled to a 12-digit integer by 10**k,
exact for 0 <= k <= 22 and correctly rounded otherwise, so the scaled value
carries at most two roundings, under 2.3e-4 absolute below 1e12.  Where
it lies in [1e11, 1e12) and not within _TIE_MARGIN of a half, so that the
error cannot cross the tie, rounding it to the nearest integer gives
Python's digits.  0, -0, the infinities and nan print fixed strings, which
their own classes hold.  The other fields (near a tie, next to a power of
ten whose exponent log10 missed, and the magnitudes outside the range) are
formatted one at a time by '%.12g' itself.

A field is first rendered as a 40-byte record of five 8-byte words:

    word 0      '-', then the lead '0.000' of the fixed forms below 1
    words 1-3   the 12 digits, each followed by a candidate '.'
    word 4      'e', exponent sign, three exponent digits, ',', CR, LF

Its class (fixed form with exponent -4..11, exponent form or one of the
special strings, significant digits, sign, last column of the row) selects
a mask that keeps the bytes that field prints and zeroes the rest; one
bytes.translate drops the NULs.  A special string's mask holds the string
itself in word 0 and keeps nothing of words 1-3.
"""

from __future__ import annotations

import numpy as np

_SIGNIFICANT = 12
_LOW, _HIGH = 1e-296, 1e300
_TIE_MARGIN = 1e-3
_FIXED_MIN, _FIXED_MAX = -4, _SIGNIFICANT - 1   # %g's fixed-form exponents
_N_FORMS = _FIXED_MAX - _FIXED_MIN + 2          # the last form is exponent
# forms _N_FORMS.. print 0, inf and nan, with a '-' for -0 and -inf, as
# '%.12g' does; it prints no sign on nan
_SPECIAL_TEXT = (b"0", b"inf", b"nan")
_ZERO_FORM, _INF_FORM, _NAN_FORM = range(_N_FORMS, _N_FORMS + len(_SPECIAL_TEXT))

# 10**k correctly rounded (float() parses correctly), exact for 0 <= k <= 22;
# k = 11 - floor(log10|x|) stays in [-289, 308] over [_LOW, _HIGH), where
# 10**k is a normal double
_K_MIN = -289
_POW10 = np.array([float(f"1e{k}") for k in range(_K_MIN, 309)])


def _words(b: np.ndarray) -> np.ndarray:
    """Rows of 8 bytes as one native uint64 each."""
    return np.ascontiguousarray(b, dtype=np.uint8).view(np.uint64)[..., 0]


_G = np.arange(10_000)
# a 4-digit group as the bytes 'd.d.d.d.'
_DIG = np.full((10_000, 8), ord("."), np.uint8)
_DIG[:, 0::2] = ord("0") + _G[:, None] // np.array([1000, 100, 10, 1]) % 10
_DIG = _words(_DIG)
# significant digits up to the last nonzero one of group j of 3, counted
# from the first digit of the number; 0 for an all-zero group
_SIG_IN_GROUP = 4 - sum(_G % 10**p == 0 for p in range(1, 5))
_SIG = np.where(_G > 0, 4 * np.arange(3)[:, None] + _SIG_IN_GROUP, 0)

# word 4 for decimal exponents -_E_MAX.._E_MAX; no hundreds digit below 100
_E_MAX = 308
_X = np.arange(-_E_MAX, _E_MAX + 1)
_EXP = np.zeros((len(_X), 8), np.uint8)
_EXP[:, 0] = ord("e")
_EXP[:, 1] = np.where(_X < 0, ord("-"), ord("+"))
_EXP[:, 2] = np.where(abs(_X) >= 100, ord("0") + abs(_X) // 100, 0)
_EXP[:, 3] = ord("0") + abs(_X) // 10 % 10
_EXP[:, 4] = ord("0") + abs(_X) % 10
_EXP[:, 5:] = np.frombuffer(b",\r\n", np.uint8)
_EXP = _words(_EXP)


def _class_masks() -> np.ndarray:
    """(class, 5) words: word 0 holds its literal bytes, words 1-4 0xff
    where the field's data byte is kept.  The class index is
    ((form·12 + significant - 1)·2 + negative)·2 + last."""
    n_forms = _N_FORMS + len(_SPECIAL_TEXT)
    form = np.arange(n_forms)[:, None, None, None, None]
    sig = np.arange(1, _SIGNIFICANT + 1)[None, :, None, None, None]
    neg = np.arange(2)[None, None, :, None, None]
    last = np.arange(2)[None, None, None, :, None]
    p = np.arange(40)
    x = form + _FIXED_MIN
    expo = form == _N_FORMS - 1
    fixed_int = ~expo & (x >= 0)
    digit, is_dot = (p - 8) // 2, (p >= 8) & (p < 32) & (p % 2 == 1)
    n_digits = np.where(fixed_int, np.maximum(sig, x + 1), sig)
    dot_after = np.where(expo, 0, np.where(fixed_int, x, -1))
    number = ((p == 0) & (neg == 1)
              | (p >= 1) & (p < 2 - x) & ~expo & (x < 0)
              | (p >= 8) & (p < 32) & ~is_dot & (digit < n_digits)
              | is_dot & (digit == dot_after) & (sig > dot_after + 1)
              | (p >= 32) & (p < 37) & expo)
    text_len = np.array([0] * _N_FORMS + [len(t) for t in _SPECIAL_TEXT])[form]
    text = ((p == 0) & (neg == 1) & (form != _NAN_FORM)
            | (p >= 1) & (p <= text_len))
    keep = (np.where(form < _N_FORMS, number, text)
            | (p == 37) & (last == 0)
            | (p >= 38) & (last == 1))
    literal = np.full((n_forms, 1, 1, 1, 40), 0xFF, np.uint8)
    literal[..., :8] = np.frombuffer(b"-0.000\0\0", np.uint8)
    for f, t in enumerate(_SPECIAL_TEXT, start=_N_FORMS):
        literal[f, ..., :8] = np.frombuffer(b"-" + t.ljust(7, b"\0"), np.uint8)
    return _words((keep * literal).reshape(-1, 8)).reshape(-1, 5)


_MASK = _class_masks()


def _decimal(x: np.ndarray):
    """(digits, exponent, form, slow): |x| = digits·10**(exponent - 11) to
    12 significant digits, 10**11 <= digits < 10**12, where x is finite,
    nonzero and on the fast path; form is the field's fixed or exponent
    form there, and its special form at 0, the infinities and nan (digits
    then 10**11, one significant digit).  slow indexes the fields '%.12g'
    formats one at a time; on those, digits and exponent are placeholders."""
    a = np.abs(np.where(np.isfinite(x), x, 0.0))
    fast = (a >= _LOW) & (a < _HIGH)
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    y = a * np.take(_POW10, _SIGNIFICANT - 1 - _K_MIN - e)
    # log10 can miss the exponent next to a power of ten; y checks it
    fast &= ((y >= 1e11) & (y < 1e12)
             & (np.abs(y - np.floor(y) - 0.5) > _TIE_MARGIN))
    digits = np.rint(y).astype(np.int64)
    carry = digits == 10**12
    e += carry
    form = np.where((e >= _FIXED_MIN) & (e <= _FIXED_MAX),
                    e - _FIXED_MIN, _N_FORMS - 1)
    slow = np.flatnonzero(~fast)
    if len(slow):
        v = x[slow]
        form[slow] = np.where(v == 0.0, _ZERO_FORM, np.where(
            np.isinf(v), _INF_FORM, np.where(np.isnan(v), _NAN_FORM, form[slow])))
        slow = slow[form[slow] < _N_FORMS]
    return np.where(carry | ~fast, 10**11, digits), e, form, slow


def format_rows(block: np.ndarray) -> bytes:
    """A 2-D float64 block as CSV rows: '%.12g' fields joined by ',', each
    row ended by CR LF."""
    rows, cols = block.shape
    x = block.ravel()
    digits, e, form, slow = _decimal(x)
    g1 = digits // 10**8
    low = digits - g1 * 10**8
    g2 = low // 10**4
    g3 = low - g2 * 10**4
    sig = np.maximum(np.maximum(np.take(_SIG[0], g1), np.take(_SIG[1], g2)),
                     np.take(_SIG[2], g3))
    cls = ((form * _SIGNIFICANT + sig - 1) * 2 + np.signbit(x)) * 2
    cls.reshape(rows, cols)[:, -1] += 1        # the row's last column
    rec = np.take(_MASK, cls, axis=0)
    rec[:, 1] &= np.take(_DIG, g1)
    rec[:, 2] &= np.take(_DIG, g2)
    rec[:, 3] &= np.take(_DIG, g3)
    rec[:, 4] &= np.take(_EXP, e + _E_MAX)
    if len(slow):
        # the record of each field off the fast path, padded with NULs
        text = b"".join(("%.12g" % v).encode().ljust(38, b"\0")
                        + (b"\r\n" if i % cols == cols - 1 else b",\0")
                        for i, v in zip(slow.tolist(), x[slow].tolist()))
        rec[slow] = np.frombuffer(text, np.uint64).reshape(-1, 5)
    return rec.tobytes().translate(None, b"\0")
