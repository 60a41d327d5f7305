"""Exact integer brackets for logarithms and real powers.

The bound formulas multiply big rational constants by powers whose
exponents contain logarithms, so the results are usually irrational.
Asserted values must not depend on floating point: every quantity is
bracketed between two Fractions obtained with integer arithmetic only.
Brackets shrink as `prec` grows; callers refine until a floor or
ceiling is pinned.

Kernels.  Both transcendental kernels reduce the argument and sum a
short series on fixed-point integers (an integer v at w bits stands for
v / 2**w), in the manner of Brent (1976).  Every step rounds down for a
lower end and up for an upper end, so each end stays on its side of the
true value; the error counts below are in units of 2**-w.

- `_ln_fixed`: ln m for m in [1, 2].  r integer square roots take m to
  t = m**(2**-r), and ln m = 2**(r+1) * atanh(z) with z = (t-1)/(t+1)
  < 2**-(r+1), so each term of z + z**3/3 + z**5/5 + ... adds 2r+2 bits.
  Each root keeps t within 2 units (the error halves and the rounding
  adds less than 1), z is within 2, each of the K series terms within
  3, and the dropped tail is below 1 (an upper end adds the last power,
  which bounds it).  So atanh z is within 3K + 8 units and ln m within
  2**(r+1) * (3K + 8); the working precision w = bits + r + 2 +
  bitlen(3K + 8) makes that half a unit at `bits`, so both ends lie
  within 1.5 units of 2**bits * ln m.
- `log2_bounds(x, prec)`: with x = 2**e * m, m in [1, 2), it brackets
  ln m and ln 2 at prec + 32 bits and returns the dyadic cell
  [F, F + 1] / 2**prec with F = floor(2**prec * log2 x) once both ends
  of ln m / ln 2 give the same F; otherwise it retries at twice the
  bits.  The retry ends because log2 of a rational that is not a power
  of two is irrational; a power of two returns (e, e).  The result is
  that cell exactly, whatever ran before.
- `_pow2_fixed`: 2**y for y = c / 2**prec in [0, 1], at s = prec + 64
  bits.  a = y ln 2 / 2**r is within 2 units (ln 2 from the same kernel,
  within 1.5), exp(a) is summed from its Taylor series (K terms within
  2 units each, the tail within 4), and r squarings give
  exp(a)**(2**r) = 2**y.  A squaring doubles a relative error and adds
  a unit, so 2**y is within 2**(r+1) * (2K + 8) units; the working
  precision spends that many bits plus 32 more, so an end rounded to s
  bits is on its side of 2**y and, unless 2**y sits within 2**-32 of a
  multiple of 2**-s, is its floor or ceiling.  `_pow2_side(x, prec, lower)`
  keeps the exponent rounding c = floor(2**prec * frac(x)): the lower
  end brackets 2**(c / 2**prec), the upper end 2**((c+1) / 2**prec).

Precision.  `refine_ceil` and `refine_floor` evaluate the bracket first
at 48 bits.  When that does not pin the integer, the bracket's upper end
tells how large the answer is, and the next evaluation runs at its bit
length plus `_PIN_GUARD` bits.  The bound formulas then give brackets
about 2**-25 wide, which almost always pin the integer.  Each further
step doubles the precision.  A bracket that still straddles an integer
at 3,072 bits and at four times the answer's size raises
ArithmeticError: the value most likely sits on an integer that no
exact path caught.

Caches.  One refinement evaluates the same logarithms several times at
one precision (log2 of the base in every exponent, and again for every
letter count l).  The interval functions keep the last 256
`log2_bounds` results, keyed by (x, prec); each holds two numbers of
about prec bits.  `_ln2_bounds` keeps the last 8 brackets of ln 2, keyed
by their bits: a refinement rung asks for one for its logarithms and
one for its powers.  Cached values are the ones a fresh computation
returns, so no bracket depends on what ran before.

An "interval" here is a pair (lo, hi) of Fractions with lo <= x <= hi;
lo == hi marks an exact value.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

Interval = tuple[Fraction, Fraction]

_GUARD = 64
_PIN_GUARD = 32
_MARGIN = 32


def exact_int_log(base: int, value: int) -> int | None:
    """Return k with base**k == value, or None if value is not a power."""
    if base < 2 or value < 1:
        return None
    k = ceil_log(base, value)
    return k if base**k == value else None


def floor_log(base: int, value: int) -> int:
    """Largest e >= 0 with base**e <= value (value >= 1)."""
    if base < 2 or value < 1:
        raise ValueError("floor_log needs base >= 2 and value >= 1")
    # base**e <= value exactly when base**e < value + 1
    return ceil_log(base, value + 1) - 1


def ceil_log(base: int, value: int) -> int:
    """Smallest c >= 0 with base**c >= value (value >= 1)."""
    if base < 2 or value < 1:
        raise ValueError("ceil_log needs base >= 2 and value >= 1")
    c, acc = 0, 1
    while acc < value:
        acc *= base
        c += 1
    return c


def _floor_fr(x: Fraction) -> int:
    return x.numerator // x.denominator


def _ceil_fr(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def log2_bounds(x: Fraction, prec: int) -> Interval:
    """The dyadic cell [F, F + 1] / 2**prec holding log2(x), F = floor(2**prec * log2 x).

    A power of two returns the exact (e, e).
    """
    if x <= 0:
        raise ValueError("log2 needs a positive argument")
    num, den = x.numerator, x.denominator
    # 2**(e-1) < x < 2**(e+1); scale to m = num/den in [1, 2), unreduced
    e = num.bit_length() - den.bit_length()
    if e >= 0:
        den <<= e
    else:
        num <<= -e
    if num < den:
        e -= 1
        num <<= 1
    if num == den:
        return Fraction(e), Fraction(e)
    bits = prec + _MARGIN
    while True:
        lm = _ln_fixed(num, den, bits, False), _ln_fixed(num, den, bits, True)
        l2 = _ln2_bounds(bits)
        f = (lm[0] << prec) // l2[1]
        if f == (lm[1] << prec) // l2[0]:
            f += e << prec
            return Fraction(f, 1 << prec), Fraction(f + 1, 1 << prec)
        bits *= 2


# log2_bounds as the interval functions call it (see "Caches" above)
_log2_bounds = lru_cache(maxsize=256)(log2_bounds)


def _shr(v: int, n: int, up: bool) -> int:
    # v / 2**n rounded down, or up
    return -((-v) >> n) if up else v >> n


def _div(a: int, b: int, up: bool) -> int:
    # a / b rounded down, or up (b > 0)
    return -((-a) // b) if up else a // b


def _ln_fixed(num: int, den: int, bits: int, up: bool) -> int:
    # 2**bits * ln(num/den) rounded down or up, 1 <= num/den <= 2 (see "Kernels");
    # r roots against about bits / 2r series terms, a root costing ~3 products
    r = max(2, isqrt(bits) // 3)
    terms = (bits + 2 * r + 64) // (2 * r + 2) + 3
    w = bits + r + 2 + (3 * terms + 8).bit_length()
    one = 1 << w
    t = _div(num << w, den, up)
    for _ in range(r):
        t = isqrt((t << w) - 1) + 1 if up else isqrt(t << w)
    z = _div((t - one) << w, t + one, up)
    z2 = _shr(z * z, w, up)
    power, k, total = z, 1, z
    while power > up:  # a lower end stops at 0, an upper end at 1 unit
        power = _shr(power * z2, w, up)
        k += 2
        total += _div(power, k, up)
    if up:
        total += power  # bounds the dropped tail
    return _shr(total, w - bits - r - 1, up)


@lru_cache(maxsize=8)
def _ln2_bounds(bits: int) -> tuple[int, int]:
    return _ln_fixed(2, 1, bits, False), _ln_fixed(2, 1, bits, True)


def _pow2_side(x: Fraction, prec: int, lower: bool) -> Fraction:
    # The lower or the upper end of a bracket of 2**x, x >= 0, within
    # relative error about 2**-prec.
    k = _floor_fr(x)
    f = x - k
    if f == 0:
        return Fraction(1 << k)
    c = (f.numerator << prec) // f.denominator
    s = prec + _GUARD
    return Fraction(_pow2_fixed(c if lower else c + 1, prec, s, not lower) << k, 1 << s)


def _pow2_fixed(c: int, prec: int, s: int, up: bool) -> int:
    # 2**s * 2**(c / 2**prec) rounded down or up, 0 <= c <= 2**prec (see "Kernels")
    if c == 0:
        return 1 << s
    if c >= 1 << prec:
        return 2 << s
    # r squarings against about s / r series terms
    r = max(2, isqrt(s))
    terms = (s + 2 * r + 96) // r + 3
    w = s + r + 1 + (2 * terms + 8).bit_length() + _MARGIN
    one = 1 << w
    a = _shr(c * _ln2_bounds(w)[up], prec + r, up)  # ln 2's end on the same side
    term, k, total = one, 0, one
    while term > up:  # a lower end stops at 0, an upper end at 1 unit
        k += 1
        term = _div(_shr(term * a, w, up), k, up)
        total += term
    if up:
        total += term  # bounds the dropped tail
    for _ in range(r):
        total = _shr(total * total, w, up)
    return _shr(total, w - s, up)


def iv_exact(x: Fraction | int) -> Interval:
    f = Fraction(x)
    return f, f


def iv_add(a: Interval, b: Interval) -> Interval:
    return a[0] + b[0], a[1] + b[1]


def iv_scale(a: Interval, c: Fraction | int) -> Interval:
    c = Fraction(c)
    if c < 0:
        raise ValueError("negative scaling not used here")
    return a[0] * c, a[1] * c


def iv_log2(a: Interval, prec: int) -> Interval:
    if a[0] == a[1]:
        return _log2_bounds(a[0], prec)  # exact (k, k) at a power of two
    return _log2_bounds(a[0], prec)[0], _log2_bounds(a[1], prec)[1]


def iv_log(base: int, a: Interval, prec: int) -> Interval:
    """log_base over an interval of positive values."""
    if a[0] <= 0:
        raise ValueError("logarithm of a nonpositive value")
    if a[0] == a[1] and a[0].denominator == 1:
        k = exact_int_log(base, a[0].numerator)
        if k is not None:
            return iv_exact(k)
    num = iv_log2(a, prec)
    den = _log2_bounds(Fraction(base), prec)
    if num[0] < 0:
        raise ValueError("logarithm argument below 1 is outside the domain used here")
    return num[0] / den[1], num[1] / den[0]


def iv_pow(base: int, expo: Interval, prec: int) -> Interval:
    """base**expo for an integer base >= 2 and a nonnegative exponent."""
    if base < 2:
        raise ValueError("iv_pow needs base >= 2")
    if expo[0] == expo[1] and expo[0].denominator == 1:
        return iv_exact(Fraction(base) ** expo[0].numerator)
    lg = _log2_bounds(Fraction(base), prec)
    return (
        _pow2_side(expo[0] * lg[0], prec, lower=True),
        _pow2_side(expo[1] * lg[1], prec, lower=False),
    )


def integer_root(value: int, k: int) -> int:
    """floor(value ** (1/k)) for value >= 0, k >= 1, by integer Newton."""
    if value < 0 or k < 1:
        raise ValueError("integer_root needs value >= 0 and k >= 1")
    if value in (0, 1) or k == 1:
        return value
    x = 1 << ((value.bit_length() + k - 1) // k)  # certainly >= the root
    while True:
        y = ((k - 1) * x + value // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def refine_ceil(make: "callable[[int], Interval]") -> int:
    """Smallest integer >= the bracketed value, refined until pinned."""
    return _refine(make, _ceil_fr)


def refine_floor(make: "callable[[int], Interval]") -> int:
    """Largest integer <= the bracketed value, refined until pinned."""
    return _refine(make, _floor_fr)


def _refine(make: "callable[[int], Interval]", rounding: "callable[[Fraction], int]") -> int:
    # Precision schedule: see the module docstring.
    prec, last = 48, 3072
    while True:
        lo, hi = make(prec)
        r = rounding(lo)
        if lo == hi or r == rounding(hi):
            return r
        if prec >= last:
            raise ArithmeticError(
                f"bracket still straddles an integer at {prec} bits; value sits on an integer?"
            )
        need = _ceil_fr(hi).bit_length() + _PIN_GUARD
        last = max(last, 4 * need)
        prec = max(2 * prec, need)
