"""Exact integer brackets for logarithms and real powers.

The bound formulas multiply big rational constants by powers whose
exponents contain logarithms, so the results are usually irrational.
Asserted values must not depend on floating point: every quantity is
bracketed between two Fractions obtained with integer arithmetic only.
Logarithm digits come from the squaring method (each bit of log2(m) is
an integer comparison of m^(2^j) against a power of two), fractional
powers of two from chains of integer square roots.  Brackets shrink as
`prec` grows; callers refine until a floor or ceiling is pinned.

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
letter count l), and every fractional power of two at one precision
multiplies factors from the same chain of square roots 2**(2**-i).
The interval functions keep the last 256 `log2_bounds` results, keyed
by (x, prec); each holds two numbers of about prec bits.  A chain holds
prec numbers of prec bits, so `_root_chain` keeps only the last 4,
keyed by (prec, side): both sides at the 48-bit start and at the
precision of the latest refinement.  Cached values are the ones a fresh
computation returns, so no bracket depends on what ran before.

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
    """Bracket log2(x) for x > 0 within roughly 2**-prec."""
    if x <= 0:
        raise ValueError("log2 needs a positive argument")
    num, den = x.numerator, x.denominator
    # Integer part: 2**e <= x < 2**(e+1).
    e = num.bit_length() - den.bit_length()
    while not _le_pow2(e, num, den):
        e -= 1
    while _le_pow2(e + 1, num, den):
        e += 1
    m = x / (Fraction(2) ** e)
    if m == 1:
        return Fraction(e), Fraction(e)
    # Fractional bits of log2(m), m in (1, 2), by interval squaring.
    s = 2 * prec + _GUARD
    one = 1 << s
    two = 2 << s
    a_lo = (m.numerator << s) // m.denominator
    a_hi = -((-(m.numerator << s)) // m.denominator)
    frac_lo = 0
    frac_hi = 1 << prec
    for j in range(1, prec + 1):
        a_lo = (a_lo * a_lo) >> s
        a_hi = (-((-(a_hi * a_hi)) >> s)) + 1
        if a_hi < two:
            continue
        if a_lo >= two:
            frac_lo |= 1 << (prec - j)
            a_lo >>= 1
            a_hi = (a_hi + 1) >> 1
            continue
        # Interval straddles the bit decision: stop with a coarser bracket.
        frac_hi = frac_lo + (1 << (prec - j + 1))
        break
    else:
        frac_hi = frac_lo + 1
    scale = Fraction(1, 1 << prec)
    assert a_lo >= one - 2, "lost the [1,2) normalization"
    return Fraction(e) + frac_lo * scale, Fraction(e) + frac_hi * scale


# log2_bounds as the interval functions call it (see "Caches" above)
_log2_bounds = lru_cache(maxsize=256)(log2_bounds)


def _le_pow2(e: int, num: int, den: int) -> bool:
    # 2**e <= num/den, exactly.
    if e >= 0:
        return (den << e) <= num
    return den <= (num << (-e))


def pow2_bounds(x: Fraction, prec: int) -> Interval:
    """Bracket 2**x for x >= 0 within relative error about 2**-prec."""
    if x < 0:
        raise ValueError("pow2_bounds needs a nonnegative exponent")
    return _pow2_side(x, prec, lower=True), _pow2_side(x, prec, lower=False)


def _pow2_side(x: Fraction, prec: int, lower: bool) -> Fraction:
    # The lower or the upper end of pow2_bounds(x, prec).
    k = _floor_fr(x)
    f = x - k
    if f == 0:
        return Fraction(1 << k)
    c = (f.numerator << prec) // f.denominator
    return (1 << k) * _pow2_dyadic(c if lower else c + 1, prec, lower)


def _pow2_dyadic(c: int, prec: int, lower: bool) -> Fraction:
    # One-sided bound on 2**(c / 2**prec), 0 <= c <= 2**prec.
    s = prec + _GUARD
    if c >= 1 << prec:
        return Fraction(2)
    acc = 1 << s
    for root, bit in zip(_root_chain(prec, lower), format(c, f"0{prec}b")):
        if bit == "1":
            if lower:
                acc = (acc * root) >> s
            else:
                acc = (-((-(acc * root)) >> s)) + 1
    return Fraction(acc, 1 << s)


@lru_cache(maxsize=4)
def _root_chain(prec: int, lower: bool) -> tuple[int, ...]:
    # Entry i-1 bounds 2**(1 / 2**i) scaled by 2**s, i = 1..prec, from
    # below or from above: each is the integer square root of the last.
    s = prec + _GUARD
    root = 2 << s
    chain = []
    for _ in range(prec):
        root = isqrt(root << s) + (0 if lower else 1)
        chain.append(root)
    return tuple(chain)


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
        k = exact_int_log(2, a[0].numerator)
        if k is not None and a[0].denominator == 1:
            return iv_exact(k)
    lo = _log2_bounds(a[0], prec)[0]
    hi = _log2_bounds(a[1], prec)[1]
    return lo, hi


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
    if expo[0] == expo[1]:
        e = expo[0]
        if e.denominator == 1:
            return iv_exact(Fraction(base) ** e.numerator)
        root = _exact_root(base ** e.numerator, e.denominator)
        if root is not None:
            return iv_exact(Fraction(root))
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


def _exact_root(value: int, k: int) -> int | None:
    if value < 0 or k < 1:
        return None
    r = integer_root(value, k)
    return r if r**k == value else None


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
