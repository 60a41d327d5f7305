"""Closed-form bound evaluators.

Every function returns an exact integer computed with the integer-only
brackets from `exactmath`: no floating point enters any value that
tests assert on.  Square brackets in the source formulas mean floor;
the corner brackets mean ceiling.  Where a formula is an integer
multiple of a single transcendental power, the ceiling is taken of the
power factor and the integer prefactor (including the letter count l)
stays outside, so the stated linearity in l holds exactly; the result
is still an upper bound for the raw formula.
"""

from __future__ import annotations

from fractions import Fraction

from .exactmath import (
    Interval,
    ceil_log,
    exact_int_log,
    iv_add,
    iv_exact,
    iv_log,
    iv_pow,
    iv_scale,
    refine_ceil,
    refine_floor,
)


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def psi_bound(n: int, d: int, l: int) -> int:
    """Word length forcing x**d or ordinary n-divisibility (log3 form)."""
    _check(n >= 2 and d >= 2 and l >= 1, "psi needs n >= 2, d >= 2, l >= 1")
    nd = n * d
    return 2**27 * l * _power_with_log3_exponent(nd, 3, 9, 36)


def _power_with_log3_exponent(v: int, a: int, b: int, c: int) -> int:
    """ceil(v ** (a*L + b*log3(L) + c)) with L = log3(v), v >= 2.

    For v = 3**m the value collapses to the exact integer
    3**(m*(a*m + c)) * m**(b*m); otherwise the exponent is irrational
    and interval refinement pins the ceiling.
    """
    m = exact_int_log(3, v)
    if m is not None:
        return 3 ** (m * (a * m + c)) * m ** (b * m)

    def make(prec: int) -> Interval:
        big = iv_log(3, iv_exact(v), prec)
        small = iv_log(3, big, prec)
        expo = iv_add(iv_add(iv_scale(big, a), iv_scale(small, b)), iv_exact(c))
        return iv_pow(v, expo, prec)

    return refine_ceil(make)


def psi_log2_bound(n: int, d: int, l: int) -> int:
    """Same threshold in the log2 form, sharper for small n and d."""
    _check(n >= 2 and d >= 2 and l >= 1, "psi_log2 needs n >= 2, d >= 2, l >= 1")
    nd = n * d

    def make(prec: int) -> Interval:
        big = iv_log(2, iv_exact(nd), prec)
        expo = iv_add(iv_scale(big, 2), iv_exact(10))
        return iv_pow(nd, expo, prec)

    return 256 * l * d * d * refine_ceil(make)


def phi_bound(n: int, l: int) -> int:
    """Height bound for the set of non-n-divisible words over l letters."""
    _check(n >= 3 and l >= 1, "phi needs n >= 3, l >= 1")
    return 2**96 * l * _power_with_log3_exponent(n, 12, 36, 91)


def upsilon_bound(n: int, l: int) -> int:
    """Essential-height bound, 2 * n**(3*ceil(log3 n) + 4) * l."""
    _check(n >= 1 and l >= 1, "upsilon needs n >= 1, l >= 1")
    return 2 * n ** (3 * ceil_log(3, n) + 4) * l


def upsilon_coding_bound(n: int, l: int) -> int:
    """Essential-height bound via letter coding, 8 * (l+1)**n * n**5 * (n-1)."""
    _check(n >= 2 and l >= 1, "coding bound needs n >= 2, l >= 1")
    return 8 * (l + 1) ** n * n**5 * (n - 1)


def p_nd(n: int, d: int) -> int:
    """floor((3/2) * (n+1) * d * (log3(n*d) + 2)), the Dilworth chain budget."""
    _check(n >= 1 and d >= 1, "p_nd needs n >= 1, d >= 1")
    nd = n * d

    def make(prec: int) -> Interval:
        big = iv_log(3, iv_exact(nd), prec) if nd > 1 else iv_exact(0)
        return iv_scale(iv_add(big, iv_exact(2)), Fraction(3 * (n + 1) * d, 2))

    return refine_floor(make)


def q_n(n: int) -> int:
    """Chain budget for the word-cycle order."""
    _check(n >= 1, "q_n needs n >= 1")
    return n - 1


def beth_bound(which: str, l: int, n: int) -> int:
    """Small-selective-height ceilings for period lengths 2, 3 and n-1.

    `which` selects the variant: "t2", "t3" or "large" (period n-1); the
    numeric period cannot choose since 2 or 3 may coincide with n-1.
    "large" needs l >= 2, where (l - 2) * (n - 1) is not negative.
    """
    if which == "large":
        _check(n >= 3 and l >= 2, "beth large needs n >= 3, l >= 2")
        return (l - 2) * (n - 1)
    _check(n >= 3 and l >= 1, "beth needs n >= 3, l >= 1")
    if which == "t2":
        num = (2 * l - 1) * (n - 1) * (n - 2)
        assert num % 2 == 0
        return num // 2
    if which == "t3":
        return (2 * l - 1) * (n - 1) * (n - 2)
    raise ValueError(f"unknown beth selector {which!r}")


def alpha_lower(n: int, l: int) -> int:
    """Lower bound (l - 2**(n-1)) * (n-2) * (n-3) / 2 realized by the edge construction."""
    _check(n >= 4 and l > 2 ** (n - 1), "alpha needs n >= 4 and l > 2**(n-1)")
    num = (l - 2 ** (n - 1)) * (n - 2) * (n - 3)
    assert num % 2 == 0
    return num // 2
