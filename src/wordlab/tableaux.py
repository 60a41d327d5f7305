"""Schensted insertion, the RSK bijection, hooks, and permutation censuses.

Permutations are 1-based value tuples.  A standard tableau on n cells
holds each of 1..n once, strictly increasing along rows and down
columns.  xi_count(n, k) counts permutations with no decreasing
subsequence of length k+1 by four independent routes that must agree:
enumeration, hook-length summation, the exact closed form for k = 3,
and coefficient extraction from Gessel's determinant generating
function, computed on exponential series with integer coefficients.
The enumeration route counts the tree of permutation prefixes under
Schensted's patience sorting level by level on `words._level_counts`,
with the prefixes merged by state (the relative order of their unused
values and pile tops), so it stays independent of the hook and
determinant routes.

A Tableau's rows are a tuple of tuples (list rows are converted), so it
cannot change, and it keeps its shape and its is_standard() answer once
computed.  rsk interns the tableaux it returns on up to 9 cells: S_n
has only as many standard tableaux as involutions (232 for n = 7,
against 5,040 permutations), so each distinct one is built and checked
once per process.  rsk still asserts on every call that both tableaux
are standard, reading the answer kept from that check, and
rsk_inverse's validation reads it too.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from operator import lt
from typing import Iterator, Sequence

from .posets import _decreasing_reach
from .words import _level_counts


@dataclass(frozen=True)
class Tableau:
    """A Young tableau: nonempty rows of weakly decreasing length."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = self.rows
        if type(rows) is not tuple or any(type(row) is not tuple for row in rows):
            rows = tuple(map(tuple, rows))
            object.__setattr__(self, "rows", rows)
        widths = tuple(map(len, rows))
        if 0 in widths or any(map(lt, widths, widths[1:])):
            raise ValueError("rows must be nonempty with weakly decreasing lengths")
        object.__setattr__(self, "_shape", widths)

    @property
    def shape(self) -> tuple[int, ...]:
        return self._shape

    @property
    def order(self) -> int:
        return sum(self._shape)

    def is_standard(self) -> bool:
        known = self.__dict__.get("_standard")
        if known is None:
            known = self._check_standard()
            object.__setattr__(self, "_standard", known)
        return known

    def _check_standard(self) -> bool:
        rows = self.rows
        entries = sorted(itertools.chain.from_iterable(rows))
        if entries != list(range(1, len(entries) + 1)):
            return False
        for row in rows:
            if not all(map(lt, row, row[1:])):
                return False
        # rows are weakly decreasing in length, so map stops at the lower row
        for upper, lower in zip(rows, rows[1:]):
            if not all(map(lt, upper, lower)):
                return False
        return True

    def __str__(self) -> str:
        width = max((len(str(x)) for row in self.rows for x in row), default=1)
        return "\n".join(" ".join(str(x).rjust(width) for x in row) for row in self.rows)


def _bump(rows: list[list[int]], x: int) -> int:
    """Row-insert x into mutable rows in place; returns the 0-based landing row."""
    for r, row in enumerate(rows):
        c = bisect_right(row, x)
        if c == len(row):
            row.append(x)
            return r
        x, row[c] = row[c], x  # bump the least entry above x into the next row
    rows.append([x])
    return len(rows) - 1


def schensted_insert(t: Tableau | None, x: int) -> tuple[Tableau, tuple[int, int]]:
    """Row-insert x; returns the new tableau and the landing cell (1-based)."""
    rows = [list(r) for r in t.rows] if t is not None else []
    if any(x in row for row in rows):
        raise ValueError(f"entry {x} already present")
    r = _bump(rows, x)
    return Tableau(rows), (r + 1, len(rows[r]))


# the largest n that xi_count enumerates and that `rsk --n` walks S_n for
ENUMERATION_CAP = 9
# rsk interns tableaux on at most ENUMERATION_CAP cells, and all of them
# fit at once: 3,735 (2,620 on 9 cells), about 2 MB.  Longer ones are
# built fresh, as few repeat: 4,096 pairs on 1,000 cells would keep 140 MB.
_INTERNED = 4096


@lru_cache(maxsize=_INTERNED)
def _tableau(rows: tuple[tuple[int, ...], ...]) -> Tableau:
    """The interned Tableau on these rows, checked for standardness when built."""
    t = Tableau(rows)
    t.is_standard()
    return t


def rsk(pi: Sequence[int]) -> tuple[Tableau, Tableau]:
    """P by successive row insertion, Q by recording each landing cell."""
    _check_permutation(pi)  # distinct entries, so no insertion meets its own value
    if not pi:
        raise ValueError("empty permutation")
    p_rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for step, x in enumerate(pi, start=1):
        r = _bump(p_rows, x)
        if r == len(q_rows):
            q_rows.append([])
        q_rows[r].append(step)
    build = _tableau if len(pi) <= ENUMERATION_CAP else Tableau
    p, q = build(tuple(map(tuple, p_rows))), build(tuple(map(tuple, q_rows)))
    assert p.shape == q.shape and p.is_standard() and q.is_standard()
    return p, q


def rsk_inverse(p: Tableau, q: Tableau) -> tuple[int, ...]:
    """The unique permutation with rsk(pi) = (p, q), by reverse bumping."""
    if p.shape != q.shape:
        raise ValueError("shape mismatch")
    if not (p.is_standard() and q.is_standard()):
        raise ValueError("non-standard tableau")
    n = p.order
    rows = [list(r) for r in p.rows]
    row_of = [0] * (n + 1)
    for r, row in enumerate(q.rows):
        for entry in row:
            row_of[entry] = r
    out = [0] * n
    for step in range(n, 0, -1):
        # q is standard, so its largest entry ends its row: a corner of the
        # shape.  rows keeps the shape of q's entries up to step, so no later
        # step lands in a row this empties.
        r = row_of[step]
        x = rows[r].pop()
        for rr in range(r - 1, -1, -1):
            row = rows[rr]
            c = bisect_left(row, x) - 1  # rightmost entry below x
            x, row[c] = row[c], x
        out[step - 1] = x
    return tuple(out)


def _check_permutation(pi: Sequence[int]) -> None:
    if sorted(pi) != list(range(1, len(pi) + 1)):
        raise ValueError("not a permutation of 1..n")


def longest_decreasing(pi: Sequence[int]) -> int:
    return max(_decreasing_reach(pi), default=0)


def longest_increasing(pi: Sequence[int]) -> int:
    return longest_decreasing([-x for x in pi])


def partitions(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def partitions_max_rows(n: int, k: int) -> Iterator[tuple[int, ...]]:
    for shape in partitions(n):
        if len(shape) <= k:
            yield shape


def hook_lengths(shape: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    cols = [0] * (shape[0] if shape else 0)
    for row_len in shape:
        for c in range(row_len):
            cols[c] += 1
    return tuple(
        tuple(row_len - c + cols[c] - r - 1 for c in range(row_len))
        for r, row_len in enumerate(shape)
    )


def hook_count(shape: tuple[int, ...]) -> int:
    """Standard fillings of the shape: n! / product of hooks."""
    n = sum(shape)
    prod = 1
    for row in hook_lengths(shape):
        for h in row:
            prod *= h
    count, rem = divmod(factorial(n), prod)
    assert rem == 0
    return count


def delta_count(n: int, k: int) -> int:
    """Delta_k(n): standard tableaux on n cells with at most k rows."""
    return sum(hook_count(shape) for shape in partitions_max_rows(n, k))


def xi_count(n: int, k: int, method: str = "tableaux") -> int:
    """Permutations of n with no decreasing subsequence of length k+1."""
    if n < 0 or k < 1:
        raise ValueError("xi_count needs n >= 0, k >= 1")
    if method == "enumerate":
        if n > ENUMERATION_CAP:
            raise ValueError(f"enumeration capped at n = {ENUMERATION_CAP}")
        return _xi_enumerate(n, k)
    if method == "tableaux":
        if n > 12:
            raise ValueError("tableaux route capped at n = 12")
        if n == 0:
            return 1
        return sum(hook_count(shape) ** 2 for shape in partitions_max_rows(n, k))
    if method == "closed3":
        if k != 3:
            raise ValueError("closed form available only for k = 3")
        return xi3_closed(n)
    if method == "genfun":
        if k > 4 or n > 8:
            raise ValueError("generating-function route capped at k = 4, n = 8")
        return _xi_genfun(n, k)
    raise ValueError(f"unknown method {method!r}")


def _xi_enumerate(n: int, k: int) -> int:
    """Patience sorting over permutation prefixes, pruning once piles exceed k.

    A prefix's state is a string over u/t, one letter per value that is
    unused (u) or a pile top (t), in increasing value order; used values
    that are no longer tops are dropped.  An unused value x at index i
    lands on the pile whose top is the last t left of it, at index j,
    and replaces that top; with no t to its left it opens a new pile,
    allowed only while there are fewer than k.  Whether and where each
    later value lands depends only on how it compares with the tops at
    that moment, and buried values are never compared again, so every
    prefix with the same state has the same number of completions.
    Merging those prefixes is therefore exact: the permutations are the
    nodes at level n of the tree of states (`words._level_counts`).
    """

    def children(s: str) -> Iterator[str]:
        room = s.count("t") < k
        j = -1  # index of the last top left of i
        for i, c in enumerate(s):
            if c == "t":
                j = i
            elif j >= 0:
                yield s[:j] + s[j + 1 : i] + "t" + s[i + 1 :]
            elif room:
                yield s[:i] + "t" + s[i + 1 :]

    return _level_counts(children, "u" * n, n)[n]


def xi3_closed(n: int) -> int:
    """Exact-rational evaluation of the published xi_3(n) sum."""
    total = Fraction(0)
    for k in range(n + 1):
        num = 3 * k * k + 2 * k + 1 - n - 2 * k * n
        total += (
            Fraction(comb(2 * k, k) * comb(n, k) ** 2 * num)
            / ((k + 1) ** 2 * (k + 2) * (n - k + 1))
        )
    total *= 2
    assert total.denominator == 1
    return total.numerator


# --- generating-function route: exponential series in x, truncated ---
#
# A series f is held as the integers F[j] = j! [x^j] f.  Products are
# then binomial convolutions and every coefficient stays an integer.


def _series_mul(a: list[int], b: list[int], cap: int) -> list[int]:
    out = [0] * (cap + 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j in range(cap + 1 - i):
            if b[j]:
                out[i + j] += comb(i + j, i) * ai * b[j]
    return out


def _series_b(i: int, cap: int) -> list[int]:
    # I_i(2x) = sum_m x^(2m+i) / (m! (m+i)!), so F[2m+i] = C(2m+i, m).
    out = [0] * (cap + 1)
    m = 0
    while 2 * m + i <= cap:
        out[2 * m + i] = comb(2 * m + i, m)
        m += 1
    return out


def _series_det(mat: list[list[list[int]]], cap: int) -> list[int]:
    k = len(mat)
    if k == 1:
        return mat[0][0]
    out = [0] * (cap + 1)
    for j in range(k):
        minor = [[row[c] for c in range(k) if c != j] for row in mat[1:]]
        term = _series_mul(mat[0][j], _series_det(minor, cap), cap)
        for idx, v in enumerate(term):
            out[idx] += v if j % 2 == 0 else -v
    return out


def _xi_genfun(n: int, k: int) -> int:
    # Gessel: sum_n xi_k(n) x^(2n) / (n!)^2 = det[I_|i-j|(2x)], i, j < k.
    # Only x^(2n) is read, and (2n)! [x^(2n)] = xi_k(n) * C(2n, n).
    cap = 2 * n
    mat = [[_series_b(abs(i - j), cap) for j in range(k)] for i in range(k)]
    value, rem = divmod(_series_det(mat, cap)[cap], comb(cap, n))
    assert rem == 0
    return value


def delta_bound(n: int, k: int) -> int:
    """k**n / (k-1)!, floored."""
    return k**n // factorial(k - 1)


def multilinear_word_count(l: int, n: int, k: int) -> int:
    """Multilinear length-n words over l letters with no (k+1)-term decreasing run."""
    if n > l:
        raise ValueError("a multilinear word cannot be longer than the alphabet")
    return comb(l, n) * xi_count(n, k, method="tableaux")


def permutations_of(n: int) -> Iterator[tuple[int, ...]]:
    return itertools.permutations(range(1, n + 1))
