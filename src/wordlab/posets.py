"""Finite posets, Dilworth machinery, and permutation-ordered posets.

Relations are kept as strict-order bitmasks: bit j of `above[i]` says
i < j.  Building a `FinitePoset` checks the rows: size, range and
irreflexivity row by row, then antisymmetry and transitivity with rows
taken in increasing popcount.  For row i the check visits the lowest
bit j of the row not yet visited, tests that i is not in row j and
that row j lies inside row i, and then drops j and all of row j from
the bits left to visit.  That is exact: a row j inside row i is
strictly smaller (j is in row i, not in row j), so it was checked
earlier, and every pair (i, k) with k in row j follows from the pairs
(i, j) and (j, k).  On a violation the check reruns the plain scan over
every pair, rows in index order, so the message is the one that scan
raises first.

One maximum bipartite matching on the split graph gives both the
minimum chain cover and, through its vertex cover, a maximum
antichain, so the Dilworth equality |min chain cover| = |max antichain|
is asserted on every decomposition computed.  It is computed once per
`FinitePoset` instance and kept on it (equality, hash and repr read
only the two fields), so `max_antichain` and `min_chain_cover` on one
poset share it.  It runs only where chains or an antichain are
returned: `min_chain_cover`, `max_antichain` (the `posets` CLI) and
`divisibility.dilworth_tail_coloring`.  A width alone is one patience
pass, `_decreasing_reach`, with no relation built: for `epsilon_table`,
`tableaux.longest_decreasing` and the tail width.  The coding-class
width is the pile count of a left-to-right pass instead
(`divisibility._longest_nondecreasing`), whose piles the coding corpus
search carries per class and extends by one cycle's keys per child.

Every kernel reads whole rows of the relation instead of asking about
one pair at a time.  The matching is Kuhn's augmenting-path method on
Fulkerson's split graph: each augment is a depth-first search on an
explicit stack that walks the set bits of `above[i] & ~seen`, lowest
first, with `seen` one int per top-level augment, so it visits the
right vertices in index order and returns the same matching as a
per-pair scan.  The alternating reachability that finds the vertex
cover walks set bits the same way, and the antichain is checked with
one mask test per element.  `less` and `comparable` remain for callers
that do ask about single pairs.

`epsilon_table` counts permutation posets up to isomorphism by
`canonical_key`, the least relabeled relation over the bijections that
keep each (down-set size, up-set size) profile class on its own block
of slots.  Swapping two twins (points with the same up-set and the same
down-set, so incomparable) is an automorphism, so the key tries one
bijection per distinct arrangement of twin classes within each profile
class (automorphism pruning, as in McKay 1981) and reaches the same
minimum: 1.3, 1.6 and 1.8 relabelings per key at 5, 6 and 7 points,
against 5.1, 6.7 and 7.9 for every bijection.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .words import _depth_first


@dataclass(frozen=True)
class FinitePoset:
    """A strict partial order on 0..size-1; above[i] has bit j set iff i < j."""

    size: int
    above: tuple[int, ...]  # bit j of above[i] set iff i < j (strict)

    def __post_init__(self) -> None:
        n, rel = self.size, self.above
        if len(rel) != n:
            raise ValueError("relation size mismatch")
        for i in range(n):
            if rel[i] >> n:
                raise ValueError("relation bits outside range")
            if rel[i] & (1 << i):
                raise ValueError("relation not irreflexive")
        for i in sorted(range(n), key=lambda i: rel[i].bit_count()):
            row = left = rel[i]
            while left:
                low = left & -left
                up = rel[low.bit_length() - 1]
                if up >> i & 1 or up & ~row:
                    _check_pairs(rel)  # raises the index-order scan's first message
                left &= ~(low | up)

    def less(self, i: int, j: int) -> bool:
        return bool(self.above[i] & (1 << j))

    def comparable(self, i: int, j: int) -> bool:
        return i != j and (self.less(i, j) or self.less(j, i))

    @staticmethod
    def from_relation(n: int, pairs: Iterable[tuple[int, int]]) -> "FinitePoset":
        """Build from strict relations i < j (0-based), closed by one
        Warshall pass (1962) over the bit rows, k outermost."""
        rel = [0] * n
        for i, j in pairs:
            rel[i] |= 1 << j
        for k in range(n):
            for i in range(n):
                if rel[i] >> k & 1:
                    rel[i] |= rel[k]
        return FinitePoset(n, tuple(rel))


def _check_pairs(rel: tuple[int, ...]) -> None:
    """Antisymmetry and transitivity over every pair, rows in index order."""
    for i, row in enumerate(rel):
        for j in _bits(row):
            if rel[j] >> i & 1:
                raise ValueError("relation not antisymmetric")
            if rel[j] & ~row:
                raise ValueError("relation not transitive")
    raise AssertionError("the popcount-order check found a violation the pair scan missed")


def _bits(m: int) -> Iterator[int]:
    """The set bits of a nonnegative mask, lowest first."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def _below(p: FinitePoset) -> list[int]:
    """The transposed relation: bit i of `below[j]` set iff i < j."""
    below = [0] * p.size
    for i, row in enumerate(p.above):
        bit = 1 << i
        for j in _bits(row):
            below[j] |= bit
    return below


def parse_poset(text: str) -> FinitePoset:
    """Exchange format: first line n, then one covering pair 'i j' per line (1-based)."""
    lines = [(no, ln.strip()) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise ValueError("empty poset text")
    no, size = lines[0]
    n = _integer(size, no, "size")
    if n < 0:
        raise ValueError(f"line {no}: size {n} is negative")
    pairs = []
    for no, ln in lines[1:]:
        fields = ln.split()
        if len(fields) > 2:
            raise ValueError(f"line {no}: extra field {fields[2]!r} after the pair")
        if len(fields) < 2:
            raise ValueError(f"line {no}: pair {ln!r} has no second label")
        pair = (_integer(fields[0], no, "label"), _integer(fields[1], no, "label"))
        for label in pair:
            if not 1 <= label <= n:
                raise ValueError(f"line {no}: label {label} is outside 1..{n}")
        pairs.append((pair[0] - 1, pair[1] - 1))
    return FinitePoset.from_relation(n, pairs)


def _integer(field: str, no: int, what: str) -> int:
    try:
        return int(field)
    except ValueError:
        raise ValueError(f"line {no}: {what} {field!r} is not an integer") from None


def _max_matching(p: FinitePoset) -> tuple[int, list[int]]:
    """Kuhn's algorithm on the split graph; deterministic by index order."""
    n, above = p.size, p.above
    match_right = [-1] * n  # right j -> left i
    size = 0
    for root in range(n):
        i, seen = root, 0  # seen: right vertices visited by this augment
        path: list[tuple[int, int]] = []  # (left vertex, right vertex taken from it)
        while True:
            # a failed branch may have seen more than the bits up to its own
            m = above[i] & ~seen
            if m:
                low = m & -m
                seen |= low
                j = low.bit_length() - 1
                k = match_right[j]
                if k < 0:
                    match_right[j] = i
                    for left, right in path:
                        match_right[right] = left
                    size += 1
                    break
                path.append((i, j))
                i = k
            elif path:
                i = path.pop()[0]
            else:
                break
    return size, match_right


def _dilworth(p: FinitePoset) -> tuple[tuple[tuple[int, ...], ...], frozenset[int]]:
    """A minimum chain cover and a maximum antichain from one maximum
    matching, computed once per poset and kept on the instance."""
    known = p.__dict__.get("_decomposition")
    if known is not None:
        return known
    n, above = p.size, p.above
    size, match_right = _max_matching(p)
    match_left = [-1] * n
    for j, i in enumerate(match_right):
        if i >= 0:
            match_left[i] = j
    # Chains follow matched edges up from each element without a matched predecessor.
    chains = []
    for start in range(n):
        if match_right[start] >= 0:
            continue
        chain = [start]
        while match_left[chain[-1]] >= 0:
            chain.append(match_left[chain[-1]])
        chains.append(tuple(chain))
    # Alternating reachability from unmatched left vertices.
    stack = [i for i in range(n) if match_left[i] < 0]
    seen_left = sum(1 << i for i in stack)
    seen_right = 0
    while stack:
        i = stack.pop()
        m = above[i] & ~seen_right
        seen_right |= m
        for j in _bits(m):
            k = match_right[j]
            if k >= 0 and not seen_left >> k & 1:
                seen_left |= 1 << k
                stack.append(k)
    # Cover = unreached left + reached right; antichain = fully uncovered elements.
    mask = seen_left & ~seen_right
    antichain = frozenset(_bits(mask))
    assert len(chains) == n - size == len(antichain), "Dilworth equality violated"
    for a in antichain:
        assert not above[a] & mask, "antichain has comparable elements"
    known = (tuple(chains), antichain)
    object.__setattr__(p, "_decomposition", known)
    return known


def min_chain_cover(p: FinitePoset) -> tuple[tuple[int, ...], ...]:
    """Partition into the minimum number of chains (Dilworth)."""
    return _dilworth(p)[0]


def max_antichain(p: FinitePoset) -> tuple[int, frozenset[int]]:
    """Maximum antichain size with a witness, via the matching's vertex cover."""
    antichain = _dilworth(p)[1]
    return len(antichain), antichain


def max_antichain_bruteforce(p: FinitePoset) -> int:
    """Independent oracle: grow antichains element by element, in
    increasing order, depth first (`words._depth_first`)."""
    n = p.size
    full = (1 << n) - 1
    incomp = [
        full & ~(up | down | 1 << i)
        for i, (up, down) in enumerate(zip(p.above, _below(p)))
    ]

    def children(chosen: tuple[int, ...], allowed: int):
        start = chosen[-1] + 1 if chosen else 0
        for j in _bits(allowed >> start << start):
            yield chosen + (j,), allowed & incomp[j]

    return max((len(chosen) for chosen, _ in _depth_first(children, ((), full), n)), default=0)


def permutation_poset(pi: Sequence[int]) -> FinitePoset:
    """Intersection of the natural order with the order induced by pi (1-based values).

    i < j exactly when i < j as positions and pi[i] < pi[j].  That
    relation is transitive already, so the rows are built directly:
    taking the values from the largest down, row i is the set of
    positions after i that hold a larger value.
    """
    n = len(pi)
    if sorted(pi) != list(range(1, n + 1)):
        raise ValueError("not a permutation of 1..n")
    position = [0] * n
    for i, v in enumerate(pi):
        position[v - 1] = i
    above = [0] * n
    larger = 0  # positions holding a value above the current one
    for i in reversed(position):
        above[i] = larger >> (i + 1) << (i + 1)
        larger |= 1 << i
    return FinitePoset(n, tuple(above))


def _decreasing_reach(seq: Sequence) -> list[int]:
    """reach[i]: the most terms of a strictly decreasing subsequence of
    seq opening at i, by one right-to-left patience pass.  max(reach) is
    the width of a two-dimensional order listed by one coordinate and
    ranked by the other (Greene 1974)."""
    reach = [0] * len(seq)
    piles: list = []  # piles[k]: least value read that opens k + 1 terms
    for i in range(len(seq) - 1, -1, -1):
        x = seq[i]
        k = bisect_left(piles, x)
        if k == len(piles):
            piles.append(x)
        else:
            piles[k] = x
        reach[i] = k + 1
    return reach


def canonical_key(p: FinitePoset) -> tuple[int, ...]:
    """Isomorphism-invariant canonical form.

    Elements are profiled by (down-set size, up-set size), and the
    profile classes take consecutive slots in sorted profile order.
    The key is the minimum relabeled relation over all
    profile-respecting bijections, but not every bijection is tried.
    Twins, elements with the same up-set and the same down-set, are
    incomparable, so swapping two of them is an automorphism, and two
    bijections that differ only on twins give the same relabeled
    relation.  So each profile class tries only the distinct
    arrangements of its twin-class labels over its slots: a singleton,
    or a class whose members are all twins of each other, is placed
    once.  Every bijection gives the key of one tried arrangement, so
    the minimum is the same one the full product of slot permutations
    reaches.
    """
    n, above = p.size, p.above
    below = [0] * n
    edges = []
    for i, row in enumerate(above):
        bit = 1 << i
        while row:
            low = row & -row
            j = low.bit_length() - 1
            below[j] |= bit
            edges.append((i, j))
            row ^= low
    profiles = [down.bit_count() * (n + 1) + up.bit_count() for up, down in zip(above, below)]
    twins = [down << n | up for up, down in zip(above, below)]  # equal exactly for twins
    # by (down, up) profile, twins next to each other; the i-th takes slot i
    ranked = sorted(zip(profiles, twins, range(n)))
    relabel = [0] * n
    for slot, (_, _, i) in enumerate(ranked):
        relabel[i] = slot
    varying = []  # per class of two twin classes or more: its distinct (element, slot) placements
    if len(set(twins)) > len(set(profiles)):
        offset = 0
        for _, group in itertools.groupby(ranked, itemgetter(0)):
            group = list(group)
            k = len(group)
            if group[0][1] != group[-1][1]:
                # the r-th member takes the r-th slot of its label, members sorted by label
                arrangements = dict.fromkeys(itertools.permutations(twin for _, twin, _ in group))
                varying.append([
                    [(i, offset + s) for (_, _, i), s in zip(group, sorted(range(k), key=a.__getitem__))]
                    for a in arrangements
                ])
            offset += k

    def key(assignment) -> tuple[int, ...]:
        for placement in assignment:
            for i, slot in placement:
                relabel[i] = slot
        rel = [0] * n
        for i, j in edges:
            rel[relabel[i]] |= 1 << relabel[j]
        return tuple(rel)

    return min(map(key, itertools.product(*varying)))


def epsilon_table(n: int) -> dict[int, int]:
    """epsilon_k(n): isomorphism classes of permutation posets by max antichain k.

    i -> pi(i) maps the poset of pi onto the poset of its inverse, so a
    permutation whose inverse comes earlier in lex order adds no class.
    """
    if not 1 <= n <= 7:
        raise ValueError("epsilon enumeration needs 1 <= n <= 7")
    seen: dict[tuple[int, ...], int] = {}
    inverse = [0] * n
    for pi in itertools.permutations(range(1, n + 1)):
        for i, v in enumerate(pi, 1):
            inverse[v - 1] = i
        if tuple(inverse) < pi:
            continue
        key = canonical_key(permutation_poset(pi))
        if key not in seen:
            seen[key] = max(_decreasing_reach(pi))
    table = {k: 0 for k in range(1, n + 1)}
    for anti in seen.values():
        table[anti] += 1
    return table


def epsilon_bound(n: int, k: int) -> int:
    """min(k**2n/(k!)**2, (n-k+1)**2n/((n-k)!)**2), floored to an integer."""
    import math

    a = k ** (2 * n) // math.factorial(k) ** 2
    b = (n - k + 1) ** (2 * n) // math.factorial(n - k) ** 2
    return min(a, b)


# The 15-point remark poset: three disjoint chains of sizes 3, 5 and 7.
_CHAINS = (tuple(range(0, 3)), tuple(range(3, 8)), tuple(range(8, 15)))


def _linear_order(chain_order: tuple[int, int, int]) -> tuple[int, ...]:
    """A linear order on 15 points listing elements from top to bottom."""
    seq: list[int] = []
    for c in chain_order:
        seq.extend(_CHAINS[c])
    return tuple(seq)


def _intersection_poset(order_a: tuple[int, ...], order_b: tuple[int, ...]) -> FinitePoset:
    n = len(order_a)
    pos_a = {x: i for i, x in enumerate(order_a)}
    pos_b = {x: i for i, x in enumerate(order_b)}
    pairs = [
        (j, i)
        for i in range(n)
        for j in range(n)
        if i != j and pos_a[i] < pos_a[j] and pos_b[i] < pos_b[j]
    ]  # earlier in the listing = greater; store strict 'less' pairs
    return FinitePoset.from_relation(n, pairs)


@dataclass(frozen=True)
class TwoPairsDemo:
    """Two non-isomorphic pairs of linear orders that intersect in one poset."""

    poset: FinitePoset
    pair_one: tuple[tuple[int, ...], tuple[int, ...]]
    pair_two: tuple[tuple[int, ...], tuple[int, ...]]


def non_injectivity_demo() -> TwoPairsDemo:
    """Two non-isomorphic pairs of linear orders with one common intersection.

    The intersection is the disjoint union of chains of sizes 3, 5, 7;
    pair one stacks the chains as 1-2-3 and 3-2-1, pair two as 2-1-3
    and 3-1-2.  Distinct chain sizes force any pair isomorphism to fix
    every point, so the pairs cannot be isomorphic.
    """
    pair_one = (_linear_order((0, 1, 2)), _linear_order((2, 1, 0)))
    pair_two = (_linear_order((1, 0, 2)), _linear_order((2, 0, 1)))
    poset = _intersection_poset(*pair_one)
    assert _intersection_poset(*pair_two).above == poset.above
    assert not pairs_isomorphic(pair_one, pair_two)
    return TwoPairsDemo(poset, pair_one, pair_two)


def pairs_isomorphic(
    pair_a: tuple[tuple[int, ...], tuple[int, ...]],
    pair_b: tuple[tuple[int, ...], tuple[int, ...]],
) -> bool:
    """Pair isomorphism for pairs of linear orders.

    A bijection carrying one linear order onto another is determined by
    matching the listings position by position, so only two candidate
    maps exist (order-preserving and order-swapping).
    """
    a1, a2 = pair_a
    for b1, b2 in (pair_b, pair_b[::-1]):
        phi = {x: y for x, y in zip(a1, b1)}
        if tuple(phi[x] for x in a2) == b2:
            return True
    return False
