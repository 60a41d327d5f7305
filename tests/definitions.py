"""One definitional reference per idea, each written from its statement.

A fast kernel in `wordlab` is checked against the slowest honest
reading of what it computes: every rotation, every block division,
every word, every permutation, every bijection.  Each function below
lists the objects its statement quantifies over and keeps the ones the
statement asks for.  A cut is taken only where a partial object already
fails the statement, or where the part still to come can no longer
succeed, so no object that counts is dropped.  A reference that
returns a witness returns the least one under the kernel's documented
order, as a `min` by an explicit key over all the witnesses, so
witnesses are compared and not only yes/no answers.

Idea: reference -> the kernels checked against it.

- Rotations: `rotations`, `least_rotation`, `root_length`,
  `is_primitive`, `is_regular`, `bracket` -> `words._least_rotation`,
  `canonical_rotation`, `WordCycle.of`, `is_primitive`,
  `_is_regular_letters`, `_bracket`, `primitive_cycle_classes`.
- Powers z**d: `powers`, `least_power`, `has_power`,
  `ends_with_power`, `square_free_words` -> `find_period_power`,
  `morphisms._repetition` (`has_square`, `has_cube`),
  `words._power_blockers`, `square_free_words`, `is_nd_reducible`.
- Factors: `factor_counts`, `is_balanced` -> `complexity_function`,
  `is_balanced`.
- Pattern instances: `least_pattern_instance` -> `find_pattern_instance`.
- Block divisions, ordinary and strong: `least_division`, with
  `ordinary_witness` and `strong_witness` -> `_block_division` through
  `is_n_divisible`, `is_nd_reducible` and `_head_step`.
- Tail divisions: `tail_witness` -> `_tail_witness`.
- Small selective height: `candidate_runs`, `selection_height`,
  `small_height` -> `_period_blocks`, `_selection_height`,
  `small_selective_height`.
- Large selective height: `maximal_runs`, `large_height` ->
  `_period_blocks`, `large_selective_height`.
- The selective corpus, every word: `Corpus` -> `selective_corpus_check`.
- Semistandard tableaux over l letters: `schur_at_ones` (the
  hook-content formula) -> the corpus's `scanned` at period 1.
- Permutations by longest decreasing subsequence: `longest_decreasing`,
  `decreasing_histogram`, `xi` -> `xi_count` by every route,
  `longest_decreasing` and the RSK row law.
- Poset isomorphism: `isomorphic` over all n! bijections, and the
  canonical key's value, `least_relabeled_relation`, over every
  profile-respecting bijection -> `canonical_key`; and
  `epsilon_by_least_relation` over every permutation -> `epsilon_table`.

Module fixtures build the shared enumerations once per test module:
`binary_and_ternary_words`, `corpus_book` and `decreasing_histograms`.

Where no brute force runs at the sizes a test needs, the reference that
was there stays next to its test, and its docstring names its method:
- `test_bounds.py`: the fixed precision ladder, the squaring-loop
  `log2` and the square-root chains for 2**x (a logarithm or a power
  of two has no finite set to search: these are slower ways to the
  same dyadic cells);
- `test_divisibility.py`: the replaced corpus walk, for the cells where
  every word takes seconds (131,670 children to test at (5, 2, 18, 1),
  16 s); the oracle walk and the process recursion (their
  cells reach 30,000 nodes and 400 states, far past a list of every
  word or every move sequence, and they check the `nodes` and `states`
  counters); the light-class stack and the width by matching
  (classes of up to 18 cycles); the height DPs; the tail coloring (a
  chain cover is not unique, so the reference is the matching of
  another kernel); and the snapshot scans;
- `test_posets.py`: Kuhn's matching, pair by pair and on row bitmasks
  (posets of 400 points), the closure and check scans, and the count of
  relabelings;
- `test_tableaux.py`: row insertion for RSK and its inverse (an
  algorithm with no shorter statement); at n = 9, past S_8, the
  enumeration is checked against the hook sums;
- `test_growth.py`: the transfer vector at 60 levels, the window
  filter and the Guibas-Odlyzko counts;
- `test_morphisms.py` and `test_words.py`: the image and length loops,
  the two-walk Crochemore test, the stack bracketing on letters (for
  the trees' repr, and for combs of up to 1,000 letters, where `bracket`
  retests every suffix at every cut), the preorder and frontier
  recursions, and the strong-comparability pairs.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from typing import Iterator, Sequence

import pytest

from wordlab.divisibility import DivisibilityWitness, Sense
from wordlab.posets import FinitePoset
from wordlab.words import Alphabet, Leaf, Pair, Word

# --- rotations ---


def rotations(ls: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Every rotation of ls, by the number of letters moved to the end, one at a time."""
    return (ls[i:] + ls[:i] for i in range(len(ls)))


def least_rotation(ls: tuple[int, ...]) -> tuple[int, ...]:
    return min(rotations(ls))


def root_length(ls: tuple[int, ...]) -> int:
    """The least r >= 1 whose rotation gives ls back: the primitive root's length."""
    return next(r for r in range(1, len(ls) + 1) if ls[r:] + ls[:r] == ls)


def is_primitive(ls: tuple[int, ...]) -> bool:
    """No rotation other than the trivial one gives ls back."""
    return all(ls[r:] + ls[:r] != ls for r in range(1, len(ls)))


def is_regular(ls: tuple[int, ...]) -> bool:
    """ls is larger than each of its other rotations."""
    return all(ls[r:] + ls[:r] < ls for r in range(1, len(ls)))


def bracket(ls: tuple[int, ...]) -> Leaf | Pair:
    """The bracketing of a regular word: cut at its longest proper suffix
    that is regular, and bracket both sides alike."""
    if len(ls) == 1:
        return Leaf(ls[0])
    cut = next(c for c in range(1, len(ls)) if is_regular(ls[c:]))
    return Pair(bracket(ls[:cut]), bracket(ls[cut:]))


def primitive_words(l: int, t: int) -> list[tuple[int, ...]]:
    """Every primitive word of length t over l letters, in lex order."""
    return [z for z in itertools.product(range(1, l + 1), repeat=t) if is_primitive(z)]


# --- powers ---


def powers(ls: tuple[int, ...], d: int) -> list[tuple[int, int]]:
    """Every occurrence of some z**d, z nonempty, as 0-based (start, |z|)."""
    return [
        (i, p) for p in range(1, len(ls) // d + 1) for i in range(len(ls) - d * p + 1) if ls[i : i + d * p] == ls[i : i + p] * d
    ]


def least_power(ls: tuple[int, ...], d: int, shortest_first: bool) -> tuple[int, int] | None:
    """The least z**d occurrence as (start, |z|): by |z| and then start, or
    by start and then |z|.  Either way z is primitive: were z = u**k with
    k > 1, u**d would open there with a shorter root."""
    return min(powers(ls, d), key=lambda sp: sp[::-1] if shortest_first else sp, default=None)


def has_power(ls: tuple[int, ...], d: int) -> bool:
    return bool(powers(ls, d))


def ends_with_power(ls: tuple[int, ...], d: int) -> bool:
    """Some z**d, z nonempty, is a suffix of ls."""
    n = len(ls)
    return any(ls[n - d * p :] == ls[n - p :] * d for p in range(1, n // d + 1))


def square_free_words(l: int, max_len: int) -> list[tuple[int, ...]]:
    """Every nonempty word over l letters up to max_len with no square, in
    lex order (a word before its extensions).  A square stays in every
    extension, so only square-free words are extended."""
    out, level = [], [()]
    for _ in range(max_len):
        level = [ls + (x,) for ls in level for x in range(1, l + 1) if not has_power(ls + (x,), 2)]
        out += level
    return sorted(out)


# --- factors ---


def factor_counts(ls: tuple[int, ...], n: int) -> list[int]:
    """The number of distinct factors of each length 1..n."""
    return [len({ls[i : i + k] for i in range(len(ls) - k + 1)}) for k in range(1, n + 1)]


def is_balanced(ls: tuple[int, ...]) -> bool:
    """Any two factors of one length hold numbers of the letter 2 that
    differ by at most one; a factor's count is a difference of prefix counts."""
    prefix = [0, *itertools.accumulate(x == 2 for x in ls)]
    for k in range(1, len(ls) + 1):
        counts = [b - a for a, b in zip(prefix, prefix[k:])]
        if max(counts) - min(counts) > 1:
            return False
    return True


# --- patterns ---


def pattern_instances(pat: tuple[int, ...], hls: tuple[int, ...], start: int) -> list[tuple[tuple[int, ...], dict]]:
    """Every instance of the pattern in the host that opens at start: one
    nonempty image per pattern letter, the same image at each of its
    places, as (the images' ends in pattern order, the images)."""
    out = []

    def grow(pi: int, hi: int, ends: tuple[int, ...], images: dict) -> None:
        if pi == len(pat):
            out.append((ends, images))
            return
        x = pat[pi]
        if x in images:
            if hls[hi : hi + len(images[x])] == images[x]:
                grow(pi + 1, hi + len(images[x]), ends + (hi + len(images[x]),), images)
            return
        for end in range(hi + 1, len(hls) + 1):
            grow(pi + 1, end, ends + (end,), {**images, x: hls[hi:end]})

    grow(0, start, (), {})
    return out


def least_pattern_instance(pattern, host) -> dict | None:
    """The images of the least instance by start and then image ends, as
    words; the least is among those of the first start that has any."""
    for start in range(len(host)):
        found = pattern_instances(pattern.letters, host.letters, start)
        if found:
            return {x: Word(v, host.alphabet) for x, v in min(found, key=lambda m: m[0])[1].items()}
    return None


# --- block divisions ---


def descends(a: Sequence[int], b: Sequence[int]) -> bool:
    """a > b at their first mismatch; a word and its prefix never descend."""
    for x, y in zip(a, b):
        if x != y:
            return x > y
    return False


def division_lists(
    ls: tuple[int, ...],
    n: int,
    heads: Sequence[tuple[int, ...]] | None = None,
    starts: Sequence[int] = (0,),
) -> Iterator[list[tuple[tuple[int, int, int], ...]]]:
    """For each start in turn, every division of ls[start:] into n
    nonempty blocks, each descending to the next, as 0-based (start,
    end, head) triples.

    With heads, each block opens with a head (no longer than the block)
    that no earlier block used; without, the head index is 0.  A block
    descends to the next exactly when the two first differ inside both
    and the earlier is larger there, just past their longest common
    prefix, so the next block's ends that descend are those past it.
    What a partial division can still become depends only on where its
    next block opens, its least end there, the heads used and the block
    count, so such a state that completed to nothing is remembered and
    not entered again."""
    L = len(ls)
    if heads is None:
        heads = [()]  # one empty head: every block opens with it
        reuse = True
    else:
        reuse = False
    dead: set = set()

    def descent_end(begin: int, end: int) -> int | None:
        """The least end of a block at `end` that descends from
        ls[begin:end]: one past their longest common prefix; or None."""
        m = 0
        while begin + m < end and end + m < L and ls[begin + m] == ls[end + m]:
            m += 1
        if begin + m == end or end + m == L or ls[begin + m] < ls[end + m]:
            return None
        return end + m + 1

    def grow(begin: int, first: int, blocks: tuple, used: frozenset, out: list) -> None:
        # the next block opens at begin, and its ends from first on descend
        # from the block before
        state = (begin, first, used, len(blocks))
        if state in dead:
            return
        found = len(out)
        last = len(blocks) == n - 1
        opening = [
            (h, len(z)) for h, z in enumerate(heads) if (reuse or h not in used) and ls[begin : begin + len(z)] == z
        ]
        # the last block ends at L, and first <= L always
        for end in () if not opening else (L,) if last else range(first, L):
            after = None if last else descent_end(begin, end)
            if not last and after is None:
                continue
            for h, size in opening:
                if size <= end - begin:
                    block = blocks + ((begin, end, h),)
                    if last:
                        out.append(block)
                    else:
                        grow(end, after, block, used if reuse else used | {h}, out)
        if len(out) == found:
            dead.add(state)

    for start in starts:
        out: list = []
        if start < L:
            grow(start, start + 1, (), frozenset(), out)
        yield out


def division_order(blocks: Sequence[tuple[int, int, int]]) -> tuple[int, ...]:
    """The kernel's order: the start, then for each block its end and then its head."""
    return (blocks[0][0],) + tuple(x for _, end, head in blocks for x in (end, head))


def least_division(ls, n, heads=None, starts=(0,)):
    """The least division of some ls[start:] in `division_order`, or
    None.  That order opens with the start, so the least division is the
    least of those from the first start that has any."""
    return next((min(found, key=division_order) for found in division_lists(ls, n, heads, starts) if found), None)


def divisible(ls, n, heads=None, starts=(0,)) -> bool:
    """Some ls[start:] has a division."""
    return any(division_lists(ls, n, heads, starts))


def ordinary_witness(ls: tuple[int, ...], n: int) -> DivisibilityWitness | None:
    """The least division of the whole of ls into n descending blocks."""
    blocks = least_division(ls, n)
    return None if blocks is None else DivisibilityWitness(Sense.ORDINARY, tuple((s + 1, e) for s, e, _ in blocks))


def strong_witness(w, n: int, Z, min_power: int) -> DivisibilityWitness | None:
    """The least strong division of some suffix of w: n descending
    blocks, each opening with z**min_power for its own z in Z (a
    repeated period is one period, kept as the kernel keeps it)."""
    Z = tuple({z.letters: z for z in Z}.values())
    blocks = least_division(w.letters, n, [z.letters * min_power for z in Z], range(len(w)))
    if blocks is None:
        return None
    return DivisibilityWitness(
        Sense.STRONG, tuple((s + 1, e) for s, e, _ in blocks), tuple(Z[h] for _, _, h in blocks)
    )


@functools.lru_cache(maxsize=4096)
def tail_descents(ls: tuple[int, ...], limit: int) -> tuple[tuple[int, ...], ...]:
    """For each start i < limit, the later starts j < limit whose tails
    descend from the tail at i."""
    return tuple(tuple(j for j in range(i + 1, limit) if descends(ls[i:], ls[j:])) for i in range(limit))


def tail_witness(w, n: int, d: int | None) -> DivisibilityWitness | None:
    """The least n starts, in lex order, whose tails descend one to the
    next; with d, only the starts before |w| // d count.  As in
    `least_division`, the least chain is the least of those from the
    first start that opens any, and a start that cannot go on to the
    count still needed is remembered."""
    ls = w.letters
    later = tail_descents(ls, len(ls) // d if d else len(ls))
    dead: set = set()

    def chains(chain: tuple[int, ...]) -> list[tuple[int, ...]]:
        if len(chain) == n:
            return [chain]
        if (chain[-1], len(chain)) in dead:
            return []
        out = [c for j in later[chain[-1]] for c in chains(chain + (j,))]
        if not out:
            dead.add((chain[-1], len(chain)))
        return out

    for i in range(len(later)):
        found = chains((i,))
        if found:
            return DivisibilityWitness(Sense.TAIL, tuple((i + 1, len(ls)) for i in min(found)))
    return None


# --- selective heights ---


def candidate_runs(ls: tuple[int, ...], t: int, boundary: int) -> list[tuple[int, int, tuple[int, ...]]]:
    """Every occurrence of z**(boundary + 1), z primitive of length t, as
    0-based (start, end, least rotation of z), by start."""
    size = t * (boundary + 1)
    out = []
    for s in range(len(ls) - size + 1):
        z = ls[s : s + t]
        if ls[s : s + size] == z * (boundary + 1) and is_primitive(z):
            out.append((s, s + size, least_rotation(z)))
    return out


def selection_height(cands: Sequence[tuple[int, int, tuple[int, ...]]]) -> int:
    """The most candidates in one selection that are pairwise disjoint
    and of pairwise distinct classes, over every such selection, taken
    in start order.  What a selection can still add depends only on
    where its last run ends and on the classes it used, so that is
    worked out once per such state."""

    @functools.cache
    def grow(last_end: int, used: frozenset) -> int:
        return max(
            (1 + grow(e, used | {c}) for s, e, c in cands if s >= last_end and c not in used),
            default=0,
        )

    return grow(0, frozenset())


def small_height(ls: tuple[int, ...], t: int, boundary: int) -> int:
    return selection_height(candidate_runs(ls, t, boundary))


@functools.lru_cache(maxsize=4096)
def maximal_runs(ls: tuple[int, ...], t: int, boundary: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """The runs z**m of a primitive z of length t, m > boundary, that no
    copy of z extends on the left and that take every copy that follows,
    as 0-based (start, end, z), by start."""
    out = []
    for i in range(len(ls) - t + 1):
        z = ls[i : i + t]
        if not is_primitive(z) or (i >= t and ls[i - t : i] == z):
            continue
        m = 1
        while ls[i + m * t : i + (m + 1) * t] == z:
            m += 1
        if m > boundary:
            out.append((i, i + m * t, z))
    return tuple(out)


def large_height(w, period_len: int, boundary: int, gap_len: int | None = None) -> int:
    """The most maximal runs in a chain where each run follows the one
    before after a gap longer than gap_len that is prefix-comparable with
    the earlier run's period, over every such chain.  What a chain can
    still add depends only on its last run, so that is worked out once
    per run."""
    if gap_len is None:
        gap_len = boundary // 2
    runs = maximal_runs(w.letters, period_len, boundary)
    ls = w.letters

    def comparable(a, b):
        return a[: len(b)] != b[: len(a)]

    @functools.cache
    def grow(last_end: int, last_z) -> int:
        return max(
            (
                1 + grow(e, z)
                for s, e, z in runs
                if s >= last_end
                and (last_z is None or (s - last_end > gap_len and comparable(ls[last_end:s], last_z)))
            ),
            default=0,
        )

    return grow(0, None)


# --- the selective corpus ---


class Corpus:
    """Every word over l letters, level by level, with its strong
    n-divisibility by every primitive head of length t and its small
    height at boundary 2n.  A divisible word stays divisible when a
    letter is added (its last block takes it), so only the scanned
    words are extended, and each excluded word stands for itself and
    all its extensions.  Levels are computed once and kept."""

    def __init__(self, l: int, n: int, t: int):
        self.l, self.n, self.t = l, n, t
        self.heads = primitive_words(l, t)
        self.frontier = [()]  # the scanned words of the last level
        self.levels = []  # per length >= 1: (scanned, newly divisible, greatest height)

    def divisible(self, ls: tuple[int, ...]) -> bool:
        return len(self.heads) >= self.n and divisible(ls, self.n, self.heads, range(len(ls)))

    def extend(self, max_len: int) -> None:
        while len(self.levels) < max_len:
            scanned, excluded, height = [], 0, 0
            for ls in self.frontier:
                for x in range(1, self.l + 1):
                    child = ls + (x,)
                    if self.divisible(child):
                        excluded += 1
                    else:
                        scanned.append(child)
                        height = max(height, small_height(child, self.t, 2 * self.n))
            self.frontier = scanned
            self.levels.append((len(scanned), excluded, height))

    def report(self, max_len: int, bound: int) -> dict:
        """The report `selective_corpus_check(l, n, max_len, t, bound)` gives."""
        self.extend(max_len)
        levels = self.levels[:max_len]
        worst = max((h for _, _, h in levels), default=0)
        return dict(
            l=self.l, n=self.n, max_len=max_len, period_len=self.t, boundary=2 * self.n,
            scanned=sum(s for s, _, _ in levels),
            excluded=sum(e * sum(self.l**j for j in range(max_len - k)) for k, (_, e, _) in enumerate(levels)),
            max_height=worst, bound=bound, ok=worst <= bound,
        )


class CorpusBook(dict):
    """One `Corpus` per (l, n, t), made on first use."""

    def report(self, l: int, n: int, max_len: int, t: int, bound: int) -> dict:
        if (l, n, t) not in self:
            self[l, n, t] = Corpus(l, n, t)
        return self[l, n, t].report(max_len, bound)


def schur_at_ones(shape: Sequence[int], l: int) -> int:
    """s_shape(1^l), the semistandard tableaux of the shape over l letters,
    by the hook-content formula: the product over the cells (i, j) of
    (l + j - i) / hook(i, j)."""
    num = den = 1
    for i, row in enumerate(shape):
        for j in range(row):
            below = sum(1 for r in shape[i + 1 :] if r > j)
            num *= l + j - i
            den *= row - j + below
    return num // den


# --- permutations ---


def longest_decreasing(seq: Sequence[int]) -> int:
    """The longest strictly decreasing subsequence: best[i] is the longest
    one that ends at i, one more than the longest that ends at a larger
    earlier entry."""
    best: list[int] = []
    for i, x in enumerate(seq):
        best.append(1 + max((best[j] for j in range(i) if seq[j] > x), default=0))
    return max(best, default=0)


def decreasing_histogram(n: int) -> Counter:
    """How many permutations of 1..n have each longest decreasing subsequence length."""
    return Counter(longest_decreasing(pi) for pi in itertools.permutations(range(1, n + 1)))


def involution_histogram(n: int) -> Counter:
    """How many involutions of 1..n (pi(pi(i)) = i) have each longest
    decreasing subsequence length."""
    return Counter(
        longest_decreasing(pi)
        for pi in itertools.permutations(range(1, n + 1))
        if all(pi[x - 1] == i for i, x in enumerate(pi, 1))
    )


def xi(histogram: Counter, k: int) -> int:
    """The permutations of a histogram with no decreasing subsequence longer than k."""
    return sum(count for length, count in histogram.items() if length <= k)


# --- posets ---


def relabeled_rows(above: Sequence[int], sigma: Sequence[int]) -> tuple[int, ...]:
    """The relation rows with each element i renamed sigma[i]."""
    rel = [0] * len(above)
    for i, row in enumerate(above):
        while row:  # each set bit j of the row, lowest first
            low = row & -row
            rel[sigma[i]] |= 1 << sigma[low.bit_length() - 1]
            row ^= low
    return tuple(rel)


def isomorphic(p, q) -> bool:
    """Some bijection of the n! carries the relation of p onto that of q."""
    return p.size == q.size and any(
        relabeled_rows(p.above, sigma) == q.above for sigma in itertools.permutations(range(p.size))
    )


def profiles(p) -> list[tuple[int, int]]:
    """Each element's (down-set size, up-set size)."""
    down = [sum(1 for i in range(p.size) if p.above[i] >> j & 1) for j in range(p.size)]
    return [(down[j], p.above[j].bit_count()) for j in range(p.size)]


def least_relabeled_relation(p) -> tuple[int, ...]:
    """canonical_key by its statement: the least relabeled relation over
    every bijection that puts the profile classes on consecutive slots in
    sorted profile order, each bijection built in full."""
    prof = profiles(p)
    groups: dict = {}
    for i in sorted(range(p.size), key=prof.__getitem__):
        groups.setdefault(prof[i], []).append(i)
    slots, offset = [], 0
    for members in groups.values():
        slots.append(range(offset, offset + len(members)))
        offset += len(members)
    best = None
    for assignment in itertools.product(*(itertools.permutations(s) for s in slots)):
        sigma = [0] * p.size
        for members, placed in zip(groups.values(), assignment):
            for i, slot in zip(members, placed):
                sigma[i] = slot
        key = relabeled_rows(p.above, sigma)
        if best is None or key < best:
            best = key
    return best



def epsilon_by_least_relation(n: int) -> dict[int, int]:
    """epsilon_k(n) from every permutation of 1..n: one class per least
    relabeled relation, counted by its width, the longest decreasing
    subsequence of the permutation."""
    widths = {}
    for pi in itertools.permutations(range(1, n + 1)):
        rel = [sum(1 << j for j in range(i + 1, n) if pi[i] < pi[j]) for i in range(n)]
        widths.setdefault(least_relabeled_relation(FinitePoset(n, tuple(rel))), longest_decreasing(pi))
    return {k: sum(1 for w in widths.values() if w == k) for k in range(1, n + 1)}


# --- shared enumerations, built once per test module that imports them ---


@pytest.fixture(scope="module")
def binary_and_ternary_words() -> list[Word]:
    """Every binary word up to 10 letters and every ternary word up to 7."""
    return [
        Word(ls, Alphabet(l))
        for l, top in ((2, 10), (3, 7))
        for length in range(top + 1)
        for ls in itertools.product(range(1, l + 1), repeat=length)
    ]


@pytest.fixture(scope="module")
def corpus_book() -> CorpusBook:
    return CorpusBook()


@pytest.fixture(scope="module")
def decreasing_histograms() -> dict[int, Counter]:
    """`decreasing_histogram(n)` for every n <= 8: all of S_0 to S_8."""
    return {n: decreasing_histogram(n) for n in range(9)}
