"""n-divisibility, reducibility oracles, colorings, fragments, heights.

Positions exposed by this module are 1-based, matching the word
conventions elsewhere.  Ordinary n-divisibility asks for a partition of
the whole word into n blocks in strictly decreasing lexicographic
order; tail-sense divisibility asks for n suffixes with increasing
start positions and strictly decreasing order; the strong sense asks
for blocks tiling a suffix, each opening with a power of a distinct
declared period.

The ordinary and strong senses share one block search,
_block_division: depth-first on an explicit stack, so a division may
have any number of blocks.  It tries the shortest block first and the
heads in order, so the witness is the first division in that order
(for the strong sense, at the shortest free prefix: one call walks the
starts in increasing order).  One failure memo serves the whole query,
keyed by (previous block start, block start, depth, bitmask of used
heads); the ordinary sense opens every block with one pseudo-head, so
its mask stays 0.

The tail sense is one permutation, _suffix_ranks: with a sentinel
letter above the alphabet closing each suffix, tail i > tail j for
starts i < j exactly when rank(i) > rank(j), so a tail n-division is a
decreasing subsequence of n ranks and the tail poset their permutation poset.
_tail_witness reads one patience pass, posets._decreasing_reach; the
Dilworth matching runs only in dilworth_tail_coloring, which returns
the chains.  A coding class's width is its number of patience piles
over integer keys of its rotations, which coding_corpus_check takes
once per cycle; its search carries each class's piles and grows a
child's from its parent's.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Sequence

from .posets import _decreasing_reach, min_chain_cover, permutation_poset
from .words import (
    THETA,
    Alphabet,
    Cmp,
    Theta,
    Word,
    WordCycle,
    _depth_first,
    _first_power,
    _least_rotation,
    _level_counts,
    _pack,
    _power_blockers,
    _word,
    format_word,
    lex_compare_letters,
)


class Sense(Enum):
    ORDINARY = "ordinary"
    TAIL = "tail"
    STRONG = "strong"


class BudgetExceededError(RuntimeError):
    """An exhaustive search ran out of its node budget."""

    def __init__(self, message: str, nodes: int):
        super().__init__(message)
        self.nodes = nodes


@dataclass(frozen=True)
class DivisibilityWitness:
    """A division of a host word into blocks, in one sense of n-divisibility."""

    kind: Sense
    blocks: tuple[tuple[int, int], ...]  # 1-based inclusive (start, end)
    periods: tuple[Word, ...] | None = None  # strong sense only

    def render(self, host: Word) -> str:
        return "|".join(format_word(host[s - 1 : e]) for s, e in self.blocks)


def validate_witness(host: Word, witness: DivisibilityWitness, min_power: int = 1) -> None:
    """Re-check a witness against the invariants of its sense."""
    blocks = witness.blocks
    n = len(blocks)
    if n == 0:
        raise ValueError("empty witness")
    for s, e in blocks:
        if not (1 <= s <= e <= len(host)):
            raise ValueError(f"block ({s},{e}) outside host")
    segs = [host.letters[s - 1 : e] for s, e in blocks]
    if witness.kind is Sense.TAIL:
        starts = [s for s, _ in blocks]
        if any(e != len(host) for _, e in blocks):
            raise ValueError("tail blocks must run to the end of the host")
        if any(starts[i] >= starts[i + 1] for i in range(n - 1)):
            raise ValueError("tail starts must strictly increase")
    else:
        for (s1, e1), (s2, e2) in zip(blocks, blocks[1:]):
            if s2 != e1 + 1:
                raise ValueError("blocks must be consecutive")
        if blocks[-1][1] != len(host):
            raise ValueError("blocks must tile a suffix of the host")
        if witness.kind is Sense.ORDINARY and blocks[0][0] != 1:
            raise ValueError("ordinary blocks must tile the whole host")
    for a, b in zip(segs, segs[1:]):
        if lex_compare_letters(a, b) is not Cmp.GREATER:
            raise ValueError("blocks are not strictly decreasing")
    if witness.kind is Sense.STRONG:
        periods = witness.periods
        if periods is None or len(periods) != n:
            raise ValueError("strong witness needs one period per block")
        if len({p.letters for p in periods}) != n:
            raise ValueError("strong periods must be pairwise distinct")
        for seg, z in zip(segs, periods):
            zz = z.letters * min_power
            if seg[: len(zz)] != zz:
                raise ValueError("block does not open with its period power")


def is_n_divisible(
    w: Word,
    n: int,
    sense: Sense | str = Sense.ORDINARY,
    Z: Iterable[Word] | None = None,
    d: int | None = None,
    min_power: int = 1,
) -> DivisibilityWitness | None:
    """Search for an n-division of w in the requested sense.  In the
    tail sense with d given, only tails starting in the first
    floor(|w|/d) positions count."""
    sense = Sense(sense) if not isinstance(sense, Sense) else sense
    if n < 1:
        raise ValueError("n must be positive")
    if d is not None and d < 1:
        raise ValueError("d must be positive")
    if sense is Sense.STRONG:
        if Z is None:
            raise ValueError("the strong sense needs the period set Z")
        witness = _strong_witness(w, n, tuple(Z), min_power)
    elif sense is Sense.TAIL:
        witness = _tail_witness(w, n, d)
    else:
        blocks = _block_division(w.letters, n)
        witness = None if blocks is None else DivisibilityWitness(
            Sense.ORDINARY, tuple((s + 1, e) for s, e, _ in blocks)
        )
    if witness is not None:
        validate_witness(w, witness, min_power)
    return witness


def _suffix_ranks(ls: tuple[int, ...], limit: int) -> list[int]:
    """1-based ranks of the suffixes ls[i:], i < limit, sorted as
    ls[i:] + (top,) with the sentinel top = max(ls) + 1.

    For i < j, tail i is greater than tail j (comparable, and larger at
    their first mismatch) exactly when rank(i) > rank(j).  A mismatch
    orders both alike.  Else ls[j:] is a prefix of ls[i:]: the tails are
    incomparable, and the sentinel ranks ls[j:] higher, so no descent.
    Slices of one packing (words._pack) sort as the closed suffixes do."""
    packed, width = _pack(ls + (max(ls, default=0) + 1,))
    ranks = [0] * limit
    for r, i in enumerate(sorted(range(limit), key=lambda i: packed[i * width :]), 1):
        ranks[i] = r
    return ranks


def _tail_witness(w: Word, n: int, d: int | None) -> DivisibilityWitness | None:
    """The least list of n starts whose tails strictly decrease, or None.

    One patience pass over _suffix_ranks gives reach[i], the most starts
    in a decreasing chain opening at i.  The chain is read back greedily:
    the first start whose reach is >= n, then each time the first later
    start of lower rank whose reach covers the rest.
    """
    ls = w.letters
    L = len(ls)
    limit = L // d if d else L
    ranks = _suffix_ranks(ls, limit)
    reach = _decreasing_reach(ranks)
    if max(reach, default=0) < n:
        return None
    chain: list[int] = []
    i, below = -1, limit + 1
    for left in range(n, 0, -1):
        i += 1
        while ranks[i] > below or reach[i] < left:
            i += 1
        chain.append(i)
        below = ranks[i]
    return DivisibilityWitness(Sense.TAIL, tuple((i + 1, L) for i in chain))


def _strong_witness(
    w: Word, n: int, Z: tuple[Word, ...], min_power: int
) -> DivisibilityWitness | None:
    """First strong n-division of w, shortest free prefix first, or None:
    one _block_division over every start."""
    if min_power < 1:
        raise ValueError("min_power must be >= 1")
    if any(len(z) == 0 for z in Z):
        raise ValueError("periods in Z must be nonempty")
    Z = tuple({z.letters: z for z in Z}.values())  # a repeated period is one period
    if len(Z) < n:
        return None
    blocks = _block_division(w.letters, n, range(len(w)), [z.letters * min_power for z in Z])
    if blocks is None:
        return None
    return DivisibilityWitness(
        Sense.STRONG, tuple((s + 1, e) for s, e, _ in blocks), tuple(Z[zi] for _, _, zi in blocks)
    )


def _block_division(
    ls: tuple[int, ...],
    n: int,
    starts: Iterable[int] = (0,),
    heads: Sequence[tuple[int, ...]] | None = None,
) -> list[tuple[int, int, int]] | None:
    """First division of some ls[start:] into n strictly decreasing
    blocks, the starts taken in increasing order, as 0-based (start,
    end, head) triples; or None.

    With heads, each block opens with a head that no earlier block used
    and `head` is its index: the strong sense.  Without, every block
    opens with one pseudo-head of length 1 and `head` is 0: the
    ordinary sense, at start 0.  Depth-first over block ends, shortest
    block first, heads in order, on an explicit stack.  The cuts drop
    only branches that cannot succeed, so the division is the first one
    the plain search finds: the last block is pinned to end at |ls|;
    ends that would leave a block not smaller than the previous one are
    skipped after one mismatch scan; a block opens only where the room
    left holds the blocks still to come, reserve[j] letters for j
    blocks (one letter each, or the j shortest heads), so the starts
    end at the first one with less than reserve[n]; and a state that
    failed, (previous block start, block start, depth, bitmask of used
    heads), is not searched twice.  The depth belongs in that key: the
    same two starts with a different number of blocks left are a
    different question.  No state depends on where the first block
    opened, so one memo and one head table serve every start.
    """
    L = len(ls)
    if heads is None:
        pseudo = ((0, 1, 0),)
        reserve: Sequence[int] = range(n + 1)
    else:
        # the heads by first letter, in head order within a letter
        table: dict[int, list] = {}
        for zi, h in enumerate(heads):
            table.setdefault(h[0], []).append((zi, h, len(h), 1 << zi))
        shortest = sorted(map(len, heads))
        reserve = [sum(shortest[:j]) for j in range(n + 1)]
    failed: set[tuple[int, int, int, int]] = set()
    # one frame per open block: [start, used heads, memo key, candidate
    # (end, head) pairs, chosen end, chosen head]
    stack: list[list] = []
    for start in starts:
        if L - start < reserve[n]:
            return None
        prev = begin = start
        mask = 0
        first = start + 1  # the least end of the block at `begin`
        while True:
            # open block len(stack) at `begin`; ls[prev:begin] is the block before
            depth = len(stack)
            if heads is None:
                opening = pseudo
            else:
                opening = [
                    (zi, size, bit)
                    for zi, h, size, bit in table.get(ls[begin], ())
                    if not mask & bit and ls[begin : begin + size] == h
                ]
            if opening:
                if depth == n - 1:
                    return [(f[0], f[4], f[5]) for f in stack] + [(begin, L, opening[0][0])]
                key = (prev, begin, depth, mask)
                if key not in failed:
                    ends = range(first, L - reserve[n - depth - 1] + 1)
                    stack.append([begin, mask, key, itertools.product(ends, opening), 0, 0])
            # the next end of the deepest open block after which a smaller
            # block can open: it must run past their first mismatch
            while stack:
                frame = stack[-1]
                prev = frame[0]
                for begin, (zi, size, bit) in frame[3]:
                    if size > begin - prev:
                        continue
                    x, y, m = ls[prev], ls[begin], 0
                    while x == y:
                        m += 1
                        if prev + m == begin or begin + m == L:
                            break  # one block is a prefix of the other
                        x, y = ls[prev + m], ls[begin + m]
                    if x > y:
                        break
                else:
                    failed.add(frame[2])
                    stack.pop()
                    continue
                break
            else:
                break  # no division from this start
            frame[4] = begin
            frame[5] = zi
            mask = frame[1] | bit
            first = begin + m + 1
    return None


def is_nd_reducible(w: Word, n: int, d: int) -> bool:
    """Ordinary n-divisible, or containing a d-th power.

    Divisibility is decided by the witness search behind is_n_divisible.
    """
    if n < 1 or d < 2:
        raise ValueError("need n >= 1 and d >= 2")
    return _first_power(w.letters, d, leftmost=False) is not None or _block_division(w.letters, n) is not None


@dataclass(frozen=True)
class OracleResult:
    """A longest word over l letters that is not (n, d)-reducible, and the nodes searched."""

    n: int
    d: int
    l: int
    length: int
    witness: Word
    nodes: int


def max_nonreducible_length(
    n: int, d: int, l: int, budget: int = 2_000_000, max_len: int = 50
) -> OracleResult:
    """Exact maximum length of a word over l letters that is not (n,d)-reducible.

    Depth-first search over the word tree; reducibility is monotone
    under extension, so pruning at reducible nodes is complete.  Each
    node tests for a d-th power ending at its last letter, and for
    ordinary n-divisibility with the witness search behind
    is_n_divisible.  The power test is one lookup in the parent's blocked
    letters (`words._power_blockers` at d), the last letters that close a
    d-th power, found once per parent for all of its children.  Two loud
    guards instead of silent truncation: a node budget, and a length
    ceiling that catches configurations whose non-reducible language is
    infinite (they raise BudgetExceededError quickly).
    """
    if l < 1:
        raise ValueError("need at least one letter")
    if n < 1 or d < 2:
        raise ValueError("need n >= 1 and d >= 2")
    if budget < 0:
        raise ValueError("budget must be non-negative")
    alphabet = Alphabet(l)
    nodes = 0
    best_word: tuple[int, ...] = ()

    def children(ls: tuple[int, ...], _):
        nonlocal nodes
        blocked = _power_blockers(ls, d)
        for x in alphabet.letters():
            cand = ls + (x,)
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(
                    f"oracle budget of {budget} nodes exhausted at depth {len(cand)}", nodes
                )
            if x not in blocked and _block_division(cand, n) is None:
                yield cand, None

    # the length guard is here; below max_len = 1 it raises at the first letter
    for ls, _ in _depth_first(children, ((), None), max(max_len, 1)):
        if len(ls) > len(best_word):
            best_word = ls
        if len(ls) >= max_len:
            raise BudgetExceededError(
                f"non-reducible words reach the length guard of {max_len};"
                " the language looks infinite",
                nodes,
            )
    return OracleResult(n, d, l, len(best_word), _word(best_word, alphabet), nodes)


# --- zero-one process sequences ---


@dataclass(frozen=True)
class ProcessResult:
    """A longest valid zero-one process sequence for (p, k), and the states searched."""

    p: int
    k: int
    length: int
    witness: tuple[str, ...]
    states: int


def is_valid_process_sequence(seq: Sequence[str], p: int) -> bool:
    """Check the separation condition with per-position counters.

    Counter c_s counts words carrying their 1 at position s since the
    last word with a 1 strictly left of s; the condition fails exactly
    when some counter reaches p.
    """
    if not seq:
        return True
    k1 = len(seq[0])
    counts = [0] * (k1 + 1)
    for token in seq:
        if len(token) != k1 or token.count("1") != 1 or token.count("0") != k1 - 1:
            raise ValueError(f"malformed token {token!r}")
        s = token.index("1") + 1
        counts[s] += 1
        if counts[s] >= p:
            return False
        for t in range(s + 1, k1 + 1):
            counts[t] = 0
    return True


def max_process_sequence_length(p: int, k: int, budget: int = 2_000_000) -> ProcessResult:
    """Exact maximum sequence length, exhaustive over counter states.

    A state is the counter vector (c_1, ..., c_{k-1}), each below p, read
    as a base-p number.  A word with its 1 at s adds one to c_s and
    clears the counters right of s, so every move leads to a larger
    number, and every vector is reached from zero.  One pass from the
    largest number down is therefore a longest-path DP over all states.
    Each state keeps the best move, the rightmost position among those
    with the longest continuation; the witness follows these moves from
    zero.
    """
    if p < 2 or k < 2:
        raise ValueError("need p >= 2 and k >= 2")
    if budget < 0:
        raise ValueError("budget must be non-negative")
    width = k - 1
    top = p**width - 1
    if top >= budget:
        # a search state by state runs out at state budget + 1
        raise BudgetExceededError(f"process budget of {budget} states exhausted", budget + 1)
    # longest[top - c] and move[top - c]: the answer from state number c
    longest: list[int] = []
    move: list[int | None] = []
    for c in range(top, -1, -1):
        best, best_s = 0, None
        q = 1  # p**(width - s), the weight of counter s
        for s in range(width, 0, -1):  # prefer the rightmost admissible position
            if c // q % p < p - 1:
                sub = longest[top - (c // q + 1) * q]
                if sub + 1 > best:
                    best, best_s = sub + 1, s
            q *= p
        longest.append(best)
        move.append(best_s)
    witness = []
    c = 0
    while move[top - c] is not None:
        s = move[top - c]
        witness.append("0" * (s - 1) + "1" + "0" * (width - s))
        q = p ** (width - s)
        c = (c // q + 1) * q
    assert len(witness) == longest[top]
    assert is_valid_process_sequence(witness, p)
    return ProcessResult(p, k, longest[top], tuple(witness), top + 1)


# --- Dilworth coloring of tails and snapshot stability ---


class IncomparableTailsError(ValueError):
    pass


class ChainCapExceededError(ValueError):
    pass


@dataclass(frozen=True)
class TailColoring:
    """A Dilworth coloring of a host word's tails: the colored starts and their chains."""

    host: Word
    positions: tuple[int, ...]  # 1-based tail starts forming the colored set
    chains: tuple[tuple[int, ...], ...]  # positions per color, ascending

    def snapshot(self, p: int, i: int) -> tuple[Word | Theta, ...]:
        """Per color, the p-truncated most recent tail at position <= i."""
        if i not in self.positions:
            raise ValueError(f"position {i} outside the colored range")
        alphabet = self.host.alphabet
        return tuple(THETA if s is None else _word(s, alphabet) for s in _snapshot_key(self, p)(i))


def _snapshot_key(tc: TailColoring, p: int) -> Callable[[int], tuple]:
    """The snapshot at a position as letters, None for THETA: per color,
    the p letters from the chain's latest start at or before it, found by
    bisection on the sorted chain."""
    ls = tc.host.letters
    chains = [sorted(chain) for chain in tc.chains]

    def key(i: int) -> tuple:
        out = []
        for chain in chains:
            k = bisect_right(chain, i)
            out.append(ls[chain[k - 1] - 1 : chain[k - 1] - 1 + p] if k else None)
        return tuple(out)

    return key


def dilworth_tail_coloring(
    w: Word, n_colors_cap: int, d: int | None = None
) -> TailColoring:
    """Minimum chain cover of the tail poset (lex order and left-to-right).

    With d given, only tails starting in the first floor(|w|/d)
    positions are colored; they must be pairwise comparable.  The poset
    is the permutation poset of _suffix_ranks, so the cover has as many
    chains as the ranks' longest decreasing subsequence (Dilworth 1950,
    Greene 1974): the largest n for which w is tail-n-divisible at d.
    """
    if d is not None and d < 1:
        raise ValueError("d must be positive")
    ls = w.letters
    L = len(ls)
    limit = L // d if d else L
    # tail a + p is a prefix of tail a from the first a where ls and ls
    # shifted by p agree to the end; the least such pair clashes first
    clashes = []
    for p in range(1, limit):
        a = L - p
        while a and ls[a - 1] == ls[a - 1 + p]:
            a -= 1
        if a + p < limit:
            clashes.append((a + 1, a + p + 1))
    if clashes:
        a, b = min(clashes)
        raise IncomparableTailsError(f"tails at positions {a} and {b} are prefix-incomparable")
    chains = min_chain_cover(permutation_poset(_suffix_ranks(ls, limit)))
    if len(chains) > n_colors_cap:
        raise ChainCapExceededError(f"{len(chains)} chains exceed the cap of {n_colors_cap}")
    return TailColoring(w, tuple(range(1, limit + 1)), tuple(tuple(i + 1 for i in c) for c in chains))


def snapshot_stability(tc: TailColoring, p: int) -> int:
    """Longest run of positions sharing one snapshot tuple.

    Larger p refines the snapshots, so runs can only shorten: the
    stability is nonincreasing in p.  One pass over the positions keys
    each by the letters of its snapshot.
    """
    if not tc.positions:
        return 0
    key = _snapshot_key(tc, p)
    best, run = 1, 1
    prev = key(tc.positions[0])
    for i in tc.positions[1:]:
        cur = key(i)
        run = run + 1 if cur == prev else 1
        best = max(best, run)
        prev = cur
    return best


# --- periodic fragment extraction (the cut-and-recurse algorithm) ---


@dataclass(frozen=True)
class Fragment:
    """A periodic fragment cut from a word: its period, exponent, start and piece count."""

    period: Word
    exponent: int
    start: int  # 1-based start in the word it was cut from
    pieces: int  # maximal contiguous pieces inside the original word


@dataclass(frozen=True)
class FragmentDecomposition:
    """The periodic fragments cut from a word in turn, and the word left after each cut."""

    original: Word
    power: int  # required exponent, 4n
    fragments: tuple[Fragment, ...]
    residues: tuple[Word, ...]  # word after each cut

    def piece_counts(self) -> tuple[int, ...]:
        return tuple(f.pieces for f in self.fragments)

    def tally(self, t: int) -> dict[int, int]:
        """s(k) over the first 4t fragments: how many split into k pieces."""
        if 4 * t > len(self.fragments):
            raise ValueError("not enough fragments for this t")
        out: dict[int, int] = {}
        for f in self.fragments[: 4 * t]:
            out[f.pieces] = out.get(f.pieces, 0) + 1
        return out

    def reconstruct(self) -> Word:
        """Reinsert fragments in reverse order; must reproduce the original."""
        alphabet = self.original.alphabet
        parts = (self.residues[-1], *(f.period for f in self.fragments)) if self.fragments else (self.original,)
        current = list(parts[0].letters)
        for frag in reversed(self.fragments):
            piece = list(frag.period.letters) * frag.exponent
            at = frag.start - 1
            current[at:at] = piece
        build = _word if all(part.alphabet == alphabet for part in parts) else Word
        return build(tuple(current), alphabet)


def extract_periodic_fragments(
    w: Word, n: int, max_steps: int | None = None
) -> FragmentDecomposition:
    """Repeatedly cut out maximal z**(4n+r1+r2) fragments until none remain."""
    if n < 2:
        raise ValueError("n must be at least 2")
    power = 4 * n
    ls = w.letters
    origin = list(range(len(w)))
    fragments: list[Fragment] = []
    residues: list[Word] = []
    while max_steps is None or len(fragments) < max_steps:
        hit = _first_power(ls, power, leftmost=False)
        if hit is None:
            break
        start, zlen = hit
        z = ls[start : start + zlen]
        end = start + zlen * power
        while start >= zlen and ls[start - zlen : start] == z:
            start -= zlen
        while ls[end : end + zlen] == z:
            end += zlen
        exponent = (end - start) // zlen
        span_origins = origin[start:end]
        pieces = 1 + sum(
            1 for a, b in zip(span_origins, span_origins[1:]) if b != a + 1
        )
        fragments.append(Fragment(_word(z, w.alphabet), exponent, start + 1, pieces))
        ls = ls[:start] + ls[end:]
        del origin[start:end]
        residues.append(_word(ls, w.alphabet))
    decomposition = FragmentDecomposition(w, power, tuple(fragments), tuple(residues))
    assert decomposition.reconstruct().letters == w.letters
    return decomposition


# --- selective heights ---


def _period_blocks(ls: tuple[int, ...], t: int) -> list[tuple[int, int]]:
    """The maximal factors of period t (the runs of Kolpakov and Kucherov
    1999) that are at least 2t letters long and have a primitive root,
    as 0-based (start, end) pairs by start: each is a run of
    ls[k] == ls[k + t] and t more letters.  A block's length-t windows
    are rotations of one another, so one primitivity test serves it."""
    out = []
    k = 0
    for same, group in itertools.groupby(x == y for x, y in zip(ls, ls[t:])):
        r = sum(1 for _ in group)
        if same and r >= t and _least_rotation(ls[k : k + t])[1] == t:
            out.append((k, k + r + t))
        k += r
    return out


def small_selective_height(w: Word, period_len: int, boundary: int) -> int:
    """Most disjoint z**m fragments, m > boundary, with pairwise distinct
    period conjugacy classes.  The candidates are the z**(boundary+1)
    windows of the period's blocks, keyed by the block's least rotation."""
    if period_len < 1 or boundary < 1:
        raise ValueError("need period_len >= 1 and boundary >= 1")
    ls, t = w.letters, period_len
    size = t * (boundary + 1)
    cands = []
    for start, end in _period_blocks(ls, t):
        z = ls[start : start + t]
        r = _least_rotation(z)[0]
        key = z[r:] + z[:r]
        cands += [(s, s + size, key) for s in range(start, end - size + 1)]
    return _selection_height(cands)


def _selection_height(cands: Sequence[tuple[int, int, tuple[int, ...]]]) -> int:
    """Most pairwise disjoint candidate runs with pairwise distinct classes.

    Depth-first on an explicit stack, one frame per chosen run.  cands[j:]
    adds at most rest[j] runs, its number of distinct classes, and rest
    falls as j grows, so a frame stops once count + rest[j] <= best."""
    rest = [0] * len(cands)
    seen: set = set()
    for j in range(len(cands) - 1, -1, -1):
        seen.add(cands[j][2])
        rest[j] = len(seen)
    best = 0
    used: set = set()
    stack: list[list] = [[0, 0, None]]  # [next candidate, end of the run, its class]
    while stack:
        frame = stack[-1]
        count = len(stack) - 1
        j, last_end = frame[0], frame[1]
        while j < len(cands) and count + rest[j] > best:
            s, e, cls = cands[j]
            j += 1
            if s >= last_end and cls not in used:
                frame[0] = j
                used.add(cls)
                stack.append([j, e, cls])
                best = max(best, count + 1)
                break
        else:
            used.discard(stack.pop()[2])
    return best


def large_selective_height(
    w: Word, period_len: int, boundary: int, gap_len: int | None = None
) -> int:
    """Most disjoint maximal z**m fragments, m > boundary, where each
    consecutive pair is separated by a gap longer than gap_len that is
    comparable with the earlier fragment's period.

    The fragments open at one of a block's first period_len starts and
    hold as many whole copies of z as the block does from there.  The
    block goes on past a run's end by a proper prefix of z and breaks
    the period at its own end, so a gap is comparable with z exactly
    when it reaches past the block.  Run j may thus follow run i exactly
    when it starts after max(end_i + gap_len, blockend_i), a threshold
    of run i alone.  One pass over the runs by start keeps the pending
    thresholds in a heap; a run's longest chain is one more than the
    longest among the runs whose thresholds it has passed."""
    if period_len < 1 or boundary < 1:
        raise ValueError("need period_len >= 1 and boundary >= 1")
    if gap_len is None:
        gap_len = boundary // 2
    t = period_len
    size = t * (boundary + 1)
    passed = chain = 0  # the longest chain among the passed runs; the last run's chain
    pending: list[tuple[int, int]] = []  # (threshold, chain) of the runs not yet passed
    for start, end in _period_blocks(w.letters, t):
        for s in range(start, min(start + t, end - size + 1)):
            while pending and pending[0][0] < s:
                passed = max(passed, heapq.heappop(pending)[1])
            chain = passed + 1
            heapq.heappush(pending, (max(s + (end - s) // t * t + gap_len, end), chain))
    return chain  # `passed` never falls, so the last run's chain is the longest


# --- coding classes (word-cycles with the two-coordinate order) ---


@dataclass(frozen=True)
class CodingClass:
    """Pairwise non-conjugate word-cycles of one length over one alphabet."""

    length: int  # common cycle length t
    alphabet: Alphabet
    cycles: tuple[WordCycle, ...]

    def __post_init__(self) -> None:
        reps = set()
        for c in self.cycles:
            if len(c.representative) != self.length:
                raise ValueError("cycles must share the common length")
            if c.representative.alphabet != self.alphabet:
                raise ValueError("cycles must share the alphabet")
            if c.representative.letters in reps:
                raise ValueError("cycles must be pairwise non-conjugate")
            reps.add(c.representative.letters)

    @staticmethod
    def of(words: Sequence[Word]) -> "CodingClass":
        if not words:
            raise ValueError("use CodingClass(length, alphabet, ()) for an empty class")
        cycles = tuple(WordCycle.of(w) for w in words)
        return CodingClass(len(words[0]), words[0].alphabet, cycles)

    def word(self, i: int, j: int) -> Word:
        """The length-t word starting at the j-th position of cycle i (1-based)."""
        rep = self.cycles[i - 1].representative.letters
        return _word(rep[j - 1 :] + rep[: j - 1], self.alphabet)


def is_n_light(c: CodingClass, n: int) -> bool:
    """True iff the two-coordinate order on the class has no antichain of size n."""
    if n < 1:
        raise ValueError("n must be positive")
    return _class_width(c) < n


def _class_width(c: CodingClass) -> int:
    """Largest antichain of the two-coordinate order (rotation u of cycle i
    below rotation v of cycle j when i < j and u < v), 0 for an empty
    class.  Listed cycle by cycle, each from its largest rotation down,
    an antichain is a non-increasing run: two rotations of one cycle
    never compare, and a later cycle's rotation compares with an
    earlier one exactly when it is larger."""
    return len(_longest_nondecreasing([k for keys in _cycle_keys(c) for k in keys]))


def _cycle_keys(c: CodingClass) -> list[list[int]]:
    """Each cycle's part of the class listing (_rotation_keys), in order."""
    base = c.alphabet.size + 1
    return [_rotation_keys(cyc.representative.letters, base) for cyc in c.cycles]


def _rotation_keys(z: tuple[int, ...], base: int) -> list[int]:
    """The rotations of z from the largest down, each keyed by minus its
    value in base `base`, which must exceed every letter: one cycle's
    part of a class listing, whose non-increasing runs of words are the
    non-decreasing runs of keys."""
    ranks = []
    for j in range(len(z)):
        r = 0
        for x in z[j:] + z[:j]:
            r = r * base + x
        ranks.append(-r)
    return sorted(ranks)


def _longest_nondecreasing(keys: Iterable[int], piles: Sequence[int] = ()) -> list[int]:
    """The patience piles after a left-to-right pass over keys that goes
    on from `piles`: piles[k] is the least key read that closes a
    non-decreasing run of k + 1 keys, so there are as many piles as keys
    in the longest run."""
    piles = list(piles)
    for x in keys:
        k = bisect_right(piles, x)
        if k == len(piles):
            piles.append(x)
        else:
            piles[k] = x
    return piles


def recode_pairs(c: CodingClass) -> CodingClass:
    """Merge adjacent letter pairs (1,2),(3,4),... into product letters.

    The product alphabet has size l**2 with b(x,y) ranked by x*l + y, so
    the recoded order mirrors the original on aligned rotations.
    """
    if c.length % 2 != 0:
        raise ValueError("recoding needs an even cycle length")
    l = c.alphabet.size
    target = Alphabet(l * l)
    new_cycles = []
    for cyc in c.cycles:
        rep = cyc.representative.letters
        merged = tuple(
            (rep[i] - 1) * l + rep[i + 1] for i in range(0, len(rep), 2)
        )
        new_cycles.append(WordCycle.of(_word(merged, target)))
    return CodingClass(c.length // 2, target, tuple(new_cycles))


def pad_to_power_of_two(c: CodingClass, s: int) -> CodingClass:
    """Pad every cycle with a new minimal letter up to length 2**s."""
    size = 1 << s
    if size < c.length:
        raise ValueError(f"2**{s} is shorter than the cycle length {c.length}")
    if size == c.length:
        return c
    target = Alphabet(c.alphabet.size + 1)
    new_cycles = []
    for cyc in c.cycles:
        shifted = tuple(x + 1 for x in cyc.representative.letters)
        padded = shifted + (1,) * (size - c.length)
        new_cycles.append(WordCycle.of(_word(padded, target)))
    return CodingClass(size, target, tuple(new_cycles))


# --- heights over a base set of words ---


def word_height(w: Word, Y: Iterable[Word]) -> int | None:
    """Least r with w = y_1**k_1 ... y_r**k_r over Y, or None."""
    return essential_height(w, Y, pad=0, min_power=1)


def essential_height(
    w: Word, Y: Iterable[Word], pad: int, min_power: int = 2
) -> int | None:
    """Least h with w = c_0 y_1**k_1 c_1 ... y_h**k_h c_h, every k_i >=
    min_power and every |c_j| <= pad; None when no such parse exists."""
    ys = {y.letters for y in Y if len(y) > 0}
    if not ys:
        raise ValueError("Y must contain a nonempty word")
    if pad < 0:
        raise ValueError("pad must be >= 0")
    if min_power < 1:
        raise ValueError("min_power must be >= 1")
    ls = w.letters
    L = len(ls)
    INF = L + 2
    # after_power[i]: fewest powers in a parse of ls[:i] ending with a
    # power at i; after_power[0] = 0 is the empty parse.  A power opening
    # at `start` follows the best parse that ends at most pad letters
    # earlier.  Every power ends right of where it opens, so one
    # left-to-right pass suffices: that window is final when it is read.
    after_power = [0] + [INF] * L
    for start in range(L):
        level = min(after_power[max(start - pad, 0) : start + 1]) + 1
        if level > INF:
            continue
        for y in ys:
            e = 0
            pos = start
            while ls[pos : pos + len(y)] == y:
                e += 1
                pos += len(y)
                if e >= min_power and level < after_power[pos]:
                    after_power[pos] = level
    h = min(after_power[max(L - pad, 0) :])
    return h if h < INF else None


# --- explicit lower-bound construction (edge generator) ---


def lower_bound_witness_edges(n: int, l: int) -> tuple[tuple[int, int], ...]:
    """Big-step edge sequence on vertices 1..l realizing the alpha count.

    Big step i grows a clique on the vertices i + 2**(n-1) - 2**(n-1-j)
    (j = 0..n-3); increments are distinct dyadic sums, so no edge ever
    repeats, and each big step contributes (n-2)(n-3)/2 edges.
    """
    from .bounds import alpha_lower

    if n < 4:
        raise ValueError("the construction needs n >= 4")
    if l <= 2 ** (n - 1):
        raise ValueError("the construction needs l > 2**(n-1)")
    edges: list[tuple[int, int]] = []
    for i in range(2, l - 2 ** (n - 1) + 2):
        verts = [i + 2 ** (n - 1) - 2 ** (n - 1 - j) for j in range(0, n - 2)]
        for j in range(1, n - 2):
            for j2 in range(j):
                edges.append((verts[j2], verts[j]))
    assert all(1 <= a < b <= l for a, b in edges)
    assert len(set(edges)) == len(edges), "duplicate edge emitted"
    assert len(edges) == alpha_lower(n, l)
    return tuple(edges)


# --- corpus sweeps shared by the CLI and the acceptance suite ---


def primitive_cycle_classes(t: int, alphabet: Alphabet) -> tuple[WordCycle, ...]:
    """All conjugacy classes of primitive length-t words, canonical order.

    A primitive word is the representative of its class exactly when it
    is strictly below each of its proper rotations: a Lyndon word.
    Duval's generator (1988; Fredricksen, Kessler and Maiorana) lists
    the Lyndon words of length at most t in lexicographic order: repeat
    the current word up to length t, drop its trailing largest letters,
    and raise the last letter left.
    """
    if t < 1:
        raise ValueError("cycle length must be positive")
    l = alphabet.size
    out = []
    w = [1]
    while w:
        if len(w) == t:
            out.append(WordCycle(_word(tuple(w), alphabet), t))
        w = (w * (t // len(w) + 1))[:t]
        while w and w[-1] == l:
            w.pop()
        if w:
            w[-1] += 1
    return tuple(out)


def _head_step(state: tuple, x: int, rank: dict, t: int, n: int) -> tuple | None:
    """The head state of p + (x,) from the state of p, or None when
    p + (x,) is strongly n-divisible; p itself must not be.

    A state is (the last t - 1 letters, the head-table entries of the
    last t - 1 windows, M).  An entry is a length-t window's rank among
    the heads and the longest chain of heads that ends there, (-1, 0)
    for a window that is not a head.  M[r] is the longest chain among
    the older windows, those at least t letters before the next one,
    whose head ranks above r.  The empty word's state is ((), (), M)
    with M all zeros.
    """
    tail, pending, M = state
    window = tail + (x,)
    if len(window) < t:
        return window, pending, M
    r = rank.get(window, -1)
    d = 1 + M[r] if r >= 0 else 0
    if d >= n:
        return None
    pending += ((r, d),)
    if len(pending) == t:
        # the oldest entry is now t windows back: fold it into M.  M does
        # not rise with r, so nothing changes when its chain <= M[q - 1]
        (q, e), pending = pending[0], pending[1:]
        if q > 0 and e > M[q - 1]:
            M = tuple([max(m, e) for m in M[:q]]) + M[q:]
    return window[1:], pending, M


def _corpus_height(
    step: Callable[[int], tuple], heads: list[tuple[tuple[int, ...], int]], t: int, run: int, max_len: int
) -> int:
    """The most runs z**run of pairwise distinct classes, z among the
    heads of length t, over the words of at most max_len letters built
    from head state 0 one whole run or, after the first run, one gap
    letter at a time; `heads` pairs each head with its class's bit, and
    step(i) lists state i's child per letter, None where the word is
    excluded.  The search behind selective_corpus_check's height."""
    run_len = run * t
    # each primitive class has exactly t rotations among the heads
    cap = min(len(heads) // t, max_len // run_len)
    if not cap:
        return 0
    runs: dict[int, list] = {}  # head state -> (class bit, head state) after each scanned run

    def run_moves(state: int) -> list:
        moves = runs.get(state)
        if moves is None:
            moves = runs[state] = []
            for z, bit in heads:
                s = state
                for x in z * run:
                    s = step(s)[x - 1]
                    if s is None:
                        break
                else:
                    moves.append((bit, s))
        return moves

    best = 0
    least = {(0, 0): 0}  # (head state, used-class mask) -> least length reaching it
    by_length: list[list] = [[] for _ in range(max_len + 1)]
    by_length[0].append((0, 0))
    for k, pairs in enumerate(by_length):
        for pair in pairs:
            state, used = pair
            height = used.bit_count()
            if least[pair] < k or height + min(cap - height, (max_len - k) // run_len) <= best:
                continue  # reached sooner, or too short to lift the height
            grown_pairs = [(k + run_len, (s, used | bit)) for bit, s in run_moves(state) if not used & bit]
            if used:
                grown_pairs += [(k + 1, (s, used)) for s in step(state) if s is not None]
            for length, grown_pair in grown_pairs:
                if least.get(grown_pair, max_len + 1) > length:
                    least[grown_pair] = length
                    by_length[length].append(grown_pair)
                    best = max(best, grown_pair[1].bit_count())
    return best


def selective_corpus_check(
    l: int, n: int, max_len: int, period_len: int, bound: int
) -> dict:
    """Scan all non-strongly-n-divisible words up to max_len over l letters
    and report the largest small selective height against the bound.

    The declared period set is every primitive word of the given length.
    Strong divisibility is kept under right extension, so the words not
    scanned, counted in `excluded`, are the divisible words with all
    their extensions up to max_len.

    Only the last block can be new.  Every head has the same length t,
    so a block opens with its first t letters, two blocks with distinct
    heads first differ inside them, and a block is larger than the next
    exactly when its head is.  A strong n-division of a suffix is thus
    a strictly decreasing chain of n head windows, each at least t
    letters after the one before.  Suppose a child p + (x,) has a
    division whose last block is longer than one head.  That block and
    the one before it first differ ahead of x, so dropping x leaves a
    division of p.  No divisible p is extended, so a child is divisible
    exactly when a division's last block is the one head that x
    completes, and each earlier block opens with a larger head, hence
    an unused one.  So a child is excluded exactly when the longest
    chain of heads ending at its last window reaches n.

    That chain needs the chains of the windows at least t letters back
    only through M[r], the longest of them among heads ranked above
    the new window's rank r, and the new window's rank needs only the
    last t - 1 letters.  So a word's head state (`_head_step`) holds
    those letters, the entries of the last t - 1 windows, which are
    still too near, and M.  The entry t windows back leaves the
    pending ones when a window is added and folds into M: M[r] rises
    to its chain for every r below its rank.  Chains stay below n, so
    few states exist, and two words with one state have extensions
    that are excluded alike.  So `scanned` counts the words level by
    level over the head states (`words._level_counts`), each with the
    number of words that reach it, the empty word left out.  Where no
    division is possible (fewer than n heads, or n * t > max_len), every
    word is scanned and the head state never changes.  Each state's
    children are taken once a call and shared with the height search.

    A word is excluded exactly when some chain of head windows lies
    anywhere in it, so every factor of a scanned word is scanned.  A
    height counts pairwise disjoint runs z**(2n + 1), z a head, with
    pairwise distinct classes.  Given a scanned word of height h, the
    factor from its first chosen run's start to its last one's end is
    scanned, no longer, and of the form run, gaps, run, ..., run, with h
    runs of distinct classes.  The height search builds exactly the
    scanned words of that form: from the empty word it appends one whole
    run (of a class not yet used) or, after the first run, one gap
    letter, each letter through the head state, which drops a word once
    it is excluded.  So the largest height is the most runs it reaches.
    What a word can still become depends only on its head state and its
    used classes, so the search keeps the least length of each (head
    state, used classes) pair and takes the pairs in order of length.
    Each primitive class has exactly t rotations among the heads, so no
    height exceeds cap = min(#heads // t, max_len // ((2n + 1) * t)),
    and a pair is dropped once the runs that still fit cannot lift it
    above the largest height found.
    """
    if n < 1 or period_len < 1 or l < 1 or max_len < 1:
        raise ValueError("need n, period_len, l and max_len all >= 1")
    t = period_len
    letters = range(1, l + 1)
    # the heads are the rotations of the Lyndon words, each with its
    # class's bit, in lexicographic order, so ranks compare as heads do
    lyndon = [c.representative.letters for c in primitive_cycle_classes(t, Alphabet(l))]
    heads = sorted((z[r:] + z[:r], 1 << c) for c, z in enumerate(lyndon) for r in range(t))
    rank = {z: i for i, (z, _) in enumerate(heads)}
    boundary = 2 * n
    # n blocks need n distinct heads and n * t letters; else nothing divides
    strong = len(heads) >= n and n * t <= max_len
    # head states by number, the empty word's first; children[i] holds
    # state i's child per letter (None where excluded) once taken
    states = [((), (), (0,) * len(heads))]
    number = {states[0]: 0}
    children: list[tuple | None] = [None]

    def step(i: int) -> tuple:
        kids = children[i]
        if kids is None:
            after = [_head_step(states[i], x, rank, t, n) if strong else states[i] for x in letters]
            for state in after:
                if state is not None and state not in number:
                    number[state] = len(states)
                    states.append(state)
                    children.append(None)
            kids = children[i] = tuple(None if s is None else number[s] for s in after)
        return kids

    scanned = sum(_level_counts(step, 0, max_len)) - 1  # the empty word is not scanned
    # every word up to max_len is scanned or excluded
    excluded = sum(l**k for k in range(1, max_len + 1)) - scanned
    worst = _corpus_height(step, heads, t, boundary + 1, max_len)
    return dict(
        l=l, n=n, max_len=max_len, period_len=period_len, boundary=boundary,
        scanned=scanned, excluded=excluded, max_height=worst, bound=bound, ok=worst <= bound,
    )


def _primitive_cycle_counts(l: int):
    """Yield the number of primitive cycles of length t over l letters
    for t = 1, 2, ...  Each length-t word is a power of one primitive
    root whose length d divides t, and a primitive cycle of length d
    has d rotations, so l**t = sum over d | t of d * C_d.  Solving for
    C_t one length at a time is the Moebius inversion
    C_t = (1/t) sum over d | t of mu(d) * l**(t/d), the necklace formula."""
    counts = [0]
    for t in itertools.count(1):
        counts.append((l**t - sum(d * counts[d] for d in range(1, t) if t % d == 0)) // t)
        yield counts[t]


def _light_classes(t: int, alphabet: Alphabet, n_max: int):
    """Yield every ordered class of primitive length-t cycles whose width
    is below n_max, as (cycle indices into primitive_cycle_classes,
    width, width of the class padded to length 2**s, width of the
    recoded class or None for odd t).

    Adding a cycle at any place keeps the order among the others, so
    the width never falls: the depth-first search appends one unused
    cycle at a time and drops a class, with all its extensions, once
    its width reaches n_max.  pad_to_power_of_two and recode_pairs map
    a class cycle by cycle, in order, so each cycle's keys in the class
    and in both images are taken once.  A class carries its patience
    piles and those of its images, and a child's come from pushing its
    new cycle's keys onto them: a width is its number of piles."""
    s = (t - 1).bit_length()
    every = CodingClass(t, alphabet, primitive_cycle_classes(t, alphabet))
    own = _cycle_keys(every)
    padded = _cycle_keys(pad_to_power_of_two(every, s))
    recoded = _cycle_keys(recode_pairs(every)) if t % 2 == 0 else None

    def children(chosen: tuple[int, ...], piles: tuple):
        own_piles, padded_piles, recoded_piles = piles
        for i in range(len(own)):
            if i not in chosen and len(grown := _longest_nondecreasing(own[i], own_piles)) < n_max:
                grown_recoded = recoded and _longest_nondecreasing(recoded[i], recoded_piles)
                yield chosen + (i,), (grown, _longest_nondecreasing(padded[i], padded_piles), grown_recoded)

    for grown, (own_piles, padded_piles, recoded_piles) in _depth_first(children, ((), ((),) * 3), len(own)):
        yield grown, len(own_piles), len(padded_piles), len(recoded_piles) if recoded else None


_CODING_BUDGET = 2_000_000  # light classes a coding check visits, as many as the oracle's default nodes
_CODING_CYCLES = 10_000  # most primitive cycles of one length whose selections the checked totals count


def coding_corpus_check(t_max: int, l: int, n_max: int) -> dict:
    """Check the recoding and padding lemmas over every ordered class of
    primitive cycles of length t <= t_max over l letters, at every n in
    2..n_max, in the lemmas' direction: a light class has a light image.
    Recoding (even t) merges letter pairs, and an n-light class recodes
    to an n-light class; padding to length 2**s >= t keeps an n-light
    class (2**s * (n - 1) + 1)-light.  The converse does not hold (at
    t_max=4, l=2, n_max=3 some classes that are not n-light have an
    n-light image), so it is not checked.

    `recode_checked` and `pad_checked` count every (class, n) pair,
    (n_max - 1) * sum over r >= 1 of P(C_t, r) at each t, where C_t is
    the number of primitive cycles of length t; recoding counts even t
    only.  Almost all of those pairs hold vacuously: one cycle's t
    rotations are pairwise incomparable, so a nonempty class has width
    >= t and is n-light only when t < n.  The lemmas are tested on the
    light classes alone, which _light_classes finds, and
    `*_light_cases` counts their (class, n) pairs.  The search visits
    at most _CODING_BUDGET light classes, else BudgetExceededError is
    raised.  A length with more than _CODING_CYCLES primitive cycles
    raises ValueError: its totals take time quadratic in their count."""
    alphabet = Alphabet(l)
    recode_checked = recode_light = 0
    pad_checked = pad_light = 0
    ok = True
    visited = 0
    checks = max(n_max - 1, 0)  # the n in 2..n_max
    # with no n there is no pair, and one letter has one primitive cycle, of length 1
    top = 0 if not checks else t_max if l > 1 else min(t_max, 1)
    for t, count in zip(range(1, top + 1), _primitive_cycle_counts(l)):
        if count > _CODING_CYCLES:
            raise ValueError(
                f"the checked totals sum over at most {_CODING_CYCLES} primitive cycles of one length; "
                f"length {t} has {count}"
            )
        selections = 0  # sum over r >= 1 of P(count, r)
        term = 1
        for k in range(count, 0, -1):
            term *= k
            selections += term
        pad_checked += checks * selections
        if t % 2 == 0:
            recode_checked += checks * selections
        if t >= n_max:
            continue  # no class of cycle length t is light at any n <= n_max
        s = (t - 1).bit_length()
        for _, width, padded_width, recoded_width in _light_classes(t, alphabet, n_max):
            visited += 1
            if visited > _CODING_BUDGET:
                raise BudgetExceededError(
                    f"coding budget of {_CODING_BUDGET} classes exhausted at cycle length {t}", visited
                )
            # light at every n in width + 1..n_max; the least such n is the tightest
            pad_light += n_max - width
            ok = ok and padded_width <= (1 << s) * width
            if recoded_width is not None:
                recode_light += n_max - width
                ok = ok and recoded_width <= width
    return dict(
        t_max=t_max, l=l, n_max=n_max, recode_checked=recode_checked, recode_light_cases=recode_light,
        pad_checked=pad_checked, pad_light_cases=pad_light, ok=ok,
    )
