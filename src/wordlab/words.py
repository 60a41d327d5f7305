"""Finite words over a totally ordered alphabet.

Letters are the integers 1..l with 1 < 2 < ... < l; for l <= 26 they
print as 'a', 'b', ...  Two words are *comparable* when neither is a
prefix of the other (equal words are a degenerate prefix pair, hence
incomparable).  All values are immutable and every operation is pure.

Every "is there a z**e here, and where" query (find_period_power here,
the square and cube scans of `morphisms`, fragment extraction in
`divisibility`) goes through one letter-level engine, `_first_power`,
which checks each period for all starts at once on a packed integer.
Walks that grow words one letter at a time ask instead which letters
would close a z**e at the end (`_power_blockers`), once per parent for
all of its children.

The tree searches of the package (the length oracle, the square-free
words, the subword graph's windows, the light coding classes, the
brute-force antichains and pattern matching) are each one `children`
generator walked by `_depth_first`, on an explicit stack.  The walk is
lazy: it asks a node for its next child only when it is back at that
node, so a search that tests or counts its nodes inside `children`
does so in preorder, and one that stops early has tested nothing past
its stop.  Its depth counts levels and its nodes are opaque, so a node
holds only what its search needs: pattern matching walks (pattern
letters placed, host position) pairs in O(depth) memory.  Two searches
keep their own stacks, both measured slower on the walker: the block
division of `divisibility._block_division` and the run selection of
`divisibility._selection_height`.

The second engine, `_level_counts`, counts the nodes per level of a
tree whose nodes merge into states: the words of `growth.count_words`,
the corpus of `divisibility.selective_corpus_check` and the
permutations of the `tableaux` enumeration.

A word is regular when it is strictly greater than each of its proper
rotations: the Lyndon words of the reversed letter order (Chen, Fox and
Lyndon 1958).  So regularity is Duval's one-pass Lyndon test (1983) with
the order reversed, and the Shirshov bracketing is one right-to-left
stack pass that merges regular factors, held as bounds in the word, with
no regularity retest; the word is regular when one factor is left.
Duval's factorization of ww gives the least rotation of w and its
primitive root in one pass (`_least_rotation`).  Results built from a
checked word's letters over its alphabet skip the letter check (`_word`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence


class Cmp(Enum):
    LESS = -1
    INCOMPARABLE = 0
    GREATER = 1


@dataclass(frozen=True, order=True)
class Alphabet:
    """Ordered alphabet of letters 1..size."""

    size: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("alphabet needs at least one letter")

    def letter_str(self, letter: int) -> str:
        if not 1 <= letter <= self.size:
            raise ValueError(f"letter {letter} outside alphabet of size {self.size}")
        if self.size <= 26:
            return chr(ord("a") + letter - 1)
        return str(letter)

    def letters(self) -> range:
        return range(1, self.size + 1)


@dataclass(frozen=True)
class Word:
    """A finite word: letters 1..size of its alphabet."""

    letters: tuple[int, ...]
    alphabet: Alphabet

    def __post_init__(self) -> None:
        for x in self.letters:
            if not 1 <= x <= self.alphabet.size:
                raise ValueError(f"letter {x} outside alphabet of size {self.alphabet.size}")

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return format_word(self)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r}, l={self.alphabet.size})"

    def __getitem__(self, item):
        if isinstance(item, slice):
            return _word(self.letters[item], self.alphabet)
        return self.letters[item]

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __add__(self, other: "Word") -> "Word":
        _require_same_alphabet(self, other)
        return _word(self.letters + other.letters, self.alphabet)

    def __mul__(self, k: int) -> "Word":
        return _word(self.letters * k, self.alphabet)

    def is_empty(self) -> bool:
        return not self.letters


def _word(letters: tuple[int, ...], alphabet: Alphabet) -> Word:
    """A Word whose letters are known to lie in the alphabet: they come
    from `alphabet.letters()` or from a checked Word over it, so the
    letter check of `Word.__post_init__` is skipped."""
    w = object.__new__(Word)
    fields = w.__dict__
    fields["letters"], fields["alphabet"] = letters, alphabet
    return w


class Theta:
    """Bottom element: lexicographically below every word, itself included."""

    _instance: "Theta | None" = None

    def __new__(cls) -> "Theta":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "theta"


THETA = Theta()


def word(text: str, alphabet: Alphabet | None = None) -> Word:
    """Parse the word text format; see `parse_word`."""
    return parse_word(text, alphabet)


def parse_word(text: str, alphabet: Alphabet | None = None) -> Word:
    """Parse 'abc' (lowercase letters) or 'i:1,2,3' (explicit indices)."""
    if text.startswith("i:"):
        payload = text[2:]
        try:
            letters = tuple(int(part) for part in payload.split(",")) if payload else ()
        except ValueError:
            raise ValueError(
                f"word text {text!r} is not of the form i:1,2,3 (integer letter indices)"
            ) from None
        bad = next((x for x in letters if x < 1), None)
        if bad is not None:
            raise ValueError(f"word text {text!r} has letter index {bad}; letter indices start at 1")
    else:
        letters = tuple(ord(ch) - ord("a") + 1 for ch in text)
        if any(x < 1 or x > 26 for x in letters):
            raise ValueError(f"word text {text!r} is not lowercase a-z")
    if alphabet is None:
        alphabet = Alphabet(max(letters, default=1))
    return Word(letters, alphabet)


def format_word(w: Word) -> str:
    if w.alphabet.size <= 26:
        return "".join(chr(ord("a") + x - 1) for x in w.letters)
    return "i:" + ",".join(str(x) for x in w.letters)


def _require_same_alphabet(u: Word, v: Word) -> None:
    if u.alphabet != v.alphabet:
        raise ValueError("alphabet mismatch")


def lex_compare(u: Word, v: Word) -> Cmp:
    """Compare at the first differing position; prefix pairs are incomparable."""
    _require_same_alphabet(u, v)
    return lex_compare_letters(u.letters, v.letters)


def lex_compare_letters(a: Sequence[int], b: Sequence[int]) -> Cmp:
    for x, y in zip(a, b):
        if x != y:
            return Cmp.LESS if x < y else Cmp.GREATER
    return Cmp.INCOMPARABLE


def comparable(u: Word, v: Word) -> bool:
    return lex_compare(u, v) is not Cmp.INCOMPARABLE


def tails(w: Word) -> tuple[Word, ...]:
    """All |w| suffixes ordered by start position."""
    return tuple(_word(w.letters[i:], w.alphabet) for i in range(len(w)))


def k_tail(w: Word, start: int, k: int) -> Word:
    """First k letters of the tail starting at `start` (1-based).

    A tail shorter than k is returned whole.
    """
    if not 1 <= start <= len(w):
        raise ValueError(f"start {start} outside word of length {len(w)}")
    return _word(w.letters[start - 1 : start - 1 + k], w.alphabet)


@dataclass(frozen=True)
class PeriodOccurrence:
    """An occurrence of period**exponent, starting at start."""

    period: Word
    start: int  # 1-based position of the occurrence of period**exponent
    exponent: int


def find_period_power(w: Word, d: int) -> PeriodOccurrence | None:
    """Leftmost occurrence of z**d with z primitive, shortest z first."""
    if d < 2:
        raise ValueError("power threshold d must be at least 2")
    hit = _first_power(w.letters, d, leftmost=False)
    if hit is None:
        return None
    start, p = hit
    return PeriodOccurrence(_word(w.letters[start : start + p], w.alphabet), start + 1, d)


def _pack(ls: Sequence[int]) -> tuple[bytes, int]:
    """(packed, width): the nonempty ls with each letter `width` bytes big-endian.

    `width` is the fewest bytes that hold the largest letter, so byte
    order on equal-length packings is the letter-wise lexicographic order.
    """
    width = (max(ls).bit_length() + 7) // 8
    packed = bytes(ls) if width == 1 else b"".join(x.to_bytes(width, "big") for x in ls)
    return packed, width


def _first_power(ls: tuple[int, ...], e: int, leftmost: bool) -> tuple[int, int] | None:
    """(0-based start, root length) of an occurrence of z**e in ls, or None.

    With leftmost=False the shortest root wins and then the leftmost
    start; with leftmost=True the leftmost start wins and then the
    shortest root.  Either way the root is primitive: were z = v**k,
    the same start would carry v**(k*e) with the shorter period |v|.

    All periods are checked word-parallel on one packed integer X, each
    letter `width` bytes big-endian.  For the period p, byte j >= p*width
    of X ^ (X >> 8*p*width) is zero iff byte j equals byte j - p*width,
    so z**e with |z| = p starts at s iff (e-1)*p*width zero bytes begin
    at the letter-aligned offset (s+p)*width.  That is one bytes.find per
    period: O(n**2/e) byte operations in C, with no per-letter Python.
    """
    n = len(ls)
    if n < e:
        return None
    packed, width = _pack(ls)
    X = int.from_bytes(packed, "big")
    size = n * width
    best = None
    for p in range(1, n // e + 1):
        shift = p * width
        D = (X ^ (X >> 8 * shift)).to_bytes(size, "big")
        run = bytes((e - 1) * shift)
        # leftmost: only a strictly earlier start than the best one can win
        end = size if best is None else min(size, (best[0] + e * p - 1) * width)
        i = D.find(run, shift, end)
        while i > 0 and i % width:
            i = D.find(run, i + width - i % width, end)
        if i < 0:
            continue
        best = (i // width - p, p)
        if not leftmost or best[0] == 0:
            return best
    return best


def subword_count_period(w: Word, k: int, t: int) -> bool:
    """True iff w (of length k*t) has at most k distinct length-k factors.

    When true, w must contain z**t with |z| <= k; that consequence is
    re-checked here rather than trusted.  find_period_power tries the
    shortest primitive root first, so its hit is short enough if any is.
    """
    if len(w) != k * t:
        raise ValueError(f"need |w| = k*t, got {len(w)} != {k}*{t}")
    ls = w.letters
    factors = {ls[i : i + k] for i in range(len(ls) - k + 1)}
    if len(factors) > k:
        return False
    assert t < 2 or (hit := find_period_power(w, t)) and len(hit.period) <= k, (
        "at most k distinct k-factors must force a period of length t"
    )
    return True


def is_primitive(w: Word) -> bool:
    """True iff w is not a proper power v**k, k > 1."""
    if len(w) == 0:
        raise ValueError("the empty word has no primitivity")
    return _least_rotation(w.letters)[1] == len(w)


def _least_rotation(ls: tuple[int, ...]) -> tuple[int, int]:
    """(start, root length) of the nonempty ls: its least rotation is
    ls[start:] + ls[:start], and its primitive root has root length letters.

    Duval's Lyndon factorization (1983) of ls + ls: each round emits the
    copies of a Lyndon word of length j - k.  The least rotation opens at
    the first copy of the last round that starts before |ls|, and that
    round's word is the least rotation of the primitive root.
    """
    n = len(ls)
    if not n:
        raise ValueError("the empty word has no cycle")
    s = ls + ls
    i = 0
    while i < n:
        start, j, k = i, i + 1, i
        while j < 2 * n and s[k] <= s[j]:
            k = i if s[k] < s[j] else k + 1
            j += 1
        while i <= k:
            i += j - k
    return start, j - k


def _is_factor(needle: tuple[int, ...], hay: tuple[int, ...]) -> bool:
    """True iff needle occurs in hay as a contiguous factor."""
    return any(
        hay[i : i + len(needle)] == needle for i in range(len(hay) - len(needle) + 1)
    )


def _power_blockers(ls: tuple[int, ...], e: int) -> set[int]:
    """The letters x for which ls + (x,) ends with some z**e, z nonempty, e >= 2.

    With L = |ls|, a suffix z**e of ls + (x,) with |z| = p repeats every
    one of its last (e-1)*p letters p places earlier.  So the period p
    blocks exactly the letter x = ls[L-p], and only when
    ls[L+1-e*p : L-p] == ls[L+1-(e-1)*p : L], for p = 1 .. (L+1)//e.
    Where those slices are nonempty their last letters must agree,
    ls[L-p-1] == ls[L-1], and only the periods that pass that one-letter
    test compare slices.  One call answers the test for every child of ls.
    """
    L = len(ls)
    blocked: set[int] = set()
    for p in range(1, (L + 1) // e + 1):
        x = ls[L - p]
        if x in blocked or (e - 1) * p > 1 and ls[L - p - 1] != ls[L - 1]:
            continue
        if ls[L + 1 - e * p : L - p] == ls[L + 1 - (e - 1) * p : L]:
            blocked.add(x)
    return blocked


def _depth_first(children, root: tuple, depth: int) -> Iterator[tuple]:
    """Yield the (node, state) pairs below root, itself such a pair, in
    preorder, down to `depth` levels below root.  Nodes are opaque: the
    walk counts levels and never looks inside one.  `children(node,
    state)` generates the pairs of its children in visiting order; the
    walk holds one generator per level on an explicit stack, so it has no
    depth limit, and resumes one only after its last child's subtree."""
    limit = depth - 1  # the most generators below top
    if limit < 0:
        return
    top, stack = children(*root), []
    while True:
        for child in top:
            yield child
            if len(stack) < limit:
                stack.append(top)
                top = children(*child)
            break
        else:
            if not stack:
                return
            top = stack.pop()


def _level_counts(children, root, depth: int) -> list[int]:
    """The nodes per level 0..depth of a tree whose nodes with one state
    have subtrees of one shape.  `children(state)` lists the state's
    child per branch, None for a branch that is cut; each level is one
    dict of states with the number of nodes that reach each."""
    level, counts = {root: 1}, [1]
    for _ in range(depth):
        grown: dict = {}
        for state, count in level.items():
            for child in children(state):
                if child is not None:
                    grown[child] = grown.get(child, 0) + count
        level = grown
        counts.append(sum(grown.values()))
    return counts


def rotations(w: Word) -> tuple[Word, ...]:
    ls = w.letters
    return tuple(_word(ls[i:] + ls[:i], w.alphabet) for i in range(len(ls)))


def canonical_rotation(w: Word) -> Word:
    return WordCycle.of(w).representative


def strongly_comparable(u: Word, v: Word) -> bool:
    """True iff every rotation of u is comparable with every rotation of v.

    With |u| <= |v|, a rotation of u is incomparable with a rotation of
    v exactly when it is that rotation's prefix, one of the |v| windows
    of length |u| of vv.
    """
    _require_same_alphabet(u, v)
    a, b = sorted((u.letters, v.letters), key=len)
    bb = b + b
    windows = {bb[i : i + len(a)] for i in range(len(b))}
    return all(a[i:] + a[:i] not in windows for i in range(len(a)))


@dataclass(frozen=True)
class WordCycle:
    """Conjugacy class of a word under rotation.

    `representative` is the lexicographically least rotation;
    `period_length` is the length of the primitive root.
    """

    representative: Word
    period_length: int

    @staticmethod
    def of(w: Word) -> "WordCycle":
        start, root = _least_rotation(w.letters)
        return WordCycle(_word(w.letters[start:] + w.letters[:start], w.alphabet), root)

    def __len__(self) -> int:
        return len(self.representative)


def conjugate_classes(ws: Iterable[Word]) -> tuple[tuple[WordCycle, tuple[Word, ...]], ...]:
    """Partition primitive same-length words into rotation classes."""
    ws = tuple(ws)
    buckets: dict[tuple[int, ...], tuple[WordCycle, list[Word]]] = {}
    for w in ws:
        if len(w) != len(ws[0]):
            raise ValueError("conjugate classes need words of one common length")
        cycle = WordCycle.of(w)
        if cycle.period_length != len(w):
            raise ValueError(f"non-primitive word {format_word(w)!r}")
        buckets.setdefault(cycle.representative.letters, (cycle, []))[1].append(w)
    return tuple((cycle, tuple(members)) for _, (cycle, members) in sorted(buckets.items()))


def is_regular(w: Word) -> bool:
    """True iff w is strictly greater than each of its proper rotations."""
    if len(w) == 0:
        raise ValueError("the empty word is not regular")
    return _is_regular_letters(w.letters)


class _Bracketing:
    def _walk(self) -> Iterator["Leaf | str"]:
        """The leaves in order, with "[" before each pair, "," between its
        two subtrees and "]" after it, on an explicit stack, so a tree may
        be deeper than the recursion limit."""
        stack: list = [self]
        while stack:
            node = stack.pop()
            while type(node) is Pair:
                yield "["
                stack += ("]", node.right, ",")
                node = node.left
            yield node

    def render(self, alphabet: Alphabet) -> str:
        marks = (f"[{alphabet.letter_str(x.letter)}]" if type(x) is Leaf else x for x in self._walk())
        return "".join(m for m in marks if m != ",")

    def frontier(self) -> tuple[int, ...]:
        """The letters of the leaves in order, on an explicit stack."""
        letters: list[int] = []
        stack: list = [self]
        while stack:
            node = stack.pop()
            while type(node) is Pair:
                stack.append(node.right)
                node = node.left
            letters.append(node.letter)
        return tuple(letters)


@dataclass(frozen=True)
class Leaf(_Bracketing):
    """A leaf of a bracketing: one letter."""

    letter: int


# the text of the generated dataclass repr at each marker of _walk
_PAIR_REPR = {"[": "Pair(left=", ",": ", right=", "]": ")"}


@dataclass(frozen=True, eq=False)
class Pair(_Bracketing):
    """An inner node.  Equality, hash and repr read the bracketed leaf
    sequence of _walk, which spells the tree, so a tree may be deeper
    than the recursion limit; repr writes the generated dataclass
    repr's text."""

    left: "Leaf | Pair"
    right: "Leaf | Pair"

    def __repr__(self) -> str:
        return "".join(repr(x) if type(x) is Leaf else _PAIR_REPR[x] for x in self._walk())

    def __eq__(self, other: object) -> bool:
        if type(other) is not Pair:
            return NotImplemented
        return all(a == b for a, b in itertools.zip_longest(self._walk(), other._walk()))

    def __hash__(self) -> int:
        return hash(tuple(self._walk()))


@dataclass(frozen=True)
class BracketedWord:
    """A word with a bracketing whose leaves spell it."""

    tree: Leaf | Pair
    word: Word

    def __post_init__(self) -> None:
        if self.tree.frontier() != self.word.letters:
            raise ValueError("bracketing frontier does not spell the word")

    def __str__(self) -> str:
        return self.tree.render(self.word.alphabet)


def shirshov_bracketing(w: Word) -> BracketedWord:
    """The unique bracketing of a regular word that stays regular.

    Split recursively at the longest proper regular suffix (the
    Chen-Fox-Lyndon factorization step, mirrored for the greater-than-
    rotations convention); `_bracket` finds every split in one pass.
    """
    if len(w) == 0:
        raise ValueError("the empty word is not regular")
    tree = _bracket(w.letters)
    if tree is None:
        raise ValueError(f"word {format_word(w)!r} is not regular")
    return BracketedWord(tree, w)


def _bracket(ls: tuple[int, ...]) -> Leaf | Pair | None:
    """The Shirshov bracketing of ls, or None when ls is not regular.

    Right to left, the stack holds the factorization of the suffix read
    so far into nonincreasing regular words, each as its bracketing and
    its end in ls, so a factor is its bounds and never a copy; this
    holds for any ls, so ls is regular exactly when one factor is left.  For
    regular u and v, uv is regular exactly when uv > vu, so the factor
    u = ls[i:k] of the letter just read absorbs the factor v = ls[k:j]
    on top of the stack while uv > vu.  Regular words are the Lyndon
    words of the reversed letter order, and for Lyndon words uv < vu
    iff u < v, a proper prefix being the smaller word (Chen, Fox and
    Lyndon 1958).  Read in the reversed order, uv > vu holds exactly
    when u has the larger letter at the first mismatch within
    min(|u|, |v|) letters, or u is a proper prefix of v.  So the test
    compares the first letters, and only on a tie the rest of the
    shorter factor with as many letters of the other, one pair of
    slices of ls: at most 2*min(|u|, |v|) - 1 letters besides u's first
    letter, the letter just read.  There are at most 2|ls| - 1 tests,
    one per merge and one that ends each letter's merging; on the comb
    b a^k each reads one letter, where concatenating both rotations
    copied O(k) letters.
    Leaves are shared per letter, and pairs skip the frozen dataclass
    __init__ the way `_word` skips the letter check.
    """
    leaves = {x: Leaf(x) for x in set(ls)}
    new = object.__new__
    stack: list[tuple[Leaf | Pair, int]] = []
    for i in range(len(ls) - 1, -1, -1):
        x = ls[i]
        cur, k = leaves[x], i + 1
        while stack:
            top, j = stack[-1]
            y = ls[k]
            if x != y:
                if x < y:
                    break
            elif k - i < j - k:
                # cur is shorter: it wins on a tie, as a proper prefix of top
                if ls[i + 1 : k] < ls[k + 1 : 2 * k - i]:
                    break
            elif ls[i + 1 : i + j - k] <= ls[k + 1 : j]:
                break
            stack.pop()
            pair = new(Pair)
            fields = pair.__dict__
            fields["left"], fields["right"] = cur, top
            cur, k = pair, j
        stack.append((cur, k))
    return stack[0][0] if len(stack) == 1 else None


def _is_regular_letters(ls: tuple[int, ...]) -> bool:
    # Duval's Lyndon test with the letter order reversed: ls[:j] stays a
    # power of its regular prefix of length j - k, possibly cut short
    k, j = 0, 1
    while j < len(ls) and ls[k] >= ls[j]:
        k = k + 1 if ls[k] == ls[j] else 0
        j += 1
    return j >= len(ls) and k == 0


def zimin_word(n: int, alphabet: Alphabet | None = None) -> Word:
    """Z_1 = x_1, Z_{k+1} = Z_k x_{k+1} Z_k; length 2**n - 1."""
    if n < 1:
        raise ValueError("zimin index must be positive")
    if alphabet is None:
        alphabet = Alphabet(n)
    if alphabet.size < n:
        raise ValueError(f"alphabet of size {alphabet.size} too small for Z_{n}")
    ls: tuple[int, ...] = (1,)
    for k in range(2, n + 1):
        ls = ls + (k,) + ls
    return Word(ls, alphabet)


def pattern_occurs(pattern: Word, host: Word) -> bool:
    """True iff some substitution of nonempty words turns pattern into a factor of host."""
    return find_pattern_instance(pattern, host) is not None


def find_pattern_instance(pattern: Word, host: Word) -> dict[int, Word] | None:
    """A substitution letter -> nonempty word realizing pattern inside host."""
    if len(pattern) == 0:
        raise ValueError("patterns must be nonempty")
    pat = pattern.letters
    hls = host.letters
    later = {x: pat.count(x) - 1 for x in set(pat)}  # occurrences after a letter's first

    def children(node: tuple[int, int], state: tuple[dict[int, tuple[int, ...]], int]):
        # node = (pattern letters placed, host position after their images);
        # need = the fewest host letters pat[pi:] spans: a bound letter's image, one per other
        (pi, hi), (bound, need) = node, state
        if hi + need > len(hls):
            return
        letter = pat[pi]
        if letter in bound:
            img = bound[letter]
            if hls[hi : hi + len(img)] == img:
                yield (pi + 1, hi + len(img)), (bound, need - len(img))
            return
        for end in range(hi + 1, len(hls) + 1):
            yield (pi + 1, end), ({**bound, letter: hls[hi:end]}, need - 1 + (end - hi - 1) * later[letter])

    for start in range(len(hls)):
        for (pi, _), (bound, _) in _depth_first(children, ((0, start), ({}, len(pat))), len(pat)):
            if pi == len(pat):
                return {k: _word(v, host.alphabet) for k, v in bound.items()}
    return None


def all_words(alphabet: Alphabet, length: int) -> Iterator[Word]:
    """Every word of exactly the given length, lexicographic order."""
    for ls in itertools.product(alphabet.letters(), repeat=length):
        yield _word(ls, alphabet)
