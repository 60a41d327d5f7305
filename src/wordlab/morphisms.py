"""Substitutions, square/cube detection, and the square-freeness test.

The classic substitutions live here as constructors: the two-letter
cube-free morphism (a -> ab, b -> ba), the three-letter square-free
morphism (a -> abcab, b -> acabcb, c -> acbcacb), and the golden-ratio
morphism (a -> ab, b -> a) used by the complexity checks.

Square and cube detection is a thin wrapper over the packed repetition
engine `words._first_power`, asked for the leftmost start and then the
shortest root; it costs O(n**2) byte operations in C, so a 4,096-letter
Thue-Morse word is checked cube-free in milliseconds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .words import (
    Alphabet, Word, _depth_first, _first_power, _is_factor, _parse_line_word, _power_blockers, _word, parse_word,
)

ITERATE_CAP = 10**6


@dataclass(frozen=True)
class Morphism:
    """A substitution: one nonempty image word over the target for each source letter."""

    source: Alphabet
    target: Alphabet
    images: tuple[Word, ...]  # indexed by source letter - 1

    def __post_init__(self) -> None:
        if len(self.images) != self.source.size:
            raise ValueError("every source letter needs an image")
        for img in self.images:
            if len(img) == 0:
                raise ValueError("images must be nonempty")
            if img.alphabet != self.target:
                raise ValueError("image over the wrong alphabet")

    @property
    def max_image(self) -> int:
        return max(len(img) for img in self.images)

    @property
    def min_image(self) -> int:
        return min(len(img) for img in self.images)


def apply(m: Morphism, w: Word) -> Word:
    if w.alphabet.size > m.source.size:
        raise ValueError("word letters outside the source alphabet")
    images = ((),) + tuple(img.letters for img in m.images)  # indexed by letter
    out: list[int] = []
    for x in w.letters:
        out += images[x]
    return _word(tuple(out), m.target)


def iterate(m: Morphism, letter: int | str, k: int) -> Word:
    """k-fold application starting from a single letter, given as a
    letter index or as word text of one letter."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if m.target.size > m.source.size:
        raise ValueError("iteration needs target letters inside the source alphabet")
    start = parse_word(letter, m.source).letters if isinstance(letter, str) else (letter,)
    if len(start) != 1:
        raise ValueError(f"iterate starts from one letter, not {letter!r}")
    w = Word(start, m.target)
    lengths = (0,) + tuple(map(len, m.images))  # indexed by letter
    for _ in range(k):
        if sum(map(lengths.__getitem__, w.letters)) > ITERATE_CAP:
            raise ValueError(f"iterate would exceed the {ITERATE_CAP}-letter cap")
        w = apply(m, w)
    return w


@dataclass(frozen=True)
class RepetitionOccurrence:
    """A repetition's start in a word and its root."""

    start: int  # 1-based
    root: Word


def has_square(w: Word) -> RepetitionOccurrence | None:
    """Leftmost square uu, shortest root at that start; None if square-free."""
    return _repetition(w, 2)


def has_cube(w: Word) -> RepetitionOccurrence | None:
    return _repetition(w, 3)


def _repetition(w: Word, e: int) -> RepetitionOccurrence | None:
    hit = _first_power(w.letters, e, leftmost=True)
    if hit is None:
        return None
    start, p = hit
    return RepetitionOccurrence(start + 1, _word(w.letters[start : start + p], w.alphabet))


def square_free_words(alphabet: Alphabet, max_len: int):
    """All square-free words of length 1..max_len, by pruned extension.

    Depth first (`words._depth_first`), children in letter order.  A
    square-free word's child ends with a square exactly when its last
    letter is one that `words._power_blockers` names for the parent, so
    each parent is scanned once for all of its children, and only the
    others are visited.
    """
    letters = alphabet.letters()

    def children(ls: tuple[int, ...], _):
        blocked = _power_blockers(ls, 2)
        for x in letters:
            if x not in blocked:
                yield ls + (x,), None

    for ls, _ in _depth_first(children, ((), None), max_len):
        yield _word(ls, alphabet)


@dataclass(frozen=True)
class CrochemoreReport:
    """Crochemore's square-freeness verdict on a morphism, and Thue's two conditions."""

    is_square_free: bool
    k_used: int
    counterexample: Word | None
    thue2_condition1: bool
    thue2_condition2: bool


def crochemore_test(m: Morphism) -> CrochemoreReport:
    """Square-freeness of a morphism via the finite test length.

    k = max(3, 1 + floor((M-3)/m)) with M and m the extreme image
    lengths; the morphism is square-free iff it preserves
    square-freeness on all square-free source words of length <= k.
    The report also carries the two classical sufficient conditions
    (images of short square-free words square-free; no image a factor
    of another).
    """
    k = max(3, 1 + (m.max_image - 3) // m.min_image)
    walk = square_free_words(m.source, k)
    counterexample = next((w for w in walk if has_square(apply(m, w)) is not None), None)
    # with no counterexample up to k >= 3, every image up to length 3 is square-free
    cond1 = counterexample is None or all(
        has_square(apply(m, w)) is None for w in square_free_words(m.source, 3)
    )
    cond2 = not any(_is_factor(u.letters, v.letters) for u, v in itertools.permutations(m.images, 2))
    return CrochemoreReport(counterexample is None, k, counterexample, cond1, cond2)


def parse_morphism(text: str) -> Morphism:
    """Lines 'letter -> image' in the word text format, one per source letter."""
    images: dict[int, Word] = {}
    for no, ln in enumerate(text.splitlines(), 1):
        ln = ln.strip()
        if not ln:
            continue
        left, arrow, right = ln.partition("->")
        if not arrow:
            raise ValueError(f"malformed morphism line {ln!r}")
        src = _parse_line_word(no, left.strip())
        if len(src) != 1:
            raise ValueError(f"left side of {ln!r} must be a single letter")
        if src.letters[0] in images:
            raise ValueError(f"second image of {left.strip()!r} in morphism line {ln!r}")
        image = _parse_line_word(no, right.strip())
        if len(image) == 0:
            raise ValueError(f"empty image in morphism line {ln!r}")
        images[src.letters[0]] = image
    if not images:
        raise ValueError("empty morphism text")
    source = Alphabet(max(images))
    if sorted(images) != list(source.letters()):
        raise ValueError("images must cover letters 1..l without gaps")
    target = Alphabet(max(max(img.letters) for img in images.values()))
    return Morphism(source, target, tuple(Word(images[x].letters, target) for x in source.letters()))


def thue_morse_morphism() -> Morphism:
    a2 = Alphabet(2)
    return Morphism(a2, a2, (parse_word("ab", a2), parse_word("ba", a2)))


def thue_ternary_morphism() -> Morphism:
    a3 = Alphabet(3)
    return Morphism(a3, a3, tuple(parse_word(text, a3) for text in ("abcab", "acabcb", "acbcacb")))


def fibonacci_morphism() -> Morphism:
    a2 = Alphabet(2)
    return Morphism(a2, a2, (parse_word("ab", a2), parse_word("a", a2)))


def thue_morse(k: int) -> Word:
    """k-th iterate of the cube-free morphism from 'a'; length 2**k."""
    return iterate(thue_morse_morphism(), 1, k)


def thue_ternary(k: int) -> Word:
    """k-th iterate of the square-free ternary morphism from 'a'."""
    return iterate(thue_ternary_morphism(), 1, k)
