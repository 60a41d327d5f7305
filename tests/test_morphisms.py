import itertools
import random

import definitions as D
import pytest
from hypothesis import given, strategies as st

from wordlab import morphisms
from wordlab.morphisms import (
    CrochemoreReport,
    Morphism,
    RepetitionOccurrence,
    _repetition,
    apply,
    crochemore_test,
    fibonacci_morphism,
    has_cube,
    has_square,
    iterate,
    parse_morphism,
    square_free_words,
    thue_morse,
    thue_morse_morphism,
    thue_ternary,
    thue_ternary_morphism,
)
from wordlab.words import Alphabet, Word, format_word, parse_word

A1 = Alphabet(1)
A2 = Alphabet(2)
A3 = Alphabet(3)


class TestApplication:
    def test_iterate_example(self):
        assert format_word(iterate(thue_morse_morphism(), "a", 2)) == "abba"

    def test_empty_word(self):
        assert len(apply(thue_morse_morphism(), Word((), A2))) == 0

    def test_ternary_image_of_a(self):
        assert format_word(apply(thue_ternary_morphism(), parse_word("a", A3))) == "abcab"

    def test_letter_outside_source(self):
        with pytest.raises(ValueError):
            apply(thue_morse_morphism(), parse_word("abc", A3))

    @given(
        st.lists(st.integers(1, 2), max_size=6), st.lists(st.integers(1, 2), max_size=6)
    )
    def test_morphism_respects_concatenation(self, u, v):
        m = thue_ternary_morphism() if False else thue_morse_morphism()
        wu, wv = Word(tuple(u), A2), Word(tuple(v), A2)
        assert apply(m, wu + wv) == apply(m, wu) + apply(m, wv)

    def test_iterate_cap(self):
        with pytest.raises(ValueError):
            iterate(thue_morse_morphism(), "a", 25)


def reference_apply(m, w):
    """apply before its image table: one image lookup per letter."""
    if w.alphabet.size > m.source.size:
        raise ValueError("word letters outside the source alphabet")
    out = []
    for x in w.letters:
        out.extend(m.images[x - 1].letters)
    return Word(tuple(out), m.target)


def reference_iterate(m, letter, k, cap):
    """iterate before its length table: each next length summed letter by letter."""
    w = Word((letter,), m.target)
    for _ in range(k):
        if sum(len(m.images[x - 1]) for x in w.letters) > cap:
            raise ValueError(f"iterate would exceed the {cap}-letter cap")
        w = reference_apply(m, w)
    return w


class TestLengthTables:
    BUILTINS = (thue_morse_morphism, thue_ternary_morphism, fibonacci_morphism)

    @pytest.mark.parametrize("make", BUILTINS)
    def test_builtins_up_to_the_cap(self, make):
        # the loop's test is reference_iterate's cap test: the last k below the cap, then the first above
        m, cap = make(), morphisms.ITERATE_CAP
        expected, k = Word((1,), m.target), 0
        while sum(len(m.images[x - 1]) for x in expected.letters) <= cap:
            if k < 12:
                assert iterate(m, 1, k) == expected, k
            expected, k = reference_apply(m, expected), k + 1
        assert iterate(m, 1, k) == expected and len(expected) > cap // 10, k
        with pytest.raises(ValueError) as info:
            iterate(m, 1, k + 1)
        assert str(info.value) == f"iterate would exceed the {cap}-letter cap"

    @pytest.mark.parametrize("make", BUILTINS)
    def test_every_start_letter_and_small_caps(self, make, monkeypatch):
        m = make()
        for letter, k, cap in itertools.product(m.source.letters(), range(7), (1, 10, 100)):
            monkeypatch.setattr(morphisms, "ITERATE_CAP", cap)
            try:
                expected = reference_iterate(m, letter, k, cap)
            except ValueError as err:
                with pytest.raises(ValueError, match=str(err)):
                    iterate(m, letter, k)
            else:
                assert iterate(m, letter, k) == expected
                if letter == 1:
                    assert iterate(m, "a", k) == expected

    def test_apply_on_random_morphisms(self):
        rng = random.Random(27)
        for _ in range(300):
            m = random_morphism(rng)
            w = Word(tuple(rng.randint(1, m.source.size) for _ in range(rng.randrange(12))), m.source)
            assert apply(m, w) == reference_apply(m, w), (m, w)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("ab", "iterate starts from one letter, not 'ab'"),
            ("", "iterate starts from one letter, not ''"),
            ("i:1,2", "iterate starts from one letter, not 'i:1,2'"),
            ("A", "word text 'A' is not lowercase a-z"),
            ("i:3", "letter 3 outside alphabet of size 2"),
        ],
    )
    def test_start_text_must_be_one_source_letter(self, text, message):
        with pytest.raises(ValueError) as info:
            iterate(thue_morse_morphism(), text, 2)
        assert str(info.value) == message

    def test_start_text_in_index_form(self):
        assert iterate(thue_morse_morphism(), "i:2", 2) == iterate(thue_morse_morphism(), "b", 2) == parse_word("baab")


class TestRepetitions:
    def test_square_found(self):
        occ = has_square(parse_word("abab"))
        assert occ is not None and format_word(occ.root) == "ab"

    def test_square_free(self):
        assert has_square(parse_word("abcacb", A3)) is None

    def test_cube(self):
        occ = has_cube(parse_word("aaa"))
        assert occ is not None and format_word(occ.root) == "a"

    def test_leftmost_shortest(self):
        occ = has_square(parse_word("baa"))
        assert (occ.start, format_word(occ.root)) == (2, "a")

    def test_square_free_ternary_counts(self):
        # OEIS A006156, lengths 1..16
        counts = [0] * 16
        for w in square_free_words(A3, 16):
            counts[len(w) - 1] += 1
        assert counts == [3, 6, 12, 18, 30, 42, 60, 78, 108, 144, 204, 264, 342, 456, 618, 798]

    @pytest.mark.parametrize("l, max_len", [(1, 4), (2, 6), (3, 13), (4, 8)])
    def test_square_free_walk_matches_reference(self, l, max_len):
        alphabet = Alphabet(l)
        got = [w.letters for w in square_free_words(alphabet, max_len)]
        assert got == D.square_free_words(l, max_len)

    @pytest.mark.parametrize("max_len", [0, -1])
    def test_square_free_no_positive_length(self, max_len):
        assert list(square_free_words(A3, max_len)) == []

    def test_square_free_binary_stops_at_three(self):
        got = sorted(format_word(w) for w in square_free_words(A2, 10))
        assert got == ["a", "ab", "aba", "b", "ba", "bab"]


class TestCrochemore:
    def test_ternary_morphism(self):
        report = crochemore_test(thue_ternary_morphism())
        assert report.k_used == 3
        assert report.is_square_free
        assert report.thue2_condition1 and report.thue2_condition2

    def test_squaring_morphism(self):
        m = Morphism(A1, A1, (parse_word("aa", A1),))
        report = crochemore_test(m)
        assert not report.is_square_free
        assert report.counterexample is not None

    def test_identity_is_square_free(self):
        ident = Morphism(A3, A3, tuple(Word((x,), A3) for x in (1, 2, 3)))
        assert crochemore_test(ident).is_square_free

    def test_k_formula(self):
        # M = 7, m = 5: k = max(3, 1 + floor(4/5)) = 3
        m = thue_ternary_morphism()
        assert m.max_image == 7 and m.min_image == 5
        assert crochemore_test(m).k_used == 3

    def test_condition2_against_slice_scan(self):
        # condition 2: no image is a factor of the image of another letter
        rng = random.Random(6)
        outcomes = set()
        for _ in range(200):
            l = rng.randrange(1, 4)
            images = tuple(
                Word(tuple(rng.randrange(1, 3) for _ in range(rng.randrange(1, 4))), A2) for _ in range(l)
            )
            want = not any(
                a != b and any(y.letters[i : i + len(x)] == x.letters for i in range(len(y) - len(x) + 1))
                for a, x in enumerate(images)
                for b, y in enumerate(images)
            )
            got = crochemore_test(Morphism(Alphabet(l), A2, images)).thue2_condition2
            assert got is want, images
            outcomes.add(got)
        assert outcomes == {True, False}

    def test_agrees_with_direct_definition_on_random_morphisms(self):
        rng = random.Random(5)
        for _ in range(60):
            ls, lt = rng.randrange(1, 4), rng.randrange(1, 4)
            src, tgt = Alphabet(ls), Alphabet(lt)
            images = tuple(
                Word(
                    tuple(rng.randrange(1, lt + 1) for _ in range(rng.randrange(1, 5))),
                    tgt,
                )
                for _ in range(ls)
            )
            m = Morphism(src, tgt, images)
            report = crochemore_test(m)
            direct = all(
                has_square(apply(m, w)) is None
                for w in square_free_words(src, 2 * report.k_used)
            )
            assert report.is_square_free == direct


def reference_crochemore_test(m):
    """The two-walk test that crochemore_test replaced: condition 1 took
    its own walk to length 3 after the walk to k."""
    k = max(3, 1 + (m.max_image - 3) // m.min_image)
    counterexample = None
    for w in square_free_words(m.source, k):
        if has_square(apply(m, w)) is not None:
            counterexample = w
            break
    cond1 = all(has_square(apply(m, w)) is None for w in square_free_words(m.source, 3))
    cond2 = not any(
        any(v.letters[i : i + len(u)] == u.letters for i in range(len(v) - len(u) + 1))
        for u, v in itertools.permutations(m.images, 2)
    )
    return CrochemoreReport(counterexample is None, k, counterexample, cond1, cond2)


def random_morphism(rng):
    ls, lt = rng.randrange(1, 4), rng.randrange(1, 4)
    tgt = Alphabet(lt)
    images = tuple(
        Word(tuple(rng.randrange(1, lt + 1) for _ in range(rng.randrange(1, 9))), tgt) for _ in range(ls)
    )
    return Morphism(Alphabet(ls), tgt, images)


class TestCrochemoreOneWalk:
    BUILTINS = (thue_morse_morphism, thue_ternary_morphism, fibonacci_morphism)

    @pytest.mark.parametrize("make", BUILTINS)
    def test_builtins_against_two_walks(self, make):
        assert crochemore_test(make()) == reference_crochemore_test(make())

    def test_random_morphisms_against_two_walks(self):
        rng = random.Random(26)
        verdicts = set()
        for _ in range(300):
            m = random_morphism(rng)
            report = crochemore_test(m)
            assert report == reference_crochemore_test(m), m
            verdicts.add((report.is_square_free, report.thue2_condition1))
        assert verdicts == {(True, True), (False, False)}

    def test_counterexample_past_length_three(self):
        # the walk to k reaches abac before c, whose image holds aa
        m = parse_morphism("a -> b\nb -> a\nc -> baacacb\n")
        report = crochemore_test(m)
        assert report == reference_crochemore_test(m)
        assert format_word(report.counterexample) == "abac" and not report.thue2_condition1

    def test_square_free_morphism_walks_once(self, monkeypatch):
        walks = []

        def counted(alphabet, max_len):
            walks.append(max_len)
            return square_free_words(alphabet, max_len)

        monkeypatch.setattr(morphisms, "square_free_words", counted)
        assert crochemore_test(thue_ternary_morphism()).is_square_free
        assert walks == [3]


def reference_repetition(w, e):
    """The least z**e occurrence by start and then |z|, as a RepetitionOccurrence."""
    least = D.least_power(w.letters, e, shortest_first=False)
    if least is None:
        return None
    start, p = least
    return RepetitionOccurrence(start + 1, Word(w.letters[start : start + p], w.alphabet))


# letters above 255 pack several bytes wide; these share and differ in single bytes
WIDE_LETTERS = (1, 2, 255, 256, 257, 263, 512, 519, 521, 65536, 65537, 65792)


class TestRepetitionEngine:
    @pytest.mark.parametrize("e", [2, 3, 4])
    def test_exhaustive_against_reference(self, e):
        for l, max_len in ((2, 12), (3, 8)):
            alphabet = Alphabet(l)
            for n in range(max_len + 1):
                for ls in itertools.product(range(1, l + 1), repeat=n):
                    w = Word(ls, alphabet)
                    assert _repetition(w, e) == reference_repetition(w, e), ls

    @given(st.lists(st.integers(1, 3), max_size=60))
    def test_long_words_against_reference(self, ls):
        w = Word(tuple(ls), A3)
        assert has_square(w) == reference_repetition(w, 2)
        assert has_cube(w) == reference_repetition(w, 3)

    @given(st.lists(st.sampled_from(WIDE_LETTERS), max_size=30))
    def test_wide_letters_against_reference(self, ls):
        w = Word(tuple(ls), Alphabet(max(WIDE_LETTERS)))
        assert has_square(w) == reference_repetition(w, 2)
        assert has_cube(w) == reference_repetition(w, 3)

    def test_three_hundred_distinct_letters(self):
        alphabet = Alphabet(300)
        z = tuple(range(1, 301))
        assert has_square(Word(z, alphabet)) is None
        occ = has_square(Word((7,) + z * 2 + (7, 7), alphabet))
        assert (occ.start, occ.root.letters) == (2, z)


class TestClassicIterates:
    def test_thue_morse_prefixes_cube_free(self):
        w = thue_morse(9)
        assert len(w) == 512
        assert has_cube(w) is None

    def test_ternary_iterates_square_free_to_500(self):
        for k in (1, 2, 3):
            assert has_square(thue_ternary(k)) is None
        prefix = thue_ternary(4)[0:500]
        assert len(prefix) == 500
        assert has_square(prefix) is None

    def test_thue_morse_4096_cube_free(self):
        assert has_cube(thue_morse(12)) is None

    def test_ternary_prefix_4000_square_free(self):
        prefix = thue_ternary(5)[0:4000]
        assert len(prefix) == 4000
        assert has_square(prefix) is None

    def test_fibonacci_lengths(self):
        w = iterate(fibonacci_morphism(), "a", 10)
        assert len(w) == 144


class TestTextFormat:
    def test_parse_rejects_gaps(self):
        with pytest.raises(ValueError):
            parse_morphism("a -> ab\nc -> b\n")

    def test_parse_rejects_empty_image(self):
        with pytest.raises(ValueError, match="empty image in morphism line 'a ->'"):
            parse_morphism("a -> \n")
