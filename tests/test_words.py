import itertools
import random
import tracemalloc

import definitions as D
import pytest
from hypothesis import given, strategies as st

from wordlab.divisibility import (
    CodingClass,
    Fragment,
    FragmentDecomposition,
    IncomparableTailsError,
    dilworth_tail_coloring,
    extract_periodic_fragments,
    pad_to_power_of_two,
    primitive_cycle_classes,
    recode_pairs,
)
from wordlab.morphisms import Morphism, apply, has_cube, has_square, square_free_words
from wordlab.words import (
    THETA,
    Alphabet,
    BracketedWord,
    Cmp,
    Leaf,
    Pair,
    PeriodOccurrence,
    Word,
    WordCycle,
    _bracket,
    _depth_first,
    _first_power,
    _is_regular_letters,
    _least_rotation,
    _level_counts,
    _power_blockers,
    canonical_rotation,
    conjugate_classes,
    find_period_power,
    format_word,
    is_primitive,
    is_regular,
    find_pattern_instance,
    k_tail,
    lex_compare,
    lex_compare_letters,
    parse_word,
    pattern_occurs,
    shirshov_bracketing,
    strongly_comparable,
    subword_count_period,
    tails,
    zimin_word,
)

A2 = Alphabet(2)
A3 = Alphabet(3)


def letters_strategy(max_l=3, max_len=8):
    return st.integers(2, max_l).flatmap(
        lambda l: st.tuples(
            st.just(l), st.lists(st.integers(1, l), min_size=0, max_size=max_len)
        )
    )


class TestLexCompare:
    def test_prefix_of_self_is_incomparable(self):
        assert lex_compare(parse_word("ab"), parse_word("ab")) is Cmp.INCOMPARABLE

    def test_proper_prefix_is_incomparable(self):
        assert lex_compare(parse_word("ab", A3), parse_word("aba", A3)) is Cmp.INCOMPARABLE

    def test_first_letter_decides(self):
        assert lex_compare(parse_word("ba"), parse_word("ab")) is Cmp.GREATER

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            lex_compare(parse_word("ab", A2), parse_word("ab", A3))

    @given(letters_strategy(), letters_strategy())
    def test_trichotomy(self, uv, wv):
        l = max(uv[0], wv[0])
        u = Word(tuple(uv[1]), Alphabet(l))
        v = Word(tuple(wv[1]), Alphabet(l))
        cmp = lex_compare(u, v)
        prefix_pair = u.letters[: len(v)] == v.letters or v.letters[: len(u)] == u.letters
        assert (cmp is Cmp.INCOMPARABLE) == prefix_pair
        if cmp is Cmp.GREATER:
            assert lex_compare(v, u) is Cmp.LESS

    @given(st.lists(st.integers(1, 3), min_size=1, max_size=7), st.lists(st.integers(1, 3), min_size=1, max_size=7))
    def test_equal_length_distinct_always_comparable(self, a, b):
        if len(a) == len(b) and a != b:
            assert lex_compare_letters(tuple(a), tuple(b)) is not Cmp.INCOMPARABLE


class TestTails:
    def test_all_suffixes(self):
        assert [format_word(t) for t in tails(parse_word("abc"))] == ["abc", "bc", "c"]

    def test_k_tail_truncates(self):
        assert format_word(k_tail(parse_word("abc"), 1, 2)) == "ab"

    def test_k_tail_short_tail_returned_whole(self):
        assert format_word(k_tail(parse_word("abc"), 3, 5)) == "c"


class TestPeriodPower:
    def test_shortest_then_leftmost(self):
        occ = find_period_power(parse_word("ababab"), 3)
        assert (format_word(occ.period), occ.start) == ("ab", 1)

    def test_absent(self):
        assert find_period_power(parse_word("abc"), 2) is None

    def test_single_letter_wins(self):
        occ = find_period_power(parse_word("aabaab"), 2)
        assert (format_word(occ.period), occ.start) == ("a", 1)

    def test_root_is_primitive(self):
        occ = find_period_power(parse_word("abababab"), 2)
        assert is_primitive(occ.period)


def reference_find_period_power(w, d):
    """The least z**d occurrence by |z| and then start, as a PeriodOccurrence."""
    least = D.least_power(w.letters, d, shortest_first=True)
    if least is None:
        return None
    start, p = least
    return PeriodOccurrence(Word(w.letters[start : start + p], w.alphabet), start + 1, d)


# letters above 255 pack several bytes wide; these share and differ in single bytes
WIDE_LETTERS = (1, 2, 255, 256, 257, 263, 512, 519, 521, 65536, 65537, 65792)


class TestPeriodPowerEngine:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_exhaustive_against_reference(self, d):
        for l, max_len in ((2, 12), (3, 8)):
            alphabet = Alphabet(l)
            for n in range(max_len + 1):
                for ls in itertools.product(range(1, l + 1), repeat=n):
                    w = Word(ls, alphabet)
                    assert find_period_power(w, d) == reference_find_period_power(w, d), ls

    @given(st.lists(st.integers(1, 3), max_size=60), st.integers(2, 5))
    def test_long_words_against_reference(self, ls, d):
        w = Word(tuple(ls), Alphabet(3))
        assert find_period_power(w, d) == reference_find_period_power(w, d)

    @given(st.lists(st.sampled_from(WIDE_LETTERS), max_size=30), st.integers(2, 4))
    def test_wide_letters_against_reference(self, ls, d):
        w = Word(tuple(ls), Alphabet(max(WIDE_LETTERS)))
        assert find_period_power(w, d) == reference_find_period_power(w, d)

    def test_zero_bytes_across_letters_are_not_a_hit(self):
        # 263 = 01 07, 519 = 02 07, 521 = 02 09: at period 1 the low byte of
        # the second letter and the high byte of the third repeat, a zero pair
        # that straddles two letters
        assert _first_power((263, 519, 521), 2, leftmost=True) is None
        assert _first_power((263, 519, 521), 2, leftmost=False) is None

    def test_three_hundred_distinct_letters(self):
        alphabet = Alphabet(300)
        z = tuple(range(1, 301))
        assert find_period_power(Word(z, alphabet), 2) is None
        occ = find_period_power(Word((7,) + z * 2, alphabet), 2)
        assert (occ.period.letters, occ.start) == (z, 2)

    def test_leftmost_order_prefers_earlier_start(self):
        # the square of 'ab' starts before the square of 'b'
        ls = parse_word("ababb").letters
        assert _first_power(ls, 2, leftmost=False) == (3, 1)
        assert _first_power(ls, 2, leftmost=True) == (0, 2)


class TestUncheckedWords:
    """Words built without the letter check equal checked ones."""

    @staticmethod
    def assert_checked(u):
        assert type(u.letters) is tuple
        assert u == Word(u.letters, u.alphabet) and hash(u) == hash(Word(u.letters, u.alphabet))

    @given(
        letters_strategy(max_l=4, max_len=10),
        st.integers(-12, 12),
        st.integers(-12, 12),
        st.sampled_from((None, 1, 2, -1, -3)),
        st.integers(-1, 3),
    )
    def test_slices_sums_and_powers(self, lv, i, j, step, k):
        l, ls = lv
        w = Word(tuple(ls), Alphabet(l))
        for u in (w[i:j:step], w[i:], w + w, w[:j] + w[i:], w * k):
            self.assert_checked(u)

    def test_enumerations(self):
        for l in (1, 2, 3):
            for u in square_free_words(Alphabet(l), 8):
                self.assert_checked(u)

    @given(
        letters_strategy(max_l=4, max_len=12),
        st.lists(st.integers(1, 4), min_size=1, max_size=3),
        st.integers(8, 10),
        letters_strategy(max_l=4, max_len=12),
    )
    def test_fragments_residues_and_repetition_roots(self, head, z, e, tail):
        # a planted z**e with e >= 8 gives extract_periodic_fragments(_, 2) a cut
        l = max(head[0], tail[0], max(z))
        w = Word(tuple(head[1]) + tuple(z) * e + tuple(tail[1]), Alphabet(l))
        dec = extract_periodic_fragments(w, 2)
        assert dec.fragments
        built = [f.period for f in dec.fragments] + list(dec.residues) + [dec.reconstruct()]
        for hit in (has_square(w), has_cube(w)):
            built.append(hit.root)
        for d in (2, 3, 8):
            built.append(find_period_power(w, d).period)
        for u in built:
            assert u.alphabet == w.alphabet
            self.assert_checked(u)
        assert dec.reconstruct() == w

    def test_reconstruct_checks_letters_from_another_alphabet(self):
        # a hand-built decomposition whose fragment is over a larger alphabet
        dec = FragmentDecomposition(
            Word((1, 1), A2), 8, (Fragment(Word((3,), A3), 2, 1, 1),), (Word((), A2),)
        )
        with pytest.raises(ValueError, match="outside alphabet of size 2"):
            dec.reconstruct()

    @given(letters_strategy(max_l=4, max_len=12), st.integers(1, 12), st.integers(0, 6))
    def test_rotation_tail_pattern_and_cycle_sites(self, lv, start, k):
        l, ls = lv
        alphabet = Alphabet(l)
        w = Word(tuple(ls), alphabet)
        built = list(tails(w))
        if w.letters:
            start = min(start, len(w))
            built += [k_tail(w, start, k), canonical_rotation(w), WordCycle.of(w).representative]
            built += find_pattern_instance(w[start - 1 :], w).values()
            if is_primitive(w):
                built += [c.representative for c, _ in conjugate_classes(Word(r, alphabet) for r in D.rotations(w.letters))]
            try:
                built += [u for u in dilworth_tail_coloring(w, 100).snapshot(k, start) if u is not THETA]
            except IncomparableTailsError:
                pass
        wider = Alphabet(l + 1)
        m = Morphism(alphabet, wider, tuple(Word((x, x + 1), wider) for x in alphabet.letters()))
        built.append(apply(m, w))
        for u in built:
            self.assert_checked(u)

    @pytest.mark.parametrize("l,t", [(1, 1), (2, 4), (2, 5), (3, 3)])
    def test_coding_class_sites(self, l, t):
        alphabet = Alphabet(l)
        c = CodingClass(t, alphabet, primitive_cycle_classes(t, alphabet))
        built = [cyc.representative for cyc in c.cycles]
        for image in (pad_to_power_of_two(c, 3), *((recode_pairs(c),) if t % 2 == 0 else ())):
            built += [cyc.representative for cyc in image.cycles]
        for u in built:
            self.assert_checked(u)

    @pytest.mark.parametrize("ls", [(0,), (3,), (1, 2, 4), (-1, 1)])
    def test_public_constructor_still_checks(self, ls):
        with pytest.raises(ValueError, match="outside alphabet of size"):
            Word(ls, Alphabet(2 if len(ls) == 1 else 3))


class TestFactorCountPeriod:
    def test_few_factors_forces_period(self):
        assert subword_count_period(parse_word("ababab"), 2, 3) is True

    def test_many_factors(self):
        assert subword_count_period(parse_word("abcabc", A3), 2, 3) is False

    def test_single_factor(self):
        assert subword_count_period(parse_word("aaaa"), 2, 2) is True

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            subword_count_period(parse_word("abc"), 2, 2)

    @pytest.mark.parametrize("k,t", [(k, t) for k in range(1, 5) for t in range(1, 5)])
    def test_exhaustive_consequence(self, k, t):
        # every word with at most k distinct k-factors contains z**t, |z| <= k;
        # enumeration prunes as soon as the factor count exceeds k
        for l in (2, 3):
            alphabet = Alphabet(l)
            stack = [()]
            while stack:
                ls = stack.pop()
                if len(ls) == k * t:
                    subword_count_period(Word(ls, alphabet), k, t)  # internal assert
                    continue
                for x in range(1, l + 1):
                    cand = ls + (x,)
                    factors = {cand[i : i + k] for i in range(len(cand) - k + 1)}
                    if len(factors) <= k:
                        stack.append(cand)


def reference_strongly_comparable(u, v):
    """The pairwise comparison that the window test replaced."""
    for ru in D.rotations(u.letters):
        for rv in D.rotations(v.letters):
            if lex_compare_letters(ru, rv) is Cmp.INCOMPARABLE:
                return False
    return True


class TestPrimitivity:
    @pytest.mark.parametrize(
        "text,expected", [("abab", False), ("aba", True), ("aabaab", False), ("a", True)]
    )
    def test_examples(self, text, expected):
        assert is_primitive(parse_word(text)) is expected

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            is_primitive(Word((), A2))


class TestCycleKernel:
    """`_least_rotation` and its callers against the least of every rotation
    and the least rotation that gives the word back."""

    @staticmethod
    def assert_kernel(ls, l):
        start, root = _least_rotation(ls)
        least = D.least_rotation(ls)
        assert ls[start:] + ls[:start] == least and root == D.root_length(ls), ls
        w = Word(ls, Alphabet(l))
        assert canonical_rotation(w) == WordCycle.of(w).representative == Word(least, w.alphabet)
        assert WordCycle.of(w).period_length == root
        assert is_primitive(w) is (root == len(ls))

    @pytest.mark.parametrize("l,max_len", [(1, 10), (2, 12), (3, 8), (4, 6)])
    def test_every_short_word(self, l, max_len):
        for n in range(1, max_len + 1):
            for ls in itertools.product(range(1, l + 1), repeat=n):
                self.assert_kernel(ls, l)

    @given(
        st.integers(1, 4).flatmap(
            lambda l: st.tuples(st.just(l), st.lists(st.integers(1, l), min_size=1, max_size=80))
        )
    )
    def test_long_words(self, lv):
        l, ls = lv
        self.assert_kernel(tuple(ls), l)

    @given(
        st.lists(st.integers(1, 3), min_size=1, max_size=8),
        st.integers(1, 10),
        st.integers(0, 7),
    )
    def test_powers(self, z, e, r):
        ls = tuple(z) * e
        self.assert_kernel(ls[r % len(ls) :] + ls[: r % len(ls)], 3)

    def test_long_word(self):
        rng = random.Random(26)
        ls = tuple(rng.randint(1, 3) for _ in range(5000))
        start, root = _least_rotation(ls)
        assert ls[start:] + ls[:start] == D.least_rotation(ls) and root == 5000
        power = ls[:100] * 50
        start, root = _least_rotation(power)
        assert power[start:] + power[:start] == D.least_rotation(ls[:100]) * 50
        assert root == D.root_length(ls[:100])

    def test_empty_input_rejected(self):
        empty = Word((), A2)
        for call in (is_primitive, WordCycle.of, canonical_rotation, lambda w: conjugate_classes([w])):
            with pytest.raises(ValueError):
                call(empty)
        with pytest.raises(ValueError):
            _least_rotation(())


class TestStrongComparability:
    def test_distinct_letters(self):
        assert strongly_comparable(parse_word("ab", A3), parse_word("ac", A3)) is True

    def test_rotation_equality_fails(self):
        assert strongly_comparable(parse_word("ab"), parse_word("ba")) is False

    def test_prefix_pair_fails(self):
        assert strongly_comparable(parse_word("a", A2), parse_word("ab", A2)) is False

    def test_equals_nonconjugacy_for_primitive_equal_length(self):
        for length in (2, 3, 4):
            words = [Word(ls, A2) for ls in itertools.product(A2.letters(), repeat=length)]
            prim = [w for w in words if is_primitive(w)]
            for u, v in itertools.product(prim, prim):
                conj = canonical_rotation(u) == canonical_rotation(v)
                assert strongly_comparable(u, v) == (not conj)

    @pytest.mark.parametrize("l,max_len", [(1, 4), (2, 5), (3, 3)])
    def test_every_short_pair_against_reference(self, l, max_len):
        alphabet = Alphabet(l)
        ws = [Word(ls, alphabet) for n in range(max_len + 1) for ls in itertools.product(alphabet.letters(), repeat=n)]
        for u, v in itertools.product(ws, ws):
            assert strongly_comparable(u, v) is reference_strongly_comparable(u, v), (u, v)

    @given(
        st.integers(2, 3).flatmap(
            lambda l: st.tuples(
                st.just(l),
                st.lists(st.integers(1, l), max_size=40),
                st.lists(st.integers(1, l), max_size=40),
                st.integers(0, 80),
                st.booleans(),
            )
        )
    )
    def test_long_pairs_against_reference(self, data):
        # planting a rotation of u inside v's cycle makes both outcomes common
        l, us, vs, r, plant = data
        u = tuple(us)
        if plant and u:
            r %= len(u)
            vs = vs[: len(vs) // 2] + list(u[r:] + u[:r]) + vs[len(vs) // 2 :]
        u, v = Word(u, Alphabet(l)), Word(tuple(vs), Alphabet(l))
        assert strongly_comparable(u, v) is reference_strongly_comparable(u, v)
        assert strongly_comparable(v, u) is strongly_comparable(u, v)

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError, match="alphabet mismatch"):
            strongly_comparable(parse_word("ab", A2), parse_word("ab", A3))


class TestConjugateClasses:
    def test_rotations_merge(self):
        classes = conjugate_classes([parse_word("ab"), parse_word("ba")])
        assert len(classes) == 1
        assert format_word(classes[0][0].representative) == "ab"

    def test_distinct_classes(self):
        assert len(conjugate_classes([parse_word("ab", A3), parse_word("ac", A3)])) == 2

    def test_three_rotations(self):
        assert len(conjugate_classes([parse_word("abc"), parse_word("bca"), parse_word("cab")])) == 1

    def test_non_primitive_rejected(self):
        with pytest.raises(ValueError):
            conjugate_classes([parse_word("abab")])


def _brute_force_bracketings(ls):
    if len(ls) == 1:
        yield Leaf(ls[0])
        return
    for cut in range(1, len(ls)):
        for left in _brute_force_bracketings(ls[:cut]):
            for right in _brute_force_bracketings(ls[cut:]):
                yield Pair(left, right)


def _le_anti_lyndon(a, b):
    # total order of the greater-than-rotations convention: a proper prefix
    # is the larger word
    cmp = lex_compare_letters(a, b)
    if cmp is Cmp.LESS:
        return True
    if cmp is Cmp.GREATER:
        return False
    return len(a) >= len(b)


def concat_bracket(ls):
    """The stack pass carrying each factor's letters, testing uv > vu on both concatenations."""
    stack = []
    for x in reversed(ls):
        cur, cur_ls = Leaf(x), (x,)
        while stack and cur_ls + stack[-1][1] > stack[-1][1] + cur_ls:
            top, top_ls = stack.pop()
            cur, cur_ls = Pair(cur, top), cur_ls + top_ls
        stack.append((cur, cur_ls))
    assert len(stack) == 1
    return stack[0][0]


def fresh_tree(tree):
    """A copy of tree with a new Leaf for every leaf and a new Pair for every pair."""
    if isinstance(tree, Leaf):
        return Leaf(tree.letter)
    return Pair(fresh_tree(tree.left), fresh_tree(tree.right))


def _regular_nonassoc(tree):
    if isinstance(tree, Leaf):
        return True
    if not D.is_regular(tree.frontier()):
        return False
    if not (_regular_nonassoc(tree.left) and _regular_nonassoc(tree.right)):
        return False
    if isinstance(tree.left, Pair):
        return _le_anti_lyndon(tree.left.right.frontier(), tree.right.frontier())
    return True


def recursive_frontier(tree):
    """The letters of the leaves, one recursive call per node."""
    if isinstance(tree, Leaf):
        return (tree.letter,)
    return recursive_frontier(tree.left) + recursive_frontier(tree.right)


def recursive_render(tree, alphabet):
    """The bracketed text, one recursive call per node."""
    if isinstance(tree, Leaf):
        return f"[{alphabet.letter_str(tree.letter)}]"
    return f"[{recursive_render(tree.left, alphabet)}{recursive_render(tree.right, alphabet)}]"


class TestRegularAndBracketing:
    @pytest.mark.parametrize("text,expected", [("ba", True), ("ab", False), ("aa", False)])
    def test_is_regular(self, text, expected):
        assert is_regular(parse_word(text)) is expected

    def test_bracketing_examples(self):
        assert str(shirshov_bracketing(parse_word("ba"))) == "[[b][a]]"
        assert str(shirshov_bracketing(parse_word("b", A2))) == "[b]"
        assert str(shirshov_bracketing(parse_word("bba"))) == "[[b][[b][a]]]"

    def test_non_regular_rejected(self):
        with pytest.raises(ValueError):
            shirshov_bracketing(parse_word("ab"))

    @pytest.mark.parametrize("text", ["ab", "aa", "abab", "baba", "bab", "cacb"])
    def test_non_regular_rejected_by_name(self, text):
        # the stack pass decides regularity: more than one factor is left
        with pytest.raises(ValueError, match=f"word '{text}' is not regular"):
            shirshov_bracketing(parse_word(text))

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError, match="the empty word is not regular"):
            shirshov_bracketing(Word((), A2))

    @pytest.mark.parametrize("l", [2, 3])
    def test_unique_against_brute_force(self, l):
        alphabet = Alphabet(l)
        for n in range(1, 8):
            for ls in itertools.product(range(1, l + 1), repeat=n):
                if not D.is_regular(ls):
                    continue
                valid = [
                    b for b in _brute_force_bracketings(ls) if _regular_nonassoc(b)
                ]
                assert len(valid) == 1
                assert shirshov_bracketing(Word(ls, alphabet)).tree == valid[0]


class TestRegularKernels:
    """Duval's test against every rotation, and the stack bracketing
    against the cut at the longest regular suffix and against the pass
    that tests uv > vu on the letters themselves."""

    @staticmethod
    def assert_same_bracketing(ls):
        tree = _bracket(ls)
        assert tree == concat_bracket(ls) == D.bracket(ls), ls
        assert repr(tree) == repr(concat_bracket(ls)), ls

    @pytest.mark.parametrize("l,max_len", [(2, 12), (3, 8), (4, 6)])
    def test_every_short_word(self, l, max_len):
        regular = [0] * (max_len + 1)
        for n in range(1, max_len + 1):
            for ls in itertools.product(range(1, l + 1), repeat=n):
                expected = D.is_regular(ls)
                assert _is_regular_letters(ls) is expected, ls
                if expected:
                    regular[n] += 1
                    self.assert_same_bracketing(ls)
                else:
                    # the stack pass ends with more than one factor
                    assert _bracket(ls) is None, ls
        # regular words are the Lyndon words of the reversed order, so the
        # counts per length are OEIS A001037 (l = 2), A027376 (l = 3) and
        # A027377 (l = 4)
        assert sum(regular) == {2: 747, 3: 1318, 4: 964}[l]
        if l == 4:
            assert regular[1:] == [4, 6, 20, 60, 204, 670]

    @given(st.lists(st.integers(1, 3), min_size=1, max_size=80))
    def test_long_words(self, lv):
        ls = tuple(lv)
        assert _is_regular_letters(ls) is D.is_regular(ls) is (_bracket(ls) is not None)
        top = max(ls[i:] + ls[:i] for i in range(len(ls)))
        if D.is_regular(top):
            assert _is_regular_letters(top)
            assert _bracket(top) == D.bracket(top)

    @given(st.integers(2, 5).flatmap(lambda l: st.lists(st.integers(1, l), min_size=1, max_size=80)))
    def test_long_words_over_up_to_five_letters(self, lv):
        top = max(tuple(lv[i:] + lv[:i]) for i in range(len(lv)))
        if D.root_length(top) == len(top):
            self.assert_same_bracketing(top)

    def test_combs(self):
        # b a^k is a left comb; b^j a^k merges the a's into each b in turn
        for k in range(1, 80):
            self.assert_same_bracketing((2,) + (1,) * k)
        for k in (200, 500, 1000):
            ls = (2,) + (1,) * k
            assert repr(_bracket(ls)) == repr(concat_bracket(ls))
        for j in range(1, 25):
            for k in range(1, 25):
                self.assert_same_bracketing((2,) * j + (1,) * k)

    def test_merge_tests_read_linear_letters_on_combs(self):
        # the merge test reads its factors out of the word by their bounds,
        # never from copies: each of the k merges reads at least one letter
        # beyond the pass's one read per letter, and the pass with all its
        # tests reads at most 3 letters per letter of b a^k
        class CountedLetters(tuple):
            read = 0

            def __getitem__(self, item):
                got = tuple.__getitem__(self, item)
                CountedLetters.read += len(got) if isinstance(item, slice) else 1
                return got

        reads = {}
        for k in (1_000, 10_000):
            CountedLetters.read = 0
            tree = _bracket(CountedLetters((2,) + (1,) * k))
            reads[k] = CountedLetters.read
            assert 2 * k + 1 <= reads[k] <= 3 * (k + 1)
            assert repr(tree) == "Pair(left=" * k + "Leaf(letter=2)" + ", right=Leaf(letter=1))" * k
        assert reads[10_000] <= 10.01 * reads[1_000]

    def test_long_comb_renders(self):
        k = 20_000
        bracketed = shirshov_bracketing(Word((2,) + (1,) * k, A2))
        assert str(bracketed) == "[" * k + "[b]" + "[a]]" * k

    def test_shared_leaves_match_fresh_trees(self):
        alphabet = Alphabet(3)
        for n in range(1, 8):
            for ls in itertools.product((1, 2, 3), repeat=n):
                if not _is_regular_letters(ls):
                    continue
                tree = _bracket(ls)
                fresh = fresh_tree(tree)
                assert tree == fresh and fresh == tree and hash(tree) == hash(fresh)
                assert repr(tree) == repr(fresh)
                assert tree.render(alphabet) == fresh.render(alphabet)
                assert tree.frontier() == fresh.frontier() == ls
        # one Leaf object per letter of the alphabet
        tree = _bracket((3, 2, 3, 1, 2, 1))
        leaves = []
        stack = [tree]
        while stack:
            node = stack.pop()
            if type(node) is Pair:
                stack += (node.left, node.right)
            else:
                leaves.append(node)
        assert len(leaves) == 6 and len({id(x) for x in leaves}) == 3

    def test_pairs_stay_frozen(self):
        p = _bracket((2, 1))
        assert type(p) is Pair and p == Pair(Leaf(2), Leaf(1)) and repr(p) == repr(Pair(Leaf(2), Leaf(1)))
        with pytest.raises(AttributeError):
            p.left = Leaf(1)

    def test_bracketed_word_checks_its_tree(self):
        BracketedWord(Pair(Leaf(2), Leaf(1)), parse_word("ba"))
        for tree, text in (
            (Pair(Leaf(2), Leaf(1)), "ab"),
            (Pair(Leaf(2), Leaf(1)), "baa"),
            (Pair(Pair(Leaf(2), Leaf(1)), Leaf(1)), "ba"),
            (Leaf(2), "a"),
        ):
            with pytest.raises(ValueError, match="does not spell the word"):
                BracketedWord(tree, parse_word(text, A2))

    @pytest.mark.parametrize("l,max_len", [(2, 12), (3, 8)])
    def test_frontier_and_render_against_recursion(self, l, max_len):
        alphabet = Alphabet(l)
        for n in range(1, max_len + 1):
            for ls in itertools.product(range(1, l + 1), repeat=n):
                if _is_regular_letters(ls):
                    tree = _bracket(ls)
                    assert tree.frontier() == recursive_frontier(tree) == ls
                    assert tree.render(alphabet) == recursive_render(tree, alphabet)

    def test_bracketing_deeper_than_the_recursion_limit(self):
        # b a^1200 is a left comb 1,200 pairs deep
        w = Word((2,) + (1,) * 1200, A2)
        bracketed = shirshov_bracketing(w)
        assert bracketed.tree.frontier() == w.letters
        assert str(bracketed) == "[" * 1200 + "[b]" + "[a]]" * 1200

    def test_deep_trees_compare_and_hash(self):
        # 1,200-deep combs: equality and hash walk an explicit stack
        def comb(bottom, leaves, left=True):
            tree = bottom
            for x in leaves:
                tree = Pair(tree, Leaf(x)) if left else Pair(Leaf(x), tree)
            return tree

        tree = shirshov_bracketing(Word((2,) + (1,) * 1200, A2)).tree
        same = comb(Leaf(2), (1,) * 1200)
        assert tree is not same and tree == same and hash(tree) == hash(same)
        assert {tree: 1}[same] == 1
        # the deepest leaf differs; one leaf fewer; the same letters in another shape
        assert tree != comb(Leaf(1), (1,) * 1200)
        assert tree != comb(Leaf(2), (1,) * 1199)
        other = Pair(Leaf(2), comb(Leaf(1), (1,) * 1199, left=False))
        assert other.frontier() == tree.frontier() and tree != other
        assert tree != Leaf(2) and Leaf(2) != tree

    def test_repr_matches_the_generated_repr(self):
        # the dataclass repr, one recursive call per node, on every
        # bracketing of words up to 5 letters
        def generated(tree):
            if isinstance(tree, Leaf):
                return repr(tree)
            return f"Pair(left={generated(tree.left)}, right={generated(tree.right)})"

        for length in range(2, 6):
            for ls in itertools.product((1, 2, 3), repeat=length):
                for tree in _brute_force_bracketings(ls):
                    assert repr(tree) == generated(tree)
        bracketed = shirshov_bracketing(parse_word("bbabaa"))
        assert repr(bracketed) == f"BracketedWord(tree={generated(bracketed.tree)}, word={bracketed.word!r})"

    def test_repr_deeper_than_the_recursion_limit(self):
        tree = shirshov_bracketing(Word((2,) + (1,) * 1200, A2)).tree
        assert repr(tree) == "Pair(left=" * 1200 + "Leaf(letter=2)" + ", right=Leaf(letter=1))" * 1200

    def test_long_regular_word(self):
        # b a^k: the stack merges one letter at a time into a left comb
        ls = (2,) + (1,) * 500
        tree = shirshov_bracketing(Word(ls, A2)).tree
        for _ in range(500):
            assert tree.right == Leaf(1)
            tree = tree.left
        assert tree == Leaf(2)


# Avoidability of every pattern on <= 3 letters up to length 4, decided by
# occurrence inside the nesting words; squares and their extensions are the
# avoidable ones.
PATTERN_TABLE = {
    "x": True,
    "xx": False,
    "xy": True,
    "xxx": False,
    "xxy": False,
    "xyx": True,
    "xyy": False,
    "xyz": True,
    "xxxx": False,
    "xxxy": False,
    "xxyx": False,
    "xxyy": False,
    "xxyz": False,
    "xyxx": False,
    "xyxy": False,
    "xyxz": True,
    "xyyx": False,
    "xyyy": False,
    "xyyz": False,
    "xyzx": True,
    "xyzy": True,
    "xyzz": False,
}


def recursive_preorder(node, tree, max_len):
    """(node, subtree) below node in preorder, one Python frame per level."""
    out = []
    if len(node) < max_len:
        for i, sub in enumerate(tree):
            out.append((node + (i,), sub))
            out += recursive_preorder(node + (i,), sub, max_len)
    return out


def subtrees(node, tree):
    # a tree is the list of its subtrees; a child's state is its subtree
    return ((node + (i,), sub) for i, sub in enumerate(tree))


class TestDepthFirst:
    def test_asks_for_a_child_only_after_the_previous_subtree(self):
        log = []

        def children(node, depth):
            log.append(("open", node))
            for x in (1, 2):
                log.append(("ask", node + (x,)))
                yield node + (x,), depth + 1

        for node, depth in _depth_first(children, ((), 0), 2):
            assert depth == len(node)
            log.append(("visit", node))
        assert log == [
            ("open", ()),
            ("ask", (1,)), ("visit", (1,)), ("open", (1,)),
            ("ask", (1, 1)), ("visit", (1, 1)),
            ("ask", (1, 2)), ("visit", (1, 2)),
            ("ask", (2,)), ("visit", (2,)), ("open", (2,)),
            ("ask", (2, 1)), ("visit", (2, 1)),
            ("ask", (2, 2)), ("visit", (2, 2)),
        ]

    @pytest.mark.parametrize("max_len", [0, -1])
    def test_no_positive_length_yields_nothing(self, max_len):
        calls = []

        def children(node, state):
            calls.append(node)
            yield node + (1,), state

        assert list(_depth_first(children, ((), None), max_len)) == []
        assert calls == []

    def test_deep_unary_chain(self):
        def children(node, state):
            yield node + (1,), state + 1

        last = None
        for last in _depth_first(children, ((), 0), 5_000):
            pass
        assert len(last[0]) == last[1] == 5_000

    @given(
        st.recursive(st.just([]), lambda kids: st.lists(kids, max_size=3), max_leaves=25),
        st.integers(0, 2),
        st.integers(-1, 6),
    )
    def test_against_recursive_preorder(self, tree, root_len, max_len):
        # the walk counts levels below its root: max_len - root_len of them
        root = (7,) * root_len
        got = list(_depth_first(subtrees, (root, tree), max_len - root_len))
        assert got == recursive_preorder(root, tree, max_len)

    def test_nodes_are_opaque(self):
        # integer nodes: the walk counts levels and never takes a length
        def children(node, state):
            for x in (1, 2):
                yield 2 * node + x, state + 1

        assert list(_depth_first(children, (0, 0), 2)) == [(1, 1), (3, 2), (4, 2), (2, 1), (5, 2), (6, 2)]


@st.composite
def successor_tables(draw):
    """A root state and a table with each state's child per branch, None
    for a cut branch; the branches of one table are equally many."""
    size = draw(st.integers(1, 6))
    branches = draw(st.integers(0, 3))
    child = st.none() | st.integers(0, size - 1)
    row = st.lists(child, min_size=branches, max_size=branches)
    return draw(st.integers(0, size - 1)), draw(st.lists(row, min_size=size, max_size=size))


class TestLevelCounts:
    @given(successor_tables(), st.integers(0, 6))
    def test_against_the_walker_on_one_table(self, table, depth):
        root, succ = table

        def children(level, s):
            for t in succ[s]:
                if t is not None:
                    yield level + 1, t

        nodes = [1] + [0] * depth
        for level, _ in _depth_first(children, (0, root), depth):
            nodes[level] += 1
        assert _level_counts(succ.__getitem__, root, depth) == nodes

    def test_each_state_is_expanded_once_a_level(self):
        # the free binary tree as one state: 2**60 nodes at level 60
        calls = []

        def children(state):
            calls.append(state)
            return (state, None, state)

        assert _level_counts(children, "s", 60) == [2**k for k in range(61)]
        assert len(calls) == 60


class TestZiminAndPatterns:
    def test_against_recursive_reference_seeded(self):
        rng = random.Random(2700)
        found = 0
        for _ in range(2500):
            pat = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 6)))
            l = rng.randint(1, 3)
            if rng.random() < 0.5:
                # a host around an instance of the pattern, so that many pairs match
                images = {x: tuple(rng.randint(1, l) for _ in range(rng.randint(1, 3))) for x in set(pat)}
                core = tuple(y for x in pat for y in images[x])
                host = tuple(rng.randint(1, l) for _ in range(rng.randint(0, 3))) + core
            else:
                host = tuple(rng.randint(1, l) for _ in range(rng.randint(0, 10)))
            pattern, hw = Word(pat, Alphabet(max(pat))), Word(host, Alphabet(l))
            got = find_pattern_instance(pattern, hw)
            assert got == D.least_pattern_instance(pattern, hw), (pat, host)
            assert got is None or list(got) == list(dict.fromkeys(pat)), (pat, host)
            found += got is not None
        assert found > 1000 and 2500 - found > 300  # both outcomes well represented

    @pytest.mark.parametrize("n", [10, 12])
    def test_long_zimin_pattern_in_itself(self, n):
        # 1,023 and 4,095 pattern letters, one walk level each
        assert pattern_occurs(zimin_word(n), zimin_word(n)) is True

    def test_long_zimin_pattern_memory(self):
        # a node is (pattern letters placed, host position), so the 4,095
        # levels hold O(depth) memory; end tuples per node took about 69 MB
        z = zimin_word(12)
        tracemalloc.start()
        try:
            assert pattern_occurs(z, z) is True
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10_000_000, peak

    def test_recursion(self):
        assert format_word(zimin_word(1)) == "a"
        assert format_word(zimin_word(2)) == "aba"
        z3 = zimin_word(3)
        assert format_word(z3) == "abacaba" and len(z3) == 2**3 - 1

    def test_alphabet_too_small(self):
        with pytest.raises(ValueError):
            zimin_word(3, Alphabet(2))

    def test_pattern_examples(self):
        assert pattern_occurs(parse_word("aa", Alphabet(1)), parse_word("abab")) is True
        assert pattern_occurs(parse_word("aa", Alphabet(1)), parse_word("abc")) is False
        assert pattern_occurs(parse_word("aba", A2), zimin_word(2)) is True

    @pytest.mark.parametrize("name,unavoidable", sorted(PATTERN_TABLE.items()))
    def test_occurrence_in_nesting_word(self, name, unavoidable):
        letters = tuple("xyz".index(ch) + 1 for ch in name)
        n = max(letters)
        pattern = Word(letters, Alphabet(n))
        assert pattern_occurs(pattern, zimin_word(n)) is unavoidable


class TestTextFormat:
    @given(letters_strategy(max_l=3, max_len=9))
    def test_round_trip_letters(self, lv):
        w = Word(tuple(lv[1]), Alphabet(lv[0]))
        assert parse_word(format_word(w), w.alphabet) == w

    def test_integer_format(self):
        a30 = Alphabet(30)
        w = Word((1, 27, 5), a30)
        assert format_word(w) == "i:1,27,5"
        assert parse_word("i:1,27,5", a30) == w

    @pytest.mark.parametrize("text", ["i:1,x", "i:1,,2", "i:,", "i:x", "i:1.5"])
    def test_bad_index_names_the_form(self, text):
        with pytest.raises(ValueError) as info:
            parse_word(text)
        assert str(info.value) == f"word text {text!r} is not of the form i:1,2,3 (integer letter indices)"

    @pytest.mark.parametrize("text, bad", [("i:0", 0), ("i:-1", -1), ("i:0,0", 0), ("i:2,-3,0", -3)])
    def test_index_below_one_is_named(self, text, bad):
        # the same message whether the alphabet is given or sized from the largest index
        for alphabet in (None, Alphabet(3)):
            with pytest.raises(ValueError) as info:
                parse_word(text, alphabet)
            assert str(info.value) == f"word text {text!r} has letter index {bad}; letter indices start at 1"


class TestTailComparability:
    @pytest.mark.parametrize("l,d", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_power_free_words_have_comparable_tails(self, l, d):
        # words without z**d: the first floor(|w|/d) tails must be pairwise
        # comparable; enumeration prunes at the first power suffix
        alphabet = Alphabet(l)
        max_len = 12
        stack = [(x,) for x in range(1, l + 1)]
        while stack:
            ls = stack.pop()
            limit = len(ls) // d
            suffixes = [ls[i:] for i in range(limit)]
            for a, b in itertools.combinations(suffixes, 2):
                assert lex_compare_letters(a, b) is not Cmp.INCOMPARABLE, (ls, d)
            if len(ls) == max_len:
                continue
            for x in range(1, l + 1):
                cand = ls + (x,)
                if not D.ends_with_power(cand, d):
                    stack.append(cand)


class TestPowerSuffix:
    """`words._power_blockers` against every power that ends a child."""

    @staticmethod
    def blocked(ls, e, l):
        return {x for x in range(1, l + 1) if D.ends_with_power(ls + (x,), e)}

    @pytest.mark.parametrize("e", [2, 3, 4])
    def test_all_short_words(self, e):
        for l, max_len in ((2, 12), (3, 8)):
            for n in range(max_len + 1):
                for ls in itertools.product(range(1, l + 1), repeat=n):
                    assert _power_blockers(ls, e) == self.blocked(ls, e, l), (ls, e)

    @given(st.lists(st.integers(1, 2), max_size=60), st.integers(2, 4))
    def test_random_words(self, lv, e):
        ls = tuple(lv)
        assert _power_blockers(ls, e) == self.blocked(ls, e, 2)
