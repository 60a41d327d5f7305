import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from wordlab.growth import (
    GrowthClass,
    MonomialAlgebraSpec,
    classify_growth,
    complexity_function,
    count_words,
    count_words_direct,
    format_algebra_spec,
    gk_dimension_estimate,
    growth_function,
    is_balanced,
    mechanical_word,
    parse_algebra_spec,
    subword_graph,
)
from wordlab.morphisms import fibonacci_morphism, iterate
from wordlab.words import Alphabet, Word, word

A2 = Alphabet(2)
A3 = Alphabet(3)

FREE = MonomialAlgebraSpec.of(A2, [])
NO_BA = MonomialAlgebraSpec.of(A2, [word("ba")])
ALTERNATING = MonomialAlgebraSpec.of(A2, [word("aa"), word("bb")])


class TestGrowthFunction:
    @pytest.mark.parametrize("n", range(0, 13))
    def test_free_algebra(self, n):
        assert growth_function(FREE, n)[n] == 2 ** (n + 1) - 1

    @pytest.mark.parametrize("n", range(0, 13))
    def test_staircase(self, n):
        assert growth_function(NO_BA, n)[n] == (n + 1) * (n + 2) // 2

    @pytest.mark.parametrize("n", range(0, 13))
    def test_alternating(self, n):
        assert growth_function(ALTERNATING, n)[n] == 2 * n + 1

    def test_transfer_matches_direct_enumeration(self):
        specs = [
            FREE,
            NO_BA,
            ALTERNATING,
            MonomialAlgebraSpec.of(A2, [word("aba")]),
            MonomialAlgebraSpec.of(A3, [word("ab", A3), word("ca", A3)]),
            MonomialAlgebraSpec.of(A3, [word("abc", A3), word("bb", A3)]),
        ]
        for spec in specs:
            assert count_words(spec, 12) == count_words_direct(spec, 12)

    def test_cap(self):
        with pytest.raises(ValueError):
            growth_function(FREE, 50_000)


class TestClassification:
    def test_free_is_exponential(self):
        assert classify_growth(FREE) == GrowthClass("exponential", None)

    def test_staircase_quadratic(self):
        assert classify_growth(NO_BA) == GrowthClass("polynomial", 2)

    def test_single_loop_linear(self):
        spec = MonomialAlgebraSpec.of(A2, [word("aa"), word("ab"), word("ba")])
        assert classify_growth(spec) == GrowthClass("polynomial", 1)

    def test_alternating_linear(self):
        assert classify_growth(ALTERNATING) == GrowthClass("polynomial", 1)

    def test_nilpotent_constant(self):
        spec = MonomialAlgebraSpec.of(
            A2, [word("aa"), word("ab"), word("ba"), word("bb")]
        )
        assert classify_growth(spec) == GrowthClass("polynomial", 0)

    def test_degree_matches_estimate(self):
        for spec, degree in ((NO_BA, 2), (ALTERNATING, 1)):
            est = gk_dimension_estimate(spec, 200)
            assert abs(float(est) - degree) < 0.35

    def test_exponential_estimate_grows(self):
        assert float(gk_dimension_estimate(FREE, 64)) > 10


class TestSubwordGraph:
    def test_window_is_longest_forbidden_minus_one(self):
        assert subword_graph(NO_BA).window == 1
        assert subword_graph(MonomialAlgebraSpec.of(A2, [word("aba")])).window == 2
        assert subword_graph(FREE).window == 1

    def test_vertices_and_edges_avoid_forbidden(self):
        g = subword_graph(MonomialAlgebraSpec.of(A2, [word("aba")]))
        assert (1, 2, 1) not in {v for v in g.vertices}
        for a, b in g.edges:
            merged = g.vertices[a] + g.vertices[b][-1:]
            assert merged != (1, 2, 1)

    def test_reduction_drops_redundant_words(self):
        spec = MonomialAlgebraSpec.of(A2, [word("ab"), word("aab")])
        assert [str(f) for f in spec.forbidden] == ["ab"]


def reference_is_balanced(w):
    """The O(n**3) check the prefix-sum pass replaced: recount every factor."""
    ls = w.letters
    for k in range(1, len(ls) + 1):
        counts = {sum(1 for x in ls[i : i + k] if x == 2) for i in range(len(ls) - k + 1)}
        if max(counts) - min(counts) > 1:
            return False
    return True


def prefix_sum_is_balanced(w):
    """The O(n**2) check the palindromic tree replaced: one prefix-sum pass
    per factor length, for inputs too long for `reference_is_balanced`."""
    prefix = [0, *itertools.accumulate(x == 2 for x in w.letters)]
    for k in range(1, len(w) + 1):
        counts = [b - a for a, b in zip(prefix, prefix[k:])]
        if max(counts) - min(counts) > 1:
            return False
    return True


def reference_complexity_function(w, n):
    """The set-of-slices count the window sort replaced."""
    ls = w.letters
    return [len({ls[i : i + k] for i in range(len(ls) - k + 1)}) for k in range(1, n + 1)]


def _flip(w, i):
    ls = list(w.letters)
    ls[i] = 3 - ls[i]
    return Word(tuple(ls), A2)


class TestComplexity:
    def test_fibonacci_prefix(self):
        fib = iterate(fibonacci_morphism(), "a", 10)
        assert complexity_function(fib, 15) == list(range(2, 17))

    def test_periodic(self):
        assert complexity_function(word("ababab"), 5) == [2, 2, 2, 2, 2]

    def test_balance(self):
        assert is_balanced(word("aabb")) is False
        assert is_balanced(iterate(fibonacci_morphism(), "a", 9)) is True

    def test_balance_against_reference(self):
        for n in range(13):
            for ls in itertools.product((1, 2), repeat=n):
                w = Word(ls, A2)
                assert is_balanced(w) == reference_is_balanced(w), ls
        for alpha in (Fraction(89, 144), Fraction(1, 3), Fraction(2, 5), Fraction(7, 10)):
            for rho in (Fraction(0), Fraction(1, 2)):
                w = mechanical_word(alpha, rho, 60)
                assert is_balanced(w) == reference_is_balanced(w)
        fib = iterate(fibonacci_morphism(), "a", 9)
        for end in range(0, len(fib), 5):
            unbalanced = fib[0:end] + word("bb")
            assert is_balanced(unbalanced) == reference_is_balanced(unbalanced)

    def test_balance_against_prefix_sums(self):
        for n in range(15):
            for ls in itertools.product((1, 2), repeat=n):
                w = Word(ls, A2)
                assert is_balanced(w) == prefix_sum_is_balanced(w), ls
        assert is_balanced(Word((1,), Alphabet(1))) and is_balanced(Word((1, 1, 1), Alphabet(1)))
        assert is_balanced(Word((1,), A2)) and is_balanced(Word((2,), A2))
        rng = random.Random(13)
        unbalanced = 0
        for _ in range(400):
            b = rng.randint(1, 60)
            alpha = Fraction(rng.randint(0, b), b)
            w = mechanical_word(alpha, Fraction(rng.randint(0, 7), 8), rng.randint(1, 300))
            assert is_balanced(w) and prefix_sum_is_balanced(w)
            flipped = _flip(w, rng.randrange(len(w)))
            assert is_balanced(flipped) == prefix_sum_is_balanced(flipped), (w, flipped)
            unbalanced += not is_balanced(flipped)
        assert unbalanced > 200  # the flips do exercise the False answer

    def test_balance_rejects_three_letters(self):
        with pytest.raises(ValueError):
            is_balanced(word("abc"))

    def test_complexity_all_short_binary_words(self):
        for length in range(13):
            for ls in itertools.product((1, 2), repeat=length):
                w = Word(ls, A2)
                ref = reference_complexity_function(w, 14)
                for n in range(15):
                    assert complexity_function(w, n) == ref[:n], (ls, n)

    def test_complexity_edge_lengths(self):
        w = word("abaababaab")
        assert complexity_function(w, 0) == [] == complexity_function(w, -3)
        assert complexity_function(Word((), A2), 3) == [0, 0, 0]
        assert complexity_function(w, 13) == reference_complexity_function(w, 13)
        assert complexity_function(w, 13)[10:] == [0, 0, 0]
        assert complexity_function(word("aaaa"), 6) == [1, 1, 1, 1, 0, 0]

    @pytest.mark.parametrize("size", [255, 256, 300, 70_000])
    def test_complexity_wide_letters(self, size):
        # letters above 255 pack into two or three bytes
        rng = random.Random(size)
        alphabet = Alphabet(size)
        pool = [1, 2, size - 1, size] + [rng.randint(1, size) for _ in range(4)]
        w = Word(tuple(rng.choice(pool) for _ in range(120)), alphabet)
        for n in (1, 2, 5, 40, 120, 123):
            assert complexity_function(w, n) == reference_complexity_function(w, n)

    @given(
        st.integers(1, 5).flatmap(
            lambda l: st.lists(st.integers(1, l), max_size=60).map(lambda ls: (l, ls))
        ),
        st.integers(-2, 65),
    )
    def test_complexity_random_words(self, lw, n):
        w = Word(tuple(lw[1]), Alphabet(lw[0]))
        assert complexity_function(w, n) == reference_complexity_function(w, n)

    def test_mechanical_word_sturmian_shape(self):
        w = mechanical_word(Fraction(89, 144), Fraction(0), 120)
        assert is_balanced(w)
        p = complexity_function(w, 12)
        assert all(p[k - 1] == k + 1 for k in range(1, 12))

    def test_mechanical_complexity_below_denominator(self):
        # slope a/b in lowest terms: the prefix behaves like an aperiodic
        # balanced word for factor lengths below b - 1
        w = mechanical_word(Fraction(21, 34), Fraction(0), 220)
        p = complexity_function(w, 32)
        assert all(p[n - 1] == n + 1 for n in range(1, 33))
        assert is_balanced(w)

    def test_mechanical_rational_slope_small_denominator(self):
        w = mechanical_word(Fraction(1, 3), Fraction(0), 30)
        # rational slope: eventually periodic, complexity stalls at the period
        assert complexity_function(w, 6)[-1] <= 3

    def test_slope_domain(self):
        with pytest.raises(ValueError):
            mechanical_word(Fraction(3, 2), Fraction(0), 5)

    def test_mechanical_word_against_fraction_floors(self):
        def reference(alpha, rho, length):
            floors = [(alpha * i + rho).__floor__() for i in range(length + 1)]
            return tuple(1 + hi - lo for lo, hi in zip(floors, floors[1:]))

        rng = random.Random(144)
        for _ in range(2000):
            b = rng.randint(1, 60)
            alpha = Fraction(rng.randint(0, b), b)
            rho = Fraction(rng.randint(-40, 40), rng.randint(1, 30))
            length = rng.randint(0, 60)
            assert mechanical_word(alpha, rho, length).letters == reference(alpha, rho, length)
        w = mechanical_word(Fraction(89, 144), Fraction(0), 20000)
        assert w.letters == reference(Fraction(89, 144), Fraction(0), 20000)


class TestSpecFile:
    def test_round_trip(self):
        text = format_algebra_spec(NO_BA)
        assert format_algebra_spec(parse_algebra_spec(text)) == text

    def test_parse(self):
        spec = parse_algebra_spec("2\nba\n")
        assert spec.alphabet.size == 2
        assert [str(w) for w in spec.forbidden] == ["ba"]
