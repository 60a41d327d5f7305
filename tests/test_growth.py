import itertools
from fractions import Fraction

import pytest

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


class TestSpecFile:
    def test_round_trip(self):
        text = format_algebra_spec(NO_BA)
        assert format_algebra_spec(parse_algebra_spec(text)) == text

    def test_parse(self):
        spec = parse_algebra_spec("2\nba\n")
        assert spec.alphabet.size == 2
        assert [str(w) for w in spec.forbidden] == ["ba"]
