import itertools
import random
import time
from fractions import Fraction

import definitions as D
import pytest
from hypothesis import given, strategies as st

from wordlab.growth import (
    GrowthClass,
    MonomialAlgebraSpec,
    SubwordGraph,
    _automaton,
    classify_growth,
    complexity_function,
    count_words,
    count_words_direct,
    gk_dimension_estimate,
    growth_function,
    is_balanced,
    mechanical_word,
    parse_algebra_spec,
    subword_graph,
)
from wordlab.morphisms import fibonacci_morphism, iterate
from wordlab.words import Alphabet, Word, _is_factor, parse_word

A2 = Alphabet(2)
A3 = Alphabet(3)

FREE = MonomialAlgebraSpec.of(A2, [])
NO_BA = MonomialAlgebraSpec.of(A2, [parse_word("ba")])
ALTERNATING = MonomialAlgebraSpec.of(A2, [parse_word("aa"), parse_word("bb")])


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
            MonomialAlgebraSpec.of(A2, [parse_word("aba")]),
            MonomialAlgebraSpec.of(A3, [parse_word("ab", A3), parse_word("ca", A3)]),
            MonomialAlgebraSpec.of(A3, [parse_word("abc", A3), parse_word("bb", A3)]),
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
        spec = MonomialAlgebraSpec.of(A2, [parse_word("aa"), parse_word("ab"), parse_word("ba")])
        assert classify_growth(spec) == GrowthClass("polynomial", 1)

    def test_alternating_linear(self):
        assert classify_growth(ALTERNATING) == GrowthClass("polynomial", 1)

    def test_nilpotent_constant(self):
        spec = MonomialAlgebraSpec.of(
            A2, [parse_word("aa"), parse_word("ab"), parse_word("ba"), parse_word("bb")]
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
        assert subword_graph(MonomialAlgebraSpec.of(A2, [parse_word("aba")])).window == 2
        assert subword_graph(FREE).window == 1

    def test_vertices_and_edges_avoid_forbidden(self):
        g = subword_graph(MonomialAlgebraSpec.of(A2, [parse_word("aba")]))
        assert (1, 2, 1) not in {v for v in g.vertices}
        for a, b in g.edges:
            merged = g.vertices[a] + g.vertices[b][-1:]
            assert merged != (1, 2, 1)

    def test_reduction_drops_redundant_words(self):
        spec = MonomialAlgebraSpec.of(A2, [parse_word("ab"), parse_word("aab")])
        assert [str(f) for f in spec.forbidden] == ["ab"]


def reference_subword_graph(spec):
    """The window filter the automaton replaced: every l**m window tested for each forbidden factor."""

    def allows(ls):
        return not any(_is_factor(f.letters, ls) for f in spec.forbidden)

    m = max(max((len(f) for f in spec.forbidden), default=2) - 1, 1)
    verts = [
        ls
        for ls in itertools.product(spec.alphabet.letters(), repeat=m)
        if allows(ls)
    ]
    index = {ls: i for i, ls in enumerate(verts)}
    edges = []
    for ls in verts:
        for x in spec.alphabet.letters():
            merged = ls + (x,)
            if allows(merged):
                edges.append((index[ls], index[merged[1:]]))
    return SubwordGraph(m, tuple(verts), tuple(edges))


def _spec(forbidden, alphabet=A2):
    return MonomialAlgebraSpec.of(alphabet, [parse_word(f, alphabet) for f in forbidden])


def _binary_specs():
    short = ["".join(t) for k in range(1, 5) for t in itertools.product("ab", repeat=k)]
    sets = itertools.chain(((f,) for f in short), itertools.combinations(short, 2))
    return sorted({_spec(fs) for fs in sets}, key=lambda spec: [f.letters for f in spec.forbidden])


def _ternary_specs():
    rng = random.Random(22)
    two = ["".join(t) for t in itertools.product("abc", repeat=2)]
    specs = []
    for _ in range(12):
        forbidden = rng.sample(two, 3) + ["".join(rng.choices("abc", k=3))]
        specs.append(_spec(forbidden, A3))
    return specs


# the forbidden sets of the benchmark's census workload
CENSUS_SPECS = (
    ("ba",), ("ab",), ("aa", "bb"), ("aba", "bab"), ("aab",), ("aaab", "bb"),
    ("aaaaab", "bb"), ("aaaaaaab", "bb"), ("aaaaaaaaab", "bb"), ("ab", "bc", "ca"),
    ("abc", "cba"),
)

SPEC_FAMILIES = {
    "binary-one-or-two-words-up-to-4": _binary_specs,
    "ternary-seeded": _ternary_specs,
    "empty": lambda: [FREE],
    "every-letter": lambda: [_spec(["a", "b"]), _spec(["a", "b", "c"], A3)],
    "one-letter": lambda: [
        MonomialAlgebraSpec.of(Alphabet(1), []),
        _spec(["a"], Alphabet(1)),
        _spec(["aaa"], Alphabet(1)),
    ],
    "census": lambda: [
        _spec(fs, A3 if any("c" in f for f in fs) else A2) for fs in CENSUS_SPECS
    ],
    "abbabaababba": lambda: [_spec(["abbabaababba"])],
    # unreduced: a forbidden word inside another keeps a terminal state with children
    "unreduced": lambda: [
        MonomialAlgebraSpec(A2, (parse_word("ab"), parse_word("aab"))),
        MonomialAlgebraSpec(A3, (parse_word("bcb", A3), parse_word("c", A3), parse_word("abca", A3))),
    ],
}


def guibas_odlyzko_counts(w, size, n):
    """Words over `size` letters avoiding the one factor w, lengths 0..n.

    Their generating function is c(z) / (z**k + (1 - size*z) c(z)), where
    k = |w| and c(z), the autocorrelation polynomial, has z**i for every
    period i of w, i = 0 included (Guibas and Odlyzko 1981).
    """
    k = len(w)
    c = [1 if w[i:] == w[: k - i] else 0 for i in range(k)]
    den = [0] * (k + 1)
    for i, ci in enumerate(c):
        den[i] += ci
        den[i + 1] -= size * ci
    den[k] += 1
    counts = []
    for m in range(n + 1):
        v = c[m] if m < k else 0
        v -= sum(den[j] * counts[m - j] for j in range(1, min(m, k) + 1))
        counts.append(v)
    return counts


def vector_count_words(spec, n):
    """The transfer the level counter replaced: one list entry per
    automaton state, holding the words that end in it, stepped over the
    live successors of every state."""
    succ = _automaton(spec)
    live = [[t for t in row if t is not None] for row in succ]
    vec = [1] + [0] * (len(succ) - 1)
    counts = [1]
    for _ in range(n):
        nxt = [0] * len(succ)
        for v, targets in zip(vec, live):
            if v:
                for t in targets:
                    nxt[t] += v
        vec = nxt
        counts.append(sum(vec))
    return counts


class TestAutomaton:
    @pytest.mark.parametrize("family", sorted(SPEC_FAMILIES))
    def test_against_window_filter_and_enumeration(self, family):
        for spec in SPEC_FAMILIES[family]():
            assert subword_graph(spec) == reference_subword_graph(spec), spec
            assert count_words(spec, 12) == count_words_direct(spec, 12), spec

    @pytest.mark.parametrize("family", sorted(SPEC_FAMILIES))
    def test_level_counts_against_the_replaced_vector(self, family):
        for spec in SPEC_FAMILIES[family]():
            assert count_words(spec, 60) == vector_count_words(spec, 60), spec

    def test_successor_table_cuts_exactly_the_forbidden_suffixes(self):
        # reading a word through the table, the step on x is None exactly
        # when the word plus x ends with a forbidden word
        for family in ("census", "ternary-seeded", "unreduced"):
            for spec in SPEC_FAMILIES[family]():
                succ = _automaton(spec)
                forbidden = [f.letters for f in spec.forbidden]
                frontier = [((), 0)]
                for _ in range(6):
                    grown = []
                    for ls, s in frontier:
                        for x, t in zip(spec.alphabet.letters(), succ[s]):
                            cand = ls + (x,)
                            assert (t is None) == any(cand[-len(f) :] == f for f in forbidden), (spec, cand)
                            if t is not None:
                                grown.append((cand, t))
                    frontier = grown

    def test_oracle_against_enumeration(self):
        rng = random.Random(1981)
        for _ in range(60):
            size = rng.randint(1, 3)
            w = tuple(rng.randint(1, size) for _ in range(rng.randint(1, 6)))
            spec = MonomialAlgebraSpec.of(Alphabet(size), [Word(w, Alphabet(size))])
            assert guibas_odlyzko_counts(w, size, 8) == count_words_direct(spec, 8), w

    def test_long_forbidden_words_against_oracle(self):
        rng = random.Random(1975)
        cases = [((1,) * 19 + (2,), 2), ((1, 2) * 10, 2), ((1,) * 20, 3)]
        for _ in range(20):
            size = rng.randint(2, 3)
            k = rng.randint(12, 20)
            cases.append((tuple(rng.randint(1, size) for _ in range(k)), size))
        for w, size in cases:
            spec = MonomialAlgebraSpec.of(Alphabet(size), [Word(w, Alphabet(size))])
            assert count_words(spec, 60) == guibas_odlyzko_counts(w, size, 60), w

    def test_growth_of_a_twenty_letter_word_is_fast(self):
        spec = _spec(["abbabaababbaababbaab"])
        start = time.perf_counter()
        values = growth_function(spec, 200)
        # a generous limit: the counting itself takes a few milliseconds
        assert time.perf_counter() - start < 1.0
        counts = guibas_odlyzko_counts(spec.forbidden[0].letters, 2, 200)
        assert values == list(itertools.accumulate(counts))


def _flip(w, i):
    ls = list(w.letters)
    ls[i] = 3 - ls[i]
    return Word(tuple(ls), A2)


class TestComplexity:
    def test_fibonacci_prefix(self):
        fib = iterate(fibonacci_morphism(), "a", 10)
        assert complexity_function(fib, 15) == list(range(2, 17))

    def test_periodic(self):
        assert complexity_function(parse_word("ababab"), 5) == [2, 2, 2, 2, 2]

    def test_balance(self):
        assert is_balanced(parse_word("aabb")) is False
        assert is_balanced(iterate(fibonacci_morphism(), "a", 9)) is True

    def test_balance_against_reference(self):
        # every binary word up to 14 letters is in test_balance_against_prefix_sums
        for alpha in (Fraction(89, 144), Fraction(1, 3), Fraction(2, 5), Fraction(7, 10)):
            for rho in (Fraction(0), Fraction(1, 2)):
                w = mechanical_word(alpha, rho, 60)
                assert is_balanced(w) == D.is_balanced(w.letters)
        fib = iterate(fibonacci_morphism(), "a", 9)
        for end in range(0, len(fib), 5):
            unbalanced = fib[0:end] + parse_word("bb")
            assert is_balanced(unbalanced) == D.is_balanced(unbalanced.letters)

    def test_balance_against_prefix_sums(self):
        for n in range(15):
            for ls in itertools.product((1, 2), repeat=n):
                w = Word(ls, A2)
                assert is_balanced(w) == D.is_balanced(w.letters), ls
        assert is_balanced(Word((1,), Alphabet(1))) and is_balanced(Word((1, 1, 1), Alphabet(1)))
        assert is_balanced(Word((1,), A2)) and is_balanced(Word((2,), A2))
        rng = random.Random(13)
        unbalanced = 0
        for _ in range(400):
            b = rng.randint(1, 60)
            alpha = Fraction(rng.randint(0, b), b)
            w = mechanical_word(alpha, Fraction(rng.randint(0, 7), 8), rng.randint(1, 300))
            assert is_balanced(w) and D.is_balanced(w.letters)
            flipped = _flip(w, rng.randrange(len(w)))
            assert is_balanced(flipped) == D.is_balanced(flipped.letters), (w, flipped)
            unbalanced += not is_balanced(flipped)
        assert unbalanced > 200  # the flips do exercise the False answer

    def test_balance_rejects_three_letters(self):
        with pytest.raises(ValueError):
            is_balanced(parse_word("abc"))

    def test_complexity_all_short_binary_words(self):
        for length in range(13):
            for ls in itertools.product((1, 2), repeat=length):
                w = Word(ls, A2)
                ref = D.factor_counts(w.letters, 14)
                for n in range(15):
                    assert complexity_function(w, n) == ref[:n], (ls, n)

    def test_complexity_edge_lengths(self):
        w = parse_word("abaababaab")
        assert complexity_function(w, 0) == [] == complexity_function(w, -3)
        assert complexity_function(Word((), A2), 3) == [0, 0, 0]
        assert complexity_function(w, 13) == D.factor_counts(w.letters, 13)
        assert complexity_function(w, 13)[10:] == [0, 0, 0]
        assert complexity_function(parse_word("aaaa"), 6) == [1, 1, 1, 1, 0, 0]

    @pytest.mark.parametrize("size", [255, 256, 300, 70_000])
    def test_complexity_wide_letters(self, size):
        # letters above 255 pack into two or three bytes
        rng = random.Random(size)
        alphabet = Alphabet(size)
        pool = [1, 2, size - 1, size] + [rng.randint(1, size) for _ in range(4)]
        w = Word(tuple(rng.choice(pool) for _ in range(120)), alphabet)
        for n in (1, 2, 5, 40, 120, 123):
            assert complexity_function(w, n) == D.factor_counts(w.letters, n)

    @given(
        st.integers(1, 5).flatmap(
            lambda l: st.lists(st.integers(1, l), max_size=60).map(lambda ls: (l, ls))
        ),
        st.integers(-2, 65),
    )
    def test_complexity_random_words(self, lw, n):
        w = Word(tuple(lw[1]), Alphabet(lw[0]))
        assert complexity_function(w, n) == D.factor_counts(w.letters, n)

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
    def test_parse(self):
        spec = parse_algebra_spec("2\nba\n")
        assert spec.alphabet.size == 2
        assert [str(w) for w in spec.forbidden] == ["ba"]
