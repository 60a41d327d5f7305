import itertools
import random

import definitions as D
import pytest
from definitions import binary_and_ternary_words, corpus_book  # noqa: F401 (module fixtures)
from hypothesis import assume, given, strategies as st

from wordlab import divisibility
from wordlab.bounds import alpha_lower, beth_bound, psi_bound, psi_log2_bound
from wordlab.divisibility import (
    BudgetExceededError,
    ChainCapExceededError,
    CodingClass,
    DivisibilityWitness,
    IncomparableTailsError,
    ProcessResult,
    Sense,
    TailColoring,
    coding_corpus_check,
    dilworth_tail_coloring,
    essential_height,
    extract_periodic_fragments,
    is_n_divisible,
    is_n_light,
    is_nd_reducible,
    is_valid_process_sequence,
    large_selective_height,
    lower_bound_witness_edges,
    max_nonreducible_length,
    max_process_sequence_length,
    pad_to_power_of_two,
    primitive_cycle_classes,
    recode_pairs,
    selective_corpus_check,
    small_selective_height,
    snapshot_stability,
    validate_witness,
    word_height,
)
from wordlab.morphisms import thue_morse
from wordlab.posets import FinitePoset, max_antichain, min_chain_cover
from wordlab.tableaux import hook_count, partitions
from wordlab.words import (
    THETA,
    Alphabet,
    Cmp,
    Word,
    WordCycle,
    lex_compare_letters,
    parse_word,
)

A2 = Alphabet(2)
A3 = Alphabet(3)


def reference_tail_coloring(w, n_colors_cap, d=None):
    """Reference tail coloring: every pair of tails compared in
    combinations order, the relation built from the LESS pairs and
    covered with min_chain_cover."""
    L = len(w)
    limit = L // d if d else L
    positions = tuple(range(1, limit + 1))
    suffixes = {i: w.letters[i - 1 :] for i in positions}
    pairs = []
    for a, b in itertools.combinations(positions, 2):
        cmp = lex_compare_letters(suffixes[a], suffixes[b])
        if cmp is Cmp.INCOMPARABLE:
            raise IncomparableTailsError(f"tails at positions {a} and {b} are prefix-incomparable")
        if cmp is Cmp.LESS:
            pairs.append((a - 1, b - 1))
    chains = min_chain_cover(FinitePoset.from_relation(limit, pairs))
    if len(chains) > n_colors_cap:
        raise ChainCapExceededError(f"{len(chains)} chains exceed the cap of {n_colors_cap}")
    return TailColoring(w, positions, tuple(tuple(i + 1 for i in c) for c in chains))


def _coloring_or_error(coloring, w, d):
    try:
        return coloring(w, 10**6, d=d)
    except IncomparableTailsError as e:
        return str(e)


def planted_run_word(rng, length):
    """A word built from short powers and separators, so it holds many runs."""
    l = rng.randint(2, 3)
    ls = []
    while len(ls) < length:
        z = [rng.randint(1, l) for _ in range(rng.randint(1, 3))]
        ls += z * rng.randint(1, 6) + [rng.randint(1, l) for _ in range(rng.randint(0, 3))]
    return Word(tuple(ls[: rng.randint(length // 4, length)]), Alphabet(l))


def reference_head_chain(ls, chains, rank, t):
    """The head-table entry of ls's last length-t window, given the
    entries of all earlier windows: the window's rank among the heads
    and the most blocks of a strong division whose last block opens
    there; (-1, 0) when the window is not a head."""
    r = rank.get(ls[-t:], -1)
    if r < 0:
        return (-1, 0)
    # the block before opens with a larger head, at least t letters earlier
    earlier = chains[: max(len(chains) - t + 1, 0)]
    return (r, 1 + max((d for q, d in earlier if q > r), default=0))


def reference_corpus_walk(l, n, max_len, period_len, bound):
    """The corpus walk that selective_corpus_check replaced: depth-first
    over every scanned word, each node carrying its candidate runs and
    one head-table entry per window, and the height taken at every
    maximal scanned word.  It stays for the cells where `definitions.Corpus`,
    testing every child word for a division, takes seconds to minutes."""
    t = period_len
    letters = range(1, l + 1)
    heads = D.primitive_words(l, t)
    rank = {z: i for i, z in enumerate(heads)}
    boundary = 2 * n
    scanned = excluded = worst = 0
    strong = len(heads) >= n and n * t <= max_len
    stack = [((), (), ())]
    while stack:
        ls, runs, chains = stack.pop()
        k = len(ls)
        maximal = True
        for x in letters:
            child = ls + (x,)
            if strong and k + 1 >= t:
                entry = reference_head_chain(child, chains, rank, t)
                if entry[1] >= n:
                    excluded += sum(l**j for j in range(max_len - k))  # child and subtree
                    continue
                child_chains = chains + (entry,)
            else:
                child_chains = chains
            scanned += 1
            maximal = False
            start = k + 1 - t * (boundary + 1)  # of the one window that ends at the new letter
            run = D.candidate_runs(child[start:], t, boundary) if start >= 0 else []
            child_runs = runs + tuple((start + s, start + e, c) for s, e, c in run)
            if k + 1 < max_len:
                stack.append((child, child_runs, child_chains))
            elif child_runs:
                worst = max(worst, divisibility._selection_height(child_runs))
        if maximal and runs:
            worst = max(worst, divisibility._selection_height(runs))
    return dict(
        l=l, n=n, max_len=max_len, period_len=period_len, boundary=boundary,
        scanned=scanned, excluded=excluded, max_height=worst, bound=bound, ok=worst <= bound,
    )



# (l, n, max_len, period_len): every cell with l <= 3, n <= 4 and
# period_len <= 3, up to 10 letters (7 at l = 3); the sweep benchmark's
# ladder; and the two acceptance-suite cells
CORPUS_GRID = [
    (l, n, max_len, t)
    for l in (1, 2, 3)
    for n, t in itertools.product(range(1, 5), range(1, 4))
    for max_len in range(1, (10 if l < 3 else 7) + 1)
]
CORPUS_RUNGS = [
    (2, 3, 10, 2), (2, 3, 11, 2), (2, 3, 12, 2), (2, 3, 13, 2), (2, 3, 14, 2),
    (2, 3, 9, 3), (2, 3, 10, 3), (3, 3, 6, 2), (3, 3, 7, 2),
]
CORPUS_PINNED = [(2, 3, 14, 3), (3, 3, 9, 2)]
# strong cells and their heights, up to 4: with period 1, one run a^5,
# b^5, ... per letter in increasing order; with period 2 at l = 2,
# n = 2, none, as every (ab)^5 holds the head ba before the smaller ab
CORPUS_HIGH = [
    ((4, 2, 20, 1), 4), ((3, 2, 15, 1), 3), ((2, 2, 24, 1), 2), ((5, 2, 18, 1), 3),
    ((2, 2, 20, 2), 0),
]


def reference_coding_poset(c: CodingClass) -> FinitePoset:
    """The two-coordinate order as a relation: rotation u of cycle i below
    rotation v of cycle j when i < j and u < v."""
    items = [(i, rot) for i, cyc in enumerate(c.cycles) for rot in D.rotations(cyc.representative.letters)]
    pairs = [
        (a, b) for a, (ia, wa) in enumerate(items) for b, (ib, wb) in enumerate(items) if ia < ib and wa < wb
    ]
    return FinitePoset.from_relation(len(items), pairs)


def reference_class_width(c: CodingClass) -> int:
    """The width by a Dilworth matching on the whole relation, which the
    one patience pass of _class_width replaced."""
    return max_antichain(reference_coding_poset(c))[0] if c.cycles else 0


def coding_class(*words: Word) -> CodingClass:
    """The class of the cycles of the given words, all of one length."""
    return CodingClass(len(words[0]), words[0].alphabet, tuple(WordCycle.of(w) for w in words))


def seeded_coding_class(rng: random.Random) -> CodingClass:
    """Up to four pairwise non-conjugate cycles, often proper powers."""
    l, t = rng.choice((2, 3)), rng.choice((1, 2, 3, 4, 6))
    alphabet = Alphabet(l)
    cycles: dict[tuple[int, ...], WordCycle] = {}
    for _ in range(rng.randrange(1, 5)):
        p = rng.choice([p for p in range(1, t + 1) if t % p == 0])
        root = tuple(rng.randrange(1, l + 1) for _ in range(p))
        cyc = WordCycle.of(Word(root * (t // p), alphabet))
        cycles.setdefault(cyc.representative.letters, cyc)
    order = list(cycles.values())
    rng.shuffle(order)
    return CodingClass(t, alphabet, tuple(order))


def reference_coding_corpus_check(t_max: int, l: int, n_max: int) -> dict:
    """Every ordered class at every n in 2..n_max, each width by
    _class_width: the enumeration that the light-class search replaced."""
    alphabet = Alphabet(l)
    recode_checked = recode_light = 0
    pad_checked = pad_light = 0
    ok = True
    for t in range(1, t_max + 1):
        s = (t - 1).bit_length()
        cycles = primitive_cycle_classes(t, alphabet)
        for r in range(1, len(cycles) + 1):
            for combo in itertools.permutations(cycles, r):
                c = CodingClass(t, alphabet, combo)
                width = divisibility._class_width(c)
                recoded_width = divisibility._class_width(recode_pairs(c)) if t % 2 == 0 else None
                padded_width = divisibility._class_width(pad_to_power_of_two(c, s))
                for n in range(2, n_max + 1):
                    light = width < n
                    if recoded_width is not None:
                        recode_checked += 1
                        if light:
                            recode_light += 1
                            ok = ok and recoded_width < n
                    pad_checked += 1
                    if light:
                        pad_light += 1
                        ok = ok and padded_width < (1 << s) * (n - 1) + 1
    return dict(
        t_max=t_max, l=l, n_max=n_max, recode_checked=recode_checked, recode_light_cases=recode_light,
        pad_checked=pad_checked, pad_light_cases=pad_light, ok=ok,
    )


def reference_light_classes(t: int, alphabet: Alphabet, n_max: int):
    """The light-class search on its own explicit stack before the shared
    walker: a popped class yields all of its light children, then pushes them."""
    s = (t - 1).bit_length()
    every = CodingClass(t, alphabet, primitive_cycle_classes(t, alphabet))
    own = divisibility._cycle_keys(every)
    padded = divisibility._cycle_keys(pad_to_power_of_two(every, s))
    recoded = divisibility._cycle_keys(recode_pairs(every)) if t % 2 == 0 else None

    def width(keys, chosen):
        # the longest non-decreasing run of the class listing, from scratch:
        # run[i] is the longest one that ends at listed key i
        listing = [k for j in chosen for k in keys[j]]
        run = []
        for i, x in enumerate(listing):
            run.append(1 + max((run[j] for j in range(i) if listing[j] <= x), default=0))
        return max(run, default=0)

    stack = [()]
    while stack:
        chosen = stack.pop()
        for i in range(len(own)):
            if i in chosen:
                continue
            grown = chosen + (i,)
            grown_width = width(own, grown)
            if grown_width < n_max:
                yield grown, grown_width, width(padded, grown), width(recoded, grown) if recoded else None
                stack.append(grown)


def reference_process_sequence(p: int, k: int, budget: int = 2_000_000) -> ProcessResult:
    """Exact maximum sequence length, exhaustive over counter states: the
    memoised recursion, one Python frame per move, that the bottom-up DP
    replaced."""
    if p < 2 or k < 2:
        raise ValueError("need p >= 2 and k >= 2")
    if budget < 0:
        raise ValueError("budget must be non-negative")
    width = k - 1
    states = 0
    memo: dict[tuple[int, ...], tuple[int, int | None]] = {}

    def longest(state: tuple[int, ...]) -> tuple[int, int | None]:
        nonlocal states
        if state in memo:
            return memo[state]
        states += 1
        if states > budget:
            raise BudgetExceededError(f"process budget of {budget} states exhausted", states)
        best, move = 0, None
        for s in range(width, 0, -1):  # prefer the rightmost admissible position
            if state[s - 1] >= p - 1:
                continue
            nxt = state[: s - 1] + (state[s - 1] + 1,) + (0,) * (width - s)
            sub, _ = longest(nxt)
            if sub + 1 > best:
                best, move = sub + 1, s
        memo[state] = (best, move)
        return best, move

    start = (0,) * width
    length, _ = longest(start)
    witness = []
    state = start
    while True:
        _, move = memo[state]
        if move is None:
            break
        witness.append("0" * (move - 1) + "1" + "0" * (width - move))
        state = state[: move - 1] + (state[move - 1] + 1,) + (0,) * (width - move)
    assert len(witness) == length
    assert is_valid_process_sequence(witness, p)
    return ProcessResult(p, k, length, tuple(witness), states)


def reference_word_height(w, Y):
    """Reference DP: least r with w = y_1**k_1 ... y_r**k_r over Y."""
    ys = {y.letters for y in Y if len(y) > 0}
    ls = w.letters
    L = len(ls)
    INF = L + 1
    best = [INF] * (L + 1)
    best[0] = 0
    for i in range(L):
        if best[i] >= INF:
            continue
        for y in ys:
            pos = i
            while ls[pos : pos + len(y)] == y:
                pos += len(y)
                best[pos] = min(best[pos], best[i] + 1)
    return best[L] if best[L] < INF else None


def reference_essential_height(w, Y, pad, min_power):
    """Reference fixpoint: relax the fewest powers ending at each position
    until nothing changes, starting from powers that open within pad."""
    ys = {y.letters for y in Y if len(y) > 0}
    ls = w.letters
    L = len(ls)
    INF = L + 2
    if L <= pad:
        return 0
    after_power = [INF] * (L + 1)

    def mark(start, level):
        changed = False
        for y in ys:
            e = 0
            pos = start
            while ls[pos : pos + len(y)] == y:
                e += 1
                pos += len(y)
                if e >= min_power and level < after_power[pos]:
                    after_power[pos] = level
                    changed = True
        return changed

    for i in range(0, min(pad, L) + 1):
        mark(i, 1)
    changed = True
    while changed:
        changed = False
        for i in range(L + 1):
            h = after_power[i]
            if h >= INF:
                continue
            for start in range(i, min(i + pad, L) + 1):
                changed = mark(start, h + 1) or changed
    candidates = [
        after_power[i] for i in range(L + 1) if L - i <= pad and after_power[i] < INF
    ]
    return min(candidates) if candidates else None


class TestWitnesses:
    def test_ordinary_example(self):
        w = parse_word("cba")
        witness = is_n_divisible(w, 3, "ordinary")
        assert witness is not None and witness.render(w) == "c|b|a"

    def test_single_letter_words_never_divide(self):
        assert is_n_divisible(parse_word("aaaa"), 2, "ordinary") is None

    def test_tail_example(self):
        w = parse_word("baca")
        witness = is_n_divisible(w, 2, "tail")
        assert witness is not None
        validate_witness(w, witness)

    def test_strong_needs_z(self):
        with pytest.raises(ValueError):
            is_n_divisible(parse_word("ab"), 2, "strong")

    def test_strong_witness(self):
        w = parse_word("baab", A3)
        Z = [parse_word("ba", A3), parse_word("ab", A3)]
        witness = is_n_divisible(w, 2, "strong", Z=Z)
        assert witness is not None and witness.periods is not None
        validate_witness(w, witness)

    def test_strong_min_power(self):
        w = parse_word("babaabab", A3)
        Z = [parse_word("ba", A3), parse_word("ab", A3)]
        witness = is_n_divisible(w, 2, "strong", Z=Z, min_power=2)
        assert witness is not None
        validate_witness(w, witness, min_power=2)

    @pytest.mark.parametrize("min_power", [0, -1])
    def test_strong_min_power_below_one(self, min_power):
        Z = [parse_word("a"), parse_word("b")]
        with pytest.raises(ValueError, match="^min_power must be >= 1$"):
            is_n_divisible(parse_word("ab"), 1, "strong", Z=Z, min_power=min_power)
        # the ordinary and tail senses take no periods and ignore min_power
        assert is_n_divisible(parse_word("ba"), 2, min_power=min_power) is not None
        assert is_n_divisible(parse_word("ba"), 2, "tail", min_power=min_power) is not None

    def test_strong_search_against_reference(self):
        rng = random.Random(2014)
        found = 0
        for _ in range(2000):
            A = rng.choice((A2, A3))
            ls = tuple(rng.randint(1, A.size) for _ in range(rng.randint(1, 24)))
            periods = [Word(z, A) for t in (1, 2, 3) for z in D.primitive_words(A.size, t)]
            Z = tuple(rng.sample(periods, rng.randint(1, len(periods))))
            n, min_power = rng.randint(1, 4), rng.randint(1, 2)
            w = Word(ls, A)
            got = is_n_divisible(w, n, "strong", Z=Z, min_power=min_power)
            assert got == D.strong_witness(w, n, Z, min_power)
            found += got is not None
        assert found > 500

    @pytest.mark.parametrize("d", [0, -1])
    def test_d_must_be_positive(self, d):
        with pytest.raises(ValueError):
            is_n_divisible(parse_word("bacab"), 2, "tail", d=d)

    def test_witness_validation_rejects_bad_blocks(self):
        w = parse_word("cba")
        with pytest.raises(ValueError):
            validate_witness(w, DivisibilityWitness(Sense.ORDINARY, ((1, 1), (3, 3))))
        with pytest.raises(ValueError):
            validate_witness(w, DivisibilityWitness(Sense.ORDINARY, ((1, 1), (2, 2))))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_cross_check_naive_enumerators(self, n):
        # the yes/no answers: a division exists, and (n, d)-reducible is
        # divisible or holding a d-th power; the witnesses are compared
        # in TestBlockDivision and TestTailSense
        for length in range(1, 11):
            for ls in itertools.product((1, 2), repeat=length):
                w = Word(ls, A2)
                divisible = D.divisible(ls, n)
                assert (is_n_divisible(w, n) is not None) == divisible, ls
                for d in (2, 3):
                    assert is_nd_reducible(w, n, d) == (divisible or D.has_power(ls, d)), (ls, d)

    def test_witness_search_against_reference_dp(self):
        # Thue-Morse 2^7 at n = 10 catches a failed-state memo keyed
        # without the depth; the seeded words cover small alphabets
        tm = thue_morse(7)
        cases = [(tm, n) for n in (6, 10, 16)]
        rng = random.Random(2014)
        for _ in range(300):
            ls = tuple(rng.randint(1, 3) for _ in range(rng.randint(12, 24)))
            cases.append((Word(ls, A3), rng.randint(2, 5)))
        for w, n in cases:
            witness = is_n_divisible(w, n, "ordinary")
            assert witness == D.ordinary_witness(w.letters, n)
            assert is_nd_reducible(w, n, len(w) + 1) == (witness is not None)


PERIOD_SETS = {
    # every primitive period of length 1 and 2, and of length 1 to 3
    "t<=2": [z for t in (1, 2) for z in D.primitive_words(2, t)],
    "t<=3": [z for t in (1, 2, 3) for z in D.primitive_words(2, t)],
    # heads of mixed lengths out of order, one a prefix of another
    "mixed": [(1, 2), (2, 1), (2,), (1, 1, 2)],
}


class TestBlockDivision:
    """The one iterative block search against the least of every block
    division: the same witness, block for block, in both senses."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_ordinary_every_binary_word(self, n):
        for length in range(12):
            for ls in itertools.product((1, 2), repeat=length):
                assert is_n_divisible(Word(ls, A2), n) == D.ordinary_witness(ls, n), ls

    def test_ordinary_seeded_and_thue_morse(self):
        # Thue-Morse 2^7 at n = 10 catches a failed-state memo keyed without the depth
        tm = thue_morse(7)
        cases = [(tm, n) for n in (6, 10, 16)]
        rng = random.Random(1975)
        for _ in range(2000):
            ls = tuple(rng.randint(1, 3) for _ in range(rng.randint(12, 24)))
            cases.append((Word(ls, A3), rng.randint(2, 6)))
        found = 0
        for w, n in cases:
            got = is_n_divisible(w, n)
            assert got == D.ordinary_witness(w.letters, n), (w, n)
            found += got is not None
        assert 200 < found < len(cases) - 200  # both answers occur

    @given(st.lists(st.integers(1, 3), max_size=18), st.integers(1, 7))
    def test_ordinary_hypothesis(self, letters, n):
        ls = tuple(letters)
        assert is_n_divisible(Word(ls, A3), n) == D.ordinary_witness(ls, n)

    @pytest.mark.parametrize("periods", sorted(PERIOD_SETS))
    def test_strong_every_binary_word(self, periods):
        Z = [Word(z, A2) for z in PERIOD_SETS[periods]]
        for length in range(11):
            for ls in itertools.product((1, 2), repeat=length):
                w = Word(ls, A2)
                for n, min_power in itertools.product((1, 2, 3), (1, 2)):
                    got = is_n_divisible(w, n, "strong", Z=Z, min_power=min_power)
                    assert got == D.strong_witness(w, n, Z, min_power), (ls, n, min_power)

    @given(
        st.lists(st.integers(1, 3), max_size=16),
        st.lists(st.lists(st.integers(1, 3), min_size=1, max_size=3), min_size=1, max_size=6),
        st.integers(1, 4),
        st.integers(1, 2),
    )
    def test_strong_hypothesis(self, letters, periods, n, min_power):
        w = Word(tuple(letters), A3)
        Z = [Word(tuple(z), A3) for z in periods]
        got = is_n_divisible(w, n, "strong", Z=Z, min_power=min_power)
        assert got == D.strong_witness(w, n, Z, min_power)

    def test_strong_all_starts_against_one_start_a_call_seeded(self):
        # one call over every start, one memo for them all, against the
        # divisions listed one start at a call, the least from the first
        # start that has any
        rng = random.Random(2900)
        found = 0
        for _ in range(3000):
            A = rng.choice((A2, A3))
            ls = tuple(rng.randint(1, A.size) for _ in range(rng.randint(1, 28)))
            periods = [Word(z, A) for t in (1, 2, 3) for z in D.primitive_words(A.size, t)]
            Z = tuple(rng.sample(periods, rng.randint(1, len(periods))))
            n, min_power = rng.randint(1, 5), rng.randint(1, 2)
            w = Word(ls, A)
            got = is_n_divisible(w, n, "strong", Z=Z, min_power=min_power)
            assert got == D.strong_witness(w, n, Z, min_power), (ls, n, min_power)
            found += got is not None
        assert 500 < found < 2500  # both answers occur

    @given(
        st.lists(st.integers(1, 3), max_size=20),
        st.lists(st.lists(st.integers(1, 3), min_size=1, max_size=3), min_size=1, max_size=6),
        st.integers(1, 5),
        st.integers(1, 2),
    )
    def test_strong_all_starts_against_one_start_a_call_hypothesis(self, letters, periods, n, min_power):
        w = Word(tuple(letters), A3)
        Z = [Word(tuple(z), A3) for z in periods]
        got = is_n_divisible(w, n, "strong", Z=Z, min_power=min_power)
        assert got == D.strong_witness(w, n, Z, min_power)

    def test_deeper_than_the_recursion_limit(self):
        # one block per letter: 1,200 blocks, one Python frame each before
        ls = tuple(range(1200, 0, -1))
        w = Word(ls, Alphabet(1200))
        singles = tuple((i, i) for i in range(1, 1201))
        assert is_n_divisible(w, 1200).blocks == singles
        strong = is_n_divisible(w, 1200, "strong", Z=[Word((x,), w.alphabet) for x in ls])
        assert strong.blocks == singles
        assert [z.letters for z in strong.periods] == [(x,) for x in ls]
        assert is_n_divisible(w, 1201) is None

    def test_strong_with_heads_in_another_order(self):
        # the periods in increasing order, the word decreasing: each block
        # start finds its one head by its first letter
        w = parse_word("i:" + ",".join(str(x) for x in range(1200, 0, -1)))
        Z = [Word((x,), w.alphabet) for x in range(1, 1201)]
        strong = is_n_divisible(w, 1200, "strong", Z=Z)
        assert strong.blocks == tuple((i, i) for i in range(1, 1201))
        assert [z.letters for z in strong.periods] == [(x,) for x in w.letters]
        validate_witness(w, strong)


class TestTailSense:
    """The suffix-rank tail witness against the least of every chain of
    descending tails, the coloring against the pairwise reference, and
    the sentinel (prefix) case at scale."""

    def test_witness_against_reference_exhaustive(self, binary_and_ternary_words):
        for w in binary_and_ternary_words:
            for d in (None, 2, 3):
                for n in range(1, 6):
                    assert is_n_divisible(w, n, "tail", d=d) == D.tail_witness(w, n, d), (w, n, d)

    def test_witness_against_reference_seeded(self):
        rng = random.Random(1950)
        found = 0
        for _ in range(300):
            A = rng.choice((A2, A3))
            w = Word(tuple(rng.randint(1, A.size) for _ in range(rng.randint(10, 40))), A)
            for n in (2, 4, 8):
                got = is_n_divisible(w, n, "tail")
                assert got == D.tail_witness(w, n, None), (w, n)
                found += got is not None
        assert 100 < found < 900  # both answers occur

    @given(
        st.lists(st.integers(1, 3), max_size=16),
        st.integers(1, 6),
        st.sampled_from([None, 1, 2, 3]),
    )
    def test_witness_against_reference_hypothesis(self, letters, n, d):
        w = Word(tuple(letters), A3)
        assert is_n_divisible(w, n, "tail", d=d) == D.tail_witness(w, n, d)

    def test_suffix_ranks_against_the_tuple_sort(self):
        # the packed byte slices rank the closed suffixes as their letter
        # tuples do, with letters of one byte and of two (above 255)
        def reference_suffix_ranks(ls, limit):
            closed = ls + (max(ls, default=0) + 1,)
            order = sorted(range(limit), key=lambda i: closed[i:])
            return [order.index(i) + 1 for i in range(limit)]

        rng = random.Random(2014)
        for top in (1, 2, 3, 255, 256, 300, 70000):
            for _ in range(150):
                ls = tuple(rng.randint(max(top - 2, 1), top) for _ in range(rng.randint(0, 30)))
                for limit in {0, len(ls) // 2, len(ls)}:
                    assert divisibility._suffix_ranks(ls, limit) == reference_suffix_ranks(ls, limit), ls

    def test_coloring_against_reference_exhaustive(self, binary_and_ternary_words):
        for w in binary_and_ternary_words:
            for d in (None, 2):
                got = _coloring_or_error(dilworth_tail_coloring, w, d)
                assert got == _coloring_or_error(reference_tail_coloring, w, d), (w, d)

    def test_chain_count_is_longest_tail_division(self):
        # Dilworth / Greene: the chains of the tail poset number the
        # longest decreasing subsequence of the suffix ranks
        rng = random.Random(1974)
        checked = 0
        while checked < 60:
            d = rng.choice((None, 2))
            body = tuple(rng.randint(1, 2) for _ in range(rng.randint(8, 30)))
            w = Word(body + (3,) if d is None else body, A3)
            try:
                tc = dilworth_tail_coloring(w, 10**6, d=d)
            except IncomparableTailsError:
                continue
            checked += 1
            n = 0
            while is_n_divisible(w, n + 1, "tail", d=d) is not None:
                n += 1
            assert len(tc.chains) == n, (w, d)

    def test_prefix_tails_never_descend_at_scale(self):
        # (ba)^400: every tail at an even distance is a prefix of the one
        # before, so only "b..." over "a..." descends
        w = Word((2, 1) * 400, A2)
        assert is_n_divisible(w, 400, "tail") is None
        assert is_n_divisible(w, 2, "tail").blocks == ((1, 800), (2, 800))

    def test_long_ternary_word_witness(self):
        rng = random.Random(3000)
        w = Word(tuple(rng.randint(1, 3) for _ in range(3000)), A3)
        witness = is_n_divisible(w, 30, "tail")
        assert witness is not None and len(witness.blocks) == 30
        validate_witness(w, witness)


class TestReducibility:
    @pytest.mark.parametrize(
        "text,n,d,expected",
        [("abab", 3, 2, True), ("cba", 3, 2, True), ("aba", 2, 2, False)],
    )
    def test_examples(self, text, n, d, expected):
        assert is_nd_reducible(parse_word(text), n, d) is expected


def reference_max_nonreducible_length(n, d, l, budget=2_000_000, max_len=50):
    """The oracle's own explicit-stack walk before the shared walker:
    each entry is (word, next letter to try, the word's blocked letters)."""
    nodes = 0
    best_len = 0
    best_word = ()
    stack = [((), 1, set())]
    while stack:
        ls, next_letter, blocked = stack.pop()
        if next_letter > l:
            continue
        stack.append((ls, next_letter + 1, blocked))
        cand = ls + (next_letter,)
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(f"oracle budget of {budget} nodes exhausted at depth {len(cand)}", nodes)
        if next_letter in blocked or divisibility._block_division(cand, n) is not None:
            continue
        if len(cand) > best_len:
            best_len, best_word = len(cand), cand
        if len(cand) >= max_len:
            raise BudgetExceededError(
                f"non-reducible words reach the length guard of {max_len}; the language looks infinite", nodes
            )
        stack.append((cand, 1, divisibility._power_blockers(cand, d)))
    return best_len, Word(best_word, Alphabet(l)), nodes


def _oracle_outcome(search, *args, **kwargs):
    """(length, witness, nodes), or (error type, message, nodes)."""
    try:
        got = search(*args, **kwargs)
    except BudgetExceededError as err:
        return type(err), str(err), err.nodes
    return got if isinstance(got, tuple) else (got.length, got.witness, got.nodes)


class TestOracle:
    def test_square_free_binary(self):
        res = max_nonreducible_length(2, 2, 2)
        assert res.length == 3 and str(res.witness) == "aba"

    def test_single_letter(self):
        res = max_nonreducible_length(2, 3, 1)
        assert res.length == 2 and str(res.witness) == "aa"

    def test_three_divisibility(self):
        res = max_nonreducible_length(3, 2, 2)
        assert res.length == 3
        assert res.length < psi_bound(3, 2, 2)
        assert res.length < psi_log2_bound(3, 2, 2)

    def test_budget_is_loud(self):
        with pytest.raises(BudgetExceededError):
            max_nonreducible_length(3, 3, 2, budget=200)

    # the criterion-08 cells at budget 30,000: (length, witness, nodes), or
    # the node count at which the length guard of 50 letters raised
    CRITERION_08 = {
        (2, 2, 1): (1, "a", 2),
        (2, 2, 2): (3, "aba", 10),
        (2, 3, 1): (2, "aa", 3),
        (2, 3, 2): 80,
        (3, 2, 1): (1, "a", 2),
        (3, 2, 2): (3, "aba", 14),
        (3, 3, 1): (2, "aa", 3),
        (3, 3, 2): 80,
    }

    @pytest.mark.parametrize("budget", [50, 200, 30_000])
    def test_against_reference_walk(self, budget):
        for cell in itertools.product((2, 3, 4), (2, 3, 4), (1, 2, 3)):
            got = _oracle_outcome(max_nonreducible_length, *cell, budget=budget)
            assert got == _oracle_outcome(reference_max_nonreducible_length, *cell, budget=budget), cell

    @pytest.mark.parametrize("max_len", [3, 1])
    def test_length_guard_against_reference_walk(self, max_len, monkeypatch):
        monkeypatch.setattr(divisibility, "_LENGTH_GUARD", max_len)
        for cell in [(2, 2, 2), (2, 3, 2), (1, 2, 2), (3, 3, 1)]:
            got = _oracle_outcome(max_nonreducible_length, *cell)
            assert got == _oracle_outcome(reference_max_nonreducible_length, *cell, max_len=max_len), cell

    @pytest.mark.parametrize("cell", sorted(CRITERION_08))
    def test_criterion_08_cells_pinned(self, cell):
        expected = self.CRITERION_08[cell]
        if isinstance(expected, int):
            with pytest.raises(BudgetExceededError, match="length guard of 50") as info:
                max_nonreducible_length(*cell, budget=30_000)
            assert info.value.nodes == expected
        else:
            res = max_nonreducible_length(*cell, budget=30_000)
            assert (res.length, str(res.witness), res.nodes) == expected


class TestProcessSequences:
    @pytest.mark.parametrize(
        "p,k,expected", [(2, 2, 1), (2, 3, 3), (3, 2, 2), (2, 4, 7), (3, 3, 8), (3, 4, 26)]
    )
    def test_exact_maximum(self, p, k, expected):
        res = max_process_sequence_length(p, k)
        assert res.length == expected == p ** (k - 1) - 1
        assert is_valid_process_sequence(res.witness, p)

    def test_witness_example(self):
        assert max_process_sequence_length(2, 3).witness == ("01", "10", "01")

    @pytest.mark.parametrize("p,k,cap", [(2, 2, 3), (2, 3, 5), (3, 2, 4)])
    def test_against_naive_enumeration(self, p, k, cap):
        tokens = ["0" * (s - 1) + "1" + "0" * (k - 1 - s) for s in range(1, k)]
        best = 0
        for length in range(1, cap + 1):
            if any(
                is_valid_process_sequence(seq, p)
                for seq in itertools.product(tokens, repeat=length)
            ):
                best = length
        assert best == max_process_sequence_length(p, k).length

    @pytest.mark.parametrize("p,k", [(p, k) for p in (2, 3, 4, 5) for k in range(2, 9) if p ** (k - 1) <= 400])
    def test_against_recursive_reference(self, p, k):
        assert max_process_sequence_length(p, k) == reference_process_sequence(p, k)
        # the budget runs out on the same state
        for budget in (0, p ** (k - 1) - 1):
            with pytest.raises(BudgetExceededError) as got:
                max_process_sequence_length(p, k, budget)
            with pytest.raises(BudgetExceededError) as expected:
                reference_process_sequence(p, k, budget)
            assert (str(got.value), got.value.nodes) == (str(expected.value), expected.value.nodes)

    def test_longer_than_the_recursion_limit(self):
        # 1,023 moves; the memoised recursion went one frame deeper per move
        res = max_process_sequence_length(2, 11)
        assert (res.length, res.states) == (1023, 1024)
        assert is_valid_process_sequence(res.witness, 2)

    def test_longer_sequences_all_fail(self):
        tokens = ["01", "10"]
        for seq in itertools.product(tokens, repeat=4):
            assert not is_valid_process_sequence(seq, 2)


class TestTailColoring:
    def test_decreasing_word_needs_all_colors(self):
        tc = dilworth_tail_coloring(parse_word("cba"), 10)
        assert len(tc.chains) == 3

    def test_increasing_word_single_chain(self):
        tc = dilworth_tail_coloring(parse_word("abc"), 10)
        assert len(tc.chains) == 1

    def test_incomparable_tails_detected(self):
        with pytest.raises(IncomparableTailsError):
            dilworth_tail_coloring(parse_word("aba"), 10)

    def test_cap_enforced(self):
        with pytest.raises(ChainCapExceededError):
            dilworth_tail_coloring(parse_word("cba"), 2)

    def test_prefix_restriction(self):
        tc = dilworth_tail_coloring(parse_word("aba"), 10, d=2)
        assert tc.positions == (1,)

    @pytest.mark.parametrize("d", [0, -1])
    def test_d_must_be_positive(self, d):
        with pytest.raises(ValueError, match="d must be positive"):
            dilworth_tail_coloring(parse_word("bacab"), 10, d=d)

    def test_chain_count_is_maximum_antichain(self):
        rng = random.Random(99)
        checked = 0
        while checked < 40:
            length = rng.randrange(2, 11)
            ls = tuple(rng.randrange(1, 3) for _ in range(length))
            try:
                tc = dilworth_tail_coloring(Word(ls, A2), 100, d=2)
            except IncomparableTailsError:
                continue
            if len(tc.positions) < 2:
                continue
            checked += 1
            suffixes = {i: ls[i - 1 :] for i in tc.positions}
            best = 0
            for subset in itertools.chain.from_iterable(
                itertools.combinations(tc.positions, r)
                for r in range(1, len(tc.positions) + 1)
            ):
                if all(
                    lex_compare_letters(suffixes[a], suffixes[b]) is Cmp.GREATER
                    for a, b in itertools.combinations(subset, 2)
                ):
                    best = max(best, len(subset))
            assert len(tc.chains) == best

    def test_augmenting_paths_deeper_than_the_recursion_limit(self):
        # 3,000 seeded binary letters and a closing c: every tail is
        # comparable, and an augmenting path of the matching runs deeper
        # than Python's default recursion limit
        rng = random.Random(3)
        w = Word(tuple(rng.choice((1, 2)) for _ in range(3000)) + (3,), A3)
        tc = dilworth_tail_coloring(w, len(w))
        assert sorted(i for chain in tc.chains for i in chain) == list(range(1, 3002))
        for chain in tc.chains:
            for a, b in zip(chain, chain[1:]):
                assert a < b and w.letters[a - 1 :] < w.letters[b - 1 :]
        k = len(tc.chains)
        assert is_n_divisible(w, k, Sense.TAIL) is not None
        assert is_n_divisible(w, k + 1, Sense.TAIL) is None

    def test_chains_increase_in_position_and_order(self):
        tc = dilworth_tail_coloring(parse_word("cabcab", Alphabet(3)), 10, d=2)
        for chain in tc.chains:
            assert list(chain) == sorted(chain)
            suffixes = [tc.host.letters[i - 1 :] for i in chain]
            for a, b in zip(suffixes, suffixes[1:]):
                assert lex_compare_letters(a, b) is Cmp.LESS

    def test_larger_tail_posets_match_brute_force(self):
        # words over bigger alphabets rarely have prefix-entangled tails,
        # giving full 12-point tail posets
        rng = random.Random(17)
        checked = 0
        while checked < 25:
            length = rng.randrange(8, 13)
            l = rng.randrange(6, 11)
            ls = tuple(rng.randrange(1, l + 1) for _ in range(length))
            try:
                tc = dilworth_tail_coloring(Word(ls, Alphabet(l)), 100)
            except IncomparableTailsError:
                continue
            checked += 1
            suffixes = {i: ls[i - 1 :] for i in tc.positions}
            best = 0
            for subset in itertools.chain.from_iterable(
                itertools.combinations(tc.positions, r)
                for r in range(1, len(tc.positions) + 1)
            ):
                if all(
                    lex_compare_letters(suffixes[a], suffixes[b]) is Cmp.GREATER
                    for a, b in itertools.combinations(subset, 2)
                ):
                    best = max(best, len(subset))
            assert len(tc.chains) == best

    def test_snapshot_contains_theta_before_first_occurrence(self):
        tc = dilworth_tail_coloring(parse_word("cba"), 10)
        snap = tc.snapshot(2, tc.positions[0])
        assert snap.count(THETA) == len(tc.chains) - 1


class TestSnapshotStability:
    def test_counterexample_to_nondecreasing_reading(self):
        # finer truncations can only split runs: stability is nonincreasing,
        # and strictly drops on this word
        tc = dilworth_tail_coloring(parse_word("aab"), 10)
        assert snapshot_stability(tc, 1) == 2
        assert snapshot_stability(tc, 2) == 1

    def test_monotone_nonincreasing_and_main_inequality(self):
        rng = random.Random(7)
        checked = 0
        while checked < 100:
            length = rng.randrange(3, 13)
            l = rng.randrange(2, 4)
            ls = tuple(rng.randrange(1, l + 1) for _ in range(length))
            try:
                tc = dilworth_tail_coloring(Word(ls, Alphabet(l)), 100, d=2)
            except IncomparableTailsError:
                continue
            if len(tc.positions) < 2:
                continue
            checked += 1
            stab = {a: snapshot_stability(tc, a) for a in (1, 2, 3, 4, 6, 9)}
            for a, b in [(1, 2), (2, 3), (3, 4), (4, 6), (6, 9)]:
                assert stab[a] >= stab[b]
            colors = len(tc.chains)
            for a, k in [(1, 2), (1, 3), (2, 2), (3, 3)]:
                assert stab[a] <= colors**k * snapshot_stability(tc, k * a) + k * a


def reference_snapshot_stability(tc, p):
    """The longest run of equal `TailColoring.snapshot` tuples."""
    if not tc.positions:
        return 0
    best, run = 1, 1
    prev = tc.snapshot(p, tc.positions[0])
    for i in tc.positions[1:]:
        cur = tc.snapshot(p, i)
        run = run + 1 if cur == prev else 1
        best = max(best, run)
        prev = cur
    return best


def reference_snapshot(tc, p, i):
    """The per-chain max scan that TailColoring.snapshot replaced."""
    if i not in tc.positions:
        raise ValueError(f"position {i} outside the colored range")
    out = []
    for chain in tc.chains:
        latest = max((f for f in chain if f <= i), default=None)
        out.append(THETA if latest is None else tc.host[latest - 1 : latest - 1 + p])
    return tuple(out)


@st.composite
def hand_built_colorings(draw):
    # any positions and chains, not only Dilworth covers: unsorted chains,
    # repeats, starts past the word and positions no chain has reached
    ls = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=15)))
    starts = st.integers(1, len(ls) + 2)
    positions = tuple(draw(st.lists(starts, max_size=12)))
    chains = tuple(tuple(c) for c in draw(st.lists(st.lists(starts, max_size=6), max_size=4)))
    return TailColoring(Word(ls, A3), positions, chains)


class TestSnapshotStabilityReference:
    @given(hand_built_colorings(), st.integers(-2, 6))
    def test_hand_built_colorings(self, tc, p):
        assert snapshot_stability(tc, p) == reference_snapshot_stability(tc, p)

    @given(hand_built_colorings(), st.integers(-2, 6))
    def test_snapshot_on_hand_built_colorings(self, tc, p):
        for i in tc.positions:
            assert tc.snapshot(p, i) == reference_snapshot(tc, p, i)

    def test_snapshot_on_unsorted_chains(self):
        tc = TailColoring(parse_word("abcab", A3), (1, 2, 3, 4, 5), ((4, 1, 3), (5, 2), (3,)))
        for p in range(-1, 6):
            for i in tc.positions:
                assert tc.snapshot(p, i) == reference_snapshot(tc, p, i)
        assert tc.snapshot(2, 3) == (parse_word("ca", A3), parse_word("bc", A3), parse_word("ca", A3))
        assert tc.snapshot(1, 1) == (parse_word("a", A3), THETA, THETA)
        with pytest.raises(ValueError, match="outside the colored range"):
            tc.snapshot(1, 6)

    def test_snapshot_on_census_colorings(self):
        # a binary body and a fresh top letter, so every two tails compare
        rng = random.Random(26)
        for size in range(16, 40):
            ls = tuple(rng.randint(1, 2) for _ in range(size)) + (3,)
            tc = dilworth_tail_coloring(Word(ls, A3), len(ls))
            for p in (1, 2, 3, 7):
                for i in tc.positions:
                    assert tc.snapshot(p, i) == reference_snapshot(tc, p, i)

    @given(st.lists(st.integers(1, 3), min_size=1, max_size=30), st.sampled_from([None, 2]))
    def test_dilworth_colorings(self, lv, d):
        try:
            tc = dilworth_tail_coloring(Word(tuple(lv), A3), 100, d=d)
        except IncomparableTailsError:
            return
        for p in range(-1, 6):
            assert snapshot_stability(tc, p) == reference_snapshot_stability(tc, p)


class TestFragmentExtraction:
    def test_single_run(self):
        n = 2
        w = parse_word("ab") * (8 * n)
        dec = extract_periodic_fragments(w, n)
        assert len(dec.fragments) == 1
        assert dec.fragments[0].exponent == 8 * n
        assert tuple(f.pieces for f in dec.fragments) == (1,)
        assert len(dec.residues[-1]) == 0

    def test_no_fragment(self):
        w = parse_word("abc", A3)
        dec = extract_periodic_fragments(w, 2)
        assert dec.fragments == () and dec.reconstruct().letters == w.letters

    def test_merge_creates_two_pieces(self):
        w = (parse_word("ab", A3) * 4) + (parse_word("c", A3) * 8) + (parse_word("ab", A3) * 4)
        dec = extract_periodic_fragments(w, 2)
        assert [str(f.period) for f in dec.fragments] == ["c", "ab"]
        assert tuple(f.pieces for f in dec.fragments) == (1, 2)
        assert dec.reconstruct().letters == w.letters

    def test_exponent_floor_and_reconstruction(self):
        rng = random.Random(3)
        for _ in range(30):
            ls = tuple(rng.randrange(1, 3) for _ in range(rng.randrange(1, 40)))
            w = Word(ls, A2)
            dec = extract_periodic_fragments(w, 2)
            assert dec.reconstruct().letters == ls
            for frag in dec.fragments:
                assert frag.exponent >= 8

    def test_long_run_tallies(self):
        n = 2
        chunks = ["a", "b", "a", "b", "a", "b", "a", "b", "a"]
        w = parse_word(chunks[0], A3) * (4 * n)
        for z in chunks[1:]:
            w = w + parse_word("c", A3) + (parse_word(z, A3) * (4 * n))
        dec = extract_periodic_fragments(w, n)
        # the separators collapse into one final c**8 fragment of 8 pieces
        assert len(dec.fragments) == 10
        assert dec.fragments[-2].pieces == 8
        assert len(dec.residues[-1]) == 0
        for t in (1, 2):
            tally = dec.tally(t)
            assert tally.get(1, 0) + tally.get(2, 0) >= 2 * t
            assert sum(k * v for k, v in tally.items()) <= 10 * t


class TestSelectiveHeights:
    BOUNDARY = 6  # 2n with n = 3

    def test_two_distinct_classes(self):
        w = (parse_word("ab", A3) * 7) + parse_word("c", A3) + (parse_word("ac", A3) * 7)
        assert small_selective_height(w, 2, self.BOUNDARY) == 2

    def test_conjugate_classes_collapse(self):
        w = (parse_word("ab", A3) * 7) + parse_word("c", A3) + (parse_word("ba", A3) * 7)
        assert small_selective_height(w, 2, self.BOUNDARY) == 1

    def test_no_long_run(self):
        assert small_selective_height(parse_word("abab"), 2, self.BOUNDARY) == 0

    def test_large_homogeneous(self):
        assert large_selective_height(parse_word("ab") * 60, 2, self.BOUNDARY, gap_len=3) == 1

    def test_large_two_separated_runs(self):
        w = (parse_word("ab", A3) * 7) + (parse_word("c", A3) * 4) + (parse_word("ac", A3) * 7)
        assert large_selective_height(w, 2, self.BOUNDARY, gap_len=3) == 2

    def test_large_short_gap_blocks(self):
        w = (parse_word("ab", A3) * 7) + (parse_word("c", A3) * 2) + (parse_word("ac", A3) * 7)
        assert large_selective_height(w, 2, self.BOUNDARY, gap_len=3) == 1

    @pytest.mark.parametrize("period_len,boundary", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_large_against_reference_exhaustive(self, period_len, boundary, binary_and_ternary_words):
        for w in binary_and_ternary_words:
            for gap_len in (None, -1, 0, 1, 2):
                got = large_selective_height(w, period_len, boundary, gap_len)
                assert got == D.large_height(w, period_len, boundary, gap_len), (w, gap_len)

    def test_large_against_reference_seeded(self):
        # words built from short powers and separators hold many runs
        rng = random.Random(1982)
        found = 0
        for _ in range(1500):
            l = rng.randint(2, 3)
            ls = []
            while len(ls) < 40:
                z = [rng.randint(1, l) for _ in range(rng.randint(1, 3))]
                ls += z * rng.randint(1, 4) + [rng.randint(1, l) for _ in range(rng.randint(0, 3))]
            w = Word(tuple(ls[: rng.randint(16, 40)]), Alphabet(l))
            period_len, boundary = rng.randint(1, 3), rng.randint(1, 3)
            gap_len = rng.choice((None, 0, 1, 2, 3))
            got = large_selective_height(w, period_len, boundary, gap_len)
            assert got == D.large_height(w, period_len, boundary, gap_len), (w, gap_len)
            found += got >= 3
        assert found > 100

    @pytest.mark.parametrize("period_len,boundary", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)])
    def test_small_against_reference_exhaustive(self, period_len, boundary, binary_and_ternary_words):
        for w in binary_and_ternary_words:
            got = small_selective_height(w, period_len, boundary)
            assert got == D.small_height(w.letters, period_len, boundary), w

    def test_both_heights_against_references_on_planted_runs(self):
        rng = random.Random(1999)
        found = 0
        for _ in range(1500):
            w = planted_run_word(rng, 40)
            period_len, boundary = rng.randint(1, 3), rng.randint(1, 3)
            small = small_selective_height(w, period_len, boundary)
            assert small == D.small_height(w.letters, period_len, boundary), w
            gap_len = rng.choice((None, -1, 0, 1, 2, 3, 4, 5))
            large = large_selective_height(w, period_len, boundary, gap_len)
            assert large == D.large_height(w, period_len, boundary, gap_len), (w, gap_len)
            found += small >= 2 and large >= 3
        assert found > 50

    def test_blocks_hold_the_scanned_windows_and_runs(self, binary_and_ternary_words):
        # the small height's windows are every z**(boundary+1) window of a
        # block, and the large height's runs open at a block's first t
        # starts and take as many whole copies as fit before its end
        rng = random.Random(2017)
        for w in itertools.chain(binary_and_ternary_words, (planted_run_word(rng, 80) for _ in range(500))):
            for t, boundary in itertools.product((1, 2, 3), (1, 2)):
                size = t * (boundary + 1)
                blocks = divisibility._period_blocks(w.letters, t)
                windows = [(s, s + size) for start, end in blocks for s in range(start, end - size + 1)]
                runs = [
                    (s, s + (end - s) // t * t)
                    for start, end in blocks
                    for s in range(start, min(start + t, end - size + 1))
                ]
                assert windows == [c[:2] for c in D.candidate_runs(w.letters, t, boundary)], (w, t, boundary)
                assert runs == [r[:2] for r in D.maximal_runs(w.letters, t, boundary)], (w, t, boundary)

    def test_large_on_1500_classes(self):
        # 1,500 touching runs x^3 of distinct letters: a gap longer than
        # boundary // 2 = 1 skips one run, so every second run is selected
        letters = tuple(x for x in range(1, 1501) for _ in range(3))
        assert large_selective_height(Word(letters, Alphabet(1500)), 1, 2) == 750

    @pytest.mark.parametrize("period_len,boundary", [(0, 2), (2, 0), (-1, 2), (2, -1)])
    def test_heights_reject_bad_input(self, period_len, boundary):
        for height in (small_selective_height, large_selective_height):
            with pytest.raises(ValueError):
                height(parse_word("abab"), period_len, boundary)

    def test_large_on_400_runs(self):
        # (aabb)^200: 400 touching runs of period 1.  A gap longer than 0
        # skips one run and a gap longer than 2 two, so every second or
        # every third run is selected
        w = parse_word("aabb") * 200
        assert large_selective_height(w, 1, 1) == 200
        assert large_selective_height(w, 1, 1, gap_len=-1) == 200
        assert large_selective_height(w, 1, 1, gap_len=2) == 134

    def test_corpus_check_small_range(self):
        report = selective_corpus_check(2, 3, 10, 2, beth_bound("t2", 2, 3))
        assert report["ok"] and report["scanned"] > 0

    @pytest.mark.parametrize(
        "l,n,max_len,period_len",
        [
            (2, 2, 10, 2),
            (2, 2, 12, 3),
            (3, 2, 6, 2),
            (2, 1, 12, 2),
            (2, 2, 10, 1),
            (2, 3, 10, 3),
            (3, 3, 6, 2),
            # no division is possible: fewer heads than n, or n * t > max_len
            (2, 3, 10, 1),
            (3, 4, 6, 1),
            (2, 2, 3, 2),
            (3, 3, 5, 2),
            (1, 1, 8, 2),
        ],
    )
    def test_corpus_walk_against_reference(self, l, n, max_len, period_len, corpus_book):
        report = selective_corpus_check(l, n, max_len, period_len, 1)
        assert report == corpus_book.report(l, n, max_len, period_len, 1)

    @pytest.mark.parametrize(
        "l,n,max_len,period_len,report",
        [
            # criterion 12's period-3 cell and the l = 3 cell past the sweep ladder
            (2, 3, 14, 3, (16475, 16291, 0)),
            (3, 3, 9, 2, (21663, 7860, 0)),
        ],
    )
    def test_corpus_walk_pinned_reports(self, l, n, max_len, period_len, report):
        r = selective_corpus_check(l, n, max_len, period_len, 1)
        assert (r["scanned"], r["excluded"], r["max_height"]) == report

    def test_corpus_scanned_at_period_one_by_rsk(self):
        # at period 1 the heads are the letters, so a word is excluded
        # exactly when it holds a strictly decreasing subsequence of n
        # letters.  RSK for words pairs the words of length L whose
        # longest such subsequence is shorter than n with (semistandard
        # tableau over l letters, standard tableau) pairs of one shape with
        # fewer than n rows: f^shape * s_shape(1^l) of them
        for l, n, max_len in itertools.product(range(1, 6), range(1, 5), (1, 2, 5, 8, 11, 14)):
            expected = sum(
                hook_count(shape) * D.schur_at_ones(shape, l)
                for size in range(1, max_len + 1)
                for shape in partitions(size)
                if len(shape) < n
            )
            assert selective_corpus_check(l, n, max_len, 1, 1)["scanned"] == expected, (l, n, max_len)
        assert selective_corpus_check(5, 3, 12, 1, 1)["scanned"] == 10_664_446
        assert selective_corpus_check(4, 3, 14, 1, 1)["scanned"] == 11_071_486

    def test_head_step_against_strong_blocks_at_every_child(self):
        # each child of a scanned word, walked one word at a time with
        # its head state, is excluded by _head_step exactly when some
        # suffix of it has a strong division
        checked = divisible = 0
        for l, top in ((2, 10), (3, 7)):
            for n, t, max_len in itertools.product(range(1, 5), range(1, 4), range(1, top + 1)):
                heads = D.primitive_words(l, t)
                if len(heads) < n or n * t > max_len:
                    continue  # no division is possible, and the corpus check tests no child
                rank = {z: i for i, z in enumerate(heads)}
                stack = [((), ((), (), (0,) * len(heads)))]
                while stack:
                    ls, state = stack.pop()
                    for x in range(1, l + 1):
                        child = ls + (x,)
                        child_state = divisibility._head_step(state, x, rank, t, n)
                        if len(child) >= t:
                            divides = D.divisible(child, n, heads, range(len(child)))
                            assert (child_state is None) == divides, (child, n, t)
                            checked += 1
                            divisible += divides
                        if child_state is not None and len(child) < max_len:
                            stack.append((child, child_state))
        assert (checked, divisible) == (23283, 4797)

    def test_corpus_walk_measures_words_with_all_extensions_excluded(self, monkeypatch):
        # a head state that keeps every letter, with every word of length
        # >= 6 counted as divisible: the maximal scanned words are the 32
        # words of length 5, and aaaaa holds one z**5 fragment of period 1
        def step(state, x, rank, t, n):
            letters, pending, M = state
            return None if len(letters) >= 5 else (letters + (x,), pending, M)

        monkeypatch.setattr(divisibility, "_head_step", step)
        report = selective_corpus_check(2, 2, 8, 1, 1)
        assert (report["scanned"], report["excluded"], report["max_height"]) == (62, 448, 1)

    def test_corpus_check_against_the_replaced_walk(self):
        # the grid and the rungs are checked against every word below
        for cell in CORPUS_PINNED:
            assert selective_corpus_check(*cell, 3) == reference_corpus_walk(*cell, 3), cell

    @pytest.mark.parametrize("cell, height", CORPUS_HIGH)
    def test_corpus_heights_past_one_against_the_replaced_walk(self, cell, height):
        report = selective_corpus_check(*cell, 3)
        assert report == reference_corpus_walk(*cell, 3)
        assert report["max_height"] == height

    def test_corpus_height_needs_a_gap_between_runs(self, monkeypatch):
        # a head state that excludes every word holding ab, ba or ccc: the
        # runs a^5 and b^5 may not touch, and c is a gap letter but no run,
        # so height 2 first fits in a^5 c b^5, at 11 letters
        def step(state, x, rank, t, n):
            last, pending, M = state
            if last[-1:] + (x,) in ((1, 2), (2, 1)) or last + (x,) == (3, 3, 3):
                return None
            return (last + (x,))[-2:], pending, M

        monkeypatch.setattr(divisibility, "_head_step", step)
        heights = [selective_corpus_check(3, 2, max_len, 1, 2)["max_height"] for max_len in (10, 11)]
        assert heights == [1, 2]

    def test_corpus_height_counts_each_class_once(self, monkeypatch):
        # a head state that excludes every word holding c leaves one class
        # of period 2, {ab, ba}, against a cap of 3; (ab)^5 (ba)^5 holds
        # two runs of that one class
        def step(state, x, rank, t, n):
            return None if x == 3 else state

        monkeypatch.setattr(divisibility, "_head_step", step)
        assert selective_corpus_check(3, 2, 30, 2, 1)["max_height"] == 1

    def test_corpus_height_reaches_the_cap_where_nothing_divides(self):
        # with fewer than n heads or n * t > max_len every word is scanned,
        # so the height is the most runs of (2n + 1) * t letters that fit,
        # one class each
        reached = set()
        for l, t in itertools.product((1, 2, 3, 4), (1, 2, 3)):
            heads = len(D.primitive_words(l, t))
            classes = len(primitive_cycle_classes(t, Alphabet(l)))
            for n, max_len in itertools.product(range(1, 8), range(1, 61, 3)):
                if heads >= n and n * t <= max_len:
                    continue
                cap = min(classes, max_len // ((2 * n + 1) * t))
                report = selective_corpus_check(l, n, max_len, t, cap)
                assert (report["excluded"], report["max_height"]) == (0, cap), (l, n, max_len, t)
                reached.add(cap)
        assert reached == {0, 1, 2, 3, 4}

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_corpus_check_against_reference_on_the_grid(self, l, corpus_book):
        for cell in CORPUS_GRID:
            if cell[0] == l:
                assert selective_corpus_check(*cell, 3) == corpus_book.report(*cell, 3), cell

    def test_corpus_check_against_reference_on_the_rungs(self, corpus_book):
        # every word takes 1.5 to 2.5 s on each of the two acceptance-suite
        # cells, which are left to the replaced walk
        for cell in CORPUS_RUNGS:
            assert selective_corpus_check(*cell, 3) == corpus_book.report(*cell, 3), cell

    @pytest.mark.parametrize(
        "l,n,max_len,period_len",
        [(2, 0, 6, 2), (2, 3, 6, 0), (0, 3, 6, 2), (2, 3, 0, 2), (2, 3, -1, 2)],
    )
    def test_corpus_check_rejects_bad_input(self, l, n, max_len, period_len):
        with pytest.raises(ValueError):
            selective_corpus_check(l, n, max_len, period_len, 1)

    def test_selection_height_against_recursive_search(self):
        rng = random.Random(4300)
        for _ in range(4300):
            width = rng.randrange(1, 5)
            classes = [(x,) for x in range(rng.randrange(1, 7))]
            ends = sorted(rng.randrange(width, 40) for _ in range(rng.randrange(0, 14)))
            cands = [(e - width, e, rng.choice(classes)) for e in ends]
            assert divisibility._selection_height(cands) == D.selection_height(cands), cands

    def test_selection_height_past_the_recursion_limit(self):
        # 1,500 disjoint runs of 1,500 distinct classes: the recursive
        # search needed one frame per chosen run
        letters = tuple(x for x in range(1, 1501) for _ in range(3))
        assert small_selective_height(Word(letters, Alphabet(1500)), 1, 2) == 1500

    def test_large_bounded_by_small_relation(self):
        # the large height stays below 2(n-1) times the small-height
        # ceiling; spot-check on synthetic hosts with n = 3
        n = 3
        for w in [
            (parse_word("ab", A3) * 7) + (parse_word("c", A3) * 4) + (parse_word("ac", A3) * 7),
            parse_word("ab") * 60,
            (parse_word("ab", A3) * 7) + (parse_word("c", A3) * 4) + (parse_word("ba", A3) * 7),
        ]:
            large = large_selective_height(w, 2, 2 * n, gap_len=n)
            assert large < 2 * (n - 1) * beth_bound("t2", w.alphabet.size, n)


class TestCoding:
    def test_single_cycle_light_iff_n_exceeds_length(self):
        c = coding_class(parse_word("ab"))
        assert is_n_light(c, 3) and not is_n_light(c, 2)

    def test_empty_class_is_light(self):
        assert is_n_light(CodingClass(2, A2, ()), 1)

    def test_two_cycle_class(self):
        c = coding_class(parse_word("ab", A3), parse_word("ac", A3))
        # rotations ba and ca sit in one antichain with any cross pair
        assert not is_n_light(c, 2)
        assert is_n_light(c, 4)

    def test_recode_example(self):
        rec = recode_pairs(coding_class(parse_word("abab", A2)))
        assert rec.length == 2
        assert rec.cycles[0].representative.letters == (2, 2)

    def test_recode_needs_even_length(self):
        with pytest.raises(ValueError):
            recode_pairs(coding_class(parse_word("aab")))

    def test_pad_example(self):
        padded = pad_to_power_of_two(coding_class(parse_word("aab")), 2)
        assert padded.length == 4 and padded.alphabet.size == 3
        assert padded.cycles[0].representative.letters[0] == 1

    def test_pad_identity_when_length_matches(self):
        c = coding_class(parse_word("aaab"))
        assert pad_to_power_of_two(c, 2) is c

    def test_pad_too_small(self):
        with pytest.raises(ValueError):
            pad_to_power_of_two(coding_class(parse_word("aab")), 1)

    def test_corpus_transfers(self):
        report = coding_corpus_check(4, 2, 3)
        assert report == {
            "t_max": 4,
            "l": 2,
            "n_max": 3,
            "recode_checked": 32,
            "recode_light_cases": 1,
            "pad_checked": 48,
            "pad_light_cases": 8,
            "ok": True,
        }

    # every cell whose enumeration takes about a second at most; (3, 3, 2)
    # takes about 20 s and is left out
    @pytest.mark.parametrize(
        "t_max, l, n_max",
        [
            (1, 2, 2), (2, 2, 2), (3, 2, 3), (3, 2, 4), (4, 2, 2), (4, 2, 3), (4, 2, 5), (5, 2, 3),
            (2, 3, 4), (2, 4, 3), (1, 5, 4), (0, 2, 3), (3, 2, 1), (4, 2, 0), (2, 1, 3), (5, 1, 4),
        ],
    )
    def test_corpus_against_enumeration(self, t_max, l, n_max):
        assert coding_corpus_check(t_max, l, n_max) == reference_coding_corpus_check(t_max, l, n_max)

    def test_cycle_counts_against_duval(self):
        for l in range(1, 5):
            counts = list(itertools.islice(divisibility._primitive_cycle_counts(l), 8))
            assert counts == [len(primitive_cycle_classes(t, Alphabet(l))) for t in range(1, 9)], l

    LIGHT_CELLS = [
        (1, 3, 3), (1, 5, 4), (2, 3, 4), (2, 4, 3), (3, 2, 5), (4, 2, 6), (5, 2, 7), (6, 2, 7), (3, 3, 5), (4, 3, 5)
    ]

    @pytest.mark.parametrize("t, l, n_max", LIGHT_CELLS)
    def test_light_classes_against_reference_stack(self, t, l, n_max):
        # the walk is preorder and the reference's is not: the same classes, in another order
        got = list(divisibility._light_classes(t, Alphabet(l), n_max))
        expected = list(reference_light_classes(t, Alphabet(l), n_max))
        assert len(got) == len(expected) and set(got) == set(expected)

    @pytest.mark.parametrize("t, l, n_max", LIGHT_CELLS)
    def test_widths_on_every_visited_class(self, t, l, n_max):
        alphabet = Alphabet(l)
        s = (t - 1).bit_length()
        cycles = primitive_cycle_classes(t, alphabet)
        visited = {}
        for chosen, width, padded_width, recoded_width in divisibility._light_classes(t, alphabet, n_max):
            c = CodingClass(t, alphabet, tuple(cycles[i] for i in chosen))
            assert width == divisibility._class_width(c) < n_max, chosen
            assert padded_width == divisibility._class_width(pad_to_power_of_two(c, s)), chosen
            assert recoded_width == (divisibility._class_width(recode_pairs(c)) if t % 2 == 0 else None), chosen
            visited[chosen] = width
        assert visited
        if len(cycles) <= 6:
            # few enough cycles to list every ordered class: the search misses none
            every = {
                combo: divisibility._class_width(CodingClass(t, alphabet, tuple(cycles[i] for i in combo)))
                for r in range(1, len(cycles) + 1)
                for combo in itertools.permutations(range(len(cycles)), r)
            }
            assert visited == {combo: width for combo, width in every.items() if width < n_max}

    @given(st.integers(1, 3), st.integers(1, 5), st.data())
    def test_single_cycle_width_is_its_length(self, l, t, data):
        cycles = primitive_cycle_classes(t, Alphabet(l))
        assume(cycles)  # one letter has no primitive cycle past length 1
        cycle = data.draw(st.sampled_from(cycles))
        assert divisibility._class_width(CodingClass(t, Alphabet(l), (cycle,))) == t

    @given(st.integers(1, 3), st.integers(1, 5), st.data())
    def test_inserting_a_cycle_never_lowers_the_width(self, l, t, data):
        alphabet = Alphabet(l)
        cycles = primitive_cycle_classes(t, alphabet)
        assume(cycles)
        order = data.draw(st.permutations(cycles))
        kept = list(order[: data.draw(st.integers(0, len(order) - 1))])
        at = data.draw(st.integers(0, len(kept)))
        grown = kept[:at] + [order[len(kept)]] + kept[at:]
        before = divisibility._class_width(CodingClass(t, alphabet, tuple(kept)))
        assert divisibility._class_width(CodingClass(t, alphabet, tuple(grown))) >= before

    def test_budget_caps_the_light_classes(self, monkeypatch):
        # (6, 3, 7) has more light classes than a 5-minute search visits
        monkeypatch.setattr(divisibility, "_CODING_BUDGET", 1000)
        with pytest.raises(BudgetExceededError, match="coding budget of 1000 classes") as info:
            coding_corpus_check(6, 3, 7)
        assert info.value.nodes == 1001

    def test_totals_sum_over_a_bounded_number_of_cycles(self):
        # 7,710 primitive binary cycles of length 17, 14,532 of length 18
        assert coding_corpus_check(17, 2, 3)["ok"]
        with pytest.raises(ValueError, match="length 18 has 14532"):
            coding_corpus_check(10**9, 2, 3)
        with pytest.raises(ValueError, match="length 1 has 10000000"):
            coding_corpus_check(1, 10**7, 3)

    def test_light_image_does_not_imply_light_class(self):
        # the lemmas transfer lightness one way only, so the corpus check
        # tests only that direction
        recode_converse = pad_converse = 0
        for r in range(1, 4):
            for combo in itertools.permutations(primitive_cycle_classes(4, A2), r):
                c = CodingClass(4, A2, combo)
                for n in (2, 3):
                    if is_n_light(c, n):
                        continue
                    recode_converse += is_n_light(recode_pairs(c), n)
                    pad_converse += is_n_light(pad_to_power_of_two(c, 2), 4 * (n - 1) + 1)
        assert recode_converse > 0 and pad_converse > 0

    def test_width_against_matching_on_every_small_class(self):
        # every ordered class of at most four cycles, with its padded and
        # recoded images
        checked = 0
        for l, t_max in ((2, 5), (3, 3)):
            alphabet = Alphabet(l)
            for t in range(1, t_max + 1):
                s = (t - 1).bit_length()
                cycles = primitive_cycle_classes(t, alphabet)
                for r in range(1, min(4, len(cycles)) + 1):
                    for combo in itertools.permutations(cycles, r):
                        c = CodingClass(t, alphabet, combo)
                        images = [c, pad_to_power_of_two(c, s)] + ([recode_pairs(c)] if t % 2 == 0 else [])
                        for image in images:
                            assert divisibility._class_width(image) == reference_class_width(image), image
                            checked += 1
        empty = CodingClass(2, A2, ())
        assert divisibility._class_width(empty) == reference_class_width(empty) == 0
        assert checked > 5000

    def test_width_against_matching_with_non_primitive_cycles(self):
        rng = random.Random(2014)
        powers = 0
        for _ in range(3000):
            c = seeded_coding_class(rng)
            powers += any(cyc.period_length < c.length for cyc in c.cycles)
            assert divisibility._class_width(c) == reference_class_width(c), c
        assert powers > 1000

    def test_pad_nonvacuous_case(self):
        # a light class at t = 3 exists once n exceeds the cycle length
        c = coding_class(parse_word("aab"))
        n = 4
        assert is_n_light(c, n)
        padded = pad_to_power_of_two(c, 2)
        assert is_n_light(padded, 4 * (n - 1) + 1)


class TestHeights:
    def test_single_period(self):
        assert word_height(parse_word("ababab"), [parse_word("ab")]) == 1

    def test_unit_powers_allowed(self):
        base = [parse_word("ab"), parse_word("b", A2), parse_word("a", A2)]
        assert word_height(parse_word("abba"), base) == 3

    def test_no_factorization(self):
        assert word_height(parse_word("abba"), [parse_word("ab")]) is None

    def test_essential_with_padding(self):
        w = parse_word("ab", A3) + parse_word("cc", A3) + parse_word("ab", A3)
        assert essential_height(w, [parse_word("c", A3)], pad=2) == 1

    def test_essential_zero_when_padding_covers(self):
        assert essential_height(parse_word("ab"), [parse_word("a", A2)], pad=5) == 0

    def test_essential_unreachable(self):
        assert essential_height(parse_word("abcabc", A3), [parse_word("a", A3)], pad=1) is None

    def test_negative_pad_rejected(self):
        with pytest.raises(ValueError, match="pad"):
            essential_height(parse_word("abba"), [parse_word("a", A2)], pad=-1)

    def test_heights_against_reference(self):
        rng = random.Random(2024)
        found = 0
        for _ in range(4000):
            alphabet = Alphabet(rng.randint(1, 3))
            letters = alphabet.letters()

            def draw(length):
                return Word(tuple(rng.choice(letters) for _ in range(length)), alphabet)

            w = draw(rng.randint(0, 14))
            Y = [draw(rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
            pad = rng.randint(0, 3)
            min_power = rng.randint(1, 3)
            got = essential_height(w, Y, pad, min_power)
            assert got == reference_essential_height(w, Y, pad, min_power)
            assert word_height(w, Y) == reference_word_height(w, Y)
            found += got is not None and got > 0
        assert found > 500

    def test_essential_requires_square_powers(self):
        # one lone c is not a repeated period under min_power=2, and the
        # paddings cannot absorb a five-letter word
        w = parse_word("ab", A3) + parse_word("c", A3) + parse_word("ab", A3)
        assert essential_height(w, [parse_word("c", A3)], pad=2, min_power=2) is None
        assert essential_height(w, [parse_word("c", A3)], pad=2, min_power=1) == 1


class TestWitnessEdges:
    def test_minimal_case(self):
        assert lower_bound_witness_edges(4, 9) == ((2, 6),)

    def test_duplicate_freeness_and_count(self):
        edges = lower_bound_witness_edges(4, 12)
        assert len(edges) == len(set(edges)) == alpha_lower(4, 12) == 4

    def test_per_big_step_count(self):
        n, l = 5, 20
        edges = lower_bound_witness_edges(n, l)
        big_steps = l - 2 ** (n - 1)
        assert len(edges) == big_steps * (n - 2) * (n - 3) // 2

    def test_domain(self):
        with pytest.raises(ValueError):
            lower_bound_witness_edges(4, 8)
        with pytest.raises(ValueError):
            lower_bound_witness_edges(3, 100)


class TestCycleClasses:
    def test_primitive_cycle_census(self):
        assert [str(c.representative) for c in primitive_cycle_classes(2, A2)] == ["ab"]
        assert len(primitive_cycle_classes(4, A2)) == 3
        assert len(primitive_cycle_classes(3, A3)) == 8

    def test_against_rotation_filter(self):
        # every primitive word that is its own least rotation
        for t in range(1, 9):
            for l in range(1, 4):
                alphabet = Alphabet(l)
                expected = tuple(
                    WordCycle(Word(ls, alphabet), t) for ls in D.primitive_words(l, t) if D.least_rotation(ls) == ls
                )
                assert primitive_cycle_classes(t, alphabet) == expected, (t, l)

    @pytest.mark.parametrize("t", [0, -1])
    def test_positive_length_only(self, t):
        with pytest.raises(ValueError):
            primitive_cycle_classes(t, A2)

    @pytest.mark.parametrize("l,t", [(1, 1), (1, 3), (2, 6), (3, 4), (4, 3)])
    def test_one_class_per_primitive_rotation_set(self, l, t):
        alphabet = Alphabet(l)
        reps = sorted({D.least_rotation(ls) for ls in D.primitive_words(l, t)})
        classes = primitive_cycle_classes(t, alphabet)
        assert [c.representative.letters for c in classes] == reps
        assert all(c.period_length == t for c in classes)
