import io
import itertools
import random
import time
from collections import Counter
from contextlib import redirect_stdout
from math import factorial
from types import SimpleNamespace

import definitions as D
import pytest
from hypothesis import given, settings, strategies as st

import wordlab.posets as po
from wordlab.cli import main
from wordlab.posets import (
    FinitePoset,
    _decreasing_reach,
    _dilworth,
    _max_matching,
    canonical_key,
    epsilon_bound,
    epsilon_table,
    max_antichain,
    max_antichain_bruteforce,
    min_chain_cover,
    non_injectivity_demo,
    pairs_isomorphic,
    parse_poset,
    permutation_poset,
)


def profile_multiset(p):
    """The sorted (down-set size, up-set size) profiles: equal for isomorphic posets."""
    return sorted(D.profiles(p))


def chain(n):
    return FinitePoset.from_relation(n, [(i, i + 1) for i in range(n - 1)])


def antichain(n):
    return FinitePoset.from_relation(n, [])


def random_poset(rng, max_size=12, density=0.3):
    n = rng.randrange(1, max_size + 1)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
    perm = list(range(n))
    rng.shuffle(perm)
    return FinitePoset.from_relation(n, [(perm[i], perm[j]) for i, j in pairs])


def reference_check_relation(n, rel):
    """The validity check the popcount-order check replaced: every pair,
    rows in index order."""
    if len(rel) != n:
        raise ValueError("relation size mismatch")
    for i in range(n):
        if rel[i] >> n:
            raise ValueError("relation bits outside range")
        if rel[i] & (1 << i):
            raise ValueError("relation not irreflexive")
    for i in range(n):
        row = rel[i]
        for j in range(n):
            if row >> j & 1:
                if rel[j] >> i & 1:
                    raise ValueError("relation not antisymmetric")
                if rel[j] & ~row:
                    raise ValueError("relation not transitive")


def reference_dilworth(p):
    """Kuhn's matching and the alternating reachability, one pair at a time."""
    n = p.size
    match_right = [-1] * n

    def augment(i, seen):
        for j in range(n):
            if p.less(i, j) and not seen[j]:
                seen[j] = True
                if match_right[j] < 0 or augment(match_right[j], seen):
                    match_right[j] = i
                    return True
        return False

    size = sum(augment(i, [False] * n) for i in range(n))
    match_left = [-1] * n
    for j, i in enumerate(match_right):
        if i >= 0:
            match_left[i] = j
    chains = []
    for start in range(n):
        if match_right[start] >= 0:
            continue
        chain = [start]
        while match_left[chain[-1]] >= 0:
            chain.append(match_left[chain[-1]])
        chains.append(tuple(chain))
    seen_left = [False] * n
    seen_right = [False] * n
    stack = [i for i in range(n) if match_left[i] < 0]
    for i in stack:
        seen_left[i] = True
    while stack:
        i = stack.pop()
        for j in range(n):
            if p.less(i, j) and not seen_right[j]:
                seen_right[j] = True
                k = match_right[j]
                if k >= 0 and not seen_left[k]:
                    seen_left[k] = True
                    stack.append(k)
    antichain = frozenset(x for x in range(n) if seen_left[x] and not seen_right[x])
    assert len(chains) == n - size == len(antichain)
    for a, b in itertools.combinations(antichain, 2):
        assert not p.comparable(a, b)
    return size, match_right, tuple(chains), antichain


def reference_max_antichain_bruteforce(p):
    """Grow antichains element by element, incomparability asked pair by pair."""
    n = p.size
    incomp = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and not p.comparable(i, j):
                incomp[i] |= 1 << j
    best = 0

    def grow(start, count, allowed):
        nonlocal best
        best = max(best, count)
        for j in range(start, n):
            if allowed >> j & 1:
                grow(j + 1, count + 1, allowed & incomp[j])

    grow(0, 0, (1 << n) - 1)
    return best


def recursive_max_matching(p):
    """Kuhn's matching with a recursive augment over the row bitmasks, the
    same visiting order as the explicit stack; it recurses once per step
    of an augmenting path."""
    n, above = p.size, p.above
    match_right = [-1] * n
    seen = 0

    def augment(i):
        nonlocal seen
        m = above[i] & ~seen
        while m:
            low = m & -m
            seen |= low
            j = low.bit_length() - 1
            k = match_right[j]
            if k < 0 or augment(k):
                match_right[j] = i
                return True
            m = above[i] & ~seen
        return False

    size = 0
    for i in range(n):
        seen = 0
        size += augment(i)
    return size, match_right


def brute_force_reach(seq):
    """reach[i] over every index subset: the largest strictly decreasing
    one whose first index is i."""
    reach = [0] * len(seq)
    for r in range(1, len(seq) + 1):
        for idx in itertools.combinations(range(len(seq)), r):
            if reach[idx[0]] < r and all(seq[a] > seq[b] for a, b in zip(idx, idx[1:])):
                reach[idx[0]] = r
    return reach


def assert_matches_reference(p):
    size, match_right, chains, antichain = reference_dilworth(p)
    assert _max_matching(p) == (size, match_right) == recursive_max_matching(p)
    assert _dilworth(p) == (chains, antichain)


class TestConstruction:
    def test_transitive_closure(self):
        p = FinitePoset.from_relation(3, [(0, 1), (1, 2)])
        assert p.less(0, 2)

    def test_closure_against_the_repeated_pass(self):
        # Warshall's one pass against the pass repeated until nothing
        # changes, on relations with cycles and self-pairs: the same rows,
        # so the same poset or the same error
        def reference_closure(n, pairs):
            rel = [0] * n
            for i, j in pairs:
                rel[i] |= 1 << j
            changed = True
            while changed:
                changed = False
                for i in range(n):
                    extra = 0
                    for j in range(n):
                        if rel[i] >> j & 1:
                            extra |= rel[j]
                    if extra & ~rel[i]:
                        rel[i] |= extra
                        changed = True
            return tuple(rel)

        def outcome(build):
            try:
                return build().above
            except ValueError as exc:
                return str(exc)

        rng = random.Random(1962)
        errors = 0
        for _ in range(2000):
            n = rng.randrange(0, 10)
            pairs = [(i, j) for i in range(n) for j in range(n) if rng.random() < rng.choice((0.05, 0.2, 0.4))]
            got = outcome(lambda: FinitePoset.from_relation(n, pairs))
            assert got == outcome(lambda: FinitePoset(n, reference_closure(n, pairs))), (n, pairs)
            errors += isinstance(got, str)
        assert 200 < errors < 1800

    def test_invalid_relations_rejected(self):
        with pytest.raises(ValueError):
            FinitePoset(2, (0b10, 0b01))  # a cycle
        with pytest.raises(ValueError):
            FinitePoset(2, (0b01, 0b00))  # reflexive loop

    @pytest.mark.parametrize(
        "size, above, message",
        [
            (3, (0b010, 0b100), "relation size mismatch"),
            (2, (0b110, 0b00), "relation bits outside range"),
            (2, (0b01, 0b00), "relation not irreflexive"),
            (2, (0b10, 0b01), "relation not antisymmetric"),
            (3, (0b010, 0b100, 0b000), "relation not transitive"),
        ],
    )
    def test_validation_messages(self, size, above, message):
        with pytest.raises(ValueError) as info:
            FinitePoset(size, above)
        assert str(info.value) == message

    def test_first_failing_check_is_reported(self):
        # 0 < 1 < 2 without 0 < 2 comes before the 1 <-> 3 cycle in row order
        with pytest.raises(ValueError, match="^relation not transitive$"):
            FinitePoset(4, (0b0010, 0b1100, 0b0000, 0b0010))
        # the 0 <-> 1 cycle comes before 0 < 2 < 3 without 0 < 3
        with pytest.raises(ValueError, match="^relation not antisymmetric$"):
            FinitePoset(4, (0b0110, 0b0001, 0b1000, 0b0000))
        # an out-of-range bit in a later row outranks an earlier cycle
        with pytest.raises(ValueError, match="^relation bits outside range$"):
            FinitePoset(2, (0b10, 0b101))

    def test_check_against_the_index_order_scan(self):
        # raw rows (with and without self-pairs) and closed rows with a
        # few bits flipped: the same relations accepted, the same message
        def outcome(check):
            try:
                check()
            except ValueError as exc:
                return str(exc)
            return "accepted"

        rng = random.Random(1950)
        tally = Counter()
        for _ in range(3000):
            kind = rng.randrange(3)
            density = rng.choice((0.05, 0.15, 0.3, 0.6))
            if kind < 2:
                n = rng.randrange(0, 13)
                rel = tuple(
                    sum(1 << j for j in range(n) if (kind or j != i) and rng.random() < density)
                    for i in range(n)
                )
            else:
                p = random_poset(rng, max_size=12, density=density)
                n, rows = p.size, list(p.above)
                for _ in range(rng.randrange(1, 3)):
                    i, j = rng.randrange(n), rng.randrange(n)
                    if i != j:
                        rows[i] ^= 1 << j
                rel = tuple(rows)
            got = outcome(lambda: FinitePoset(n, rel))
            assert got == outcome(lambda: reference_check_relation(n, rel)), (n, rel)
            if got == "accepted":
                assert FinitePoset(n, rel).above == rel
            tally[got] += 1
        assert set(tally) == {
            "accepted",
            "relation not irreflexive",
            "relation not antisymmetric",
            "relation not transitive",
        }
        assert min(tally.values()) > 100, tally

    def test_permutation_poset_on_three_thousand_points(self):
        # the check visits a few bits per row instead of every pair
        rng = random.Random(3001)
        pi = list(range(1, 3002))
        rng.shuffle(pi)
        start = time.perf_counter()
        p = permutation_poset(pi)
        assert time.perf_counter() - start < 1.0
        assert p.size == 3001

        class CountedRows(tuple):
            lookups = 0

            def __getitem__(self, i):
                CountedRows.lookups += 1
                return tuple.__getitem__(self, i)

        # four lookups per row outside the pair check, a few visited bits
        # per row inside it; every pair would be over two million
        assert FinitePoset(p.size, CountedRows(p.above)) == p
        assert CountedRows.lookups < 20 * p.size


class TestDilworth:
    def test_chain(self):
        assert max_antichain(chain(5))[0] == 1
        assert len(min_chain_cover(chain(5))) == 1

    def test_antichain(self):
        assert max_antichain(antichain(4))[0] == 4
        assert len(min_chain_cover(antichain(4))) == 4

    def test_random_posets_match_brute_force(self):
        rng = random.Random(2024)
        for _ in range(200):
            p = random_poset(rng)
            size, witness = max_antichain(p)
            assert size == max_antichain_bruteforce(p)
            assert len(witness) == size
            cover = min_chain_cover(p)
            assert len(cover) == size
            seen = sorted(x for c in cover for x in c)
            assert seen == list(range(p.size))
            for c in cover:
                for a, b in zip(c, c[1:]):
                    assert p.less(a, b)


class TestOneDecompositionPerPoset:
    def test_matching_runs_once_per_poset(self, monkeypatch):
        calls = []
        real = po._max_matching
        monkeypatch.setattr(po, "_max_matching", lambda p: calls.append(p) or real(p))
        rng = random.Random(1956)
        for k in range(100):
            p = random_poset(rng, max_size=20, density=rng.choice((0.1, 0.3)))
            first, second = (max_antichain, min_chain_cover)[:: 1 if k % 2 else -1]
            calls.clear()
            got = first(p), second(p), first(p), second(p)
            assert len(calls) == 1 and calls[0] is p
            fresh = FinitePoset(p.size, p.above)
            assert got == (first(fresh), second(fresh)) * 2

    def test_cached_decomposition_leaves_equality_hash_and_repr(self):
        rng = random.Random(1950)
        for _ in range(50):
            p = random_poset(rng, max_size=20)
            fresh = FinitePoset(p.size, p.above)
            min_chain_cover(p)
            assert "_decomposition" in p.__dict__ and "_decomposition" not in fresh.__dict__
            assert p == fresh and fresh == p
            assert hash(p) == hash(fresh) and repr(p) == repr(fresh)
            assert {fresh: 1}[p] == 1

    @pytest.mark.parametrize(
        "argv, stdout",
        [
            (
                ("posets", "--random", "200", "--size", "12", "--seed", "1"),
                "kind             checked  max_size  seed  ok\n"
                "random-dilworth  200      12        1     true\n",
            ),
            (
                ("posets", "--in", "{poset}"),
                "points  max_antichain  antichain  chains\n"
                "10      3              5,7,10     1,3,5,8;2,6,7;4,9,10\n",
            ),
        ],
    )
    def test_cli_bytes(self, argv, stdout, tmp_path):
        poset = tmp_path / "poset.txt"
        poset.write_text("10\n1 3\n2 3\n3 5\n4 5\n2 6\n6 7\n5 8\n7 8\n9 10\n4 9\n")
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = main([arg.format(poset=poset) for arg in argv])
        assert (code, buffer.getvalue()) == (0, stdout)


# posets of up to 8 points under a random relabeling: (poset, a second bijection)
relabeled_posets = st.integers(1, 8).flatmap(
    lambda n: st.tuples(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))),
        st.permutations(range(n)),
        st.permutations(range(n)),
    ).map(
        lambda case: (
            FinitePoset.from_relation(
                n, [(case[1][min(i, j)], case[1][max(i, j)]) for i, j in case[0] if i != j]
            ),
            case[2],
        )
    )
)


def disjoint_union(*parts):
    """The disjoint union of posets, each part's points after the last."""
    rows, offset = [], 0
    for part in parts:
        rows += [row << offset for row in part.above]
        offset += part.size
    return FinitePoset(offset, tuple(rows))


def relabelings_tried(p, monkeypatch):
    """canonical_key(p) and the number of relabelings it built."""
    tried = 0

    def counted_product(*iterables):
        nonlocal tried
        for assignment in itertools.product(*iterables):
            tried += 1
            yield assignment

    names = {k: v for k, v in vars(itertools).items() if not k.startswith("__")}
    monkeypatch.setattr(po, "itertools", SimpleNamespace(**{**names, "product": counted_product}))
    key = canonical_key(p)
    monkeypatch.undo()
    return key, tried


def reference_relabelings(p):
    """The number of bijections the reference tries: the product of the
    profile-class factorials."""
    tried = 1
    for size in Counter(profile_multiset(p)).values():
        tried *= factorial(size)
    return tried


class TestCanonicalKey:
    def test_same_key_on_every_permutation_poset_up_to_seven(self):
        for n in range(8):
            for pi in itertools.permutations(range(1, n + 1)):
                p = permutation_poset(pi)
                assert canonical_key(p) == D.least_relabeled_relation(p), pi

    # the reference tries every profile-respecting bijection: 8! on an antichain of 8
    @settings(deadline=None)
    @given(relabeled_posets)
    def test_same_key_on_random_posets(self, case):
        p, _ = case
        assert canonical_key(p) == D.least_relabeled_relation(p)

    @given(relabeled_posets)
    def test_key_is_invariant_under_relabeling(self, case):
        p, sigma = case
        assert canonical_key(FinitePoset(p.size, D.relabeled_rows(p.above, sigma))) == canonical_key(p)

    @pytest.mark.parametrize(
        "name, p, tried, reference_tried",
        [
            # all 8 points are twins: one class of twins, placed once
            ("antichain(8)", antichain(8), 1, 40320),
            # two profile classes of three points each, no twins: every bijection
            ("3 chains of 2", disjoint_union(chain(2), chain(2), chain(2)), 36, 36),
            ("2 chains of 3", disjoint_union(chain(3), chain(3)), 8, 8),
            # {a, b} < c and {d, e} < f: the class of a, b, d, e holds two
            # twin classes, 4!/(2!2!) arrangements, times the 2 of {c, f}
            ("two forks", FinitePoset.from_relation(6, [(0, 2), (1, 2), (3, 5), (4, 5)]), 12, 48),
            # the same with three points under each top: 6!/(3!3!) arrangements, times 2
            (
                "two fans of 3",
                FinitePoset.from_relation(8, [(0, 6), (1, 6), (2, 6), (3, 7), (4, 7), (5, 7)]),
                40,
                1440,
            ),
            # chains of 3, 5 and 7 points: every profile class is a singleton
            ("remark poset", non_injectivity_demo().poset, 1, 1),
        ],
    )
    def test_pinned_branches(self, name, p, tried, reference_tried, monkeypatch):
        assert relabelings_tried(p, monkeypatch) == (D.least_relabeled_relation(p), tried)
        assert reference_relabelings(p) == reference_tried

    @pytest.mark.parametrize("n", range(1, 7))
    def test_equal_keys_exactly_for_isomorphic_permutation_posets(self, n):
        # up to 5 points equal profile multisets already mean isomorphic;
        # 6 points add pairs that share one and are not isomorphic
        posets = [permutation_poset(pi) for pi in itertools.permutations(range(1, n + 1))]
        keys = [canonical_key(p) for p in posets]
        profiles = [profile_multiset(p) for p in posets]
        outcomes = set()
        for a, b in itertools.combinations(range(len(posets)), 2):
            if profiles[a] != profiles[b]:  # cannot be isomorphic
                assert keys[a] != keys[b]
                continue
            isomorphic = D.isomorphic(posets[a], posets[b])
            assert (keys[a] == keys[b]) == isomorphic, (a, b)
            outcomes.add(isomorphic)
        assert outcomes == {3: {True}, 4: {True}, 5: {True}, 6: {True, False}}.get(n, set())

    @pytest.mark.parametrize("n", range(1, 6))
    def test_epsilon_against_definitional_classes(self, n):
        # one representative per isomorphism class, found by trying every bijection
        classes = []  # (profile multiset, representative, width)
        for pi in itertools.permutations(range(1, n + 1)):
            p = permutation_poset(pi)
            profile = profile_multiset(p)
            if not any(
                profile == seen and D.isomorphic(p, rep) for seen, rep, _ in classes
            ):
                classes.append((profile, p, max_antichain_bruteforce(p)))
        table = {k: 0 for k in range(1, n + 1)}
        for _, _, width in classes:
            table[width] += 1
        assert epsilon_table(n) == table


class TestAgainstReference:
    def test_seeded_posets_up_to_forty_points(self):
        rng = random.Random(1950)
        for _ in range(2000):
            p = random_poset(rng, max_size=40, density=rng.choice((0.02, 0.08, 0.15, 0.3)))
            assert_matches_reference(p)

    @given(
        st.integers(1, 9).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))),
                st.permutations(range(n)),
            )
        )
    )
    def test_small_posets(self, case):
        n, pairs, perm = case
        p = FinitePoset.from_relation(
            n, [(perm[min(i, j)], perm[max(i, j)]) for i, j in pairs if i != j]
        )
        assert_matches_reference(p)
        assert max_antichain_bruteforce(p) == reference_max_antichain_bruteforce(p)

    def test_bruteforce_up_to_fourteen_points(self):
        rng = random.Random(1973)
        for _ in range(150):
            p = random_poset(rng, max_size=14, density=rng.choice((0.05, 0.15, 0.3)))
            assert max_antichain_bruteforce(p) == reference_max_antichain_bruteforce(p)


class TestPermutationPosets:
    def test_bridge_to_decreasing_subsequences(self):
        for n in range(1, 7):
            for pi in itertools.permutations(range(1, n + 1)):
                assert max_antichain(permutation_poset(pi))[0] == D.longest_decreasing(pi)

    def test_decreasing_reach_against_brute_force(self):
        # every sequence over three values, ties included, and every
        # permutation, up to length 7
        seqs = itertools.chain(
            (seq for n in range(8) for seq in itertools.product((1, 2, 3), repeat=n)),
            (pi for n in range(8) for pi in itertools.permutations(range(1, n + 1))),
        )
        for seq in seqs:
            assert _decreasing_reach(seq) == brute_force_reach(seq), seq

    def test_width_is_longest_decreasing_up_to_seven(self):
        for n in range(1, 8):
            for pi in itertools.permutations(range(1, n + 1)):
                assert max(_decreasing_reach(pi)) == max_antichain(permutation_poset(pi))[0], pi

    def test_matching_against_recursive_augment_on_larger_posets(self):
        # a few hundred points, small enough for the recursive augment
        rng = random.Random(1974)
        for n in (100, 200, 400):
            pi = list(range(1, n + 1))
            rng.shuffle(pi)
            p = permutation_poset(pi)
            assert _max_matching(p) == recursive_max_matching(p)

    def test_permutation_poset_rows_against_closure(self):
        # the direct rows against the pair list closed by from_relation
        for n in range(1, 8):
            for pi in itertools.permutations(range(1, n + 1)):
                pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if pi[i] < pi[j]]
                assert permutation_poset(pi) == FinitePoset.from_relation(n, pairs), pi

    @pytest.mark.parametrize("n", range(1, 8))
    def test_epsilon_against_every_permutation(self, n):
        assert epsilon_table(n) == D.epsilon_by_least_relation(n)

    def test_inverse_permutation_poset_is_isomorphic(self):
        # the property that lets epsilon_table skip a permutation whose inverse came first
        for n in range(1, 7):
            for pi in itertools.permutations(range(1, n + 1)):
                inverse = tuple(pi.index(v) + 1 for v in range(1, n + 1))
                assert canonical_key(permutation_poset(pi)) == canonical_key(
                    permutation_poset(inverse)
                ), pi

    def test_epsilon_seven(self):
        assert epsilon_table(7) == {1: 1, 2: 224, 3: 999, 4: 608, 5: 112, 6: 11, 7: 1}

    def test_epsilon_small_values(self):
        assert epsilon_table(2) == {1: 1, 2: 1}
        assert epsilon_table(3) == {1: 1, 2: 3, 3: 1}
        assert sum(epsilon_table(3).values()) == 5

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_epsilon_bounds(self, n):
        import math

        table = epsilon_table(n)
        labeled: dict[int, int] = {}
        seen = set()
        for pi in itertools.permutations(range(1, n + 1)):
            p = permutation_poset(pi)
            if p.above in seen:
                continue
            seen.add(p.above)
            k = max_antichain(p)[0]
            labeled[k] = labeled.get(k, 0) + 1
        for k, count in table.items():
            # exact rational comparison through cross multiplication
            assert count * math.factorial(k) ** 2 <= k ** (2 * n)
            assert count * math.factorial(n - k) ** 2 <= (n - k + 1) ** (2 * n)
            assert count <= epsilon_bound(n, k)
            assert count <= labeled.get(k, 0)


class TestRemarkDemo:
    def test_intersection_and_antichain(self):
        demo = non_injectivity_demo()
        assert demo.poset.size == 15
        assert max_antichain(demo.poset)[0] == 3
        assert max_antichain_bruteforce(demo.poset) == 3

    def test_pairs_not_isomorphic(self):
        demo = non_injectivity_demo()
        assert not pairs_isomorphic(demo.pair_one, demo.pair_two)
        assert pairs_isomorphic(demo.pair_one, demo.pair_one)
        assert pairs_isomorphic(demo.pair_one, demo.pair_one[::-1])

    def test_chain_profile(self):
        demo = non_injectivity_demo()
        cover = min_chain_cover(demo.poset)
        assert sorted(len(c) for c in cover) == [3, 5, 7]


class TestExchangeFormat:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("2\n1 3\n", "line 2: label 3 is outside 1..2"),
            ("2\n0 1\n", "line 2: label 0 is outside 1..2"),
            ("3\n\n1 2\n2 -1\n", "line 4: label -1 is outside 1..3"),
        ],
    )
    def test_labels_out_of_range(self, text, message):
        with pytest.raises(ValueError) as info:
            parse_poset(text)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2\n1 2 3\n", "line 2: extra field '3' after the pair"),
            ("2\n\n1\n", "line 3: pair '1' has no second label"),
            ("2\n1 x\n", "line 2: label 'x' is not an integer"),
            ("3\n1 2\n2.0 3\n", "line 3: label '2.0' is not an integer"),
            ("x\n1 2\n", "line 1: size 'x' is not an integer"),
            ("\n-1\n", "line 2: size -1 is negative"),
        ],
    )
    def test_malformed_lines_are_named(self, text, message):
        with pytest.raises(ValueError) as info:
            parse_poset(text)
        assert str(info.value) == message

    def test_labels_at_the_ends(self):
        assert parse_poset("3\n1 3\n").above == FinitePoset.from_relation(3, [(0, 2)]).above
