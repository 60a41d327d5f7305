import itertools
import random
from bisect import bisect_left, bisect_right
from math import comb, factorial

import definitions as D
import pytest
from definitions import decreasing_histograms  # noqa: F401 (module fixture)
from hypothesis import given, settings, strategies as st

from wordlab.tableaux import (
    _INTERNED,
    ENUMERATION_CAP,
    Tableau,
    _tableau,
    delta_bound,
    delta_count,
    hook_count,
    hook_lengths,
    longest_decreasing,
    longest_increasing,
    multilinear_word_count,
    partitions,
    permutations_of,
    rsk,
    rsk_inverse,
    schensted_insert,
    xi3_closed,
    xi_count,
)

CATALAN = [1, 2, 5, 14, 42, 132, 429, 1430]
# I(n), the involutions of n: RSK pairs them with the standard tableaux on n cells
INVOLUTIONS = [1, 1, 2, 4, 10, 26, 76, 232, 764, 2620]


@pytest.fixture
def fresh_interning():
    """rsk's interned tableaux cleared before and after the test."""
    _tableau.cache_clear()
    yield
    _tableau.cache_clear()


def reference_rsk(pi):
    """rsk without interning: a fresh Tableau pair on every call."""
    if sorted(pi) != list(range(1, len(pi) + 1)):
        raise ValueError("not a permutation of 1..n")
    if not pi:
        raise ValueError("empty permutation")
    p_rows = []
    q_rows = []
    for step, x in enumerate(pi, start=1):
        for r, row in enumerate(p_rows):
            c = bisect_right(row, x)
            if c == len(row):
                row.append(x)
                break
            x, row[c] = row[c], x
        else:
            r = len(p_rows)
            p_rows.append([x])
        if r == len(q_rows):
            q_rows.append([])
        q_rows[r].append(step)
    p, q = Tableau(p_rows), Tableau(q_rows)
    assert p.shape == q.shape and p.is_standard() and q.is_standard()
    return p, q


def reference_rsk_inverse(p, q):
    """rsk_inverse with landing rows from a dict and emptied rows removed."""
    if p.shape != q.shape:
        raise ValueError("shape mismatch")
    if not (p.is_standard() and q.is_standard()):
        raise ValueError("non-standard tableau")
    rows = [list(r) for r in p.rows]
    row_of = {entry: r for r, row in enumerate(q.rows) for entry in row}
    out = []
    for step in range(p.order, 0, -1):
        r = row_of[step]
        x = rows[r].pop()
        if not rows[r]:
            rows.pop(r)
        for rr in range(r - 1, -1, -1):
            row = rows[rr]
            c = bisect_left(row, x) - 1
            x, row[c] = row[c], x
        out.append(x)
    return tuple(reversed(out))


def reference_is_standard(t):
    """Standardness checked cell by cell."""
    entries = [x for row in t.rows for x in row]
    if sorted(entries) != list(range(1, len(entries) + 1)):
        return False
    for row in t.rows:
        if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
            return False
    for r in range(len(t.rows) - 1):
        lower = t.rows[r + 1]
        for c in range(len(lower)):
            if t.rows[r][c] >= lower[c]:
                return False
    return True


def mutations(t):
    """(kind, copy) pairs: copies of a standard tableau, each broken in one way."""
    rows = t.rows
    cells = {(r, c) for r, row in enumerate(rows) for c in range(len(row))}
    last = (len(rows) - 1, len(rows[-1]) - 1)

    def with_values(values):
        return Tableau(
            tuple(
                tuple(values.get((r, c), x) for c, x in enumerate(row))
                for r, row in enumerate(rows)
            )
        )

    if len(cells) > 1:
        yield "duplicate", with_values({last: rows[0][0]})
    yield "gap", with_values({last: len(cells) + 1})
    for r, c in sorted(cells):
        for kind, (r2, c2) in (("row", (r, c + 1)), ("column", (r + 1, c))):
            if (r2, c2) in cells:
                yield kind, with_values({(r, c): rows[r2][c2], (r2, c2): rows[r][c]})


def pile_tops(prefix):
    """Tops of the patience piles for decreasing subsequences, oldest pile first."""
    tops = []
    for x in prefix:
        below = [i for i, t in enumerate(tops) if t < x]
        if below:
            tops[below[0]] = x
        else:
            tops.append(x)
    return tops


def completions(prefix, rest, k):
    """Orderings of `rest` after `prefix` with no decreasing subsequence of length k+1."""
    return sum(
        D.longest_decreasing(tuple(prefix) + tail) <= k for tail in itertools.permutations(rest)
    )


class TestInsertion:
    def test_append_case(self):
        t, cell = schensted_insert(Tableau(((1, 2),)), 3)
        assert t.rows == ((1, 2, 3),) and cell == (1, 3)

    def test_bump_case(self):
        t, cell = schensted_insert(Tableau(((2,),)), 1)
        assert t.rows == ((1,), (2,)) and cell == (2, 1)

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            schensted_insert(Tableau(((1, 3),)), 3)

    def test_against_naive_insertion(self):
        def naive(rows, x):
            rows = [list(r) for r in rows]
            r = 0
            while True:
                if r == len(rows):
                    rows.append([x])
                    return rows
                bigger = [i for i, y in enumerate(rows[r]) if y > x]
                if not bigger:
                    rows[r].append(x)
                    return rows
                i = bigger[0]
                x, rows[r][i] = rows[r][i], x
                r += 1

        for pi in itertools.permutations(range(1, 6)):
            t = None
            rows = []
            for x in pi:
                t, _ = schensted_insert(t, x)
                rows = naive(rows, x)
            assert [list(r) for r in t.rows] == rows


class TestRSK:
    def test_identity(self):
        p, q = rsk((1, 2, 3))
        assert p.rows == q.rows == ((1, 2, 3),)

    def test_small_example(self):
        p, q = rsk((2, 1, 3))
        assert p.rows == ((1, 3), (2,))
        assert q.rows == ((1, 3), (2,))
        assert rsk_inverse(p, q) == (2, 1, 3)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_round_trip_and_laws(self, n):
        for pi in permutations_of(n):
            p, q = rsk(pi)
            assert p.shape == q.shape
            assert rsk_inverse(p, q) == pi
            assert len(p.rows) == longest_decreasing(pi) == D.longest_decreasing(pi)
            assert p.shape[0] == longest_increasing(pi)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_is_standard_against_reference(self, n):
        kinds = set()
        for pi in permutations_of(n):
            for t in rsk(pi):
                assert t.is_standard() and reference_is_standard(t)
                for kind, bad in mutations(t):
                    kinds.add(kind)
                    assert not bad.is_standard() and not reference_is_standard(bad)
        assert kinds == ({"gap"} if n == 1 else {"duplicate", "gap", "row", "column"})

    @pytest.mark.parametrize("n", range(1, 8))
    def test_round_trip_checks_each_tableau_once(self, n, monkeypatch, fresh_interning):
        # each distinct tableau is checked once per process, not once per call
        calls = []
        check = Tableau._check_standard

        def counted(t):
            calls.append(t.rows)
            return check(t)

        monkeypatch.setattr(Tableau, "_check_standard", counted)
        checks = []
        for _ in range(2):
            calls.clear()
            for pi in permutations_of(n):
                p, q = rsk(pi)
                assert rsk_inverse(p, q) == pi
                assert p.__dict__["_standard"] is True and q.__dict__["_standard"] is True
            checks.append(len(calls))
        assert checks == [INVOLUTIONS[n], 0]

    def test_interned_pairs_match_the_reference(self, fresh_interning):
        rng = random.Random(24)
        samples = [pi for n in range(1, 8) for pi in permutations_of(n)]
        for n in range(8, 13):
            for _ in range(300):
                samples.append(tuple(rng.sample(range(1, n + 1), n)))
        interned = set()
        for pi in samples:
            pair, ref = rsk(pi), reference_rsk(pi)
            for t, r in zip(pair, ref):
                fresh = Tableau(t.rows)
                assert t.rows == r.rows
                assert t == fresh and hash(t) == hash(fresh) and repr(t) == repr(fresh)
                if len(pi) <= ENUMERATION_CAP:
                    interned.add(t.rows)
            assert rsk_inverse(*pair) == reference_rsk_inverse(*ref) == pi
        # S_1..S_7 reach every tableau on up to 7 cells; those on more than
        # ENUMERATION_CAP cells are not interned
        assert len(interned) > sum(INVOLUTIONS[1:8])
        assert _tableau.cache_info().currsize == len(interned)

    def test_assertion_fails_on_every_call_reaching_a_bad_shape(
        self, monkeypatch, fresh_interning
    ):
        bad = (3, 1, 1)
        reaching = [pi for pi in permutations_of(5) if reference_rsk(pi)[0].shape == bad]
        check = Tableau._check_standard
        monkeypatch.setattr(Tableau, "_check_standard", lambda t: t.shape != bad and check(t))
        failed = []
        for _ in range(2):  # the second pass reads every tableau from the cache
            for pi in permutations_of(5):
                try:
                    p, _ = rsk(pi)
                except AssertionError:
                    failed.append(pi)
                else:
                    assert p.shape != bad
        assert failed == 2 * reaching and len(reaching) == hook_count(bad) ** 2
        assert _tableau.cache_info().misses == INVOLUTIONS[5]

    def test_interned_tableaux_never_exceed_the_cap(self, fresh_interning):
        # every tableau that rsk may intern fits at once
        assert sum(INVOLUTIONS[: ENUMERATION_CAP + 1]) - 1 <= _INTERNED
        assert _tableau.cache_info().maxsize == _INTERNED
        rng = random.Random(7)
        for n in range(1, 16):
            for pi in itertools.islice(permutations_of(n), 500):
                rsk(pi)
                assert _tableau.cache_info().currsize <= _INTERNED
            for _ in range(200):
                rsk(tuple(rng.sample(range(1, n + 1), n)))
            info = _tableau.cache_info()
            assert info.currsize <= _INTERNED and info.misses == info.currsize  # none evicted

    def test_injectivity(self):
        images = {rsk(pi) for pi in permutations_of(5)}
        assert len(images) == factorial(5)

    def test_inverse_rejects_bad_input(self):
        p, _ = rsk((2, 1, 3))
        q_other = Tableau(((1, 2, 3),))
        with pytest.raises(ValueError, match="^shape mismatch$"):
            rsk_inverse(p, q_other)
        with pytest.raises(ValueError, match="^non-standard tableau$"):
            rsk_inverse(Tableau(((2, 1), (3,))), Tableau(((1, 2), (3,))))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_inverse_rejects_every_mutation(self, n):
        for pi in permutations_of(n):
            p, q = rsk(pi)
            for _, bad in mutations(p):
                assert Tableau([list(r) for r in bad.rows]) == bad
                assert not bad.is_standard() and not bad.is_standard()
                with pytest.raises(ValueError, match="^non-standard tableau$"):
                    rsk_inverse(bad, q)
                with pytest.raises(ValueError, match="^non-standard tableau$"):
                    rsk_inverse(p, bad)


class TestTableauRows:
    def test_list_rows_become_tuples(self):
        t = Tableau([[1, 3], [2]])
        u = Tableau(((1, 3), (2,)))
        assert t.rows == u.rows == ((1, 3), (2,))
        assert type(t.rows) is tuple and all(type(r) is tuple for r in t.rows)
        assert t == u and hash(t) == hash(u)
        assert t.shape == u.shape == (2, 1) and t.order == 3
        assert t.is_standard() and u.is_standard()

    def test_tuple_of_lists_becomes_tuples(self):
        row = [1, 2]
        t = Tableau((row, [3]))
        row[0] = 5
        assert t.rows == ((1, 2), (3,)) and t.is_standard()

    def test_tuple_rows_are_kept(self):
        rows = ((1, 2), (3,))
        assert Tableau(rows).rows is rows

    @pytest.mark.parametrize("rows", [((1,), (2, 3)), ((),), ((1, 2), ()), ((1,), (), (2,))])
    def test_same_bad_shapes_rejected(self, rows):
        messages = []
        for built in (rows, [list(r) for r in rows]):
            with pytest.raises(ValueError) as info:
                Tableau(built)
            messages.append(str(info.value))
        assert messages == ["rows must be nonempty with weakly decreasing lengths"] * 2


class TestHooks:
    def test_single_row(self):
        assert hook_count((4,)) == 1

    def test_small_shapes(self):
        assert hook_count((2, 1)) == 2
        assert hook_lengths((2, 1)) == ((3, 1), (1,))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_square_sum_is_factorial(self, n):
        assert sum(hook_count(s) ** 2 for s in partitions(n)) == factorial(n)

    def test_hook_count_matches_enumeration(self):
        def fillings(shape):
            n = sum(shape)
            cells = [(r, c) for r, w in enumerate(shape) for c in range(w)]
            count = 0
            for perm in itertools.permutations(range(1, n + 1)):
                grid = {}
                for cell, v in zip(cells, perm):
                    grid[cell] = v
                ok = all(
                    grid[(r, c)] < grid[(r, c + 1)]
                    for r, w in enumerate(shape)
                    for c in range(w - 1)
                ) and all(
                    grid[(r, c)] < grid[(r + 1, c)]
                    for r, w in enumerate(shape[1:], start=0)
                    for c in range(shape[r + 1])
                )
                count += ok
            return count

        for shape in partitions(5):
            assert hook_count(shape) == fillings(shape)


class TestDelta:
    def test_one_row(self):
        for n in range(1, 8):
            assert delta_count(n, 1) == 1

    def test_example(self):
        assert delta_count(3, 2) == 3
        assert delta_count(3, 2) <= delta_bound(3, 2) == 8


class TestXi:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_catalan(self, n):
        assert xi_count(n, 2, "enumerate") == CATALAN[n - 1]

    def test_closed3_spot_values(self):
        assert xi3_closed(1) == 1
        assert xi3_closed(2) == 2

    @pytest.mark.parametrize("n", range(1, 9))
    def test_closed3_matches_tableaux(self, n):
        assert xi3_closed(n) == xi_count(n, 3, "tableaux")

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_three_way_agreement(self, n, k):
        a = xi_count(n, k, "enumerate")
        b = xi_count(n, k, "tableaux")
        c = xi_count(n, k, "genfun")
        assert a == b == c

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_genfun_matches_rational_reference(self, k, decreasing_histograms):
        # the determinant's coefficients against every permutation
        for n in range(0, 9):
            assert xi_count(n, k, "genfun") == D.xi(decreasing_histograms[n], k)

    def test_genfun_k4(self):
        for n in range(1, 9):
            assert xi_count(n, 4, "genfun") == xi_count(n, 4, "tableaux")

    def test_bound_in_the_stable_range(self):
        # census bound, exact by cross multiplication; the degenerate
        # cell k > n + 2 is covered by the acceptance report
        for k in (1, 2, 3, 4):
            for n in range(k, 9):
                assert xi_count(n, k, "tableaux") * factorial(k - 1) ** 2 <= k ** (2 * n)

    def test_no_constraint_when_k_at_least_n(self):
        for n in range(1, 7):
            assert xi_count(n, n, "tableaux") == factorial(n)

    @pytest.mark.parametrize("n", range(0, 9))
    def test_enumerate_matches_backtracking(self, n, decreasing_histograms):
        # every permutation of S_n, by its longest decreasing subsequence;
        # at n = 9 the enumeration is checked against the hook sums below
        for k in range(1, 10):
            assert xi_count(n, k, "enumerate") == D.xi(decreasing_histograms[n], k)

    @pytest.mark.parametrize("k", range(1, 10))
    def test_enumerate_matches_tableaux_at_nine(self, k):
        assert xi_count(9, k, "enumerate") == xi_count(9, k, "tableaux")

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 7).flatmap(lambda n: st.permutations(range(1, n + 1))),
        st.integers(0, 7),
        st.integers(1, 8),
    )
    def test_prefixes_with_one_state_have_equal_completions(self, perm, cut, k):
        # the enumeration's merged state: unused values (u) and pile tops
        # (t) in increasing value order, buried values dropped
        prefix, rest = perm[:cut], perm[cut:]
        tops = pile_tops(prefix)
        kept = sorted(tops + rest)
        state = "".join("t" if x in tops else "u" for x in kept)
        # the shortest prefix with that state: its tops, largest first
        rank = {x: i + 1 for i, x in enumerate(kept)}
        small = sorted((rank[x] for x in tops), reverse=True)
        assert pile_tops(small) == small
        assert "".join("t" if r in small else "u" for r in range(1, len(kept) + 1)) == state
        assert completions(small, [rank[x] for x in rest], k) == completions(prefix, rest, k)

    def test_method_domain_errors(self):
        with pytest.raises(ValueError, match="^enumeration capped at n = 9$"):
            xi_count(10, 2, "enumerate")
        with pytest.raises(ValueError):
            xi_count(4, 2, "closed3")
        with pytest.raises(ValueError):
            xi_count(9, 4, "genfun")


class TestMultilinear:
    def test_full_alphabet(self):
        assert multilinear_word_count(4, 4, 2) == 14

    def test_single_letter_words(self):
        assert multilinear_word_count(5, 1, 3) == 5

    def test_unconstrained_when_k_large(self):
        assert multilinear_word_count(5, 3, 5) == comb(5, 3) * factorial(3)

    def test_bound(self):
        for l in range(1, 6):
            for n in range(1, l + 1):
                for k in (2, 3):
                    value = multilinear_word_count(l, n, k)
                    assert value * factorial(n) * factorial(l - n) * factorial(
                        k - 1
                    ) ** 2 <= factorial(l) * k ** (2 * n)

    def test_too_long_rejected(self):
        with pytest.raises(ValueError):
            multilinear_word_count(3, 4, 2)


class TestBridgeToPosets:
    def test_antichain_equals_rows(self):
        from wordlab.posets import max_antichain, permutation_poset

        for n in range(1, 7):
            for pi in permutations_of(n):
                p, _ = rsk(pi)
                assert max_antichain(permutation_poset(pi))[0] == len(p.rows)
