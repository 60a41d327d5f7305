import itertools
from fractions import Fraction
from math import comb, factorial

import pytest

from wordlab.tableaux import (
    Tableau,
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


def reference_xi_genfun(n, k):
    """Gessel's determinant on ordinary power series with Fraction coefficients."""
    cap = 2 * n + 2

    def mul(a, b):
        out = [Fraction(0)] * (cap + 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                if i + j > cap:
                    break
                out[i + j] += ai * bj
        return out

    def bessel(i):
        out = [Fraction(0)] * (cap + 1)
        m = 0
        while 2 * m + i <= cap:
            out[2 * m + i] = Fraction(1, factorial(m) * factorial(m + i))
            m += 1
        return out

    def det(mat):
        if len(mat) == 1:
            return mat[0][0]
        out = [Fraction(0)] * (cap + 1)
        for j in range(len(mat)):
            minor = [[row[c] for c in range(len(mat)) if c != j] for row in mat[1:]]
            for idx, v in enumerate(mul(mat[0][j], det(minor))):
                out[idx] += v if j % 2 == 0 else -v
        return out

    value = det([[bessel(abs(i - j)) for j in range(k)] for i in range(k)])[2 * n]
    value *= factorial(n) ** 2
    assert value.denominator == 1
    return value.numerator


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
            assert len(p.rows) == longest_decreasing(pi)
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

    def test_injectivity(self):
        images = {rsk(pi) for pi in permutations_of(5)}
        assert len(images) == factorial(5)

    def test_inverse_rejects_bad_input(self):
        p, _ = rsk((2, 1, 3))
        q_other = Tableau(((1, 2, 3),))
        with pytest.raises(ValueError):
            rsk_inverse(p, q_other)
        with pytest.raises(ValueError):
            rsk_inverse(Tableau(((2, 1), (3,))), Tableau(((1, 2), (3,))))


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
    def test_genfun_matches_rational_reference(self, k):
        for n in range(0, 9):
            assert xi_count(n, k, "genfun") == reference_xi_genfun(n, k)

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

    def test_method_domain_errors(self):
        with pytest.raises(ValueError):
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
